"""Moments of the comb measures: exact recurrences, an independent
quadrature oracle, and the explicit discrepancy bounds.

Two measurement routes exist on purpose.  The recurrence route integrates by
parts per piece, reading Phi and G at piece endpoints only; the oracle route
samples the integrand inside pieces by composite Gauss-Legendre (32 nodes per
panel, panels at most 1/4 wide), so the two share only the Gaussian density.
Bound checks below the double rounding floor (the Fourier certificates) go
through the compensated double-double kernel in ddcore.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ddcore import comb_gaussian_moments, comb_moment_discrepancies, gaussian_moment
from .errors import MassartForgeError, MomentRangeError
from .hardpair import (
    HardPair,
    PiecewiseGaussianMeasure,
    comb_delta,
    phi_mass,
    gaussian_pdf,
)

__all__ = [
    "K_MAX",
    "gaussian_moment",
    "measure_moment",
    "quadrature_moment",
    "absolute_moment",
    "MomentReport",
    "moment_discrepancy_report",
    "FourierBoundCertificate",
    "fourier_discrepancy_bound",
    "fourier_certificate_check",
    "scaling_law_points",
    "ChiSquare",
    "chi_square_vs_gaussian",
    "comb_gaussian_moments",
    "comb_moment_discrepancies",
]

K_MAX = 64
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _piece_moment_table(a: np.ndarray, b: np.ndarray, t: int, m0: np.ndarray) -> np.ndarray:
    """M_j(a_i, b_i) for j = 0..t, vectorised over pieces: the integral of
    x^j G(x) over [a_i, b_i] by the integration-by-parts recurrence

        M_j = (j-1) M_{j-2} + a^{j-1} G(a) - b^{j-1} G(b),
        M_0 = Phi(b) - Phi(a),  M_1 = G(a) - G(b),

    with M_0 passed in as m0.
    """
    ga, gb = gaussian_pdf(a), gaussian_pdf(b)
    table = np.empty((t + 1, len(a)))
    table[0] = m0
    if t >= 1:
        table[1] = ga - gb
    apow = np.ones_like(a)
    bpow = np.ones_like(b)
    for j in range(2, t + 1):
        apow = apow * a
        bpow = bpow * b
        table[j] = (j - 1) * table[j - 2] + apow * ga - bpow * gb
    return table


def measure_moment(measure: PiecewiseGaussianMeasure, t: int) -> float:
    """E X^t under the normalised measure, assembled per piece.

    Shifted pieces expand (x - h)^t binomially over truncated moments of
    the shifted interval; per-piece terms are combined with exact
    compensated summation.
    """
    if not (0 <= t <= K_MAX):
        raise MomentRangeError(f"t = {t} outside [0, k_max = {K_MAX}]")
    a_s = measure.a + measure.shift
    b_s = measure.b + measure.shift
    table = _piece_moment_table(a_s, b_s, t, measure.phi_masses)
    if not np.all(np.isfinite(table)):
        raise MomentRangeError(f"intermediate overflow computing moment t = {t}")
    terms: list[float] = []
    for i in range(len(measure.a)):
        s = measure.scale[i]
        h = measure.shift[i]
        if h == 0.0:
            terms.append(s * table[t, i])
        else:
            for j in range(t + 1):
                terms.append(s * math.comb(t, j) * (-h) ** (t - j) * table[j, i])
    total = math.fsum(terms)
    if not math.isfinite(total):
        raise MomentRangeError(f"moment t = {t} overflowed the double range")
    return total / measure.z


def _composite_gauss_legendre(integrand, a: np.ndarray, b: np.ndarray) -> float:
    """Sum over pieces i of the integral of integrand(x, i) on [a_i, b_i]: equal
    panels at most 1/4 wide, 32 nodes each, called on one (panel, node) array
    with i as (panel, 1); panels add per piece, pieces by math.fsum."""
    panels = np.maximum(np.ceil(4.0 * (b - a)), 1.0).astype(np.intp)
    piece = np.repeat(np.arange(len(a)), panels)
    k = np.arange(len(piece)) - np.repeat(np.cumsum(panels) - panels, panels)
    half = ((b - a) / (2.0 * panels))[piece]
    x = (a[piece] + (2 * k + 1) * half)[:, None] + half[:, None] * _GL_NODES
    per_panel = half * (integrand(x, piece[:, None]) @ _GL_WEIGHTS)
    return math.fsum(np.bincount(piece, weights=per_panel, minlength=len(a)).tolist())


def _density_quadrature(measure: PiecewiseGaussianMeasure, f) -> float:
    """Composite Gauss-Legendre of f(x) against the normalised density."""
    s, h = measure.scale, measure.shift
    return _composite_gauss_legendre(
        lambda x, i: f(x) * s[i] * gaussian_pdf(x + h[i]) / measure.z, measure.a, measure.b
    )


def quadrature_moment(measure: PiecewiseGaussianMeasure, t: int) -> float:
    """Independent oracle: composite Gauss-Legendre of x^t against the density."""
    return _density_quadrature(measure, lambda x: x**t)


def absolute_moment(measure: PiecewiseGaussianMeasure, t: int) -> float:
    """E|X|^t by the same quadrature: the scale both moment routes round on."""
    return _density_quadrature(measure, lambda x: np.abs(x) ** t)


@dataclass(frozen=True)
class FourierBoundCertificate:
    """Explicit certified bound on |E G^t - E comb^t| for the box profile:

        total = 2 * t! * (2 delta / pi)^t * sum_{n >= 1} exp(-(pi n / delta)^2 / 2)

    series_terms hold the per-n bounds t! (2 delta/pi)^t exp(-(pi n/delta)^2/2),
    truncated once terms fall below 1e-30 relative; total = 2 * sum(terms).
    log_total carries the bound in log space for orders where t! overflows.
    """

    t: int
    delta: float
    series_terms: tuple[float, ...]
    total: float
    log_total: float


def fourier_discrepancy_bound(t: int, delta: float) -> FourierBoundCertificate:
    if t < 0:
        raise MomentRangeError(f"t = {t} must be nonnegative")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta = {delta} must lie in (0, 1)")
    log_pref = math.lgamma(t + 1) + t * math.log(2.0 * delta / math.pi)
    exps = []
    n = 1
    while True:
        e = -0.5 * (math.pi * n / delta) ** 2
        exps.append(e)
        if e - exps[0] < -69.0:  # relative 1e-30 cutoff
            break
        n += 1
    series_sum = math.fsum(math.exp(e) for e in exps)
    log_total = math.log(2.0) + log_pref + math.log(series_sum)
    try:
        pref = math.exp(log_pref)
        terms = tuple(pref * math.exp(e) for e in exps)
        total = 2.0 * math.fsum(terms)
    except OverflowError:
        terms = ()
        total = math.inf
    return FourierBoundCertificate(
        t=t, delta=delta, series_terms=terms, total=total, log_total=log_total
    )


def fourier_certificate_check(
    delta: float, eps: float, t_max: int = 8
) -> list[tuple[int, float, float, bool]]:
    """Measured comb discrepancies (double-double) against the certificates.

    Returns (t, measured, bound, measured <= bound) per order.
    """
    measured = comb_moment_discrepancies(delta, eps, t_max)
    out = []
    for t in range(t_max + 1):
        bound = fourier_discrepancy_bound(t, delta).total
        out.append((t, measured[t], bound, measured[t] <= bound))
    return out


def scaling_law_points(zeta: float, d_values: list[int], t: int) -> list[tuple[float, float]]:
    """(1/delta^2, measured normalised discrepancy at order t) per d.

    Kept for acceptance criterion 3, which fits the decay's log-linear slope.
    Measured in double-double so the decay stays visible far below the
    double rounding floor; epsilon is set to delta/10.
    """
    pts = []
    for d in d_values:
        delta = comb_delta(zeta, d)
        eps = 0.1 * delta
        disc = comb_moment_discrepancies(delta, eps, t, normalized=True)[t]
        pts.append((1.0 / delta**2, disc))
    return pts


@dataclass(frozen=True)
class ChiSquare:
    closed_form: float
    quadrature: float


def chi_square_vs_gaussian(measure: PiecewiseGaussianMeasure) -> ChiSquare:
    """chi^2(measure, N(0,1)) two ways.

    Closed form per piece: the ratio G(x+h)^2/G(x) integrates to
    exp(h^2) * [Phi(b+2h) - Phi(a+2h)], so

        chi^2 = (1/Z^2) * sum_i s_i^2 exp(h_i^2) (Phi(b_i+2h_i) - Phi(a_i+2h_i)) - 1.

    For an unshifted measure this collapses to s/Z - 1.  The quadrature
    value integrates density^2 / G numerically per piece (independent route).
    """
    z, s, h = measure.z, measure.scale, measure.shift
    closed_terms = (
        np.square(s) * np.exp(np.square(h)) * phi_mass(measure.a + 2.0 * h, measure.b + 2.0 * h)
    )
    closed = math.fsum(closed_terms.tolist()) / z**2 - 1.0

    def ratio(x, i):
        g = gaussian_pdf(x)  # both densities underflow together far in the tail
        return np.square(s[i] * gaussian_pdf(x + h[i]) / z) / np.where(g == 0.0, 1.0, g)

    quadrature = _composite_gauss_legendre(ratio, measure.a, measure.b) - 1.0
    return ChiSquare(closed_form=closed, quadrature=quadrature)


@dataclass(frozen=True)
class MomentReport:
    """Moments of A, B and the Gaussian up to order k, with the explicit
    shift bound 4 eps (2 + 8 sqrt(log(1/zeta)))^t per order."""

    k: int
    moments_A: tuple[float, ...]
    moments_B: tuple[float, ...]
    moments_gaussian: tuple[float, ...]
    discrepancy_A: tuple[float, ...]
    discrepancy_B: tuple[float, ...]
    bound_AB: tuple[float, ...]
    fourier_bounds: tuple[float, ...]


def moment_discrepancy_report(pair: HardPair, k: int) -> MomentReport:
    """Moments up to order k plus every explicit bound, checked on the way out.

    Raises if |E B^t - E A^t| ever exceeds the shift bound beyond 1e-12
    arithmetic slack; that bound is fully explicit and must hold.
    """
    if k > K_MAX:
        raise MomentRangeError(f"k = {k} exceeds k_max = {K_MAX}")
    cfg = pair.config
    base = 2.0 + 8.0 * math.sqrt(math.log(1.0 / cfg.zeta))
    ma, mb, mg, da, db, bnd, fb = [], [], [], [], [], [], []
    for t in range(k + 1):
        ea = measure_moment(pair.A, t)
        eb = measure_moment(pair.B, t)
        eg = gaussian_moment(t)
        ma.append(ea)
        mb.append(eb)
        mg.append(eg)
        da.append(abs(ea - eg))
        db.append(abs(eb - eg))
        bound = 4.0 * cfg.epsilon * base**t
        bnd.append(bound)
        fb.append(fourier_discrepancy_bound(t, cfg.delta).total)
        slack = 1e-12 * max(1.0, abs(ea), abs(eb))
        if abs(eb - ea) > bound + slack:
            raise MassartForgeError(
                f"shift bound violated at t = {t}: |E B^t - E A^t| = "
                f"{abs(eb - ea):.6e} > {bound:.6e}"
            )
    return MomentReport(
        k=k,
        moments_A=tuple(ma),
        moments_B=tuple(mb),
        moments_gaussian=tuple(mg),
        discrepancy_A=tuple(da),
        discrepancy_B=tuple(db),
        bound_AB=tuple(bnd),
        fourier_bounds=tuple(fb),
    )

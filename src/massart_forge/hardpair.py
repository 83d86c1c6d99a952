"""One-dimensional hard measure pair: periodic Gaussian combs A and B.

A places density (delta/(2*eps)) * G(x) on the intervals
[n*delta - eps, n*delta + eps]; B relabels the central pieces (|n| <= d)
to [n*delta - 5*eps, n*delta - 3*eps] carrying the density shifted by
4*eps, and keeps the outer pieces of A untouched.  Both are normalised by
the same constant Z, the total comb mass.  J1 holds the central pieces of
A, J2 the central pieces of B.

Numerics use numpy alone.  The Gaussian CDF Phi is exp(-t^2/2) times a
rational approximation from the generated table ``_phi_table``, relative
error below 4 * 2^-52 where the package calls it; ``sample`` inverts Phi
within a piece by Newton's method from a per-measure table of endpoint
values, to within 2^-49 (1 + |x|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _phi_table
from .errors import (
    ConfigValidationError,
    DeltaBoundError,
    DimensionBoundError,
    EpsilonBoundError,
)

__all__ = [
    "phi_mass",
    "comb_delta",
    "HardPairConfig",
    "IntervalUnion",
    "PiecewiseGaussianMeasure",
    "HardPair",
    "build_hard_pair",
    "total_mass",
    "mass_in",
    "cdf",
    "sample",
    "density_curve",
]


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def gaussian_pdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


_T_MAX = 40.0  # Phi(-40) = 3.7e-350 underflows to 0; also maps +-inf here


def _horner(coeffs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    """The polynomial with coefficients highest power first, at one allocation."""
    out = coeffs[0] * x
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= x
        out += c
    return out


def _mills(t: np.ndarray) -> np.ndarray:
    """R(t) = exp(t^2/2) Phi(-t) for a 1-d array t >= 0, from the rational
    fits in ``_phi_table`` (relative error < 2e-17 before rounding)."""
    r = _horner(_phi_table.NEAR_P, t)
    r /= _horner(_phi_table.NEAR_Q, t)
    far = t >= _phi_table.SPLIT
    if far.any():
        tf = t[far]
        w = 1.0 / (tf * tf)
        r[far] = _horner(_phi_table.FAR_P, w) / (_horner(_phi_table.FAR_Q, w) * tf)
    return r


def _exp_half_square(t: np.ndarray) -> np.ndarray:
    """exp(-t^2/2) without the error of rounding t^2: with h = t rounded to
    a multiple of 1/64, h^2/2 is exact and the rest, r (h + r/2) with
    r = t - h, is at most |t|/128 in size."""
    h = np.rint(t * 64.0) / 64.0
    rest = t - h
    return np.exp(-0.5 * h * h) * np.exp(-rest * (h + 0.5 * rest))


def _gaussian_cdf(x) -> np.ndarray:
    """The standard Gaussian CDF Phi, vectorised, numpy only.

    Phi(-t) = exp(-t^2/2) R(t) for t = |x|, and Phi(x) = 1 - Phi(-x) for
    x > 0.  The relative error is below 4 * 2^-52 (8 ulp) for x <= 0
    wherever Phi(x) is a normal double (x >= -37.5), and below 2 * 2^-52
    for x > 0: measured against mpmath at 50 digits on a dense grid and on
    every piece endpoint of the tested constructions (tests/test_hardpair.py).
    After mirroring, phi_mass calls it at x <= 0 except on pieces that
    straddle 0.
    """
    x = np.asarray(x, dtype=float)
    t = np.minimum(np.abs(x), _T_MAX).reshape(-1)
    lower = _exp_half_square(t) * _mills(t)
    return np.where(x.reshape(-1) > 0.0, 1.0 - lower, lower).reshape(x.shape)


def phi_mass(a, b):
    """Phi(b) - Phi(a) for a <= b, accurate in both tails.

    Intervals entirely in the right tail are mirrored so the difference is
    formed between small same-scale numbers instead of two values near 1.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    right = a >= 0.0
    hi, lo = _gaussian_cdf(np.stack([np.where(right, -a, b), np.where(right, -b, a)]))
    return hi - lo


def comb_delta(zeta: float, d: int) -> float:
    """The comb period delta = 4 sqrt(log(1/zeta))/d."""
    return 4.0 * math.sqrt(math.log(1.0 / zeta)) / d


def _piece_index(starts: np.ndarray, ends: np.ndarray, x) -> np.ndarray:
    """Index of the sorted closed piece [starts_i, ends_i] holding each x, or -1."""
    x = np.asarray(x, dtype=float)
    idx = np.searchsorted(starts, x, side="right") - 1
    ok = idx >= 0
    safe = np.clip(idx, 0, len(starts) - 1)
    ok &= x <= ends[safe]
    return np.where(ok, safe, -1)


@dataclass(frozen=True)
class HardPairConfig:
    """Parameters of the construction; delta is derived, not chosen.

    zeta: target fraction of mass allowed off J1 (and off J2), in (0, 1/2).
    d: number of positive central periods; J1 and J2 each get 2d+1 intervals.
    epsilon: half-width of each comb interval; must satisfy epsilon < delta/8.
    """

    zeta: float
    d: int
    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.zeta < 0.5):
            raise ConfigValidationError("0 < zeta < 1/2", f"zeta = {self.zeta}")
        if int(self.d) != self.d or self.d < 2:
            raise DimensionBoundError(f"d = {self.d}, need an integer >= 2")
        delta = self.delta
        if not (delta < 1.0):
            raise DeltaBoundError(
                f"delta = 4*sqrt(log(1/zeta))/d = {delta:.6g} >= 1 at --zeta {self.zeta}, "
                f"--d {self.d}; increase --d or --zeta"
            )
        if not (0.0 < self.epsilon < delta / 8.0):
            raise EpsilonBoundError(
                f"--epsilon = {self.epsilon} not in (0, delta/8 = {delta / 8.0:.6g}), "
                f"delta = 4*sqrt(log(1/zeta))/d at --zeta {self.zeta}, --d {self.d}"
            )

    @property
    def delta(self) -> float:
        return comb_delta(self.zeta, self.d)

    @property
    def n_max(self) -> int:
        """Periods retained per side for numerics, ceil(max(12, d*delta + 2)/delta):
        the retained comb covers the central region (n_max > d) and the
        neglected Gaussian tail beyond n_max*delta >= 12 stays below 1e-20."""
        delta = self.delta
        return math.ceil(max(12.0, self.d * delta + 2.0) / delta)


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted union of pairwise-disjoint closed intervals."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for i, (a, b) in enumerate(self.intervals):
            if a > b:
                raise ValueError(f"interval [{a}, {b}] has a > b")
            if i > 0 and a <= self.intervals[i - 1][1]:
                raise ValueError("intervals must be sorted and pairwise disjoint")

    def __len__(self) -> int:
        return len(self.intervals)

    def contains(self, x):
        """Closed-interval membership; vectorised."""
        endpoints = self.endpoints
        return _piece_index(endpoints[0::2], endpoints[1::2], x) >= 0

    @property
    def endpoints(self) -> np.ndarray:
        return np.array([v for ab in self.intervals for v in ab])


@dataclass(frozen=True, eq=False)
class PiecewiseGaussianMeasure:
    """Density s_i * G(x + h_i) / z on piece [a_i, b_i], zero elsewhere.

    ``z`` is the shared normalisation constant; ``tail_start`` is where the
    truncated periods begin, used for the reported tail bound.
    """

    a: np.ndarray
    b: np.ndarray
    scale: np.ndarray
    shift: np.ndarray
    z: float
    tail_start: float

    def __post_init__(self):
        if np.any(self.a[1:] <= self.b[:-1]):
            raise ValueError("pieces must be sorted and pairwise disjoint")
        if np.any(self.scale < 0.0):
            raise ValueError("piece scales must be nonnegative")
        if not self.z > 0.0:
            raise ValueError("normalisation constant must be positive")

    @property
    def piece_masses(self) -> np.ndarray:
        """Unnormalised mass of each piece (exact truncated-Gaussian)."""
        return self.scale * self.phi_masses

    def piece_index(self, x):
        """Index of the piece containing each x, or -1."""
        return _piece_index(self.a, self.b, x)

    @cached_property
    def phi_masses(self) -> np.ndarray:
        """Phi(b_i + h_i) - Phi(a_i + h_i) per piece, computed once: the piece
        masses, the CDF, the sampler's table and the moment recurrences read it,
        so it is read-only."""
        masses = phi_mass(self.a + self.shift, self.b + self.shift)
        masses.flags.writeable = False
        return masses

    @cached_property
    def _inversion(self) -> _InversionTable:
        """The sampler's per-piece table, built on the first ``sample`` call."""
        return _InversionTable.build(self)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        idx = self.piece_index(x)
        safe = np.clip(idx, 0, len(self.a) - 1)
        val = self.scale[safe] * gaussian_pdf(x + self.shift[safe]) / self.z
        return np.where(idx >= 0, val, 0.0)


@dataclass(frozen=True)
class HardPair:
    config: HardPairConfig
    A: PiecewiseGaussianMeasure
    B: PiecewiseGaussianMeasure
    J1: IntervalUnion
    J2: IntervalUnion

    def in_support_gap(self, t):
        """True where the mixture marginal density vanishes."""
        return (self.A.piece_index(t) < 0) & (self.B.piece_index(t) < 0)

    def off_j_mass(self) -> tuple[float, float]:
        """Mass of A and of B outside J1 u J2."""
        joint = IntervalUnion(tuple(sorted(self.J1.intervals + self.J2.intervals)))
        return 1.0 - mass_in(self.A, joint), 1.0 - mass_in(self.B, joint)


def build_hard_pair(config: HardPairConfig) -> HardPair:
    """Construct (A, B, J1, J2) for the given configuration.

    A keeps every comb piece [n*delta - eps, n*delta + eps], |n| <= n_max.
    B copies A's pieces for |n| > d and replaces each central piece by
    [n*delta - 5*eps, n*delta - 3*eps] with density shift +4*eps.  Both
    share the normalisation Z = total comb mass of A's pieces.
    """
    delta, eps, d, n_max = config.delta, config.epsilon, config.d, config.n_max

    ns = np.arange(-n_max, n_max + 1, dtype=float)
    centers = ns * delta
    a_pieces = centers - eps
    b_pieces = centers + eps
    scale = np.full(ns.shape, delta / (2.0 * eps))
    zero_shift = np.zeros_like(ns)

    z = float(np.sum(scale * phi_mass(a_pieces, b_pieces)))
    tail_start = n_max * delta + eps

    A = PiecewiseGaussianMeasure(
        a=a_pieces, b=b_pieces, scale=scale, shift=zero_shift, z=z,
        tail_start=tail_start,
    )

    central = np.abs(ns) <= d
    b_a = np.where(central, centers - 5.0 * eps, a_pieces)
    b_b = np.where(central, centers - 3.0 * eps, b_pieces)
    b_shift = np.where(central, 4.0 * eps, 0.0)
    order = np.argsort(b_a)
    B = PiecewiseGaussianMeasure(
        a=b_a[order], b=b_b[order], scale=scale[order], shift=b_shift[order], z=z,
        tail_start=tail_start,
    )

    central_ns = np.arange(-d, d + 1, dtype=float)
    J1 = IntervalUnion(
        tuple((n * delta - eps, n * delta + eps) for n in central_ns)
    )
    J2 = IntervalUnion(
        tuple((n * delta - 5.0 * eps, n * delta - 3.0 * eps) for n in central_ns)
    )
    return HardPair(config=config, A=A, B=B, J1=J1, J2=J2)


def total_mass(measure: PiecewiseGaussianMeasure) -> tuple[float, float]:
    """(sum of retained unnormalised piece masses, bound on neglected mass).

    The tail bound is the comb covering argument: the neglected periods
    carry at most twice the Gaussian mass beyond where they start.
    """
    value = float(np.sum(measure.piece_masses))
    tail_bound = float(2.0 * _gaussian_cdf(-measure.tail_start))
    return value, tail_bound


def mass_in(measure: PiecewiseGaussianMeasure, region: IntervalUnion) -> float:
    """Exact normalised mass of the measure restricted to the region."""
    starts = np.array([a for a, _ in region.intervals])
    ends = np.array([b for _, b in region.intervals])
    lo = np.maximum(starts[None, :], measure.a[:, None])  # (piece, interval)
    hi = np.minimum(ends[None, :], measure.b[:, None])
    piece, interval = np.nonzero(lo <= hi)
    h = measure.shift[piece]
    parts = measure.scale[piece] * phi_mass(lo[piece, interval] + h, hi[piece, interval] + h)
    return math.fsum(parts.tolist()) / measure.z


def cdf(measure: PiecewiseGaussianMeasure, x):
    """Normalised CDF of the measure (vectorised).

    Kept as the reference that test_sampling_ks compares ``sample`` against.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    full = measure.scale * measure.phi_masses
    cum = np.concatenate([[0.0], np.cumsum(full)])
    # pieces 0..idx-2 lie fully left of x; piece idx-1 may be partial
    idx = np.searchsorted(measure.a, x, side="right")
    out = cum[np.maximum(idx - 1, 0)].copy()
    out[idx == 0] = 0.0
    started = idx >= 1
    if np.any(started):
        j = idx[started] - 1
        xx = np.minimum(x[started], measure.b[j])
        out[started] += measure.scale[j] * phi_mass(
            measure.a[j] + measure.shift[j], xx + measure.shift[j]
        )
    return out / measure.z


@dataclass(frozen=True, eq=False)
class _InversionTable:
    """What ``sample`` reads per piece, computed once per measure.

    Each piece [lo, hi] (shifted to the standard Gaussian) is inverted in a
    frame X = x or X = -x with X <= 0, where Phi is convex and log Phi is
    concave: the left frame [lo, min(hi, 0)] and the right frame
    [-hi, -max(lo, 0)].  A piece with lo >= 0 uses only the right frame, one
    with hi <= 0 only the left, and one straddling 0 the left frame for
    u < ``split`` and the right one above it.  Frame arrays are indexed
    2*piece + right.  A draw with uniform u targets Phi(X) = Phi(L) + v M, M
    the piece's Phi-mass and v = u, except v = 1 - u in the right frame of a
    straddling piece, so x is the inverse CDF of u on [lo, hi] read from
    the left (from the right for lo >= 0).  Targets are stored divided by
    exp(-U^2/2), U the frame's upper end.
    """

    probs: np.ndarray  # piece probabilities for rng.choice
    split: np.ndarray  # per piece: u >= split uses the right frame
    lower: np.ndarray  # per frame: bracket [L, U], U <= 0
    upper: np.ndarray
    sign: np.ndarray  # x = sign * X - shift
    flip: np.ndarray  # v = 1 - u instead of u
    base: np.ndarray  # Phi(L) / exp(-U^2/2)
    mass: np.ndarray  # M / exp(-U^2/2)
    start_scale: np.ndarray  # M / (Phi(U) - Phi(L)): v times it is the start's fraction
    rate: np.ndarray  # k = -(L + U)/2 of the tilted start density exp(k X)
    rate_mass: np.ndarray  # -expm1(-k (U - L))

    @classmethod
    def build(cls, measure: PiecewiseGaussianMeasure) -> _InversionTable:
        lo = measure.a + measure.shift
        hi = measure.b + measure.shift
        mass = measure.phi_masses
        masses = np.maximum(measure.scale * mass, 0.0)  # piece_masses, floored at 0
        straddle = (lo < 0.0) & (hi > 0.0)
        # both frames of every piece; the unused one copies the used one
        left_l, left_u = lo, np.minimum(hi, 0.0)
        right_l, right_u = -hi, -np.maximum(lo, 0.0)
        use_left = lo < 0.0
        use_right = hi > 0.0
        lower = np.stack([np.where(use_left, left_l, right_l), np.where(use_right, right_l, left_l)], 1)
        upper = np.stack([np.where(use_left, left_u, right_u), np.where(use_right, right_u, left_u)], 1)
        sign = np.stack([np.where(use_left, 1.0, -1.0), np.where(use_right, -1.0, 1.0)], 1)
        lower, upper, sign = lower.reshape(-1), upper.reshape(-1), sign.reshape(-1)
        piece_mass = np.repeat(mass, 2)
        frame_mass = phi_mass(lower, upper)
        edge = _exp_half_square(-upper)
        ratio = np.exp(-0.5 * (lower - upper) * (lower + upper))  # exp(-L^2/2)/edge
        rate = -0.5 * (lower + upper)
        with np.errstate(divide="ignore", invalid="ignore"):  # only massless pieces
            split = np.where(use_left, np.where(straddle, frame_mass[0::2] / mass, 2.0), 0.0)
            base = ratio * _mills(-lower)
            scaled_mass = piece_mass / edge
            start_scale = piece_mass / frame_mass  # exactly 1 unless the piece straddles 0
        return cls(
            probs=masses / masses.sum(),
            split=split,
            lower=lower,
            upper=upper,
            sign=sign,
            flip=np.stack([np.zeros_like(straddle), straddle], 1).reshape(-1),
            base=base,
            mass=scaled_mass,
            start_scale=start_scale,
            rate=rate,
            rate_mass=-np.expm1(-rate * (upper - lower)),
        )


_NEWTON_TOL = 2.0**-27  # a step this small leaves an error below 0.4 * step^2
_NEWTON_MAX = 60  # comb pieces stop after 2 steps, the whole line after 7


def sample(measure: PiecewiseGaussianMeasure, rng: np.random.Generator, n: int) -> np.ndarray:
    """Exact inverse-CDF sampling: pick a piece by mass, invert within it.

    The piece is drawn by ``rng.choice`` on the piece masses, then u by
    ``rng.random``.  The inversion runs in a frame X <= 0 (see
    ``_InversionTable``): it starts from the inverse CDF of the exponential
    density that matches the Gaussian at both ends of the bracket, then
    takes Newton steps on log Phi(X) = log(target), clipped to the
    bracket, until every step is below 2^-27.  log Phi is concave, so after
    the first step the iterates rise monotonically to the root; on a comb
    piece of width <= 0.2 two steps end it.  The result is
    |x - x*| <= 2^-49 (1 + |x*|) against the exact inverse x* (checked with
    mpmath in tests/test_hardpair.py), and x always lies in its piece.
    """
    table = measure._inversion
    idx = rng.choice(len(table.probs), size=n, p=table.probs)
    u = rng.random(n)
    frame = 2 * idx + (u >= table.split[idx])
    lower, upper = table.lower[frame], table.upper[frame]
    v = np.where(table.flip[frame], 1.0 - u, u)
    log_target = np.log(table.base[frame] + v * table.mass[frame])
    rate = table.rate[frame]
    x = upper + np.log1p((v * table.start_scale[frame] - 1.0) * table.rate_mass[frame]) / rate
    np.clip(x, lower, upper, out=x)
    for _ in range(_NEWTON_MAX):
        mills = _mills(-x)
        step = np.log(mills) - 0.5 * (x - upper) * (x + upper) - log_target
        step *= _SQRT_2PI * mills  # g / g' with g' = phi/Phi = 1/(sqrt(2 pi) R)
        x -= step
        np.clip(x, lower, upper, out=x)
        if np.all(np.abs(step) <= _NEWTON_TOL):
            break
    x *= table.sign[frame]
    x -= measure.shift[idx]
    return np.clip(x, measure.a[idx], measure.b[idx], out=x)


def density_curve(pair: HardPair, n_points: int, lo: float, hi: float):
    """Grid rows (x, density_A, density_B, in_J1, in_J2) for plotting."""
    x = np.linspace(lo, hi, n_points)
    return (
        x,
        pair.A.density(x),
        pair.B.density(x),
        pair.J1.contains(x).astype(int),
        pair.J2.contains(x).astype(int),
    )

import math

import numpy as np
import pytest
from scipy.integrate import quad

from massart_forge import moments
from massart_forge.errors import MomentRangeError
from massart_forge.hardpair import (
    HardPairConfig,
    PiecewiseGaussianMeasure,
    build_hard_pair,
    gaussian_pdf,
    phi_mass,
    sample,
)

# the desk pair, epsilon just under delta/8 (the widest pieces), and d = 40
_DELTA_10 = 4.0 * math.sqrt(math.log(20.0)) / 10
_QUADRATURE_CONFIGS = [
    dict(zeta=0.05, d=10, epsilon=0.05),
    dict(zeta=0.05, d=10, epsilon=0.99 * _DELTA_10 / 8.0),
    dict(zeta=0.05, d=40, epsilon=0.01),
]
_FULL_LINE = PiecewiseGaussianMeasure(
    a=np.array([-40.0]), b=np.array([40.0]), scale=np.array([1.0]),
    shift=np.array([0.0]), z=1.0, tail_start=40.0,
)


def test_gaussian_moments():
    assert moments.gaussian_moment(0) == 1.0
    assert moments.gaussian_moment(2) == 1.0
    assert moments.gaussian_moment(6) == 15.0
    assert moments.gaussian_moment(7) == 0.0


def _truncated_moment(a: float, b: float, t: int) -> float:
    """Integral of x^t G(x) over [a, b], through the per-piece recurrence table."""
    a, b = np.array([a]), np.array([b])
    return float(moments._piece_moment_table(a, b, t, phi_mass(a, b))[t, 0])


def test_truncated_moment_base_cases():
    assert _truncated_moment(-40.0, 40.0, 0) == pytest.approx(1.0, abs=1e-15)
    want = float(gaussian_pdf(0.0) - gaussian_pdf(1.0))
    assert _truncated_moment(0.0, 1.0, 1) == pytest.approx(want, abs=1e-16)


def test_truncated_moment_vs_quadrature_oracle():
    # the quadrature oracle was built first; the recurrence must agree
    oracle, _ = quad(lambda x: x**4 * float(gaussian_pdf(x)), -0.5, 0.5, epsabs=1e-14)
    assert _truncated_moment(-0.5, 0.5, 4) == pytest.approx(oracle, abs=1e-12)


def test_measure_moment_basics(desk_pair):
    assert moments.measure_moment(desk_pair.A, 0) == pytest.approx(1.0, abs=1e-13)
    assert moments.measure_moment(desk_pair.A, 1) == pytest.approx(0.0, abs=1e-15)
    assert moments.measure_moment(desk_pair.B, 0) == pytest.approx(1.0, abs=1e-13)


def test_measure_moment_vs_monte_carlo(desk_pair, rng):
    # independent Monte Carlo oracle at 1e7 draws, 4 sigma tolerance
    t = 3
    exact = moments.measure_moment(desk_pair.B, t)
    draws = sample(desk_pair.B, rng, 10_000_000)
    vals = draws**t
    sigma = float(vals.std()) / math.sqrt(len(vals))
    assert abs(float(vals.mean()) - exact) <= 4.0 * sigma


def test_recurrence_vs_quadrature(desk_pair):
    for t in range(13):
        for measure in (desk_pair.A, desk_pair.B):
            rec = moments.measure_moment(measure, t)
            quad_val = moments.quadrature_moment(measure, t)
            assert abs(rec - quad_val) <= 1e-10 * max(1.0, abs(rec), abs(quad_val))


def _quadpack_moment(measure, t):
    """(E X^t, sum of |per-piece integrals|) by QUADPACK per piece.  The second
    is the scale of the integral: odd moments of a symmetric comb cancel to a
    residue, so their errors are relative to the magnitudes that cancel."""
    vals = []
    for i in range(len(measure.a)):
        s, h = measure.scale[i], measure.shift[i]
        f = lambda x: x**t * s * float(gaussian_pdf(x + h)) / measure.z
        vals.append(quad(f, measure.a[i], measure.b[i], epsabs=1e-13, epsrel=1e-13, limit=200)[0])
    return math.fsum(vals), math.fsum(abs(v) for v in vals)


def _quadpack_chi_square(measure):
    """chi^2 against N(0, 1) by QUADPACK on density^2 / G per piece."""
    vals = []
    for i in range(len(measure.a)):
        s, h = measure.scale[i], measure.shift[i]

        def f(x, s=s, h=h):
            g = float(gaussian_pdf(x))
            if g == 0.0:  # both densities underflow together far in the tail
                return 0.0
            return (s * float(gaussian_pdf(x + h)) / measure.z) ** 2 / g

        vals.append(quad(f, measure.a[i], measure.b[i], epsabs=1e-13, epsrel=1e-13, limit=200)[0])
    return math.fsum(vals) - 1.0


@pytest.mark.parametrize("config", _QUADRATURE_CONFIGS, ids=["desk", "wide", "d40"])
def test_gauss_legendre_moments_match_quadpack(config):
    # every order up to K_MAX, on A and B, against QUADPACK and the recurrence
    pair = build_hard_pair(HardPairConfig(**config))
    for t in range(moments.K_MAX + 1):
        for measure in (pair.A, pair.B):
            got = moments.quadrature_moment(measure, t)
            want, scale = _quadpack_moment(measure, t)
            assert abs(got - want) <= 1e-12 * max(1.0, scale), (t, got, want)
            rec = moments.measure_moment(measure, t)
            assert abs(got - rec) <= 1e-12 * max(1.0, scale), (t, got, rec)


@pytest.mark.parametrize("config", _QUADRATURE_CONFIGS, ids=["desk", "wide", "d40"])
def test_gauss_legendre_chi_square_matches_quadpack(config):
    pair = build_hard_pair(HardPairConfig(**config))
    for measure in (pair.A, pair.B, _FULL_LINE):
        got = moments.chi_square_vs_gaussian(measure).quadrature
        want = _quadpack_chi_square(measure)
        # the integral chi^2 + 1 has a positive integrand, so it is the scale
        assert abs(got - want) <= 1e-12 * max(1.0, want + 1.0), (got, want)


def test_moment_range_guard(desk_pair):
    with pytest.raises(MomentRangeError):
        moments.measure_moment(desk_pair.A, moments.K_MAX + 1)
    with pytest.raises(MomentRangeError):
        moments.moment_discrepancy_report(desk_pair, moments.K_MAX + 1)


def test_report_fields_and_bounds(desk_pair, desk_config):
    report = moments.moment_discrepancy_report(desk_pair, 12)
    base = 2.0 + 8.0 * math.sqrt(math.log(1.0 / desk_config.zeta))
    assert report.discrepancy_A[0] == 0.0 or report.discrepancy_A[0] < 1e-12
    assert report.bound_AB[2] == pytest.approx(4.0 * desk_config.epsilon * base**2, rel=1e-15)
    for t in range(13):
        want_gauss = 0.0 if t % 2 else float(math.prod(range(t - 1, 0, -2)))  # (t-1)!!
        assert report.moments_gaussian[t] == want_gauss
        diff = abs(report.moments_B[t] - report.moments_A[t])
        slack = 1e-12 * max(1.0, abs(report.moments_A[t]), abs(report.moments_B[t]))
        assert diff <= report.bound_AB[t] + slack
        # triangle inequality route used by the shift argument
        assert report.discrepancy_B[t] <= report.discrepancy_A[t] + report.bound_AB[t] + slack


def test_fourier_bound_values():
    cert = moments.fourier_discrepancy_bound(0, 0.5)
    assert cert.total == pytest.approx(2.0 * math.exp(-2.0 * math.pi**2), rel=1e-6)
    assert cert.total == pytest.approx(2.0 * math.fsum(cert.series_terms), rel=1e-15)
    # decreasing in 1/delta at fixed t (prefactor and terms both shrink)
    for t in (0, 3, 8):
        assert (
            moments.fourier_discrepancy_bound(t, 0.4).total
            < moments.fourier_discrepancy_bound(t, 0.5).total
            < moments.fourier_discrepancy_bound(t, 0.69).total
        )
    # log-space value stays available past the overflow point
    big = moments.fourier_discrepancy_bound(400, 0.5)
    assert math.isfinite(big.log_total)


def test_fourier_certificate_domination():
    for delta in (0.3, 0.4, 0.5, 0.69):
        rows = moments.fourier_certificate_check(delta, delta / 10.0, 8)
        assert all(ok for *_, ok in rows)


def test_scaling_law():
    pts = moments.scaling_law_points(0.05, [7, 8, 9, 10], t=4)
    xs = [x for x, _ in pts]
    ys = [math.log(y) for _, y in pts]
    assert all(ys[i + 1] < ys[i] for i in range(len(ys) - 1))
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope < 0.0


def test_chi_square(desk_pair, desk_config):
    z = desk_pair.A.z
    ca = moments.chi_square_vs_gaussian(desk_pair.A)
    cb = moments.chi_square_vs_gaussian(desk_pair.B)
    want_closed = desk_config.delta / (2.0 * desk_config.epsilon) / z - 1.0
    assert ca.closed_form == pytest.approx(want_closed, rel=1e-14)
    assert abs(ca.closed_form - ca.quadrature) <= 1e-8
    assert abs(cb.closed_form - cb.quadrature) <= 1e-8
    assert math.isfinite(ca.closed_form) and math.isfinite(cb.closed_form)
    ratio2 = (desk_config.delta / desk_config.epsilon) ** 2
    assert ca.closed_form <= ratio2 and cb.closed_form <= ratio2


def test_chi_square_full_coverage_limit():
    # coverage of the whole line with unit scale degenerates to the Gaussian
    result = moments.chi_square_vs_gaussian(_FULL_LINE)
    assert abs(result.closed_form) < 1e-12
    assert abs(result.quadrature) < 1e-8

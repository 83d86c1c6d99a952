import math

import numpy as np
import pytest

from massart_forge import hardpair, moments
from massart_forge.errors import (
    DeltaBoundError,
    DimensionBoundError,
    EpsilonBoundError,
)
from massart_forge.hardpair import (
    HardPairConfig,
    IntervalUnion,
    PiecewiseGaussianMeasure,
    build_hard_pair,
    cdf,
    density_curve,
    mass_in,
    sample,
    total_mass,
)


def test_delta_formula():
    cfg = HardPairConfig(zeta=0.05, d=10, epsilon=0.05)
    assert cfg.delta == pytest.approx(4.0 * math.sqrt(math.log(20.0)) / 10.0, abs=1e-15)
    assert 0.6923 < cfg.delta < 0.6924


def test_interval_counts(desk_pair, desk_config):
    assert len(desk_pair.J1) == 2 * desk_config.d + 1
    assert len(desk_pair.J2) == 2 * desk_config.d + 1


def test_config_validation_errors():
    delta = 4.0 * math.sqrt(math.log(20.0)) / 10.0
    with pytest.raises(EpsilonBoundError):
        HardPairConfig(zeta=0.05, d=10, epsilon=delta / 4.0)
    with pytest.raises(DeltaBoundError):
        HardPairConfig(zeta=0.05, d=6, epsilon=0.05)
    with pytest.raises(DimensionBoundError):
        HardPairConfig(zeta=0.05, d=1, epsilon=0.05)


def test_density_pointwise(desk_pair, desk_config):
    z, _ = total_mass(desk_pair.A)
    scale = desk_config.delta / (2.0 * desk_config.epsilon)
    want = scale * math.exp(0.0) / math.sqrt(2 * math.pi) / z
    assert float(desk_pair.A.density(0.0)) == pytest.approx(want, rel=1e-14)
    assert float(desk_pair.A.density(desk_config.delta / 2.0)) == 0.0
    # shifted piece of B reproduces A exactly at the shifted point
    assert float(desk_pair.B.density(-4.0 * desk_config.epsilon)) == float(
        desk_pair.A.density(0.0)
    )


def test_total_mass(desk_pair):
    value, tail = total_mass(desk_pair.A)
    assert value >= 0.2
    assert tail < 1e-20
    assert abs(value - 1.0) <= moments.fourier_discrepancy_bound(
        0, desk_pair.config.delta
    ).total
    # full-coverage limit: one piece over the line with unit scale
    from massart_forge.hardpair import PiecewiseGaussianMeasure

    full = PiecewiseGaussianMeasure(
        a=np.array([-40.0]), b=np.array([40.0]), scale=np.array([1.0]),
        shift=np.array([0.0]), z=1.0, tail_start=40.0,
    )
    assert total_mass(full)[0] == pytest.approx(1.0, abs=1e-15)


def test_mass_conservation(desk_pair):
    za, _ = total_mass(desk_pair.A)
    zb, _ = total_mass(desk_pair.B)
    assert abs(za - zb) <= 1e-12


def test_mass_in(desk_pair, desk_config):
    zeta = desk_config.zeta
    j_union = IntervalUnion(
        tuple(sorted(desk_pair.J1.intervals + desk_pair.J2.intervals))
    )
    assert mass_in(desk_pair.B, desk_pair.J1) == 0.0
    assert mass_in(desk_pair.A, desk_pair.J2) == 0.0
    off_a = 1.0 - mass_in(desk_pair.A, j_union)
    off_b = 1.0 - mass_in(desk_pair.B, j_union)
    assert off_a <= 10.0 * zeta**8 <= zeta
    assert off_b <= 10.0 * zeta**8
    edges = [-math.inf, *desk_pair.J1.endpoints, math.inf]  # J1's gaps, closed
    comp = IntervalUnion(tuple(zip(edges[::2], edges[1::2])))
    assert mass_in(desk_pair.A, desk_pair.J1) + mass_in(desk_pair.A, comp) == (
        pytest.approx(1.0, abs=1e-14)
    )


def test_densities_match_off_j(desk_pair, desk_config):
    grid = np.linspace(-desk_config.n_max * desk_config.delta,
                       desk_config.n_max * desk_config.delta, 40001)
    off = ~(desk_pair.J1.contains(grid) | desk_pair.J2.contains(grid))
    da = desk_pair.A.density(grid)
    db = desk_pair.B.density(grid)
    assert np.all(da[off] == db[off])
    assert np.all(da[desk_pair.J2.contains(grid)] == 0.0)
    assert np.all(db[desk_pair.J1.contains(grid)] == 0.0)
    assert np.all(da >= 0.0) and np.all(db >= 0.0)


def test_piece_integral_matches_cdf(desk_pair):
    from scipy.integrate import quad

    mid = len(desk_pair.A.a) // 2
    a, b = desk_pair.A.a[mid], desk_pair.A.b[mid]
    val, _ = quad(lambda x: float(desk_pair.A.density(x)), a, b, epsabs=1e-14)
    z, _ = total_mass(desk_pair.A)
    want = desk_pair.A.piece_masses[mid] / z
    assert val == pytest.approx(want, abs=1e-12)


def test_closed_endpoint_membership():
    union = IntervalUnion(((0.0, 1.0), (2.0, 3.0)))
    assert bool(union.contains(1.0)) and bool(union.contains(2.0))
    assert not bool(union.contains(1.5))
    with pytest.raises(ValueError):
        IntervalUnion(((0.0, 2.0), (1.0, 3.0)))


def test_sampling_support_and_mean(desk_pair, rng):
    draws = sample(desk_pair.A, rng, 1_000_000)
    assert not bool(desk_pair.J2.contains(draws).any())
    mean_a = moments.measure_moment(desk_pair.A, 1)
    sd = math.sqrt(moments.measure_moment(desk_pair.A, 2))
    assert abs(draws.mean() - mean_a) <= 4.0 * sd / math.sqrt(len(draws))
    draws_b = sample(desk_pair.B, rng, 200_000)
    assert not bool(desk_pair.J1.contains(draws_b).any())


def test_sampling_ks(desk_pair, rng):
    draws = np.sort(sample(desk_pair.A, rng, 100_000))
    model = cdf(desk_pair.A, draws)
    empirical = np.arange(1, len(draws) + 1) / len(draws)
    ks = np.max(
        np.maximum(np.abs(model - empirical), np.abs(model - empirical + 1.0 / len(draws)))
    )
    assert ks < 0.01


def test_density_curve(desk_pair, desk_config):
    lo = -desk_config.d * desk_config.delta - 1.0
    x, da, db, j1, j2 = density_curve(desk_pair, 5000, lo, -lo)
    assert len(x) == 5000
    assert not np.any((j1 == 1) & (j2 == 1))
    assert np.all(da[j2 == 1] == 0.0)


# ---------------------------------------- numpy Phi and the within-piece inversion

# the desk pair, the lift section's reduced pair, the widest epsilon at the
# desk delta and a 40-period comb: every construction the tests and CLI build
_CONFIGS = {
    "desk": dict(zeta=0.05, d=10, epsilon=0.05),
    "lift": dict(zeta=0.45, d=4, epsilon=0.1),
    "wide": dict(zeta=0.05, d=10, epsilon=0.99 * 4.0 * math.sqrt(math.log(20.0)) / 80.0),
    "d40": dict(zeta=0.05, d=40, epsilon=0.01),
}
_EPS = 2.0**-52
# odd-shaped pieces: the full line, the right tail, one straddling 0 with a
# shift, one tiny straddling piece and one deep in the left tail
_ODD_PIECES = [(-40.0, 40.0, 0.0), (1.0, 40.0, 0.0), (-3.0, 2.0, 0.5),
               (-0.001, 0.002, 0.0), (-37.0, -36.0, 0.0)]


def _cdf_rel_errors(x):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    got = hardpair._gaussian_cdf(x)
    exact = [mpmath.ncdf(mpmath.mpf(float(v))) for v in x]
    return np.array([float((mpmath.mpf(float(g)) - e) / e) for g, e in zip(got, exact)])


def _piece_arguments(measure):
    """Every value phi_mass and the sampler pass to Phi for this measure."""
    ends = np.concatenate([measure.a + measure.shift, measure.b + measure.shift,
                           measure.a + 2.0 * measure.shift, measure.b + 2.0 * measure.shift])
    return np.concatenate([ends, -ends, [-measure.tail_start]])


def test_gaussian_cdf_matches_mpmath_on_a_dense_grid():
    # relative error < 4 eps (8 ulp) for -37.5 <= x <= 0, where Phi is a
    # normal double, and < 2 eps for x > 0
    left = np.concatenate([np.linspace(-37.5, 0.0, 15001), [-6.0, np.nextafter(-6.0, 0.0)]])
    right = np.linspace(0.0, 10.0, 2001)[1:]
    assert np.max(np.abs(_cdf_rel_errors(left))) < 4.0 * _EPS
    assert np.max(np.abs(_cdf_rel_errors(right))) < 2.0 * _EPS
    assert hardpair._gaussian_cdf(0.0) == 0.5
    assert hardpair._gaussian_cdf(np.array([-np.inf, -40.0, 40.0, np.inf])).tolist() == [
        0.0, 0.0, 1.0, 1.0
    ]
    assert np.isnan(hardpair._gaussian_cdf(np.nan))


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_gaussian_cdf_matches_mpmath_on_every_piece_endpoint(name):
    pair = build_hard_pair(HardPairConfig(**_CONFIGS[name]))
    for measure in (pair.A, pair.B):
        x = _piece_arguments(measure)
        x = x[x >= -37.5]
        errors = np.abs(_cdf_rel_errors(x))
        assert np.max(errors[x <= 0.0]) < 4.0 * _EPS
        assert np.max(errors[x > 0.0]) < 2.0 * _EPS


def _exact_inverse(measure, i, u):
    """The exact inverse CDF of u on piece i, read from the left, or from the
    right for a piece with a + shift >= 0 (mpmath, 50 digits)."""
    import mpmath

    mpmath.mp.dps = 50
    h = mpmath.mpf(float(measure.shift[i]))
    lo = mpmath.mpf(float(measure.a[i])) + h
    hi = mpmath.mpf(float(measure.b[i])) + h
    u = mpmath.mpf(float(u))
    if lo >= 0:
        p = mpmath.ncdf(-hi) + u * (mpmath.ncdf(-lo) - mpmath.ncdf(-hi))
        return -mpmath.sqrt(2) * mpmath.erfinv(2 * p - 1) - h
    p = mpmath.ncdf(lo) + u * (mpmath.ncdf(hi) - mpmath.ncdf(lo))
    return mpmath.sqrt(2) * mpmath.erfinv(2 * p - 1) - h


def _draws_and_inputs(measure, seed, n):
    """sample()'s output with the piece index and uniform it drew, redrawn in
    the same order from the same seed."""
    x = sample(measure, np.random.default_rng(seed), n)
    rng = np.random.default_rng(seed)
    masses = np.maximum(measure.piece_masses, 0.0)
    idx = rng.choice(len(masses), size=n, p=masses / masses.sum())
    return x, idx, rng.random(n)


def _assert_inversion_bound(measure, seed, n):
    mpmath = pytest.importorskip("mpmath")
    x, idx, u = _draws_and_inputs(measure, seed, n)
    assert np.all((measure.a[idx] <= x) & (x <= measure.b[idx]))
    for xi, i, ui in zip(x, idx, u):
        want = _exact_inverse(measure, i, ui)
        assert abs(mpmath.mpf(float(xi)) - want) <= 2.0**-49 * (1 + abs(want)), (i, ui)


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_inversion_error_bound_against_mpmath(name):
    pair = build_hard_pair(HardPairConfig(**_CONFIGS[name]))
    _assert_inversion_bound(pair.A, 11, 600)
    _assert_inversion_bound(pair.B, 12, 600)


@pytest.mark.parametrize("lo, hi, shift", _ODD_PIECES)
def test_inversion_error_bound_on_odd_pieces(lo, hi, shift):
    measure = PiecewiseGaussianMeasure(
        a=np.array([lo]), b=np.array([hi]), scale=np.array([1.0]),
        shift=np.array([shift]), z=1.0, tail_start=40.0,
    )
    _assert_inversion_bound(measure, 13, 300)


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_every_draw_lies_in_its_piece(name):
    pair = build_hard_pair(HardPairConfig(**_CONFIGS[name]))
    for seed, measure in enumerate((pair.A, pair.B)):
        x, idx, _ = _draws_and_inputs(measure, seed, 200_000)
        assert np.all((measure.a[idx] <= x) & (x <= measure.b[idx]))
        assert np.array_equal(measure.piece_index(x), idx)

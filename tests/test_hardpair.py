import math

import numpy as np
import pytest

from massart_forge import moments
from massart_forge.errors import (
    ConfigValidationError,
    DeltaBoundError,
    DimensionBoundError,
    EpsilonBoundError,
)
from massart_forge.hardpair import (
    HardPairConfig,
    IntervalUnion,
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
    with pytest.raises(ConfigValidationError):
        HardPairConfig(zeta=0.05, d=10, epsilon=0.05, n_max=5)  # n_max*delta < 10


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

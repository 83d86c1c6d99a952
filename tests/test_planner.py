import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massart_forge import planner
from massart_forge.errors import (
    DeltaBoundError,
    DimensionBoundError,
    InfeasiblePlanError,
    RangeError,
)
from massart_forge.hardpair import HardPairConfig, build_hard_pair, comb_delta
from massart_forge.instance import make_instance, random_unit_vector


def test_log_binomial_small_cases():
    assert planner.log_binomial(4, 2) == pytest.approx(math.log(6.0), abs=1e-14)
    assert planner.log_binomial(10, 0) == 0.0
    got = planner.log_binomial(100, 50)
    want = math.log(math.comb(100, 50))
    assert abs(got - want) <= 1e-10 * abs(want)


@given(st.integers(min_value=0, max_value=300), st.data())
@settings(max_examples=60, deadline=None)
def test_log_binomial_matches_big_integers(n, data):
    r = data.draw(st.integers(min_value=0, max_value=n))
    got = planner.log_binomial(n, r)
    want = math.log(math.comb(n, r)) if math.comb(n, r) > 0 else 0.0
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize(
    "n, r",
    [(14 * 10**45 + 15 * 10**28, 15 * 10**28), (10**18, 16), (10**18, 10**9), (10**6, 15)],
    ids=["plan-1e30", "stirling-edge", "mid", "summed"],
)
def test_log_binomial_keeps_small_r_against_huge_n(n, r):
    # ln n! - ln (n-r)! cancels to 0 in doubles at the first case, whose
    # true value r ln(n/r) + ... is about 6e30
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        want = float(
            mpmath.loggamma(n + 1) - mpmath.loggamma(r + 1) - mpmath.loggamma(n - r + 1)
        )
    got = planner.log_binomial(n, r)
    assert abs(got - want) <= 1e-13 * abs(want)
    assert planner.log_binomial(n, n - r) == got


def test_plan_refuses_an_embedding_past_log_m():
    # log binom(m + 8d, 8d) is about 6.1e30 here; a cancelled log read 0
    with pytest.raises(InfeasiblePlanError, match="M_prime_log"):
        planner.plan(1e30, 0.49, 0.1)


@pytest.mark.parametrize("log_m", [1e3, 1e4, 1e5])
def test_plan_feasible_at_desk_scales(log_m):
    zeta = math.exp(-math.sqrt(log_m))
    result = planner.plan(log_m, 0.49, zeta)
    assert result.M_prime_log <= log_m
    assert result.delta < 1.0
    assert result.log_epsilon < math.log(result.delta / 8.0)
    assert result.d >= 2 and result.m >= 1
    assert result.c == pytest.approx(1.0 / (144.0 * math.log(1.0 / zeta) ** 2))


def test_plan_schedule_monotonicity():
    zeta = 1e-20
    taus, ms, ds = [], [], []
    for log_m in (2e4, 5e4, 1e5, 2e5):
        result = planner.plan(log_m, 0.49, zeta)
        taus.append(-result.log_tau)
        ms.append(result.m)
        ds.append(result.d)
    assert all(b > a for a, b in zip(taus, taus[1:]))
    assert all(b >= a for a, b in zip(ms, ms[1:]))
    assert all(b >= a for a, b in zip(ds, ds[1:]))


def test_plan_boundary_and_errors():
    # zeta = eta boundary is a valid input
    result = planner.plan(1e4, math.exp(-10.0), math.exp(-10.0))
    assert result.zeta == result.eta
    with pytest.raises(RangeError):
        planner.plan(1e4, 0.6, 1e-5)
    with pytest.raises(RangeError):
        planner.plan(1e4, 0.4, 0.5)  # zeta > eta
    with pytest.raises(InfeasiblePlanError):
        planner.plan(1e4, 0.49, math.exp(-100.0), planner.Constants(C_tau=1e-6))
    with pytest.raises(InfeasiblePlanError):
        # huge C_zeta forces the l-too-small branch
        planner.plan(1e4, 0.49, math.exp(-100.0), planner.Constants(C_zeta=1e9))
    with pytest.raises(RangeError):
        planner.Constants(C_tau=-1.0)


def test_desk_config_examples():
    cfg = HardPairConfig(0.05, 10, 0.05)
    assert cfg.delta == pytest.approx(0.69233, abs=1e-4)
    assert cfg.delta / 8.0 > 0.0865
    with pytest.raises(DeltaBoundError):
        HardPairConfig(0.05, 6, 0.05)
    with pytest.raises(DimensionBoundError):
        HardPairConfig(0.05, 1, 0.05)
    # the schedule and the desk configurations derive delta by one formula
    result = planner.plan(1e4, 0.49, math.exp(-100.0))
    assert result.delta == comb_delta(result.zeta, result.d)


def test_tsybakov_translation():
    params = planner.TsybakovParams(A_const=1.0, alpha=0.5)
    assert planner.tsybakov_to_massart(params, 0.05) == pytest.approx(0.45, abs=1e-15)
    # boundary zeta = A (1/2)^(alpha/(1-alpha)) gives eta = 0 and is rejected
    with pytest.raises(RangeError):
        planner.tsybakov_to_massart(params, 0.5)


# alpha stays in a band where 1/2 - eta keeps enough bits for the 1e-12
# round trip; extreme exponents lose it to cancellation in the double eta
@given(
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=0.3, max_value=0.75),
    st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=80, deadline=None)
def test_tsybakov_round_trip(a_const, alpha, frac):
    params = planner.TsybakovParams(A_const=a_const, alpha=alpha)
    zeta = frac * a_const * 0.5 ** (alpha / (1.0 - alpha))
    eta = planner.tsybakov_to_massart(params, zeta)
    back = a_const * (0.5 - eta) ** params.tail_exponent
    assert abs(back - zeta) <= 1e-12


def test_verify_tsybakov(desk_pair):
    params = planner.TsybakovParams(A_const=1.0, alpha=0.5)
    eta = planner.tsybakov_to_massart(params, desk_pair.config.zeta)
    rng = np.random.default_rng(1)
    instance = make_instance(desk_pair, random_unit_vector(6, rng), eta)
    grid = np.linspace(0.005, 0.5, 100)
    assert planner.verify_tsybakov(instance, params, grid)
    # below the knee the probability is exactly zero, hence within any bound
    assert planner.verify_tsybakov(instance, params, [0.5 - eta - 1e-6])
    # a grid point outside (0, 1/2] is rejected
    with pytest.raises(RangeError):
        planner.verify_tsybakov(instance, params, [0.7])
    # eta = 1/2 puts the off-support mass above the bound at small t
    tight = planner.TsybakovParams(A_const=1.0, alpha=0.9)
    heavy = make_instance(build_hard_pair(HardPairConfig(0.49, 4, 0.1)),
                          random_unit_vector(4, rng), 0.5)
    assert heavy.off_support_mass() > 1.0 * 0.01**tight.tail_exponent
    assert not planner.verify_tsybakov(heavy, tight, [0.01])

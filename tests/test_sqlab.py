import math

import numpy as np
import pytest

from massart_forge import moments, sqlab
from massart_forge.errors import DirectionSetError, QueryBudgetError, RangeError
from massart_forge.hardpair import build_hard_pair
from massart_forge.instance import make_instance, ptf_sign, sample_labeled
from massart_forge.planner import desk_config


@pytest.fixture(scope="module")
def planted():
    pair = build_hard_pair(desk_config(0.05, 10, 0.05))
    rng = np.random.default_rng(77)
    vectors = sqlab.near_orthogonal_set(20, 0.3, 21, rng)
    instance = make_instance(pair, vectors[0], 0.3)
    return pair, instance, vectors[1:]


def test_constant_query_honest(rng):
    config = sqlab.OracleConfig(tau=0.05)
    null = sqlab.NullDistribution(m=4, p=0.9)
    answer = sqlab.SQOracle(null, config, rng).answer(sqlab.constant_query())
    assert abs(answer - 1.0) <= 0.05


def test_label_mean_query_honest(rng):
    config = sqlab.OracleConfig(tau=0.05)
    null = sqlab.NullDistribution(m=4, p=0.9)
    answer = sqlab.SQOracle(null, config, rng).answer(sqlab.label_mean_query())
    assert abs(answer - 0.8) <= 0.05


def test_oracle_honesty_rate(rng):
    # Chernoff with C = 16 keeps the per-query failure rate below 1e-3
    config = sqlab.OracleConfig(tau=0.05)
    null = sqlab.NullDistribution(m=2, p=0.7)
    oracle = sqlab.SQOracle(null, config, rng)
    query = sqlab.label_mean_query()
    hits = sum(abs(oracle.answer(query) - 0.4) <= config.tau for _ in range(100))
    assert hits >= 99


def test_query_budget(rng):
    config = sqlab.OracleConfig(tau=0.2, query_budget=3)
    oracle = sqlab.SQOracle(sqlab.NullDistribution(2, 0.5), config, rng)
    for _ in range(3):
        oracle.answer(sqlab.constant_query())
    with pytest.raises(QueryBudgetError):
        oracle.answer(sqlab.constant_query())


def test_adversarial_determinism_and_rounding(planted):
    pair, instance, directions = planted
    dist = sqlab.InstanceDistribution(instance)
    null = sqlab.NullDistribution(instance.m, instance.p)
    config = sqlab.OracleConfig(tau=0.01, mode="adversarial")
    query = sqlab.projected_moment_query(directions[0], 1)
    answers = [
        sqlab.SQOracle(dist, config, np.random.default_rng(s), null_reference=null).answer(query)
        for s in (1, 2, 3)
    ]
    assert answers[0] == answers[1] == answers[2]
    true_val = dist.true_expectation(query)
    null_val = null.true_expectation(query)
    want = true_val + max(-0.01, min(0.01, null_val - true_val))
    assert answers[0] == want


def test_moment_query_closed_form_vs_monte_carlo(planted, rng):
    pair, instance, directions = planted
    dist = sqlab.InstanceDistribution(instance)
    for j in (1, 2):
        query = sqlab.projected_moment_query(directions[1], j)
        exact = dist.true_expectation(query)
        x, y = dist.sample_xy(rng, 1_000_000)
        vals = query.evaluate(x @ query.directions.T, y)
        sigma = float(vals.std()) / math.sqrt(len(vals))
        assert abs(float(vals.mean()) - exact) <= 4.0 * sigma + 1e-6


def _threshold_query(instance) -> sqlab.SQQuery:
    """Error of the optimal polynomial threshold rule, reading all of x
    through identity directions as Chow's threshold queries do."""
    return sqlab.SQQuery(
        np.eye(instance.m),
        lambda t, y: (ptf_sign(instance, t) != y).astype(float),
        "ptf error",
    )


def test_projected_sampler_matches_full(planted):
    pair, instance, directions = planted
    dist = sqlab.InstanceDistribution(instance)
    query = sqlab.projected_moment_query(directions[2], 2)
    t, y = dist.sample_projected(np.random.default_rng(5), 500_000, query.directions)
    proj_mean = float(query.evaluate(t, y).mean())
    x, y2 = dist.sample_xy(np.random.default_rng(6), 500_000)
    full_mean = float(query.evaluate(x @ query.directions.T, y2).mean())
    assert abs(proj_mean - full_mean) <= 5e-3


@pytest.mark.parametrize("law", ["planted", "null"])
@pytest.mark.parametrize("shape", ["moment", "cross_monomial", "identity"])
def test_projected_sampler_matches_full_by_shape(planted, law, shape):
    pair, instance, directions = planted
    if law == "planted":
        dist = sqlab.InstanceDistribution(instance)
    else:
        dist = sqlab.NullDistribution(instance.m, instance.p)
    if shape == "moment":
        query = sqlab.projected_moment_query(directions[2], 2)
    elif shape == "cross_monomial":
        alpha = tuple(int(i in (0, 3)) for i in range(instance.m))
        query = sqlab._monomial_query(alpha)
    else:
        query = _threshold_query(instance)
    rows = {"moment": 1, "cross_monomial": 2, "identity": instance.m}[shape]
    assert query.directions.shape == (rows, instance.m)
    t, y = dist.sample_projected(np.random.default_rng(5), 500_000, query.directions)
    proj_mean = float(query.evaluate(t, y).mean())
    x, y2 = dist.sample_xy(np.random.default_rng(6), 500_000)
    full_mean = float(query.evaluate(x @ query.directions.T, y2).mean())
    assert abs(proj_mean - full_mean) <= 5e-3


def test_planted_indicator_closed_forms(planted):
    pair, instance, _ = planted
    dist = sqlab.InstanceDistribution(instance)
    null = sqlab.NullDistribution(instance.m, instance.p)
    query = sqlab.projected_indicator_query(instance.v, pair.J1)
    on_planted = dist.true_expectation(query)
    on_null = null.true_expectation(query)
    assert on_planted == pytest.approx(0.7, abs=1e-10)
    assert 0.1 < on_null < 0.2
    assert on_planted - on_null > 0.05


def test_near_orthogonal_set_checks(rng):
    vectors = sqlab.near_orthogonal_set(200, 0.3, 100, rng)
    overlaps = np.abs(vectors @ vectors.T) - np.eye(100)
    assert overlaps.max() <= 0.3
    assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=1e-12)
    # c = 1 accepts anything immediately
    assert sqlab.near_orthogonal_set(3, 1.0, 8, rng).shape == (8, 3)
    with pytest.raises(DirectionSetError) as info:
        sqlab.near_orthogonal_set(2, 0.01, 50, rng)
    assert "2e^(-c^2 m/4)" in str(info.value)
    with pytest.raises(RangeError):
        sqlab.near_orthogonal_set(5, 1.5, 3, rng)


def test_pair_failure_bound():
    assert sqlab.pair_failure_bound(200, 0.3) == pytest.approx(
        2.0 * math.exp(-0.09 * 200 / 4.0) + 2.0 * math.exp(-200 / 32.0)
    )


def test_learner_constant(planted, rng):
    pair, instance, _ = planted
    dist = sqlab.InstanceDistribution(instance)
    oracle = sqlab.SQOracle(dist, sqlab.OracleConfig(tau=0.01), rng)
    hyp = sqlab.learner_constant(oracle)
    x, y = sample_labeled(instance, rng, 100_000)
    err = hyp.error(x, y)
    assert abs(err - 0.3) <= 4.0 * math.sqrt(0.3 * 0.7 / len(y))
    # on a null with p = 0.9 the constant +1 errs about 10% of the time
    null = sqlab.NullDistribution(3, 0.9)
    hyp_null = sqlab.learner_constant(sqlab.SQOracle(null, sqlab.OracleConfig(tau=0.02), rng))
    xn, yn = null.sample_xy(rng, 100_000)
    assert abs(hyp_null.error(xn, yn) - 0.1) <= 0.01


class _RealizableLinear:
    """Plumbing self-test distribution: y = sign(x_1), Gaussian x."""

    def __init__(self, m: int):
        self.m = m
        self.p = 0.5

    def sample_xy(self, rng, n):
        x = rng.standard_normal((n, self.m))
        y = np.where(x[:, 0] >= 0.0, 1, -1)
        return x, y

    def sample_projected(self, rng, n, directions):
        x, y = self.sample_xy(rng, n)
        return x @ directions.T, y


def test_learner_chow_realizable(rng):
    dist = _RealizableLinear(4)
    oracle = sqlab.SQOracle(dist, sqlab.OracleConfig(tau=0.02), rng)
    hyp = sqlab.learner_chow(oracle, 2)
    x, y = dist.sample_xy(rng, 50_000)
    assert hyp.error(x, y) < 0.05


def test_learner_chow_on_null(rng):
    null = sqlab.NullDistribution(4, 0.7)
    oracle = sqlab.SQOracle(null, sqlab.OracleConfig(tau=0.02), rng)
    hyp = sqlab.learner_chow(oracle, 2)
    x, y = null.sample_xy(rng, 100_000)
    err = hyp.error(x, y)
    assert abs(err - 0.3) <= 0.02 + 4.0 * math.sqrt(0.3 * 0.7 / len(y))


def test_experiment_report_consistency():
    config = desk_config(0.05, 10, 0.05)
    oracle_config = sqlab.OracleConfig(tau=0.05)
    report = sqlab.distinguishing_experiment(
        config, eta=0.3, m=8, oracle_config=oracle_config, seed=3,
        n_directions=4, learners=("constant",), holdout=20_000,
    )
    pair = build_hard_pair(config)
    want_alpha = (
        moments.chi_square_vs_gaussian(pair.A).closed_form
        + moments.chi_square_vs_gaussian(pair.B).closed_form
    )
    assert abs(report.alpha_chi - want_alpha) <= 1e-8
    assert report.c == pytest.approx(1.0 / (144.0 * math.log(20.0) ** 2))
    assert report.rho == pytest.approx(report.nu**2 + report.alpha_chi * report.c**12)
    assert report.N_bound == pytest.approx(
        math.exp(report.c**2 * 8 / 64.0) * report.rho / report.alpha_chi
    )
    assert report.queries_used == len(report.query_rows) * 2
    payload = report.to_dict()
    for key in ("nu", "rho", "alpha_chi", "N_bound", "tau", "queries_used", "gaps", "learner_errors"):
        assert key in payload

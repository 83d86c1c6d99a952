import math
from dataclasses import replace

import numpy as np
import pytest

from massart_forge import hardpair, moments, sqlab
from massart_forge.errors import DirectionSetError, QueryBudgetError, RangeError
from massart_forge.hardpair import HardPairConfig, IntervalUnion, build_hard_pair, phi_mass
from massart_forge.instance import (
    draw_labels,
    make_instance,
    ptf_sign,
    random_unit_vector,
    sample_labeled,
)


@pytest.fixture(scope="module")
def planted():
    pair = build_hard_pair(HardPairConfig(0.05, 10, 0.05))
    rng = np.random.default_rng(77)
    vectors = sqlab.near_orthogonal_set(20, 0.3, 21, rng)
    instance = make_instance(pair, vectors[0], 0.3)
    return pair, instance, vectors[1:]


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
        oracle.answer(sqlab.label_mean_query())
    with pytest.raises(QueryBudgetError):
        oracle.answer(sqlab.label_mean_query())


def test_batch_budget_refused_before_drawing(rng):
    config = sqlab.OracleConfig(tau=0.2, query_budget=5)
    oracle = sqlab.SQOracle(sqlab.NullDistribution(2, 0.5), config, rng)
    oracle.answer_batch([sqlab.label_mean_query()] * 3)
    assert oracle.queries_used == 3
    state = rng.bit_generator.state
    with pytest.raises(QueryBudgetError):
        oracle.answer_batch([sqlab.label_mean_query()] * 3)
    assert rng.bit_generator.state == state
    assert oracle.queries_used == 3
    oracle.answer_batch([sqlab.label_mean_query()] * 2)
    assert oracle.queries_used == 5


def test_batch_sample_size():
    # labels-only statistics: Hoeffding at failure 2e^(-C/2)/q each
    assert sqlab._hoeffding_rows(0.01, 1) == math.ceil(16.0 / 0.01**2) == 160_000
    assert [sqlab._hoeffding_rows(0.01, q) for q in (9, 42, 231)] == [203_945, 234_754, 268_849]
    # x-dependent statistics: the cap is Hoeffding at half that failure, and
    # the pilot draws 1/16 of the cap
    caps = [sqlab._hoeffding_rows(0.01, 2 * q) for q in (9, 42, 231)]
    assert caps == [217_808, 248_617, 282_712]
    assert [sqlab._pilot_rows(0.01, q) for q in (9, 42, 231)] == [13_613, 15_539, 17_670]
    assert sqlab._pilot_rows(0.9, 1) == 2  # never fewer than a sample variance needs
    # Bernstein at failure e^(-C/2)/q: the range term alone at sigma = 0, the
    # cap wherever Bernstein needs more, the experiment's indicators between
    assert sqlab._main_rows(0.01, 42, 0.0) == 1_658
    assert sqlab._main_rows(0.01, 42, 0.3) == 24_033
    assert sqlab._main_rows(0.01, 42, 1.0) == 248_617
    for q in (1, 9, 42, 231):
        for sigma in (0.0, 0.05, 0.3, 0.6):
            n = sqlab._main_rows(0.01, q, sigma)

            def bernstein(rows):
                return 2.0 * math.exp(-rows * 0.01**2 / (2.0 * sigma**2 + 4.0 * 0.01 / 3.0))

            assert bernstein(n) <= math.exp(-8.0) / q < bernstein(n - 1)  # the fewest rows


def test_sigma_bound_is_the_pilot_ucb():
    # s = sqrt(V + 16 n0 u) + 2 sqrt((C + 2 ln q)/(n0 - 1)), the largest over
    # the statistics, with V the unbiased sample variance
    values = np.array([[1.0, -1.0, 1.0, 1.0], [0.5, 0.5, 0.5, 0.5]])
    sums = np.stack([values.sum(axis=1), (values**2).sum(axis=1)])
    slack = 2.0 * math.sqrt((16.0 + 2.0 * math.log(3)) / 3.0)
    want = math.sqrt(float(np.var(values[0], ddof=1)) + 4 * 2.0**-49) + slack
    assert sqlab._sigma_bound(sums, 4, 3) == pytest.approx(want, rel=1e-15)
    # a constant column has V = 0 and keeps its rounding margin and slack
    assert sqlab._sigma_bound(sums[:, 1:], 4, 3) == math.sqrt(4 * 2.0**-49) + slack


def _per_query_reference(dist, rng, query, n, rows_per_chunk=1 << 19):
    """Mean of a one-column query over n fresh rows, drawn in chunks."""
    total, remaining = 0.0, n
    while remaining > 0:
        chunk = min(remaining, rows_per_chunk)
        t, y = dist.sample_projected(rng, chunk, query.directions)
        total += float(np.sum(query.evaluate(t, y)))
        remaining -= chunk
    return total / n


def _column_sums(dist, rng, directions, columns, n, rows_per_chunk):
    """Each column's sum and sum of squares over n fresh rows drawn in
    chunks; ``columns(t, y)`` yields one length-chunk vector per statistic,
    clipped and summed alone by np.sum."""
    sums, remaining = 0.0, n
    while remaining > 0:
        chunk = min(remaining, rows_per_chunk)
        t, y = dist.sample_projected(rng, chunk, directions)
        vectors = [np.clip(vector, -1.0, 1.0) for vector in columns(t, y)]
        sums = sums + np.array([[np.sum(v) for v in vectors], [np.sum(v * v) for v in vectors]])
        remaining -= chunk
    return sums


def _two_stage_reference(dist, rng, directions, columns, q, tau, rows_per_chunk):
    """The honest rule for x-dependent statistics, restated column by
    column: a pilot of n0 rows bounds every standard deviation, then all
    columns are means over N fresh rows.  Returns (means, n0, N)."""
    cap = math.ceil((sqlab.C + 2.0 * math.log(2 * q)) / tau**2)
    n0 = max(2, math.ceil(cap / 16))
    s1, s2 = _column_sums(dist, rng, directions, columns, n0, rows_per_chunk)
    variance = max((s2 - s1 * s1 / n0) / (n0 - 1))
    sigma = math.sqrt(max(variance, 0.0) + 16 * n0 * 2.0**-53) + 2.0 * math.sqrt(
        (sqlab.C + 2.0 * math.log(q)) / (n0 - 1)
    )
    bernstein = (sqlab.C / 2.0 + math.log(2 * q)) * (2.0 * sigma**2 + 4.0 * tau / 3.0) / tau**2
    n = min(cap, math.ceil(bernstein))
    s1, _ = _column_sums(dist, rng, directions, columns, n, rows_per_chunk)
    return (s1 / n).tolist(), n0, n


def test_single_query_is_a_batch_of_one(planted):
    # a lone query with 0 or 1 direction rows consumes the stream as a
    # per-query oracle does, so answer and answer_batch agree bit for bit
    pair, instance, directions = planted
    dist = sqlab.InstanceDistribution(instance)
    config = sqlab.OracleConfig(tau=0.01)
    queries = [
        sqlab.label_mean_query(),
        sqlab.projected_moment_query(directions[0], 2),
        sqlab.projected_indicator_query(instance.v, pair.J1),
    ]
    for query in queries:
        one = sqlab.SQOracle(dist, config, np.random.default_rng(3)).answer(query)
        batch = sqlab.SQOracle(dist, config, np.random.default_rng(3)).answer_batch([query])
        if len(query.directions):
            [reference], n0, n = _two_stage_reference(
                dist, np.random.default_rng(3), query.directions,
                lambda t, y: [query.evaluate(t, y)], 1, config.tau, (1 << 19) // instance.m,
            )
            assert n0 + n < 160_000  # Hoeffding's rows for one statistic
        else:
            reference = _per_query_reference(dist, np.random.default_rng(3), query, 160_000)
        assert one == batch[0] == reference, query.descriptions


def _mixed_batch(pair, instance, directions) -> list[sqlab.SQQuery]:
    """Battery queries of one and two columns, the Chow parameters (which
    read every coordinate), and a query repeating an earlier direction."""
    queries = [sqlab.projected_indicator_query(instance.v, pair.J1), sqlab.label_mean_query()]
    queries += [sqlab.projected_moment_query(u, 1, 2) for u in directions[:2]]
    queries += [sqlab.projected_moment_query(directions[2], j) for j in (1, 2)]
    queries.append(sqlab.chow_moment_query(instance.m))
    queries.append(sqlab.projected_moment_query(directions[1], 2))  # a repeat
    return queries


def _per_query(queries, answers):
    """Splits a batch's flat answers into one list per query."""
    answers = iter(answers)
    return [[next(answers) for _ in query.descriptions] for query in queries]


def test_mixed_batch_agrees_with_per_query(planted):
    pair, instance, directions = planted
    dist = sqlab.InstanceDistribution(instance)
    tau = 0.01
    config = sqlab.OracleConfig(tau=tau)
    queries = _mixed_batch(pair, instance, directions)
    batch = sqlab.SQOracle(dist, config, np.random.default_rng(11)).answer_batch(queries)
    single = sqlab.SQOracle(dist, config, np.random.default_rng(12))
    for query, answers in zip(queries, _per_query(queries, batch)):
        alone = single.answer_batch([query])
        exact = dist.true_expectation(query) or [None] * len(answers)
        for description, answer, one, want in zip(query.descriptions, answers, alone, exact):
            assert abs(answer - one) <= 2.0 * tau, description
            if want is not None:
                assert abs(answer - want) <= tau, description


def _project(x, directions):
    """x onto the rows of directions; a labels-only query has no rows."""
    return x @ directions.T if len(directions) else np.empty((len(x), 0))


class _FullGaussian:
    """Gaussian x, y = sign(x_1); projections computed from the full draw."""

    def __init__(self, m: int):
        self.m = m
        self.p = 0.5

    def sample_projected(self, rng, n, directions):
        x = rng.standard_normal((n, self.m))
        return _project(x, directions), np.where(x[:, 0] >= 0.0, 1, -1)


def test_batch_columns_map_to_their_directions(planted):
    # on one shared draw of x, every query of a batch sees exactly its own
    # projections, whatever rows it shares with the others: the labels-only
    # query its own draw of n_H rows, the rest the main draw after the pilot
    pair, instance, directions = planted
    dist = _Recording(_FullGaussian(instance.m))
    config = sqlab.OracleConfig(tau=0.05)
    queries = _mixed_batch(pair, instance, directions)
    q = sum(len(query.descriptions) for query in queries)
    answers = sqlab.SQOracle(dist, config, np.random.default_rng(5)).answer_batch(queries)
    rng = np.random.default_rng(5)
    draws = [rng.standard_normal((rows, instance.m)) for rows, _ in dist.blocks]
    k = sum(len(query.directions) for query in queries)
    assert [cols for _, cols in dist.blocks] == [0] + [k] * (len(draws) - 1)
    n_labels, n0 = sqlab._hoeffding_rows(0.05, q), sqlab._pilot_rows(0.05, q)
    assert dist.blocks[0][0] == n_labels
    pilot_chunks = int(np.searchsorted(np.cumsum([rows for rows, _ in dist.blocks[1:]]), n0)) + 1
    assert sum(rows for rows, _ in dist.blocks[1 : 1 + pilot_chunks]) == n0
    main = np.vstack(draws[1 + pilot_chunks :])
    assert 0 < len(main) <= sqlab._hoeffding_rows(0.05, 2 * q)
    for query, got in zip(queries, _per_query(queries, answers)):
        x = main if len(query.directions) else draws[0]
        t = _project(x, query.directions)
        want = query.evaluate(t, np.where(x[:, 0] >= 0.0, 1, -1)).reshape(-1, len(x)).mean(axis=1)
        assert got == pytest.approx(want.tolist(), abs=1e-12), query.descriptions


def test_batch_honesty_rate(rng):
    # one shared sample per batch: all 20 answers within tau except with
    # probability <= 2e^(-C/2) per batch
    config = sqlab.OracleConfig(tau=0.05)
    null = sqlab.NullDistribution(m=2, p=0.7)
    oracle = sqlab.SQOracle(null, config, rng)
    units = np.array([[math.cos(a), math.sin(a)] for a in np.linspace(0.0, 3.0, 9)])
    queries = [sqlab.label_mean_query(), sqlab.label_mean_query()]
    queries += [sqlab.projected_moment_query(u, 1, 2) for u in units]
    exact = [value for query in queries for value in null.true_expectation(query)]
    good = sum(
        all(abs(a - e) <= config.tau for a, e in zip(oracle.answer_batch(queries), exact))
        for _ in range(100)
    )
    assert good >= 99


class _Recording:
    """Wraps a distribution and records (rows, columns) of every sampled block."""

    def __init__(self, dist):
        self.dist, self.m, self.p = dist, dist.m, dist.p
        self.blocks = []

    def sample_projected(self, rng, n, directions):
        t, y = self.dist.sample_projected(rng, n, directions)
        self.blocks.append((len(y), t.shape[1]))
        return t, y

    def true_expectation(self, query):
        return self.dist.true_expectation(query)


def test_wide_query_costs_one_query_per_column(rng):
    # a w-column query is w queries: against the budget, in the 2 ln q
    # sizing, and in the refusal that comes before any draw
    null = _Recording(sqlab.NullDistribution(m=3, p=0.6))
    config = sqlab.OracleConfig(tau=0.05, query_budget=7)
    oracle = sqlab.SQOracle(null, config, rng)
    wide = sqlab.projected_moment_query(np.array([1.0, 0.0, 0.0]), 1, 2, 3, 4)
    state = rng.bit_generator.state
    got = oracle.answer_batch([wide])
    assert len(got) == 4
    assert oracle.queries_used == 4
    replay = np.random.default_rng()
    replay.bit_generator.state = state
    answers, n0, n = _two_stage_reference(
        sqlab.NullDistribution(m=3, p=0.6), replay, wide.directions,
        lambda t, y: wide.evaluate(t, y), 4, config.tau, (1 << 19) // 4,
    )
    assert n0 == sqlab._pilot_rows(config.tau, 4) > sqlab._pilot_rows(config.tau, 1)
    assert sum(rows for rows, _ in null.blocks) == n0 + n
    assert got == answers
    state = rng.bit_generator.state
    with pytest.raises(QueryBudgetError):
        oracle.answer_batch([wide])  # 4 columns, 3 left
    assert rng.bit_generator.state == state
    assert oracle.queries_used == 4 and len(null.blocks) == 2  # pilot and main
    narrow = sqlab.projected_moment_query(np.array([0.0, 1.0, 0.0]), 1, 2)
    assert len(oracle.answer_batch([narrow, sqlab.label_mean_query()])) == 3
    assert oracle.queries_used == 7


def test_no_block_exceeds_2_19_values(planted, monkeypatch):
    pair, instance, directions = planted
    dist = _Recording(sqlab.InstanceDistribution(instance))
    evaluated = []
    evaluate = sqlab.SQQuery.evaluate

    def recording(query, t, y):
        out = evaluate(query, t, y)
        evaluated.append(out.size)
        return out

    monkeypatch.setattr(sqlab.SQQuery, "evaluate", recording)
    oracle = sqlab.SQOracle(dist, sqlab.OracleConfig(tau=0.02), np.random.default_rng(1))
    oracle.answer_batch(_mixed_batch(pair, instance, directions))
    sqlab.learner_chow(oracle)
    # a one-row query's pilot alone spans several chunks of full-x draws
    assert sqlab._pilot_rows(0.005, 2) > (1 << 19) // instance.m
    narrow = sqlab.SQOracle(dist, sqlab.OracleConfig(tau=0.005), np.random.default_rng(2))
    narrow.answer_batch([sqlab.projected_moment_query(directions[0], 1, 2)])
    # a draw with directions holds all m coordinates of x before projecting
    assert max(rows * max(k, instance.m) for rows, k in dist.blocks if k) <= 1 << 19
    assert max(evaluated) <= 1 << 19
    assert max(evaluated) > 1 << 18  # the 230-column block fills a chunk


class _Uncertified(_Recording):
    """A recording distribution without closed forms: an adversarial oracle
    certifies every statistic on it."""

    def true_expectation(self, query):
        return None


def _binomial_upper(n: int, p: float, level: float = 1e-3) -> int:
    """The least k with P(Bin(n, p) > k) <= level."""
    tail, k = 1.0, -1
    while tail > level:
        k += 1
        tail -= math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
    return k


def test_honest_batches_cover_at_the_stated_rate(monkeypatch):
    # at C = 4 a batch may miss tau with probability 2e^(-2) ~ 0.27, and its
    # pilot may bound the largest standard deviation too low with probability
    # e^(-2), which shows as a main sample smaller than the true variances
    # need; both counts over 200 honest batches at tau and 200 adversarial
    # batches, certified at tau/4, stay within the binomial tails of the bounds
    monkeypatch.setattr(sqlab, "C", 4.0)
    null = sqlab.NullDistribution(m=2, p=0.7)
    u, w = np.array([1.0, 0.0]), np.array([0.6, 0.8])
    rare = IntervalUnion(((2.6, 40.0),))  # mass 4.7e-3: most 54-row pilots see none
    common = IntervalUnion(((-0.5, 0.5),))

    def signed(direction, region):
        mass = float(phi_mass(*region.intervals[0]))
        return sqlab.SQQuery(
            direction[None, :],
            lambda t, y: y * region.contains(t[:, 0]).astype(float),
            ("y*1[<u,x> in region]",),
            exact=lambda dist: ((2.0 * dist.p - 1.0) * mass,),
        )

    queries = [
        sqlab.label_mean_query(),
        sqlab.projected_indicator_query(u, rare),
        sqlab.projected_indicator_query(w, common),
        signed(w, common),
        signed(u, rare),
    ]
    truths = [value for query in queries for [value] in [null.true_expectation(query)]]
    masses = [float(phi_mass(*region.intervals[0])) for region in (rare, common)]
    sigma = max(  # the largest standard deviation among the x-dependent statistics
        *(math.sqrt(mass * (1.0 - mass)) for mass in masses),
        *(math.sqrt(mass - (0.4 * mass) ** 2) for mass in masses),
    )
    tau, q, batches = 0.1, len(queries), 200
    for mode, batch_tau in (("honest", tau), ("adversarial", tau / 4.0)):
        dist = _Uncertified(null)
        config = sqlab.OracleConfig(tau=tau, mode=mode)
        oracle = sqlab.SQOracle(
            dist, config, np.random.default_rng(2026),
            null_reference=sqlab.NullDistribution(m=2, p=0.5),
        )
        misses = short = 0
        for _ in range(batches):
            dist.blocks.clear()
            answers = oracle.answer_batch(queries)
            misses += any(abs(a - t) > tau for a, t in zip(answers, truths))
            main = sum(rows for rows, k in dist.blocks if k) - sqlab._pilot_rows(batch_tau, q)
            short += main < sqlab._main_rows(batch_tau, q, sigma)
        assert misses <= _binomial_upper(batches, 2.0 * math.exp(-2.0)), mode
        assert short <= _binomial_upper(batches, math.exp(-2.0)), mode


@pytest.mark.parametrize("law", ["planted", "null"])
def test_labels_only_draw_reads_no_hidden_projection(planted, law):
    # with no direction rows the sampler draws the labels and nothing else,
    # so the generator ends where draw_labels alone leaves it
    _, instance, _ = planted
    if law == "planted":
        dist = sqlab.InstanceDistribution(instance)
    else:
        dist = sqlab.NullDistribution(instance.m, instance.p)
    rng, alone = np.random.default_rng(13), np.random.default_rng(13)
    t, y = dist.sample_projected(rng, 5_000, sqlab.label_mean_query().directions)
    assert t.shape == (5_000, 0)
    assert np.array_equal(y, draw_labels(alone, 5_000, instance.p))
    assert rng.bit_generator.state == alone.bit_generator.state


def test_moment_orders_are_one_order_queries_on_one_sample(planted):
    # the columns of a two-order query are bit-identical to the one-order
    # queries evaluated on the same rows of the same stream
    pair, instance, directions = planted
    dist = sqlab.InstanceDistribution(instance)
    config = sqlab.OracleConfig(tau=0.01)
    query = sqlab.projected_moment_query(directions[0], 1, 2)
    both = sqlab.SQOracle(dist, config, np.random.default_rng(9)).answer_batch([query])
    alone = [sqlab.projected_moment_query(directions[0], j) for j in (1, 2)]
    want, n0, n = _two_stage_reference(
        dist, np.random.default_rng(9), query.directions,
        lambda t, y: [one.evaluate(t, y) for one in alone], 2, config.tau,
        (1 << 19) // instance.m,
    )
    assert n0 == sqlab._pilot_rows(config.tau, 2) and n < sqlab._hoeffding_rows(config.tau, 4)
    assert both == want


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
    [true_val] = dist.true_expectation(query)
    [null_val] = null.true_expectation(query)
    want = true_val + max(-0.01, min(0.01, null_val - true_val))
    assert answers[0] == want


def test_adversary_budget_after_certified_monte_carlo(planted):
    # a probe direction nearly on v has no closed form on the planted side,
    # and the null value lies far below it; the certificate spends up to
    # tau/4, so the adversary may move only the remaining 3 tau/4
    pair, instance, directions = planted
    v = instance.v
    e = directions[0] - (directions[0] @ v) * v
    e /= np.linalg.norm(e)
    w = 0.9998 * v + math.sqrt(1.0 - 0.9998**2) * e
    dist = sqlab.InstanceDistribution(instance)
    null = sqlab.NullDistribution(instance.m, instance.p)
    query = sqlab.projected_indicator_query(w, pair.J1)
    assert dist.true_expectation(query) is None
    rng = np.random.default_rng(2024)
    n_truth, hits = 4_000_000, 0.0
    for _ in range(4):  # truth to ~2.5e-4 = tau/200
        t, y = dist.sample_projected(rng, n_truth // 4, query.directions)
        hits += float(query.evaluate(t, y).sum())
    truth = hits / n_truth
    tau = 0.05
    assert truth - null.true_expectation(query)[0] > 5.0 * tau
    config = sqlab.OracleConfig(tau=tau, mode="adversarial")
    misses = [
        abs(
            sqlab.SQOracle(dist, config, np.random.default_rng(s), null_reference=null).answer(query)
            - truth
        )
        for s in range(60)
    ]
    assert max(misses) <= tau


def test_adversarial_truths_share_one_certified_batch(planted):
    # two queries without a closed form get their truths from one honest
    # batch at tau/4 on one shared sample, and the adversary moves 3 tau/4
    pair, instance, directions = planted
    dist = _Recording(sqlab.InstanceDistribution(instance))
    null = sqlab.NullDistribution(instance.m, instance.p)
    queries = [sqlab.projected_indicator_query(u, pair.J1) for u in directions[:2]]
    assert all(dist.true_expectation(query) is None for query in queries)
    config = sqlab.OracleConfig(tau=0.05, mode="adversarial")
    oracle = sqlab.SQOracle(dist, config, np.random.default_rng(4), null_reference=null)
    answers = oracle.answer_batch(queries)
    certify = replace(config, mode="honest", tau=config.tau / 4.0)
    reference, n0, n = _two_stage_reference(
        sqlab.InstanceDistribution(instance), np.random.default_rng(4),
        np.vstack([query.directions for query in queries]),
        lambda t, y: [query.evaluate(t[:, j : j + 1], y) for j, query in enumerate(queries)],
        2, certify.tau, (1 << 19) // instance.m,
    )
    assert n0 == sqlab._pilot_rows(certify.tau, 2) > 10 * sqlab._pilot_rows(config.tau, 2)
    assert sum(rows for rows, _ in dist.blocks) == n0 + n
    assert {k for _, k in dist.blocks} == {2}  # both rows in every chunk
    truths = sqlab.SQOracle(
        sqlab.InstanceDistribution(instance), certify, np.random.default_rng(4)
    ).answer_batch(queries)
    assert truths == reference
    budget = config.tau - config.tau / 4.0
    want = []
    for query, truth in zip(queries, truths):
        [null_val] = null.true_expectation(query)
        want.append(truth + max(-budget, min(budget, null_val - truth)))
    assert answers == want


def test_moment_query_closed_form_vs_monte_carlo(planted, rng):
    pair, instance, directions = planted
    dist = sqlab.InstanceDistribution(instance)
    for j in (1, 2):
        query = sqlab.projected_moment_query(directions[1], j)
        [exact] = dist.true_expectation(query)
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
        ("ptf error",),
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
        radius = sqlab.CLIP_RADIUS
        query = sqlab.SQQuery(
            np.eye(instance.m)[[0, 3]],
            lambda t, y: y * np.prod(np.clip(t, -radius, radius) / radius, axis=1),
            ("y*c_1*c_4",),
        )
    else:
        query = _threshold_query(instance)
    rows = {"moment": 1, "cross_monomial": 2, "identity": instance.m}[shape]
    assert query.directions.shape == (rows, instance.m)
    t, y = dist.sample_projected(np.random.default_rng(5), 500_000, query.directions)
    proj_mean = float(query.evaluate(t, y).mean())
    x, y2 = dist.sample_xy(np.random.default_rng(6), 500_000)
    full_mean = float(query.evaluate(x @ query.directions.T, y2).mean())
    assert abs(proj_mean - full_mean) <= 5e-3


@pytest.mark.parametrize("law", ["planted", "null"])
def test_one_sampler_draw_order(planted, law):
    # labels, then the hidden projection (planted only), then one (n, m)
    # normal block whose component on v is replaced by it; the two laws
    # differ only in that draw
    pair, instance, directions = planted
    if law == "planted":
        dist = sqlab.InstanceDistribution(instance)
    else:
        dist = sqlab.NullDistribution(instance.m, instance.p)
    n, u = 1000, directions[:3]
    got_t, got_y = dist.sample_projected(np.random.default_rng(8), n, u)

    rng = np.random.default_rng(8)
    y = np.where(rng.random(n) < instance.p, 1, -1)
    if law == "planted":
        pos = y == 1
        t = np.empty(n)
        t[pos] = hardpair.sample(pair.A, rng, int(pos.sum()))
        t[~pos] = hardpair.sample(pair.B, rng, int((~pos).sum()))
    x = rng.standard_normal((n, instance.m))
    if law == "planted":
        x += np.multiply.outer(t - x @ instance.v, instance.v)
    assert np.array_equal(got_y, y)
    assert np.array_equal(got_t, x @ u.T)


@pytest.mark.parametrize("m", [1, 3, 20])
def test_identity_projection_is_the_full_draw(planted, m):
    # the oracle's projected draw onto the identity and the full-x draw
    # behind gen, verify and the holdout are one stream, bit for bit
    pair = planted[0]
    instance = make_instance(pair, random_unit_vector(m, np.random.default_rng(m)), 0.3)
    dist = sqlab.InstanceDistribution(instance)
    got_x, got_y = dist.sample_projected(np.random.default_rng(2), 5000, np.eye(m))
    want_x, want_y = sample_labeled(instance, np.random.default_rng(2), 5000)
    assert np.array_equal(got_y, want_y)
    assert np.array_equal(got_x, want_x)


def test_planted_indicator_closed_forms(planted):
    pair, instance, _ = planted
    dist = sqlab.InstanceDistribution(instance)
    null = sqlab.NullDistribution(instance.m, instance.p)
    query = sqlab.projected_indicator_query(instance.v, pair.J1)
    [on_planted] = dist.true_expectation(query)
    [on_null] = null.true_expectation(query)
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
    assert f"P(|<u, v>| > c) = {sqlab.pair_overlap_tail(2, 0.01):.3g}" in str(info.value)
    with pytest.raises(RangeError):
        sqlab.near_orthogonal_set(5, 1.5, 3, rng)


# every seed in 0..19 999 whose first greedy pass stalls at the defaults, with
# the seed that stalled a benchmark run; each draws rng_dirs the way
# distinguishing_experiment spawns it
STALLED_SEEDS = (
    83, 700, 1192, 1553, 1607, 2047, 2260, 2317, 2909, 2953, 4326, 4914, 5334,
    5898, 5990, 6969, 7195, 7704, 9968, 9975, 10029, 10793, 10873, 11775, 12203,
    12302, 12558, 13871, 14696, 14708, 16671, 17375, 18554, 18682, 18833, 19400,
    19834, 19903, 2089084693,
)


def _dirs_rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[0])


def test_stalled_direction_searches_restart(monkeypatch):
    size = sqlab.N_PROBES + 1
    for seed in STALLED_SEEDS:
        vectors = sqlab.near_orthogonal_set(20, sqlab.DIRECTION_C, size, _dirs_rng(seed))
        overlaps = np.abs(vectors @ vectors.T) - np.eye(size)
        assert overlaps.max() <= sqlab.DIRECTION_C, seed
    # and each of them does stall without a restart
    monkeypatch.setattr(sqlab, "DIRECTION_RESTARTS", 0)
    for seed in STALLED_SEEDS:
        with pytest.raises(DirectionSetError):
            sqlab.near_orthogonal_set(20, sqlab.DIRECTION_C, size, _dirs_rng(seed))


def test_pair_failure_bound(monkeypatch):
    # the exact overlap law I_{1-c^2}((m-1)/2, 1/2) of two uniform unit vectors
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for m in range(2, 65):
        for c in (0.01, 0.1, 0.3, 0.5, 0.9, 0.999, 1.0):
            want = float(mpmath.betainc((m - 1) / 2, 0.5, 0, 1 - mpmath.mpf(c) ** 2,
                                        regularized=True))
            assert sqlab.pair_overlap_tail(m, c) == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert sqlab.pair_overlap_tail(1, 0.3) == 1.0
    assert sqlab.pair_overlap_tail(20, 0.3) == pytest.approx(0.18641143545847, rel=1e-12)
    # at the defaults the rejection estimate still caps, so the first pass keeps
    # its 2 101 tries
    monkeypatch.setattr(sqlab, "DIRECTION_RESTARTS", 0)
    with pytest.raises(DirectionSetError, match="of 2101 tries each"):
        sqlab.near_orthogonal_set(20, sqlab.DIRECTION_C, sqlab.N_PROBES + 1, _dirs_rng(83))


def test_signed_moments_read_once_per_instance(planted, monkeypatch):
    pair, instance, directions = planted
    dist = sqlab.InstanceDistribution(instance)
    battery = [sqlab.projected_moment_query(u, *sqlab.MOMENT_ORDERS) for u in directions]
    calls = []
    measure_moment = moments.measure_moment

    def counted(measure, t):
        calls.append(t)
        return measure_moment(measure, t)

    monkeypatch.setattr(moments, "measure_moment", counted)
    first = [dist.true_expectation(query) for query in battery]
    again = [dist.true_expectation(query) for query in battery]
    assert sorted(calls) == [0, 0, 1, 1, 2, 2]  # orders 0-2 of A and of B
    assert first == again
    for u, values in zip(directions, first):
        gamma = float(u @ instance.v)
        s = math.sqrt(max(0.0, 1.0 - gamma**2))

        def signed(i):
            return instance.p * measure_moment(pair.A, i) - (1.0 - instance.p) * (
                measure_moment(pair.B, i)
            )

        order_1 = gamma * signed(1)
        order_2 = s**2 * signed(0) + gamma**2 * signed(2)
        assert values == [order_1 / sqlab.CLIP_RADIUS, order_2 / sqlab.CLIP_RADIUS**2]


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
        return _project(x, directions), y


def test_chow_columns_are_the_named_monomials(rng):
    m = 5
    query = sqlab.chow_moment_query(m)
    t = 4.0 * rng.standard_normal((50, m))
    y = np.where(rng.random(50) < 0.5, 1, -1)
    c = np.clip(t, -sqlab.CLIP_RADIUS, sqlab.CLIP_RADIUS) / sqlab.CLIP_RADIUS
    block = query.evaluate(t, y)
    # one row per statistic; E[y] reads no x and is asked apart from them
    assert block.shape == (m + m * (m + 1) // 2, 50)
    assert query.descriptions[0] == "y*c_1"
    for row, description in enumerate(query.descriptions):
        want = y.astype(float)
        for factor in description.split("*")[1:]:  # "c_i", 1-based
            want = want * c[:, int(factor[2:]) - 1]
        assert np.array_equal(block[row], want), description


def test_chow_batch_is_bitwise_per_column(planted):
    # every Chow coefficient and threshold error equals its statistic built
    # as its own length-n vector, (y c_i) c_j, and summed alone by np.sum,
    # chunk by chunk on the same stream
    pair, instance, directions = planted
    dist = sqlab.InstanceDistribution(instance)
    config = sqlab.OracleConfig(tau=0.02)
    oracle = sqlab.SQOracle(dist, config, np.random.default_rng(21))
    answered = []
    answer_batch = oracle.answer_batch
    oracle.answer_batch = lambda queries: answered.append(answer_batch(queries)) or answered[-1]
    sqlab.learner_chow(oracle)
    coeffs, errs = answered
    m, radius = instance.m, sqlab.CLIP_RADIUS
    upper_i, upper_j = np.triu_indices(m)
    assert len(coeffs) == 231 and len(errs) == 9

    scale = float(np.sum(np.abs(coeffs))) + 1e-12
    thetas = np.linspace(-scale, scale, 9)
    linear = np.array(coeffs[1 : m + 1])
    quadratic = np.zeros((m, m))
    quadratic[upper_i, upper_j] = coeffs[m + 1 :]

    def chow_columns(t, y):
        c = np.clip(t, -radius, radius) / radius
        yield from (y * c[:, i] for i in range(m))
        yield from ((y * c[:, i]) * c[:, j] for i, j in zip(upper_i, upper_j))

    def error_columns(t, y):
        c = np.clip(t, -radius, radius) / radius
        f = coeffs[0] + c @ linear + ((c @ quadratic) * c).sum(axis=1)
        yield from ((np.where(f - theta >= 0.0, 1, -1) != y) * 1.0 for theta in thetas)

    # E[y] from Hoeffding's rows of labels alone, then the 230 coefficients
    # that read x, then the 9 errors, each through a pilot and a main sample
    rng = np.random.default_rng(21)
    label_mean = _per_query_reference(
        dist, rng, sqlab.label_mean_query(), sqlab._hoeffding_rows(config.tau, 231)
    )
    chow, _, _ = _two_stage_reference(
        dist, rng, np.eye(m), chow_columns, 231, config.tau, (1 << 19) // 230
    )
    assert coeffs == [label_mean] + chow
    errors, _, _ = _two_stage_reference(
        dist, rng, np.eye(m), error_columns, 9, config.tau, (1 << 19) // m
    )
    assert errs == errors


@pytest.mark.parametrize("law", ["planted", "null"])
def test_covariance_factor_built_once_per_batch(planted, monkeypatch, law):
    # x is drawn whole and projected, so no chunk of Chow's many-chunk
    # batch factors a covariance
    _, instance, _ = planted
    if law == "planted":
        dist = sqlab.InstanceDistribution(instance)
    else:
        dist = sqlab.NullDistribution(instance.m, instance.p)
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape))
    config = sqlab.OracleConfig(tau=0.02)
    oracle = sqlab.SQOracle(dist, config, np.random.default_rng(3))
    query = sqlab.chow_moment_query(instance.m)
    assert sqlab._pilot_rows(0.02, 230) > (1 << 19) // 230  # several chunks per sample
    assert len(oracle.answer_batch([query])) == 230
    assert calls == []


def test_learner_chow_realizable(rng):
    # The oracle's contract, not the learner's resolution: each coefficient
    # of y = sign(x_1) is within tau of E[y * clipped monomial] / R^|alpha|,
    # which is E|clip(x_1, +-R)| / R for x_1 and 0 for every other monomial.
    dist = _RealizableLinear(4)
    tau = 0.02
    radius = sqlab.CLIP_RADIUS
    queries = [sqlab.label_mean_query(), sqlab.chow_moment_query(4)]
    descriptions = [d for query in queries for d in query.descriptions]
    assert len(descriptions) == 1 + 4 + 10  # every monomial of degree <= 2
    oracle = sqlab.SQOracle(dist, sqlab.OracleConfig(tau=tau), rng)
    coeffs = oracle.answer_batch(queries)
    abs_clipped = 2.0 * (1.0 - math.exp(-(radius**2) / 2.0)) / math.sqrt(
        2.0 * math.pi
    ) + radius * math.erfc(radius / math.sqrt(2.0))
    for description, coeff in zip(descriptions, coeffs):
        want = abs_clipped / radius if description == "y*c_1" else 0.0
        assert abs(coeff - want) <= tau, description
    # end to end, the learner beats the best constant (error 1/2) by far
    hyp = sqlab.learner_chow(sqlab.SQOracle(dist, sqlab.OracleConfig(tau=tau), rng))
    x, y = dist.sample_xy(rng, 50_000)
    assert hyp.error(x, y) < 0.3


def test_learner_chow_on_null(rng):
    null = sqlab.NullDistribution(4, 0.7)
    oracle = sqlab.SQOracle(null, sqlab.OracleConfig(tau=0.02), rng)
    hyp = sqlab.learner_chow(oracle)
    x, y = null.sample_xy(rng, 100_000)
    err = hyp.error(x, y)
    assert abs(err - 0.3) <= 0.02 + 4.0 * math.sqrt(0.3 * 0.7 / len(y))


def test_experiment_report_consistency():
    config = HardPairConfig(0.05, 10, 0.05)
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

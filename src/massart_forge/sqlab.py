"""Simulated statistical-query oracle, near-orthogonal direction sets,
baseline SQ learners, and the distinguishing experiment.

The oracle answers expectations of bounded functions to accuracy tau.  A
query carries r bounded statistics over one set of direction rows, evaluated
as an (r, n) block with one row per statistic, and each statistic counts as
one query.  Adversarial mode answers each statistic's true expectation
(closed form where the query has one, otherwise one honest batch at tau/4
for all such statistics) plus a deterministic perturbation of at most tau,
less the tau/4 when the batch supplied the truth; the adversary rounds
toward the null distribution's value, the least informative answer.

Honest batches.  A non-adaptive batch of q statistics X_i with values in
[-1, 1], answered at accuracy tau, has every answer within tau of its E X_i
except with probability at most 2e^(-C/2) (6.7e-4 at C = 16).  Each
statistic may fail with probability delta = 2e^(-C/2)/q, and a union bound
over the q statistics gives the total.  Each sample below is fresh: no row
serves two stages.

* Statistics that ignore x (no direction rows, such as E[y]) are means of
  n_H = ceil((C + 2 ln q)/tau^2) labels, drawn without x.  Hoeffding for a
  range of width 2 gives P(|mean - E X_i| > tau) <= 2 exp(-n_H tau^2/2)
  <= delta.
* The x-dependent statistics split delta into delta_p = delta_m = delta/2 =
  e^(-C/2)/q between two samples, each shared by all of them.
  1. Pilot: n0 = max(2, ceil(n_cap/PILOT_SHARE)) rows, with n_cap from
     step 2, give each statistic's unbiased sample variance V_i.  By Maurer
     & Pontil (2009, "Empirical Bernstein bounds and sample variance
     penalization", Thm. 10) for n0 i.i.d. variables in [0, 1], rescaled to
     [-1, 1], which doubles every standard deviation, the true standard
     deviation sigma_i exceeds
         s_i = sqrt(V_i) + 2 sqrt(2 ln(1/delta_p)/(n0 - 1))
             = sqrt(V_i) + 2 sqrt((C + 2 ln q)/(n0 - 1))
     with probability at most delta_p.
  2. Main: N = min(n_cap, max_i ceil(ln(2/delta_m)(2 s_i^2 + 4 tau/3)/tau^2))
     rows, where ln(2/delta_m) = C/2 + ln(2q) and
     n_cap = ceil((C + 2 ln(2q))/tau^2), and every x-dependent answer is
     the mean of all N rows.  Given the pilot, N is fixed.  Bernstein's
     inequality, for |X_i - E X_i| <= b = 2 and variance sigma_i^2, bounds
         P(|mean_N - E X_i| >= tau) <= 2 exp(-N tau^2/(2 sigma_i^2 + 2 b tau/3)),
     which is at most delta_m when N >= ln(2/delta_m)(2 sigma_i^2
     + 4 tau/3)/tau^2; that holds below the cap whenever sigma_i <= s_i,
     since the size grows with the standard deviation and N is the largest
     over the batch.  At the cap, Hoeffding gives
     2 exp(-n_cap tau^2/2) <= delta_m whatever the variance.
  So P(X_i misses) <= P(sigma_i > s_i) + P(X_i misses and sigma_i <= s_i)
  <= delta_p + delta_m = delta.
* Rounding: the pilot keeps S1 = sum x and S2 = sum x^2 per statistic and
  computes V_i = (S2 - S1^2/n0)/(n0 - 1).  Each sum has at most n0 terms of
  magnitude at most 1, so it is within gamma_n0 n0 of exact in any order
  (Higham 2002, eq. (4.4)); with one rounding of relative size u = 2^-53 in
  each remaining operation, the computed V_i is within 11 n0 u of the exact
  one while n0 u <= 0.01.  s_i adds 16 n0 u to V_i before the square root,
  so rounding cannot take it below the bound the theorem needs.

The experiment's statistics have standard deviations of about 0.04 to 0.46,
far below the worst case of 1 that Hoeffding's range-based size pays for.
At its tau = 0.01 the slack term is about 0.08, and pilot shares from 16 to
32 of the cap drew within 2 % of the fewest pilot-plus-main rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import moments
from .errors import DirectionSetError, QueryBudgetError, RangeError
from .hardpair import IntervalUnion, build_hard_pair, mass_in, phi_mass
from .hardpair import sample as hp_sample
from .instance import (
    MassartInstance,
    draw_labels,
    embed,
    make_instance,
    random_unit_vector,
    sample_labeled,
)

__all__ = [
    "SQQuery",
    "OracleConfig",
    "SQOracle",
    "NullDistribution",
    "InstanceDistribution",
    "label_mean_query",
    "projected_moment_query",
    "projected_indicator_query",
    "chow_moment_query",
    "near_orthogonal_set",
    "pair_overlap_tail",
    "Hypothesis",
    "learner_constant",
    "learner_chow",
    "LEARNERS",
    "widest_block",
    "ExperimentReport",
    "distinguishing_experiment",
]

C = 16.0  # honest sizing constant: per-batch failure probability <= 2e^(-C/2)
PILOT_SHARE = 16  # an x-dependent pilot draws ceil(n_cap/16) rows
# moment and Chow queries clip each projection at CLIP_RADIUS = 6 sigma.  The
# oracle's tau guarantee is about the clipped statistic it evaluates; the
# closed forms in projected_moment_query.exact are unclipped moments, and no
# bound on the clipped-tail bias between the two is proven or checked yet.
CLIP_RADIUS = 6.0
_NO_DIRECTIONS = np.empty((0, 0))  # rows of a query that ignores x
# the experiment's probes: N_PROBES directions, each moment order per probe,
# drawn with the hidden direction at pairwise |<u, v>| <= DIRECTION_C
N_PROBES = 20
DIRECTION_C = 0.3
DIRECTION_RESTARTS = 3  # fresh searches after a stalled one, same generator
MOMENT_ORDERS = (1, 2)
CHOW_THRESHOLDS = 9  # threshold candidates learner_chow asks about in one batch
SUM_BLOCK = 1 << 19  # values per sampled or evaluated block in SQOracle._sums


@dataclass(frozen=True)
class SQQuery:
    """r bounded queries phi(x, y) = g(x . directions^T, y), clipped to [-1, 1].

    Every query reads x only through its projections T onto the rows of
    ``directions`` (no rows for a query that ignores x); a query that needs
    all of x uses the identity, for which T = x.  The oracle draws full
    examples (labels alone when no query has rows) and hands each query
    only (T, y).  ``g`` returns an (r, n) block, one row per statistic and
    r = len(descriptions), or a length-n vector when r = 1; it must be a
    new float array, which ``evaluate`` clips in place.

    ``exact`` optionally computes the r true expectations for a given
    distribution object; queries without them fall back to certified Monte
    Carlo in adversarial mode.
    """

    directions: np.ndarray
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    descriptions: tuple[str, ...]
    exact: Callable[[object], Sequence[float] | None] | None = None

    def evaluate(self, t: np.ndarray, y: np.ndarray) -> np.ndarray:
        block = self.g(t, y)
        return np.clip(block, -1.0, 1.0, out=block)


@dataclass(frozen=True)
class OracleConfig:
    """Accuracy tau and answering mode.

    An honest batch of q statistics has all q answers within tau except
    with probability <= 2e^(-C/2), at C = 16.  Labels-only statistics read
    ceil((C + 2 ln q)/tau^2) labels; the others read a pilot sample that
    bounds their standard deviations, then a main sample sized by Bernstein
    from those bounds (the module docstring has the sizes and the proof).
    ``query_budget`` caps the total number of statistics one oracle answers.
    """

    tau: float
    mode: str = "honest"  # "honest" or "adversarial"
    query_budget: int = 1_000_000

    def __post_init__(self):
        if not (0.0 < self.tau < 1.0):
            raise RangeError(f"tau = {self.tau} outside (0, 1)")
        if self.mode not in ("honest", "adversarial"):
            raise RangeError(f"unknown oracle mode {self.mode!r}")


def _hoeffding_rows(tau: float, q: int) -> int:
    """ceil((C + 2 ln q)/tau^2): rows that keep the mean of a statistic in
    [-1, 1] within tau except with probability 2e^(-C/2)/q."""
    return math.ceil((C + 2.0 * math.log(q)) / tau**2)


def _pilot_rows(tau: float, q: int) -> int:
    """n0, the pilot's rows for a batch of q statistics."""
    return max(2, math.ceil(_hoeffding_rows(tau, 2 * q) / PILOT_SHARE))


def _sigma_bound(sums: np.ndarray, n0: int, q: int) -> float:
    """The largest s_i over a pilot's per-statistic sums (row 0) and sums of
    squares (row 1): each sigma_i <= s_i except with probability e^(-C/2)/q."""
    s1, s2 = sums
    variance = float(np.max((s2 - s1 * s1 / n0) / (n0 - 1)))
    rounding = n0 * 2.0**-49  # 16 n0 u
    slack = 2.0 * math.sqrt((C + 2.0 * math.log(q)) / (n0 - 1))
    return math.sqrt(max(variance, 0.0) + rounding) + slack


def _main_rows(tau: float, q: int, sigma: float) -> int:
    """N: Bernstein's rows for statistics of standard deviation <= sigma at
    failure e^(-C/2)/q each, capped at Hoeffding's rows for that failure."""
    bernstein = (C / 2.0 + math.log(2 * q)) * (2.0 * sigma**2 + 4.0 * tau / 3.0) / tau**2
    return min(_hoeffding_rows(tau, 2 * q), math.ceil(bernstein))


class NullDistribution:
    """Gaussian examples with labels independent of them.  The planted
    subclass shares this law on the complement of its hidden direction v
    and adds only the draw of <v, x>; ``v is None`` marks the null."""

    v = None

    def __init__(self, m: int, p: float):
        self.m = m
        self.p = p

    def sample_xy(self, rng: np.random.Generator, n: int):
        """n draws of (x, y): labels, then one (n, m) normal block for x."""
        return self.sample_projected(rng, n, np.eye(self.m))

    def sample_projected(self, rng: np.random.Generator, n: int, directions: np.ndarray):
        """(<u_j, x>)_j and y for n draws: labels, then the hidden projection
        t (planted only), then one (n, m) normal block that ``embed`` turns
        into x, projected onto the rows of ``directions``.  With no
        directions only the labels are drawn."""
        y = draw_labels(rng, n, self.p)
        if len(directions) == 0:
            return np.empty((n, 0)), y
        t = None if self.v is None else self._hidden(rng, y)
        x = rng.standard_normal((n, self.m))
        if t is not None:
            embed(self.v, t, x)
        return x @ directions.T, y

    def true_expectation(self, query: SQQuery) -> Sequence[float] | None:
        return query.exact(self) if query.exact is not None else None


class InstanceDistribution(NullDistribution):
    """The hidden-direction labeled distribution."""

    def __init__(self, instance: MassartInstance):
        super().__init__(instance.m, instance.p)
        self.instance = instance
        self.v = instance.v
        self._signed_moments: dict[int, float] = {}

    def signed_moment(self, i: int) -> float:
        """p E_A[X^i] - (1 - p) E_B[X^i], the label-signed moment of the
        hidden projection, memoised: every probe's closed form reads it."""
        if i not in self._signed_moments:
            instance = self.instance
            self._signed_moments[i] = instance.p * moments.measure_moment(
                instance.pair.A, i
            ) - (1.0 - instance.p) * moments.measure_moment(instance.pair.B, i)
        return self._signed_moments[i]

    def sample_xy(self, rng: np.random.Generator, n: int):
        return sample_labeled(self.instance, rng, n)

    def _hidden(self, rng: np.random.Generator, y: np.ndarray) -> np.ndarray:
        """t ~ A where y = +1, then t ~ B where y = -1."""
        pair = self.instance.pair
        t = np.empty(len(y))
        pos = y == 1
        n_pos = int(pos.sum())
        if n_pos:
            t[pos] = hp_sample(pair.A, rng, n_pos)
        if len(y) - n_pos:
            t[~pos] = hp_sample(pair.B, rng, len(y) - n_pos)
        return t


def _round_toward(value: float, target: float, tau: float) -> float:
    """Move value toward target by at most tau."""
    step = target - value
    return value + max(-tau, min(tau, step))


class SQOracle:
    """Budgeted query answering for one distribution.

    Holds mutable budget state; use one oracle per concurrent stream.
    """

    def __init__(
        self,
        distribution,
        config: OracleConfig,
        rng: np.random.Generator,
        null_reference: NullDistribution | None = None,
    ):
        self.distribution = distribution
        self.config = config
        self.rng = rng
        self.null_reference = null_reference
        self.queries_used = 0

    def answer(self, query: SQQuery) -> float:
        """The answer to a one-statistic query."""
        return self.answer_batch([query])[0]

    def answer_batch(self, queries: Sequence[SQQuery]) -> list[float]:
        """Answers a batch of queries fixed before any answer is seen, one
        float per statistic in order.  Each statistic counts as one query, and the
        whole batch counts against the budget or none of it does.
        """
        queries = list(queries)
        q = sum(len(query.descriptions) for query in queries)
        if self.queries_used + q > self.config.query_budget:
            raise QueryBudgetError(
                f"query budget {self.config.query_budget} exhausted: "
                f"{self.queries_used} used, {q} asked"
            )
        self.queries_used += q
        if not q:
            return []
        if self.config.mode == "honest":
            return self._empirical_means(queries, self.config.tau)
        return self._adversarial_answers(queries)

    def _adversarial_answers(self, queries: list[SQQuery]) -> list[float]:
        tau = self.config.tau
        truths = [self.distribution.true_expectation(query) for query in queries]
        missing = [query for query, true in zip(queries, truths) if true is None]
        if missing:
            # one honest batch at tau/4 certifies every missing statistic
            # together; that tau/4 comes out of the adversary's budget
            certified = iter(self._empirical_means(missing, tau / 4.0))
        answers = []
        for query, true in zip(queries, truths):
            budget = tau
            if true is None:
                true = [next(certified) for _ in query.descriptions]
                budget = tau - tau / 4.0
            null_vals = true
            if self.null_reference is not None:
                null_vals = self.null_reference.true_expectation(query) or true
            answers += [_round_toward(t, nv, budget) for t, nv in zip(true, null_vals)]
        return answers

    def _empirical_means(self, queries: list[SQQuery], tau: float) -> list[float]:
        """Every statistic's answer at accuracy tau, in order: labels-only
        statistics from one Hoeffding-sized sample of labels, the others
        from one main sample sized by their pilot's standard-deviation
        bounds (the module docstring proves the sizes)."""
        q = sum(len(query.descriptions) for query in queries)
        labels = [query for query in queries if not len(query.directions)]
        features = [query for query in queries if len(query.directions)]
        label_means = feature_means = iter(())
        if labels:
            n = _hoeffding_rows(tau, q)
            label_means = iter((self._sums(labels, n)[0] / n).tolist())
        if features:
            n0 = _pilot_rows(tau, q)
            sigma = _sigma_bound(self._sums(features, n0, squares=True), n0, q)
            n = _main_rows(tau, q, sigma)
            feature_means = iter((self._sums(features, n)[0] / n).tolist())
        return [
            next(feature_means if len(query.directions) else label_means)
            for query in queries
            for _ in query.descriptions
        ]

    def _sums(self, queries: list[SQQuery], n: int, squares: bool = False) -> np.ndarray:
        """Each statistic's sum over n fresh rows (row 0) and, with
        ``squares``, its sum of squares (row 1).

        The queries' direction rows are stacked in order and sampled
        together in chunks small enough that no sampled or evaluated block
        exceeds SUM_BLOCK values; each query reads its own contiguous slice
        of the sampled columns, and each statistic's row sums as one vector.
        A query or draw wider than SUM_BLOCK is an internal fault.
        A draw with directions materialises all m coordinates of x.
        """
        stacked = [query.directions for query in queries if len(query.directions)]
        directions = np.vstack(stacked) if stacked else _NO_DIRECTIONS
        widths = [len(query.descriptions) for query in queries]
        drawn = max(len(directions), self.distribution.m) if stacked else 0
        rows_per_chunk = SUM_BLOCK // max(drawn, *widths)
        if not rows_per_chunk:  # callers bound the width first (cli checks --m)
            raise RuntimeError(
                f"a block of {max(drawn, *widths)} columns exceeds the {SUM_BLOCK}-value block"
            )
        sums = np.zeros((1 + squares, sum(widths)))
        remaining = n
        while remaining > 0:
            chunk = min(remaining, rows_per_chunk)
            t, y = self.distribution.sample_projected(self.rng, chunk, directions)
            row = col = 0
            for query, r in zip(queries, widths):
                k = len(query.directions)
                block = query.evaluate(t[:, row : row + k], y).reshape(-1, chunk)
                block = np.ascontiguousarray(block)
                sums[0, col : col + r] += block.sum(axis=1)
                if squares:  # block is this call's own array
                    sums[1, col : col + r] += np.square(block, out=block).sum(axis=1)
                row, col = row + k, col + r
            remaining -= chunk
        return sums


# ---------------------------------------------------------------- queries


def label_mean_query() -> SQQuery:
    return SQQuery(
        _NO_DIRECTIONS,
        lambda t, y: y.astype(float),
        ("E[y]",),
        exact=lambda dist: (2.0 * dist.p - 1.0,),
    )


def _signed_projection_moment(dist, u: np.ndarray, j: int) -> float:
    """E[y * <u, x>^j] in closed form via one-dimensional moments."""
    if dist.v is None:
        return (2.0 * dist.p - 1.0) * moments.gaussian_moment(j)
    gamma = float(u @ dist.v)
    s = math.sqrt(max(0.0, 1.0 - gamma**2))
    total = 0.0
    for i in range(j + 1):
        z_mom = moments.gaussian_moment(j - i)
        if z_mom == 0.0:
            continue
        total += math.comb(j, i) * gamma**i * s ** (j - i) * z_mom * dist.signed_moment(i)
    return total


def projected_moment_query(u: np.ndarray, *orders: int) -> SQQuery:
    """phi_j(x, y) = y * clip(<u, x>, -R, R)^j / R^j, bounded moment probes,
    one statistic per order j."""
    u = np.asarray(u, dtype=float)

    def g(t, y):
        c = np.clip(t[:, 0], -CLIP_RADIUS, CLIP_RADIUS) / CLIP_RADIUS
        return np.stack([y * c**j for j in orders], axis=0)

    return SQQuery(
        u[None, :],
        g,
        tuple(f"y*<u,x>^{j}/R^{j}" for j in orders),
        exact=lambda dist: [
            _signed_projection_moment(dist, u, j) / CLIP_RADIUS**j for j in orders
        ],
    )


def projected_indicator_query(u: np.ndarray, region: IntervalUnion) -> SQQuery:
    """phi(x) = 1[<u, x> in region]; closed form when u is the hidden direction."""
    u = np.asarray(u, dtype=float)

    def exact(dist) -> tuple[float] | None:
        if dist.v is None:
            return (float(math.fsum(float(phi_mass(a, b)) for a, b in region.intervals)),)
        instance = dist.instance
        gamma = float(u @ instance.v)
        if abs(abs(gamma) - 1.0) > 1e-12:
            return None  # projection mixes A/B with an independent Gaussian
        flipped = (
            IntervalUnion(tuple(sorted((-b, -a) for a, b in region.intervals)))
            if gamma < 0
            else region
        )
        a_mass, b_mass = mass_in(instance.pair.A, flipped), mass_in(instance.pair.B, flipped)
        return (instance.p * a_mass + (1.0 - instance.p) * b_mass,)

    return SQQuery(
        u[None, :],
        lambda t, y: region.contains(t[:, 0]).astype(float),
        ("1[<u,x> in region]",),
        exact=exact,
    )


def chow_statistics(m: int) -> int:
    """How many statistics ``chow_moment_query(m)`` has: m + m(m+1)/2."""
    return m + m * (m + 1) // 2


def chow_moment_query(m: int) -> SQQuery:
    """The degree-1 and degree-2 Chow parameters as one query over identity
    directions.

    Statistics are E[y c_i] and E[y c_i c_j] for i <= j (row-major upper
    triangle), with c = clip(x, -R, R)/R: m + m(m+1)/2 in all.  Row
    y c_i c_j is computed as (y c_i) c_j, in place.  The degree-0 parameter
    E[y] reads no x; ``learner_chow`` asks it as ``label_mean_query`` in the
    same batch, so that the oracle draws it as labels only.
    """
    upper_i, upper_j = np.triu_indices(m)

    def g(t, y):
        c = t.T.copy()  # one contiguous row per coordinate
        np.clip(c, -CLIP_RADIUS, CLIP_RADIUS, out=c)
        c /= CLIP_RADIUS
        out = np.empty((chow_statistics(m), len(y)))
        np.multiply(y, c, out=out[:m])
        row = m
        for i in range(m):
            np.multiply(out[i], c[i:], out=out[row : row + m - i])
            row += m - i
        return out

    return SQQuery(
        np.eye(m),
        g,
        tuple(f"y*c_{i + 1}" for i in range(m))
        + tuple(f"y*c_{i + 1}*c_{j + 1}" for i, j in zip(upper_i, upper_j)),
    )


# ----------------------------------------------------- direction sets


def pair_overlap_tail(m: int, c: float) -> float:
    """P(|<u, v>| > c) for independent uniform unit vectors u, v in R^m.

    That is I_{1-c^2}((m-1)/2, 1/2), the two-sided tail of Student's t with
    nu = m - 1 degrees of freedom at sqrt(nu) c / sqrt(1 - c^2), whose angle
    theta = arctan(t / sqrt(nu)) is arcsin(c).  The finite sums of
    Abramowitz & Stegun 26.7.3 (odd nu) and 26.7.4 (even nu) give
    A = P(|T| <= t) in powers of cos(theta) = sqrt(1 - c^2); the tail is
    1 - A.  In R^1, u and v are +-1, so the overlap is 1.
    """
    if m == 1:
        return 0.0 if c >= 1.0 else 1.0
    nu = m - 1
    odd = nu % 2
    cos2 = 1.0 - c * c
    # cos^k(theta) terms for k = odd, odd + 2, ..., nu - 2, each the one
    # before times cos^2 (k - 1)/k
    term = math.sqrt(cos2) if odd else 1.0
    series = term if nu > 1 else 0.0
    for k in range(odd + 2, nu - 1, 2):
        term *= cos2 * (k - 1) / k
        series += term
    inside = 2.0 / math.pi * (math.asin(c) + c * series) if odd else c * series
    return max(0.0, 1.0 - inside)


def near_orthogonal_set(
    m: int, c: float, target_size: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform unit vectors, rejection-resampled until pairwise |<u,v>| <= c.

    The try budget is sized from the exact per-pair overlap probability
    p = P(|<u, v>| > c) (``pair_overlap_tail``): ten attempts per requested
    vector, inflated by the union-bound rejection estimate (k - 1) p of the
    last candidate, capped at 0.9.  A search that spends it (a greedy set
    can stall on its last vectors) restarts from scratch on the same
    generator, up to DIRECTION_RESTARTS times; a set found on the first
    pass never sees a restart.
    """
    if not (0.0 < c <= 1.0):
        raise RangeError(f"c = {c} outside (0, 1]")
    if target_size < 1:
        raise RangeError("target_size must be at least 1")
    p_pair = pair_overlap_tail(m, c)
    reject = min(0.9, (target_size - 1) * p_pair)
    max_tries = math.ceil(10.0 * target_size / (1.0 - reject))
    out = np.empty((target_size, m))
    for _ in range(DIRECTION_RESTARTS + 1):
        count = 0
        for _ in range(max_tries):
            g = random_unit_vector(m, rng)
            if count == 0 or np.max(np.abs(out[:count] @ g)) <= c:
                out[count] = g
                count += 1
                if count == target_size:
                    return out
    raise DirectionSetError(
        f"gave up after {DIRECTION_RESTARTS} restarts of {max_tries} tries each, the last "
        f"with {count}/{target_size} vectors; per-pair P(|<u, v>| > c) = {p_pair:.3g}"
    )


# ----------------------------------------------------------- learners


@dataclass(frozen=True)
class Hypothesis:
    predict: Callable[[np.ndarray], np.ndarray]
    description: str

    def error(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self.predict(x) != y))


def learner_constant(oracle: SQOracle) -> Hypothesis:
    """Queries E[y] once and outputs the majority constant."""
    sign = 1 if oracle.answer(label_mean_query()) >= 0.0 else -1
    return Hypothesis(
        predict=lambda x: np.full(len(x), sign, dtype=int),
        description=f"constant {sign:+d}",
    )


def learner_chow(oracle: SQOracle) -> Hypothesis:
    """Estimates the degree-<=2 Chow parameters and thresholds the fitted
    f(x) = c_0 + C . c_1 + C^T Q C, C = clip(x, -R, R)/R, Q upper-triangular.

    All interaction with the data goes through the oracle, in two
    non-adaptive batches: ``label_mean_query`` with ``chow_moment_query``
    (c_0 = E[y], then the 230 x-dependent coefficients at m = 20), then one
    misclassification statistic per threshold candidate; an honest oracle
    answers all q statistics of each within tau except with probability
    <= 2e^(-C/2).  E[y] is the only coefficient with a large variance
    (about 0.84 on the planted law, against at most 0.03 for the others);
    asked without x, it costs labels only and leaves the pilot's bound on
    the others small.  Candidates sweep the functional's guaranteed range
    [-sum|c|, sum|c|], whose extremes recover the constant hypotheses, so
    the learner never does worse than the better constant by more than
    query accuracy.  The threshold query reads all of x through identity
    directions, so the same f_values serves it and the final predictor.
    """
    m = oracle.distribution.m
    coeffs = np.array(oracle.answer_batch([label_mean_query(), chow_moment_query(m)]))
    scale = float(np.sum(np.abs(coeffs))) + 1e-12  # |f(x)| <= scale pointwise
    linear = coeffs[1 : m + 1]
    quadratic = np.zeros((m, m))
    quadratic[np.triu_indices(m)] = coeffs[m + 1 :]

    def f_values(x: np.ndarray) -> np.ndarray:
        c = np.clip(x, -CLIP_RADIUS, CLIP_RADIUS) / CLIP_RADIUS
        return coeffs[0] + c @ linear + ((c @ quadratic) * c).sum(axis=1)

    thetas = np.linspace(-scale, scale, CHOW_THRESHOLDS)
    errors = SQQuery(
        np.eye(m),
        lambda t, y: (np.where(f_values(t) - thetas[:, None] >= 0.0, 1, -1) != y) * 1.0,
        tuple(f"err(theta={theta:.4g})" for theta in thetas),
    )
    errs = oracle.answer_batch([errors])
    best_theta = float(thetas[int(np.argmin(errs))])  # the first minimum

    return Hypothesis(
        predict=lambda x: np.where(f_values(x) - best_theta >= 0.0, 1, -1),
        description=f"chow degree<=2, theta={best_theta:.4g}",
    )


LEARNERS = ("constant", "chow")  # names distinguishing_experiment accepts


def widest_block(m: int, learners=LEARNERS, n_directions: int = N_PROBES) -> int:
    """The most columns one SQOracle._sums block holds in a
    distinguishing_experiment at dimension m.  A batch draws its stacked
    directions, all m coordinates once it has any, and evaluates each
    query's statistics.  The battery stacks n_directions + 1 directions and
    asks at most len(MOMENT_ORDERS) statistics of one; the constant learner
    asks one, reading no x; Chow's batches read m identity directions and
    ask chow_statistics(m), then CHOW_THRESHOLDS, statistics."""
    width = max(m, n_directions + 1, len(MOMENT_ORDERS))
    if "chow" in learners:
        width = max(width, chow_statistics(m), CHOW_THRESHOLDS)
    return width


# ------------------------------------------------------- experiment


@dataclass
class ExperimentReport:
    seed: int
    tau: float
    queries_used: int
    query_rows: list[dict]
    planted_gap: float
    max_moment_gap: float
    learner_errors: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "tau": self.tau,
            "queries_used": self.queries_used,
            "queries": self.query_rows,
            "gaps": {"planted": self.planted_gap, "moment_max": self.max_moment_gap},
            "learner_errors": self.learner_errors,
        }


def _statistic_truths(dist, queries: list[SQQuery]) -> list[float | None]:
    """Each statistic's closed-form expectation under dist, None where absent."""
    return [
        value
        for query in queries
        for value in dist.true_expectation(query) or [None] * len(query.descriptions)
    ]


def distinguishing_experiment(
    config,
    eta: float,
    m: int,
    oracle_config: OracleConfig,
    seed: int,
    n_directions: int = N_PROBES,
    learners: tuple[str, ...] = LEARNERS,
    holdout: int = 100_000,
) -> ExperimentReport:
    """Run the query battery on the planted and null distributions and
    train the baseline learners; one seed per call.

    The hidden direction and the probe directions come from one
    near-orthogonal set, so every probe satisfies |<u, v>| <= DIRECTION_C.
    Learners run on their own honest oracles; held-out errors use fresh
    samples, never oracle answers.
    """
    for name in learners:
        if name not in LEARNERS:
            raise RangeError(f"unknown learner {name!r}")
    root = np.random.SeedSequence(seed)
    # the third child is unused, but spawning it keeps every learner's
    # root.spawn(1) stream where it is
    rng_dirs, rng_battery, _, rng_holdout = (np.random.default_rng(s) for s in root.spawn(4))

    vectors = near_orthogonal_set(m, DIRECTION_C, n_directions + 1, rng_dirs)
    v, directions = vectors[0], vectors[1:]
    pair = build_hard_pair(config)
    instance = make_instance(pair, v, eta)
    dist_dv = InstanceDistribution(instance)
    dist_null = NullDistribution(m, 1.0 - eta)

    oracle_dv = SQOracle(dist_dv, oracle_config, rng_battery, null_reference=dist_null)
    oracle_null = SQOracle(dist_null, oracle_config, rng_battery, null_reference=dist_null)

    battery = [projected_indicator_query(v, pair.J1), label_mean_query()]
    battery += [projected_moment_query(u, *MOMENT_ORDERS) for u in directions]
    answers_dv = oracle_dv.answer_batch(battery)
    answers_null = oracle_null.answer_batch(battery)
    rows = [
        {
            "description": description,
            "answer_planted": ans_dv,
            "answer_null": ans_null,
            "true_planted": true_dv,
            "true_null": true_null,
            "gap": abs(ans_dv - ans_null),
        }
        for description, ans_dv, ans_null, true_dv, true_null in zip(
            [description for query in battery for description in query.descriptions],
            answers_dv,
            answers_null,
            _statistic_truths(dist_dv, battery),
            _statistic_truths(dist_null, battery),
        )
    ]
    planted_gap = rows[0]["gap"]
    max_moment_gap = max((row["gap"] for row in rows[2:]), default=0.0)

    learner_errors: dict[str, float] = {}
    x_hold, y_hold = dist_dv.sample_xy(rng_holdout, holdout)
    for name in learners:
        child = np.random.default_rng(root.spawn(1)[0])
        honest = replace(oracle_config, mode="honest")
        oracle = SQOracle(dist_dv, honest, child, null_reference=dist_null)
        hyp = learner_constant(oracle) if name == "constant" else learner_chow(oracle)
        learner_errors[name] = hyp.error(x_hold, y_hold)

    return ExperimentReport(
        seed=seed,
        tau=oracle_config.tau,
        queries_used=oracle_dv.queries_used + oracle_null.queries_used,
        query_rows=rows,
        planted_gap=planted_gap,
        max_moment_gap=max_moment_gap,
        learner_errors=learner_errors,
    )

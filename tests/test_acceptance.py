"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line with its headline numbers.  Criteria with runtime limits
enforce them with a monotonic clock around the whole check.
"""

import math
import time

import numpy as np

from massart_forge import lift, moments, planner, sqlab
from massart_forge.hardpair import (
    HardPairConfig,
    IntervalUnion,
    build_hard_pair,
    mass_in,
    total_mass,
)
from massart_forge.instance import (
    flip_probability,
    make_instance,
    opt_error,
    ptf_sign,
    random_unit_vector,
    sample_labeled,
)
from massart_forge.cli import main as cli_main

DESK = dict(zeta=0.05, d=10, epsilon=0.05)
FOURIER_DELTAS = (0.3, 0.4, 0.5, 0.69)


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} [{status}] {name} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {name} {detail}"


def test_criterion_01_construction_conditions():
    started = time.monotonic()
    cfg = HardPairConfig(**DESK)
    pair = build_hard_pair(cfg)
    d, zeta = cfg.d, cfg.zeta

    counts_ok = len(pair.J1) == 2 * d + 1 and len(pair.J2) == 2 * d + 1

    grid = np.linspace(-cfg.n_max * cfg.delta, cfg.n_max * cfg.delta, 50001)
    in1, in2 = pair.J1.contains(grid), pair.J2.contains(grid)
    disjoint_ok = not bool(np.any(in1 & in2))
    da, db = pair.A.density(grid), pair.B.density(grid)
    zero_ok = np.all(da[in2] == 0.0) and np.all(db[in1] == 0.0)
    equal_ok = np.all(da[~(in1 | in2)] == db[~(in1 | in2)])

    union = IntervalUnion(tuple(sorted(pair.J1.intervals + pair.J2.intervals)))
    cap = min(10.0 * zeta**8, zeta)
    off_a = 1.0 - mass_in(pair.A, union)
    off_b = 1.0 - mass_in(pair.B, union)
    tail_ok = off_a <= cap and off_b <= cap

    chi_a = moments.chi_square_vs_gaussian(pair.A)
    chi_b = moments.chi_square_vs_gaussian(pair.B)
    chi_ok = (
        abs(chi_a.closed_form - chi_a.quadrature) <= 1e-8
        and abs(chi_b.closed_form - chi_b.quadrature) <= 1e-8
        and all(map(math.isfinite, (chi_a.closed_form, chi_b.closed_form)))
    )

    elapsed = time.monotonic() - started
    ok = counts_ok and disjoint_ok and zero_ok and equal_ok and tail_ok and chi_ok and elapsed < 10.0
    _report(1, "construction conditions", ok,
            f"(off-mass A {off_a:.3e} <= {cap:.3e}, chi2 {chi_a.closed_form:.4f}, {elapsed:.1f}s)")


def test_criterion_02_moment_matching_bounds():
    cfg = HardPairConfig(**DESK)
    pair = build_hard_pair(cfg)
    base = 2.0 + 8.0 * math.sqrt(math.log(1.0 / cfg.zeta))

    report = moments.moment_discrepancy_report(pair, 12)
    bound_ok = True
    for t in range(13):
        diff = abs(report.moments_B[t] - report.moments_A[t])
        bound = 4.0 * cfg.epsilon * base**t
        slack = 1e-12 * max(1.0, abs(report.moments_A[t]), abs(report.moments_B[t]))
        bound_ok &= diff <= bound + slack

    quad_ok, worst = True, 0.0
    for t in range(13):
        for measure in (pair.A, pair.B):
            rec = moments.measure_moment(measure, t)
            qd = moments.quadrature_moment(measure, t)
            rel = abs(rec - qd) / max(1.0, abs(rec), abs(qd))
            worst = max(worst, rel)
    quad_ok = worst <= 1e-10

    _report(2, "moment matching with explicit bounds", bound_ok and quad_ok,
            f"(worst recurrence-vs-quadrature rel {worst:.2e})")


def test_criterion_03_fourier_certificates():
    started = time.monotonic()
    cert_ok = True
    worst_margin = math.inf
    for delta in FOURIER_DELTAS:
        rows = moments.fourier_certificate_check(delta, delta / 10.0, 8)
        for t, measured, bound, ok in rows:
            cert_ok &= ok
            if measured > 0:
                worst_margin = min(worst_margin, bound / measured)

    pts = moments.scaling_law_points(0.05, [7, 8, 9, 10], t=4)
    xs = [x for x, _ in pts]
    ys = [math.log(y) for _, y in pts]
    decreasing_ok = all(b < a for a, b in zip(ys, ys[1:]))
    slope = float(np.polyfit(xs, ys, 1)[0])
    slope_ok = slope < 0.0

    elapsed = time.monotonic() - started
    ok = cert_ok and decreasing_ok and slope_ok and elapsed < 60.0
    _report(3, "fourier certificate", ok,
            f"(min bound/measured {worst_margin:.2e}, slope {slope:.2f}, {elapsed:.1f}s)")


def test_criterion_04_normalization():
    ok = True
    for delta in FOURIER_DELTAS:
        eps = delta / 10.0
        mass = moments.comb_gaussian_moments(delta, eps, 0)[0]
        disc = moments.comb_moment_discrepancies(delta, eps, 0)[0]
        bound = moments.fourier_discrepancy_bound(0, delta).total
        ok &= mass >= 0.2 and disc <= bound
    cfg = HardPairConfig(**DESK)
    pair = build_hard_pair(cfg)
    value, _ = total_mass(pair.A)
    ok &= value >= 0.2
    ok &= abs(value - 1.0) <= moments.fourier_discrepancy_bound(0, cfg.delta).total
    _report(4, "normalization bounds", ok, f"(desk mass {value:.15f})")


def test_criterion_05_massart_exactness():
    cfg = HardPairConfig(**DESK)
    pair = build_hard_pair(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(505))
    eta = 0.3
    instance = make_instance(pair, random_unit_vector(12, rng), eta)
    n = 100_000
    x, y = sample_labeled(instance, rng, n)

    flips = flip_probability(instance, x)
    exact_ok = set(np.unique(flips).tolist()) <= {0.0, eta}

    opt = opt_error(instance)
    opt_ok = opt <= eta * cfg.zeta <= cfg.zeta

    bayes = float(np.mean(ptf_sign(instance, x) != y))
    bayes_ok = abs(bayes - opt) <= 4.0 * math.sqrt(max(opt * (1 - opt), 1e-18) / n) + 1.0 / n
    const = float(np.mean(np.ones(n, dtype=int) != y))
    const_ok = abs(const - eta) <= 4.0 * math.sqrt(eta * (1 - eta) / n)

    ok = exact_ok and opt_ok and bayes_ok and const_ok
    _report(5, "massart exactness", ok,
            f"(opt {opt:.3e}, bayes {bayes:.3e}, const {const:.5f})")


def test_criterion_06_lift_consistency():
    rng = np.random.default_rng(np.random.SeedSequence(606))
    pair = build_hard_pair(HardPairConfig(zeta=0.45, d=4, epsilon=0.1))
    v = random_unit_vector(3, rng)
    instance = make_instance(pair, v, 0.3)
    degree = len(instance.J2_polynomial) - 1
    basis = lift.enumerate_basis(3, degree)
    weights = lift.halfspace_from_ptf(v, instance.J2_polynomial, basis, len(basis) + 8)

    x, _ = sample_labeled(instance, rng, 10_000)
    report = lift.check_consistency(instance, weights, x, exclusion=1e-9)
    agreement_ok = report.agreement == 1.0
    padding_ok = bool(np.all(weights.w[len(basis):] == 0.0))

    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 5))
        deg = int(rng.integers(1, 7))
        bb = lift.enumerate_basis(m, deg)
        vv = random_unit_vector(m, rng)
        coeffs = rng.standard_normal(deg + 1)
        ww = lift.halfspace_from_ptf(vv, coeffs, bb, len(bb))
        pts = rng.standard_normal((20, m))
        proj = pts @ vv
        direct = np.zeros(20)
        scale = np.zeros(20)
        for j, c in enumerate(coeffs):
            direct += c * proj**j
            scale += abs(c) * np.abs(proj) ** j
        got = ww.decision_values(pts)
        worst = max(worst, float(np.max(np.abs(got - direct) / np.maximum(scale, 1e-30))))
    bridge_ok = worst <= 1e-8

    ok = agreement_ok and padding_ok and bridge_ok
    _report(6, "lift consistency", ok,
            f"(agreement {report.agreement}, bridge worst {worst:.2e})")


def test_criterion_07_tsybakov_corollary():
    params = planner.TsybakovParams(A_const=1.0, alpha=0.5)
    zeta = DESK["zeta"]
    eta = planner.tsybakov_to_massart(params, zeta)
    round_trip = abs(params.A_const * (0.5 - eta) ** params.tail_exponent - zeta)
    pair = build_hard_pair(HardPairConfig(**DESK))
    rng = np.random.default_rng(707)
    instance = make_instance(pair, random_unit_vector(6, rng), eta)
    grid_ok = planner.verify_tsybakov(instance, params, np.linspace(0.005, 0.5, 100))
    ok = grid_ok and round_trip <= 1e-12
    _report(7, "tsybakov corollary", ok, f"(eta {eta}, round-trip err {round_trip:.2e})")


def test_criterion_08_distinguishing_experiment():
    started = time.monotonic()
    tau, eta, m = 0.01, 0.3, 20
    config = HardPairConfig(**DESK)

    # independent 1e7-draw Monte Carlo estimate of the planted-query gap,
    # produced before consulting any oracle answers
    pair = build_hard_pair(config)
    rng = np.random.default_rng(808)
    v_probe = random_unit_vector(m, rng)
    probe = make_instance(pair, v_probe, eta)
    hits = 0
    n_mc = 10_000_000
    for _ in range(10):
        x, _ = sample_labeled(probe, rng, n_mc // 10)
        hits += int(pair.J1.contains(x @ v_probe).sum())
    g = rng.standard_normal(n_mc)
    null_hits = int(pair.J1.contains(g).sum())
    mc_gap = (hits - null_hits) / n_mc
    assert mc_gap > 5 * tau

    oracle_config = sqlab.OracleConfig(tau=tau, mode="honest")
    planted_ok = moment_ok = floor_ok = True
    floor_min = 1.0
    for seed in range(1, 11):
        report = sqlab.distinguishing_experiment(
            config, eta, m, oracle_config, seed
        )
        planted_ok &= report.planted_gap > 5 * tau
        moment_ok &= report.max_moment_gap <= 2 * tau
        for err in report.learner_errors.values():
            floor_ok &= err >= eta - 0.02
            floor_min = min(floor_min, err)

    elapsed = time.monotonic() - started
    ok = planted_ok and moment_ok and floor_ok and elapsed < 300.0
    _report(8, "distinguishing experiment", ok,
            f"(mc gap {mc_gap:.3f}, min learner err {floor_min:.4f}, {elapsed:.0f}s)")


def test_criterion_09_near_orthogonal_sets():
    rng = np.random.default_rng(909)
    vectors = sqlab.near_orthogonal_set(200, 0.3, 100, rng)  # default try budget
    overlaps = np.abs(vectors @ vectors.T) - np.eye(100)
    ok = vectors.shape == (100, 200) and float(overlaps.max()) <= 0.3
    _report(9, "near-orthogonal direction sets", ok,
            f"(max overlap {overlaps.max():.4f})")


def test_criterion_10_planner_feasibility():
    ok = True
    for log_m in (1e3, 1e4, 1e5):
        zeta = math.exp(-math.sqrt(log_m))
        result = planner.plan(log_m, 0.49, zeta)
        ok &= result.M_prime_log <= log_m
        ok &= result.log_epsilon < math.log(result.delta / 8.0)
        ok &= result.delta < 1.0

    rng = np.random.default_rng(1010)
    for _ in range(20):
        n = int(rng.integers(0, 400))
        r = int(rng.integers(0, n + 1)) if n else 0
        got = planner.log_binomial(n, r)
        want = math.log(math.comb(n, r))
        ok &= abs(got - want) <= 1e-10 * max(1.0, abs(want))
    _report(10, "planner feasibility", ok)


def test_criterion_11_reproducibility(tmp_path):
    base = ["gen", "--zeta", "0.05", "--d", "10", "--epsilon", "0.05", "--eta", "0.3",
            "--m", "6", "--n", "2000", "--seed", "99"]
    assert cli_main(base + ["--out", str(tmp_path / "a.csv")]) == 0
    assert cli_main(base + ["--out", str(tmp_path / "b.csv")]) == 0
    identical = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    original = (tmp_path / "a.csv").read_bytes()
    (tmp_path / "a.csv").unlink()
    assert cli_main(["replay", str(tmp_path / "a.csv.manifest.json")]) == 0
    replayed = (tmp_path / "a.csv").read_bytes() == original

    ok = identical and replayed
    _report(11, "reproducibility", ok)

"""The full verification battery behind the CLI verify command.

Each section checks one block of the construction's promised properties:
interval structure, mass placement, moment bounds, chi-square agreement,
exact flipping probabilities, the Tsybakov tail condition, and the lifted
halfspace's consistency with the interval sign rule.  Every section
reports numbers alongside its pass flag so failures are diagnosable from
the JSON alone.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import moments
from .errors import MassartForgeError
from .hardpair import HardPairConfig, build_hard_pair, total_mass
from .instance import (
    make_instance,
    flip_probability,
    opt_error,
    ptf_sign,
    random_unit_vector,
    sample_labeled,
)
from .lift import check_consistency, enumerate_basis, halfspace_from_ptf
from .planner import TsybakovParams, tsybakov_to_massart, verify_tsybakov

__all__ = ["SECTIONS", "build_verification_report"]

SECTIONS = ("construction", "moments", "fourier", "chi_square", "massart", "tsybakov", "lift")

# lift checks run at reduced dimensions: the desk construction's polynomial
# degree 4d+2 at d = 10 would need a basis of ~7e15 monomials
LIFT_ZETA, LIFT_D, LIFT_EPS, LIFT_M = 0.45, 4, 0.1, 3


def _construction_section(pair, cfg: HardPairConfig) -> dict:
    delta, eps, d = cfg.delta, cfg.epsilon, cfg.d

    grid = np.linspace(-cfg.n_max * delta, cfg.n_max * delta, 20001)
    in_j1 = pair.J1.contains(grid)
    in_j2 = pair.J2.contains(grid)
    dens_a = pair.A.density(grid)
    dens_b = pair.B.density(grid)

    za, tail_a = total_mass(pair.A)
    zb, tail_b = total_mass(pair.B)
    off_a, off_b = pair.off_j_mass()
    tail_cap = min(10.0 * cfg.zeta**8, cfg.zeta)

    lo, hi = -d * delta - 5.0 * eps, d * delta + 5.0 * eps
    checks = {
        "j1_count": len(pair.J1),
        "j2_count": len(pair.J2),
        "counts_ok": len(pair.J1) == 2 * d + 1 and len(pair.J2) == 2 * d + 1,
        "disjoint_ok": not bool(np.any(in_j1 & in_j2)),
        "j_window_ok": all(
            lo <= a and b <= hi for a, b in pair.J1.intervals + pair.J2.intervals
        ),
        "a_zero_on_j2_ok": not bool(np.any(dens_a[in_j2] != 0.0)),
        "b_zero_on_j1_ok": not bool(np.any(dens_b[in_j1] != 0.0)),
        "a_equals_b_off_j_ok": not bool(
            np.any(dens_a[~(in_j1 | in_j2)] != dens_b[~(in_j1 | in_j2)])
        ),
        "off_mass_A": off_a,
        "off_mass_B": off_b,
        "tail_cap": tail_cap,
        "tail_ok": off_a <= tail_cap and off_b <= tail_cap,
        "total_mass_A": za,
        "total_mass_B": zb,
        "tail_bound": max(tail_a, tail_b),
        "mass_conservation_ok": abs(za - zb) <= 1e-12,
        "mass_lower_bound_ok": za >= 0.2,
    }
    checks["pass"] = all(v for k, v in checks.items() if k.endswith("_ok"))
    return checks


def _moment_section(pair, k: int) -> dict:
    """The shift bound, and the recurrence moments against the quadrature
    oracle relative to E|X|^t: odd moments of the symmetric A are exact
    zeros that both routes return as rounding residues on that scale."""
    try:
        report = moments.moment_discrepancy_report(pair, k)
    except MassartForgeError:  # the shift bound failed; the cross-check still runs
        report = None

    measures = (pair.A, pair.B)
    recurrences = (
        [[moments.measure_moment(mu, t) for t in range(k + 1)] for mu in measures]
        if report is None
        else (report.moments_A, report.moments_B)
    )
    worst_rel = 0.0
    for measure, recurrence in zip(measures, recurrences):
        for t in range(k + 1):
            qd = moments.quadrature_moment(measure, t)
            rel = abs(recurrence[t] - qd) / moments.absolute_moment(measure, t)
            worst_rel = max(worst_rel, rel)

    out = {
        "k": k,
        "shift_bound_ok": report is not None,
        "recurrence_vs_quadrature_worst_rel": worst_rel,
        "recurrence_vs_quadrature_ok": worst_rel <= 1e-10,
    }
    if report is not None:
        for name in ("moments_A", "moments_B", "moments_gaussian", "discrepancy_A",
                     "discrepancy_B", "bound_AB", "fourier_bounds"):
            out[name] = list(getattr(report, name))
    out["pass"] = out["shift_bound_ok"] and out["recurrence_vs_quadrature_ok"]
    return out


def _fourier_section(pair) -> dict:
    cfg = pair.config
    rows = moments.fourier_certificate_check(cfg.delta, cfg.epsilon, 8)
    z_disc = rows[0][1]  # the measured order-0 discrepancy, |Z - 1|
    t0_bound = moments.fourier_discrepancy_bound(0, cfg.delta).total
    out = {
        "rows": [
            {"t": t, "measured": meas, "bound": bound, "ok": ok}
            for t, meas, bound, ok in rows
        ],
        "normalisation_discrepancy": z_disc,
        "normalisation_bound": t0_bound,
        "normalisation_ok": z_disc <= t0_bound,
    }
    out["pass"] = out["normalisation_ok"] and all(r["ok"] for r in out["rows"])
    return out


def _chi_square_section(pair) -> dict:
    ca = moments.chi_square_vs_gaussian(pair.A)
    cb = moments.chi_square_vs_gaussian(pair.B)
    ratio2 = (pair.config.delta / pair.config.epsilon) ** 2
    out = {
        "closed_form": ca.closed_form,
        "quadrature": ca.quadrature,
        "B": {"closed_form": cb.closed_form, "quadrature": cb.quadrature},
        "agreement_ok": abs(ca.closed_form - ca.quadrature) <= 1e-8
        and abs(cb.closed_form - cb.quadrature) <= 1e-8,
        "finite_ok": all(
            math.isfinite(v)
            for v in (ca.closed_form, ca.quadrature, cb.closed_form, cb.quadrature)
        ),
        "C_constant_A": ca.closed_form / ratio2,
        "C_constant_B": cb.closed_form / ratio2,
    }
    out["pass"] = out["agreement_ok"] and out["finite_ok"]
    return out


def _massart_section(pair, eta: float, m: int, seed: int) -> dict:
    n = 100_000
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    v = random_unit_vector(m, rng)
    instance = make_instance(pair, v, eta)
    x, y = sample_labeled(instance, rng, n)

    flips = flip_probability(instance, x)
    flip_values = set(flips.tolist())  # np.unique would import numpy.ma for this alone
    opt = opt_error(instance)

    bayes_err = float(np.mean(ptf_sign(instance, x) != y))
    const_err = float(np.mean(y == -1))
    sigma_bayes = math.sqrt(max(opt * (1.0 - opt), 1e-18) / n)
    sigma_eta = math.sqrt(eta * (1.0 - eta) / n)

    out = {
        "eta": eta,
        "m": m,
        "n": n,
        "flip_values": sorted(flip_values),
        "flips_exact_ok": flip_values <= {0.0, eta},
        "opt_error": opt,
        "opt_bound_ok": opt <= eta * pair.config.zeta <= pair.config.zeta,
        "bayes_error": bayes_err,
        "bayes_ok": abs(bayes_err - opt) <= 4.0 * sigma_bayes + 1.0 / n,
        "constant_error": const_err,
        "constant_ok": abs(const_err - eta) <= 4.0 * sigma_eta,
    }
    out["pass"] = all(v for k, v in out.items() if k.endswith("_ok"))
    return out


def _tsybakov_section(pair, seed: int) -> dict:
    params = TsybakovParams(A_const=1.0, alpha=0.5)
    zeta = pair.config.zeta
    eta = tsybakov_to_massart(params, zeta)
    back = params.A_const * (0.5 - eta) ** params.tail_exponent
    rng = np.random.default_rng(np.random.SeedSequence(seed + 1))
    instance = make_instance(pair, random_unit_vector(6, rng), eta)
    grid = np.linspace(0.005, 0.5, 100)
    out = {
        "eta": eta,
        "round_trip_error": abs(back - zeta),
        "round_trip_ok": abs(back - zeta) <= 1e-12,
        "grid_ok": verify_tsybakov(instance, params, grid),
    }
    out["pass"] = out["round_trip_ok"] and out["grid_ok"]
    return out


def _lift_section(seed: int) -> dict:
    cfg = HardPairConfig(zeta=LIFT_ZETA, d=LIFT_D, epsilon=LIFT_EPS)
    pair = build_hard_pair(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(seed + 2))
    v = random_unit_vector(LIFT_M, rng)
    instance = make_instance(pair, v, 0.3)
    degree = len(instance.J2_polynomial) - 1
    basis = enumerate_basis(LIFT_M, degree)
    weights = halfspace_from_ptf(v, instance.J2_polynomial, basis, len(basis) + 8)
    x, _ = sample_labeled(instance, rng, 10_000)
    report = check_consistency(instance, weights, x)

    worst_bridge = 0.0
    for _ in range(200):  # random polynomials through the linearity bridge
        mm = int(rng.integers(2, 5))
        dd = int(rng.integers(1, 7))
        bb = enumerate_basis(mm, dd)
        vv = random_unit_vector(mm, rng)
        coeffs = rng.standard_normal(dd + 1)
        ww = halfspace_from_ptf(vv, coeffs, bb, len(bb))
        pts = rng.standard_normal((40, mm))
        proj = pts @ vv
        direct = np.zeros(len(pts))
        scale = np.zeros(len(pts))
        for j, c in enumerate(coeffs):
            direct += c * proj**j
            scale += abs(c) * np.abs(proj) ** j
        got = ww.decision_values(pts)
        worst_bridge = max(
            worst_bridge,
            float(np.max(np.abs(got - direct) / np.maximum(scale, 1e-30))),
        )

    out = {
        "reduced_dims": {"zeta": LIFT_ZETA, "d": LIFT_D, "epsilon": LIFT_EPS, "m": LIFT_M},
        "degree": degree,
        "basis_size": len(basis),
        "agreement": report.agreement,
        "agreement_ok": report.agreement == 1.0,
        "n_checked": report.n_checked,
        "n_excluded": report.n_excluded,
        "padding_ok": bool(np.all(weights.w[len(basis):] == 0.0)),
        "bridge_worst_rel": worst_bridge,
        "bridge_ok": worst_bridge <= 1e-8,
    }
    out["pass"] = out["agreement_ok"] and out["padding_ok"] and out["bridge_ok"]
    return out


def build_verification_report(
    zeta: float, d: int, epsilon: float, eta: float, m: int, k: int, seed: int
) -> dict:
    """Run every check block on the given configuration; pass iff all pass."""
    started = time.time()
    cfg = HardPairConfig(zeta=zeta, d=d, epsilon=epsilon)
    pair = build_hard_pair(cfg)
    report = {
        "config": {
            "zeta": zeta,
            "d": d,
            "epsilon": epsilon,
            "delta": cfg.delta,
            "n_max": cfg.n_max,
            "eta": eta,
            "m": m,
            "k": k,
            "seed": seed,
        },
        "construction": _construction_section(pair, cfg),
        "moments": _moment_section(pair, k),
        "fourier": _fourier_section(pair),
        "chi_square": _chi_square_section(pair),
        "massart": _massart_section(pair, eta, m, seed),
        "tsybakov": _tsybakov_section(pair, seed),
        "lift": _lift_section(seed),
    }
    report["pass"] = all(report[name]["pass"] for name in SECTIONS)
    report["runtime_seconds"] = time.time() - started
    return report

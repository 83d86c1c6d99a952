"""Command-line front end: planning, generation, verification, experiments.

Every command is a pure function of its flags and the seed, writes exactly
one JSON run manifest, and exits 0 on success, 1 on internal error or a
failed verification, 2 on invalid or infeasible input.  The environment
variable MASSART_FORGE_THREADS caps internal parallelism (experiment seeds
fan out onto a thread pool; results stay ordered by seed either way).
"""

from __future__ import annotations

import argparse
import datetime
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, serialize
from .errors import DirectionSetError, MassartForgeError, RangeError
from .hardpair import HardPairConfig, build_hard_pair, density_curve
from .instance import make_instance, opt_error, random_unit_vector, sample_labeled
from .moments import K_MAX
from .planner import Constants, plan
from .sqlab import DIRECTION_C, LEARNERS, N_PROBES, OracleConfig, distinguishing_experiment
from .verification import SECTIONS, build_verification_report

RNG_NAME = "numpy default_rng (PCG64)"
CSV_BLOCK_ROWS = 8192  # rows formatted per write; bounds the text held at once


def thread_cap() -> int:
    raw = os.environ.get("MASSART_FORGE_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise RangeError(f"MASSART_FORGE_THREADS = {raw!r} must be an integer >= 1")
    return cap


def _require_at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise RangeError(f"{flag} = {value} must be at least {least}")


# every bounded numeric flag, checked on each command that has it before any
# work, so bad input exits 2 naming the flag and writes nothing; the coupled
# constraints delta < 1 and epsilon < delta/8 stay with HardPairConfig
_FLOORS = {"--m": 1, "--n": 1, "--seeds": 1, "--seed": 0, "--grid": 2, "--d": 2}
LOG_M_MAX = math.sqrt(sys.float_info.max)  # plan squares log M
_INTERVALS = {
    "--k": (f"[1, {K_MAX}]", lambda v: 1 <= v <= K_MAX),
    "--tau": ("(0, 1)", lambda v: 0.0 < v < 1.0),
    "--eta": ("(0, 1/2]", lambda v: 0.0 < v <= 0.5),
    "--zeta": ("(0, 1/2)", lambda v: 0.0 < v < 0.5),
    "--epsilon": ("(0, inf)", lambda v: v > 0.0),
    "--log-M": (f"(e, {LOG_M_MAX!r}]", lambda v: math.e < v <= LOG_M_MAX),
    "--zeta-exp": ("(0, 1)", lambda v: 0.0 < v < 1.0),
    "--lo": ("(-inf, inf)", math.isfinite),
    "--hi": ("(-inf, inf)", math.isfinite),
}


def _dest(flag: str) -> str:
    """The argparse dest of a long flag: every flag is "--" + dest, "_" as "-"."""
    return flag[2:].replace("-", "_")


def _check_bounds(args) -> None:
    for flag, least in _FLOORS.items():
        value = getattr(args, _dest(flag), None)
        if value is not None:
            _require_at_least(flag, value, least)
    for flag, (interval, ok) in _INTERVALS.items():
        value = getattr(args, _dest(flag), None)
        if value is not None and not ok(value):
            raise RangeError(f"{flag} out of range {interval}, got {value}")


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_manifest(args, outputs, passed) -> None:
    """The run manifest.  Its config is the parsed flags, every dest but the
    subcommand and the manifest path, Paths as strings: ``replay`` turns it
    back into the same argv."""
    config = {
        dest: str(value) if isinstance(value, Path) else value
        for dest, value in vars(args).items()
        if dest not in ("command", "manifest")
    }
    payload = {
        "command": args.command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "rng": RNG_NAME,
        "threads": thread_cap(),
        "timestamp_utc": _utc_now(),
        "outputs": [str(p) for p in outputs],
        "pass": passed,
    }
    path = _manifest_path(args)
    path.parent.mkdir(parents=True, exist_ok=True)
    serialize.dump(payload, path)


def _manifest_path(args) -> Path:
    if args.manifest:
        return Path(args.manifest)
    out = getattr(args, "out", None) or getattr(args, "report", None)
    if out:
        return Path(str(out) + ".manifest.json")
    return Path(f"{args.command}.manifest.json")


def _emit(text: str, path: Path | None) -> list[Path]:
    """Write text to path, or to stdout without one; the outputs written."""
    if path is None:
        sys.stdout.write(text)
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return [path]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="massart-forge",
        description=(
            "Construct, verify, and experiment with moment-matched "
            "piecewise-Gaussian hard instances for Massart halfspace learning."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="Evaluate the asymptotic parameter schedule.")
    p.add_argument("--log-M", type=float, required=True, help="natural log of the target dimension scale")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--zeta", type=float, help="target optimal error directly")
    group.add_argument("--zeta-exp", type=float, help="use zeta = exp(-(log M)^zeta_exp)")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--C-tau", type=float, default=Constants.C_tau)
    p.add_argument("--C-m", type=float, default=Constants.C_m)
    p.add_argument("--C-d", type=float, default=Constants.C_d)
    p.add_argument("--C-zeta", type=float, default=Constants.C_zeta)
    p.add_argument("--out", type=Path, default=None, help="write the plan JSON here (default stdout)")
    p.add_argument("--manifest", type=Path, default=None)

    g = sub.add_parser("gen", help="Generate a labeled dataset with a hidden direction.")
    g.add_argument("--zeta", type=float, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--epsilon", type=float, required=True)
    g.add_argument("--eta", type=float, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", type=Path, required=True, help="CSV output path")
    g.add_argument("--redact", action="store_true", help="omit the hidden direction from the sidecar")
    g.add_argument("--manifest", type=Path, default=None)

    v = sub.add_parser("verify", help="Run the full verification battery.")
    v.add_argument("--zeta", type=float, default=0.05)
    v.add_argument("--d", type=int, default=10)
    v.add_argument("--epsilon", type=float, default=0.05)
    v.add_argument("--eta", type=float, default=0.3)
    v.add_argument("--m", type=int, default=8)
    v.add_argument("--k", type=int, default=12)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--report", type=Path, default=None, help="write the report JSON here")
    v.add_argument("--manifest", type=Path, default=None)

    e = sub.add_parser("experiment", help="Run the distinguishing experiment over seeds.")
    e.add_argument("--zeta", type=float, default=0.05)
    e.add_argument("--d", type=int, default=10)
    e.add_argument("--epsilon", type=float, default=0.05)
    e.add_argument("--eta", type=float, default=0.3)
    e.add_argument("--m", type=int, default=20)
    e.add_argument("--tau", type=float, default=0.01)
    e.add_argument("--seeds", type=int, default=10, help="number of seeds, base --seed upward")
    e.add_argument("--seed", type=int, default=1)
    e.add_argument("--learners", type=str, default="constant,chow")
    e.add_argument("--oracle-mode", choices=["honest", "adversarial"], default="honest")
    e.add_argument("--out", type=Path, default=None, help="write the report JSON here (default stdout)")
    e.add_argument("--manifest", type=Path, default=None)

    d = sub.add_parser("emit-density", help="Emit the density curves on a uniform grid.")
    d.add_argument("--zeta", type=float, default=0.05)
    d.add_argument("--d", type=int, default=10)
    d.add_argument("--epsilon", type=float, default=0.05)
    d.add_argument("--grid", type=int, default=10000)
    d.add_argument("--lo", type=float, default=None)
    d.add_argument("--hi", type=float, default=None)
    d.add_argument("--out", type=Path, required=True)
    d.add_argument("--manifest", type=Path, default=None)

    r = sub.add_parser("replay", help="Re-run the command recorded in a manifest.")
    r.add_argument("manifest_file", type=Path)

    return parser


def _cmd_plan(args) -> int:
    if args.zeta_exp is not None:
        exponent = args.log_M**args.zeta_exp
        zeta = math.exp(-exponent)
        if zeta == 0.0:
            raise RangeError(
                f"zeta = exp(-(--log-M)^(--zeta-exp)) = exp(-{exponent:.6g}) underflows "
                "to 0; lower --log-M or --zeta-exp"
            )
    else:
        zeta = args.zeta
    constants = Constants(
        C_tau=args.C_tau, C_m=args.C_m, C_d=args.C_d, C_zeta=args.C_zeta
    )
    result = plan(args.log_M, args.eta, zeta, constants)
    outputs = _emit(serialize.dumps(result.to_dict()), args.out)
    _write_manifest(args, outputs, True)
    return 0


def _cmd_gen(args) -> int:
    config = HardPairConfig(zeta=args.zeta, d=args.d, epsilon=args.epsilon)
    pair = build_hard_pair(config)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    v = random_unit_vector(args.m, rng)
    instance = make_instance(pair, v, args.eta)
    x, y = sample_labeled(instance, rng, args.n)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    row_format = "%.17g," * args.m + "%d\n"
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(",".join([f"x_{i+1}" for i in range(args.m)] + ["y"]) + "\n")
        # tolist() per block, not on all of x: the Python floats of a whole
        # 100 000 x 20 draw would outweigh the array itself several times
        for start in range(0, len(x), CSV_BLOCK_ROWS):
            rows = x[start:start + CSV_BLOCK_ROWS].tolist()
            labels = y[start:start + CSV_BLOCK_ROWS].tolist()
            handle.write(
                "".join(row_format % (*row, label) for row, label in zip(rows, labels))
            )

    sidecar = {
        "m": args.m,
        "eta": args.eta,
        "zeta": args.zeta,
        "d": args.d,
        "delta": config.delta,
        "epsilon": args.epsilon,
        "seed": args.seed,
        "opt": opt_error(instance),
    }
    if not args.redact:
        sidecar["v"] = [float(val) for val in v]
    sidecar_path = Path(str(args.out) + ".json")
    serialize.dump(sidecar, sidecar_path)

    _write_manifest(args, [args.out, sidecar_path], True)
    return 0


def _cmd_verify(args) -> int:
    report = build_verification_report(
        zeta=args.zeta, d=args.d, epsilon=args.epsilon, eta=args.eta,
        m=args.m, k=args.k, seed=args.seed,
    )
    outputs = _emit(serialize.dumps(report), args.report)
    for name in SECTIONS:
        status = "pass" if report[name]["pass"] else "FAIL"
        print(f"verify {name}: {status}", file=sys.stderr)
    _write_manifest(args, outputs, report["pass"])
    return 0 if report["pass"] else 1


def _cmd_experiment(args) -> int:
    learners = tuple(s.strip() for s in args.learners.split(",") if s.strip())
    unknown = [name for name in learners if name not in LEARNERS]
    if unknown:
        raise RangeError(
            f"--learners names unknown learner {unknown[0]!r}; known: {', '.join(LEARNERS)}"
        )
    n = N_PROBES + 1  # the hidden direction and the probes
    # Welch: some pair of n > m unit vectors in R^m overlaps by at least this
    welch = math.sqrt((n - args.m) / (args.m * (n - 1))) if n > args.m else 0.0
    if welch > DIRECTION_C:
        raise RangeError(
            f"--m = {args.m} is too small: the Welch bound puts the largest pairwise "
            f"|<u, v>| of {n} directions at >= {welch:.3g} > c = {DIRECTION_C}"
        )
    config = HardPairConfig(zeta=args.zeta, d=args.d, epsilon=args.epsilon)
    oracle_config = OracleConfig(tau=args.tau, mode=args.oracle_mode)
    seeds = list(range(args.seed, args.seed + args.seeds))

    def run_one(seed: int):
        return distinguishing_experiment(
            config, args.eta, args.m, oracle_config, seed, learners=learners
        )

    workers = min(thread_cap(), len(seeds))
    try:
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                reports = list(pool.map(run_one, seeds))
        else:
            reports = [run_one(s) for s in seeds]
    except DirectionSetError as exc:
        raise DirectionSetError(
            f"at --m = {args.m} the search found no {n} directions at pairwise |<u, v>| <= "
            f"c = {DIRECTION_C}, though the Welch bound {welch:.3g} allows them; {exc}"
        ) from exc

    first = reports[0]
    aggregate = {
        "tau": args.tau,
        "seeds": seeds,
        "queries_used": sum(r.queries_used for r in reports),
        "gaps": {
            "planted": [r.planted_gap for r in reports],
            "moment_max": [r.max_moment_gap for r in reports],
        },
        "learner_errors": {
            name: [r.learner_errors[name] for r in reports] for name in learners
        },
        "nu": first.nu,
        "rho": first.rho,
        "alpha_chi": first.alpha_chi,
        "N_bound": first.N_bound,
        "c": first.c,
        "n_bound_caveat": first.N_BOUND_CAVEAT,
        "per_seed": [r.to_dict() for r in reports],
    }
    outputs = _emit(serialize.dumps(aggregate), args.out)
    _write_manifest(args, outputs, True)
    return 0


def _cmd_emit_density(args) -> int:
    config = HardPairConfig(zeta=args.zeta, d=args.d, epsilon=args.epsilon)
    lo = args.lo if args.lo is not None else -args.d * config.delta - 1.0
    hi = args.hi if args.hi is not None else args.d * config.delta + 1.0
    if not lo < hi:
        raise RangeError(f"--lo = {lo} must be below --hi = {hi}")
    if not math.isfinite(hi - lo):  # the grid step would be inf and x nan
        raise RangeError(f"--hi - --lo = {hi} - {lo} overflows a float")
    pair = build_hard_pair(config)
    x, da, db, j1, j2 = density_curve(pair, args.grid, lo, hi)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("x,density_A,density_B,in_J1,in_J2\n")
        for row in zip(x, da, db, j1, j2):
            handle.write(
                f"{row[0]:.17g},{row[1]:.17g},{row[2]:.17g},{row[3]:d},{row[4]:d}\n"
            )
    _write_manifest(args, [args.out], True)
    return 0


def _cmd_replay(args) -> int:
    import json

    manifest = json.loads(args.manifest_file.read_text(encoding="utf-8"))
    written_by = manifest.get("tool_version")
    if written_by != __version__:
        # the config format is per version: an older manifest could replay
        # as a different run, so it is refused rather than guessed at
        raise MassartForgeError(
            f"{args.manifest_file} was written by massart-forge {written_by}; "
            f"this is {__version__}, which replays only its own manifests"
        )
    # the inverse of _write_manifest's config: None and False are absent
    # flags, True a bare one
    argv = [manifest["command"]]
    for dest, value in manifest["config"].items():
        flag = "--" + dest.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv.append(f"{flag}={value}")
    return main(argv)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        thread_cap()  # reject a bad MASSART_FORGE_THREADS before any output
        _check_bounds(args)
        if args.command == "plan":
            return _cmd_plan(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "emit-density":
            return _cmd_emit_density(args)
        if args.command == "replay":
            return _cmd_replay(args)
        return 2
    except MassartForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal fault, not an input problem
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

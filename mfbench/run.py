"""massart-forge benchmark: real CLI commands, timed end to end.

    python3 mfbench/run.py --workload {experiment,verify,gen} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is used from ``src``
(``PYTHONPATH=src``), never installed.  Every op is one CLI command in a
fresh interpreter (``child.py``), one at a time, with
``MASSART_FORGE_THREADS=1``.  Op seeds are drawn from ``--seed``; the
program sees only CLI arguments.  Each op's outputs are checked
(``workloads.py``) and then deleted.

``--trace 0`` starts op groups while a typical op still ends within
``--seconds`` and reports the end-to-end metrics: ``wall_s`` (mean time
inside ``cli.main`` per op), ``setup_s`` (median time from spawning an
interpreter to its first ``cli.main`` call) and ``peak_rss_mb`` (median
per-op peak RSS, from ``os.wait4``).  ``--trace 1`` runs a fixed number of
groups, each running its command untraced and then with spans wrapped
around the package's layers, and reports per-layer metrics per traced op;
fixing the op count makes the counts repeat exactly for one seed.  See
METRICS.md.

The last stdout line is the result object; the line before it holds the
provenance and the details (tail percentile, failed fraction, per-op rows).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, output_digests

HERE = Path(__file__).resolve().parent
THREADS = "1"
# BLAS pools stay at one thread too: with the default two-thread OpenBLAS pool
# the spinning helper thread burns a second core and, on a shared two-core
# host, makes an experiment op's wall time swing by +-10 %
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0
# seconds one op group takes untraced plus traced, to size a traced run
TRACE_GROUP_SECONDS = {"experiment": 34.0, "verify": 3.6, "gen": 12.0}

# (metric, span, field, unit); field "count" is the span's draws or rows
PER_LAYER = [
    ("hardpair.sample.calls", "hardpair.sample", "calls", "count"),
    ("hardpair.sample.draws", "hardpair.sample", "count", "count"),
    ("hardpair.sample.self_s", "hardpair.sample", "self_s", "s"),
    ("hardpair.build_hard_pair.s", "hardpair.build_hard_pair", "s", "s"),
    ("instance.sample_labeled.rows", "instance.sample_labeled", "count", "count"),
    ("instance.sample_labeled.self_s", "instance.sample_labeled", "self_s", "s"),
    ("sqlab.answer.calls", "sqlab.answer", "calls", "count"),
    ("sqlab.answer.self_s", "sqlab.answer", "self_s", "s"),
    ("sqlab.sample_projected.draws", "sqlab.sample_projected", "count", "count"),
    ("sqlab.sample_projected.self_s", "sqlab.sample_projected", "self_s", "s"),
    ("sqlab.sample_xy.draws", "sqlab.sample_xy", "count", "count"),
    ("sqlab.learner_chow.s", "sqlab.learner_chow", "s", "s"),
    ("sqlab.near_orthogonal_set.s", "sqlab.near_orthogonal_set", "s", "s"),
    ("sqlab.distinguishing_experiment.self_s", "sqlab.distinguishing_experiment", "self_s", "s"),
    ("cli.emit.self_s", "cli.main", "self_s", "s"),
    ("serialize.dump.s", "serialize.dump", "s", "s"),
    ("ddcore.gauss_legendre_dd.calls", "ddcore.gauss_legendre_dd", "calls", "count"),
    ("ddcore.gauss_legendre_dd.s", "ddcore.gauss_legendre_dd", "s", "s"),
    ("ddcore.comb_moment_discrepancies.calls", "ddcore.comb_moment_discrepancies", "calls", "count"),
    ("ddcore.comb_moment_discrepancies.self_s", "ddcore.comb_moment_discrepancies", "self_s", "s"),
    ("moments.measure_moment.calls", "moments.measure_moment", "calls", "count"),
    ("moments.measure_moment.s", "moments.measure_moment", "s", "s"),
    ("moments.quadrature_moment.calls", "moments.quadrature_moment", "calls", "count"),
    ("moments.quadrature_moment.s", "moments.quadrature_moment", "s", "s"),
    ("moments.chi_square_vs_gaussian.s", "moments.chi_square_vs_gaussian", "s", "s"),
    ("moments.moment_discrepancy_report.s", "moments.moment_discrepancy_report", "s", "s"),
    ("lift.veronese.calls", "lift.veronese", "calls", "count"),
    ("lift.veronese.rows", "lift.veronese", "count", "count"),
    ("lift.veronese.s", "lift.veronese", "s", "s"),
    ("lift.enumerate_basis.s", "lift.enumerate_basis", "s", "s"),
    ("lift.halfspace_from_ptf.s", "lift.halfspace_from_ptf", "s", "s"),
    ("lift.check_consistency.self_s", "lift.check_consistency", "self_s", "s"),
    ("verification.build_verification_report.s", "verification.build_verification_report", "s", "s"),
]


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["MASSART_FORGE_THREADS"] = THREADS
    env.update(dict.fromkeys(BLAS_ENV, THREADS))
    return env


def spawn(argv: list[str], directory: Path, env: dict, traced: bool, deadline: float) -> dict:
    """Run child.py in a fresh interpreter; return its timings and rusage."""
    result = directory / "_child.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result)]
    cmd += ["--trace"] if traced else []
    cmd += ["--", *argv]
    with open(directory / "_stderr.txt", "wb") as err:
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=directory, env=env, stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(max(0.0, deadline - spawned), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0}
    try:
        child = json.loads(result.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        err_text = (directory / "_stderr.txt").read_text(errors="replace")[-400:]
        record["problems"] = [f"no child result (exit {proc.returncode}): {err_text}"]
        return record
    record["setup_s"] = child["t_ready"] - spawned
    record["wall_s"] = child["t_done"] - child["t_ready"]
    record["cpu_s"] = child["cpu_s"]
    record["spans"] = child.get("spans")
    record["bindings"] = child.get("bindings")
    record["problems"] = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
    return record


def check(workload: str, directory: Path, seed: int) -> list[str]:
    """The workload's output check, in its own process (see workloads.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), workload, str(directory), str(seed)],
        capture_output=True, text=True, timeout=120,
    )
    try:
        return json.loads(proc.stdout)
    except ValueError:
        return [f"output check crashed: {proc.stderr[-400:]}"]


def run_group(workload, seed: int, traced: bool, gdir: Path, env: dict, deadline, budget) -> list[dict]:
    """One op group; ``budget()`` says whether another op may start."""
    records = []
    reference = None
    for i, op in enumerate(workload.ops(seed, traced)):
        if i and not budget():
            break
        directory = gdir / op.dirname
        directory.mkdir(parents=True, exist_ok=True)
        rec = spawn(list(op.argv), directory, env, op.traced, deadline)
        rec.update(seed=seed, command=op.argv[0], traced=op.traced)
        if "wall_s" in rec:
            digests = output_digests(directory)
            rec["bytes"] = sum(size for _, size in digests.values())
            rec["sha256"] = {name: digest for name, (digest, _) in digests.items()}
            if i == 0:
                reference = digests
                rec["problems"] += check(workload.name, directory, seed)
            elif digests != reference:
                differ = sorted(k for k in set(digests) | set(reference or {})
                                if digests.get(k) != (reference or {}).get(k))
                rec["problems"].append(f"outputs differ from the group's first op: {differ}")
        records.append(rec)
    shutil.rmtree(gdir, ignore_errors=True)
    return records


def tail(values: list[float]) -> dict:
    """Highest percentile that still has >= 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return {"percentile": None, "value": None, "samples": n}
    ordered = sorted(values)
    return {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11], "samples": n}


def per_layer(records: list[dict]) -> dict:
    traced = [r for r in records if r.get("traced") and r.get("spans") is not None]
    untraced = [r["wall_s"] for r in records if not r.get("traced") and "wall_s" in r]
    n = max(1, len(traced))
    totals: dict[str, float] = {}
    for metric, span, field, _ in PER_LAYER:
        totals[metric] = sum(r["spans"].get(span, {}).get(field, 0) for r in traced) / n
    answers = totals["sqlab.answer.calls"]
    draws = totals["sqlab.sample_projected.draws"] + totals["sqlab.sample_xy.draws"]
    totals["sqlab.draws_per_answer"] = draws / answers if answers else 0.0
    totals["cli.emit.bytes"] = sum(r.get("bytes", 0) for r in traced) / n
    traced_walls = [r["wall_s"] for r in traced]
    if traced_walls and untraced:
        base = statistics.median(untraced)
        totals["trace_overhead_frac"] = (statistics.median(traced_walls) - base) / base
    else:
        totals["trace_overhead_frac"] = 0.0
    units = {metric: unit for metric, _, _, unit in PER_LAYER}
    units.update({"sqlab.draws_per_answer": "draws/answer", "cli.emit.bytes": "bytes",
                  "trace_overhead_frac": "ratio"})
    return {name: {"value": value, "unit": units[name]} for name, value in totals.items()}


def provenance(workload: str, seed: int) -> dict:
    info = {
        "workload": workload,
        "workload_seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "caches": {},
        "python": platform.python_version(),
        "thread_cap": int(THREADS),
        "blas_threads": int(THREADS),
    }
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still stops its children and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    started = time.perf_counter()
    hard_deadline = started + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "massart_forge" / "cli.py").is_file():
        print(f"error: no massart_forge sources under {root / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = child_env(root)
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = random.Random(args.seed)
    traced = bool(args.trace)

    try:
        # the first interpreter compiles the package's bytecode; users pay that once
        warm = work / "warm"
        warm.mkdir()
        spawn([], warm, env, False, hard_deadline)
        setup = []
        for _ in range(0 if traced else SETUP_SAMPLES):
            rec = spawn([], warm, env, False, hard_deadline)
            if "setup_s" in rec:
                setup.append(rec["setup_s"])
        shutil.rmtree(warm)

        records: list[dict] = []
        op_seconds: list[float] = []

        def budget() -> bool:
            """Start an op only if a typical one still ends within --seconds."""
            if traced:
                return True
            elapsed = time.perf_counter() - started
            typical = statistics.median(op_seconds) if op_seconds else 0.0
            return elapsed + typical < args.seconds

        groups = (
            range(max(1, int(args.seconds // TRACE_GROUP_SECONDS[workload.name])))
            if traced
            else itertools.count()
        )
        for index in groups:
            if not traced and index and not budget():
                break
            seed = rng.randrange(1, 2**31)
            t0 = time.perf_counter()
            group = run_group(workload, seed, traced, work / f"g{index}", env,
                              hard_deadline, budget)
            op_seconds.append((time.perf_counter() - t0) / len(group))
            records += group
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass

    failed = sum(1 for r in records if r["problems"])
    untraced_ok = [r for r in records if not r["traced"] and not r["problems"]]
    walls = [r["wall_s"] for r in untraced_ok]
    setup += [r["setup_s"] for r in untraced_ok]
    if traced:
        metrics = per_layer(records)
    else:
        # the mean, not the median: a run has only 2 to 9 experiment or gen
        # ops, and a shared host's CPU speed wanders by +-15 % within
        # seconds, so the mean of them all moves about half as much per run
        metrics = {
            "wall_s": {"value": statistics.fmean(walls) if walls else 0.0, "unit": "s"},
            "setup_s": {"value": statistics.median(setup) if setup else 0.0, "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(r["rss_mb"] for r in untraced_ok) if untraced_ok else 0.0,
                "unit": "MB",
            },
        }
    detail = {
        "provenance": provenance(args.workload, args.seed),
        "failed_frac": failed / len(records) if records else 1.0,
        "wall_s_median": statistics.median(walls) if walls else None,
        "wall_s_tail": tail(walls),
        "draws_per_answer_base": "(sqlab.sample_projected.draws + sqlab.sample_xy.draws) / sqlab.answer.calls",
        "setup_samples": len(setup),
        "traced_bindings": next((r["bindings"] for r in records if r.get("bindings")), []),
        "ops": [
            {k: r.get(k) for k in ("command", "seed", "traced", "code", "wall_s", "cpu_s", "setup_s",
                                   "rss_mb", "bytes", "sha256", "problems")}
            for r in records
        ],
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": bool(records) and failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

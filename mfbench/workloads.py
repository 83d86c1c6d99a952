"""The benchmark's workloads: the CLI command each op runs and its output checks.

Every check is an invariant of the command's contract, not golden bytes, so
a change that legitimately moves the RNG stream still passes.  A workload
runs its ops in groups that share one op seed; later ops of a group must
reproduce the first op's outputs byte for byte (after dropping the run-time
fields ``timestamp_utc`` and ``runtime_seconds``).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# desk configuration shared by every workload
ZETA, D, EPSILON, ETA, M = 0.05, 10, 0.05, 0.3, 20
TAU = 0.01
GEN_N = 100_000
LEARNERS = ("constant", "chow")
VERIFY_SECTIONS = (
    "construction", "moments", "fourier", "chi_square", "massart", "tsybakov", "lift",
)
# fraction of an interval's width by which a projection recomputed from the
# CSV may miss it: the CSV round-trips x exactly, so only the dot product's
# rounding (~1e-15) separates x.v from the sampled projection
SUPPORT_SLACK = 1e-9

_RUNTIME_FIELD = re.compile(rb'^\s*"(timestamp_utc|runtime_seconds)": .*$\n?', re.M)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``argv`` run in directory ``dirname`` of the group."""

    argv: tuple[str, ...]
    dirname: str
    traced: bool


def _with_traced_twin(argv: tuple[str, ...], traced: bool) -> list[Op]:
    """The op untraced, then, in a traced run, again traced in its own directory."""
    return [Op(argv, "a", False)] + ([Op(argv, "b", True)] if traced else [])


def output_digests(directory: Path) -> dict[str, tuple[str, int]]:
    """sha256 and size of each output file, run-time fields dropped.

    Files the benchmark itself writes into an op directory start with ``_``.
    """
    out = {}
    for path in sorted(directory.iterdir()):
        if path.name.startswith("_"):
            continue
        digest, size = hashlib.sha256(), 0
        if path.suffix == ".json":
            data = _RUNTIME_FIELD.sub(b"", path.read_bytes())
            digest.update(data)
            size = len(data)
        else:  # in blocks, so the caller's peak RSS stays small
            with open(path, "rb") as handle:
                while block := handle.read(1 << 20):
                    digest.update(block)
                    size += len(block)
        out[path.name] = (digest.hexdigest(), size)
    return out


def _load_json(path: Path, problems: list[str]):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")
        return None


def _check_manifest(path: Path, command: str, seed: int, problems: list[str]) -> None:
    manifest = _load_json(path, problems)
    if manifest is None:
        return
    if manifest.get("command") != command or manifest.get("seed") != seed:
        problems.append(f"manifest records {manifest.get('command')} seed {manifest.get('seed')}")
    if manifest.get("pass") is not True:
        problems.append("manifest pass is not true")


class Experiment:
    """One distinguishing-experiment seed: 325 oracle answers, no ddcore, no CSV."""

    name = "experiment"

    def ops(self, seed: int, traced: bool) -> list[Op]:
        argv = ("experiment", "--seeds", "1", "--seed", str(seed), "--out", "report.json")
        return _with_traced_twin(argv, traced)

    def check(self, directory: Path, seed: int) -> list[str]:
        problems: list[str] = []
        report = _load_json(directory / "report.json", problems)
        _check_manifest(directory / "report.json.manifest.json", "experiment", seed, problems)
        if report is None:
            return problems
        try:
            if report["seeds"] != [seed] or report["tau"] != TAU:
                problems.append(f"report for seeds {report['seeds']} tau {report['tau']}")
            planted = report["gaps"]["planted"][0]
            moment = report["gaps"]["moment_max"][0]
            if not planted > 5 * TAU:
                problems.append(f"planted gap {planted} <= 5 tau")
            if not moment <= 2 * TAU:
                problems.append(f"moment gap {moment} > 2 tau")
            for name in LEARNERS:
                err = report["learner_errors"][name][0]
                if not err >= ETA - 0.02:
                    problems.append(f"learner {name} error {err} < eta - 0.02")
        except (KeyError, IndexError, TypeError) as exc:
            problems.append(f"report lacks {exc!r}")
        return problems


class Verify:
    """The verification battery at CLI defaults: ddcore, moments and lift, no oracle."""

    name = "verify"

    def ops(self, seed: int, traced: bool) -> list[Op]:
        return _with_traced_twin(("verify", "--seed", str(seed), "--report", "report.json"), traced)

    def check(self, directory: Path, seed: int) -> list[str]:
        problems: list[str] = []
        report = _load_json(directory / "report.json", problems)
        _check_manifest(directory / "report.json.manifest.json", "verify", seed, problems)
        if report is None:
            return problems
        if report.get("pass") is not True:
            problems.append("report pass is not true")
        for name in VERIFY_SECTIONS:
            if not isinstance(report.get(name), dict) or report[name].get("pass") is not True:
                problems.append(f"section {name} did not pass")
        return problems


def comb_supports(zeta: float, d: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed pieces of A and of B as (k, 2) arrays, sorted.

    Rebuilt from the construction's definition, not from the package: A has
    [n delta - eps, n delta + eps] for |n| <= n_max; B moves each central
    piece (|n| <= d) to [n delta - 5 eps, n delta - 3 eps].
    """
    delta = 4.0 * math.sqrt(math.log(1.0 / zeta)) / d
    n_max = math.ceil(max(12.0, d * delta + 2.0) / delta)
    ns = np.arange(-n_max, n_max + 1, dtype=float)
    a = np.stack([ns * delta - eps, ns * delta + eps], axis=1)
    central = np.abs(ns) <= d
    b = a.copy()
    b[central, 0] = ns[central] * delta - 5.0 * eps
    b[central, 1] = ns[central] * delta - 3.0 * eps
    return a, b[np.argsort(b[:, 0])]


def in_support(t: np.ndarray, pieces: np.ndarray) -> np.ndarray:
    slack = SUPPORT_SLACK * (pieces[0, 1] - pieces[0, 0])
    idx = np.searchsorted(pieces[:, 0] - slack, t, side="right") - 1
    safe = np.clip(idx, 0, len(pieces) - 1)
    return (idx >= 0) & (t <= pieces[safe, 1] + slack)


class Gen:
    """A 100 000-row, 40.5 MB CSV: one full-x draw, then formatting and writes."""

    name = "gen"

    def ops(self, seed: int, traced: bool) -> list[Op]:
        argv = (
            "gen", "--zeta", str(ZETA), "--d", str(D), "--epsilon", str(EPSILON),
            "--eta", str(ETA), "--m", str(M), "--n", str(GEN_N), "--seed", str(seed),
            "--out", "data.csv",
        )
        # a same-seed rerun in its own directory, then a replay of the first
        # op's manifest, which rewrites the first op's files in place
        replay = ("replay", "data.csv.manifest.json")
        return [Op(argv, "a", False), Op(argv, "b", traced), Op(replay, "a", traced)]

    def check(self, directory: Path, seed: int) -> list[str]:
        problems: list[str] = []
        sidecar = _load_json(directory / "data.csv.json", problems)
        _check_manifest(directory / "data.csv.manifest.json", "gen", seed, problems)
        try:
            data = (directory / "data.csv").read_bytes()
        except OSError as exc:
            return problems + [str(exc)]
        if sidecar is None:
            return problems
        header, _, body = data.partition(b"\n")
        expected = ",".join([f"x_{i + 1}" for i in range(M)] + ["y"]).encode()
        if header != expected:
            problems.append("unexpected CSV header")
        lines = body.split(b"\n")
        if lines[-1] != b"" or len(lines) - 1 != GEN_N:
            return problems + [f"{len(lines) - 1} data lines, want {GEN_N} newline-terminated"]
        if any(line.count(b",") != M for line in lines[:-1]):
            return problems + [f"a row without {M + 1} fields"]
        values = np.fromstring(body.replace(b"\n", b","), sep=",")
        if values.size != GEN_N * (M + 1):
            return problems + ["a field is not a number"]
        table = values.reshape(GEN_N, M + 1)
        if not np.all(np.isfinite(table)):
            problems.append("non-finite field")
        x, y = table[:, :M], table[:, M]
        if not np.all((y == 1.0) | (y == -1.0)):
            problems.append("label outside {-1, +1}")
        v = np.asarray(sidecar.get("v", []), dtype=float)
        if v.shape != (M,) or abs(float(np.linalg.norm(v)) - 1.0) > 1e-12:
            return problems + ["sidecar v is not a unit vector in R^m"]
        if sidecar.get("seed") != seed or sidecar.get("m") != M:
            problems.append("sidecar seed or m differs from the command")
        support_a, support_b = comb_supports(ZETA, D, EPSILON)
        t = x @ v
        pos = y == 1.0
        stray = int(np.sum(~in_support(t[pos], support_a)))
        stray += int(np.sum(~in_support(t[~pos], support_b)))
        if stray:
            problems.append(f"{stray} rows project outside the support of their label's measure")
        return problems


WORKLOADS = {w.name: w for w in (Experiment(), Verify(), Gen())}


if __name__ == "__main__":
    # python3 workloads.py WORKLOAD DIRECTORY SEED: print the check's problems
    # as a JSON list.  run.py checks in this separate process so that its own
    # peak RSS, which Linux folds into the ru_maxrss of every child it spawns
    # afterwards, stays below any op's.
    name, directory, seed = sys.argv[1:]
    print(json.dumps(WORKLOADS[name].check(Path(directory), int(seed))))

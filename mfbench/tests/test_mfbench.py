"""Self-tests of the benchmark: traced spans, byte-identical outputs, exact counts.

    python3 -m pytest mfbench/tests

Each workload's traced run is made twice with one seed; about two minutes
on two cores, most of it the two experiment ops per run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SEED = 7

# spans that must do work on a workload, and spans that must read exactly 0
MOVES = {
    "experiment": [
        "hardpair.sample.calls", "hardpair.sample.draws", "sqlab.answer.calls",
        "sqlab.sample_projected.draws", "sqlab.sample_xy.draws",
        "instance.sample_labeled.rows", "sqlab.learner_chow.s",
        "sqlab.near_orthogonal_set.s", "sqlab.distinguishing_experiment.self_s",
    ],
    "verify": [
        "ddcore.gauss_legendre_dd.calls", "ddcore.comb_moment_discrepancies.calls",
        "moments.measure_moment.calls", "moments.quadrature_moment.calls",
        "moments.chi_square_vs_gaussian.s", "moments.moment_discrepancy_report.s",
        "lift.veronese.calls", "lift.veronese.rows", "lift.enumerate_basis.s",
        "lift.halfspace_from_ptf.s", "lift.check_consistency.self_s",
        "verification.build_verification_report.s", "hardpair.build_hard_pair.s",
    ],
    "gen": [
        "cli.emit.self_s", "cli.emit.bytes", "serialize.dump.s",
        "instance.sample_labeled.rows", "hardpair.sample.draws",
    ],
}
ZERO = {
    "experiment": [
        "ddcore.gauss_legendre_dd.calls", "ddcore.gauss_legendre_dd.s",
        "ddcore.comb_moment_discrepancies.calls", "ddcore.comb_moment_discrepancies.self_s",
        "lift.veronese.calls",
    ],
    "verify": ["sqlab.answer.calls", "sqlab.sample_projected.draws", "sqlab.sample_xy.draws"],
    "gen": [
        "sqlab.answer.calls", "ddcore.gauss_legendre_dd.calls",
        "ddcore.comb_moment_discrepancies.calls", "moments.measure_moment.calls",
    ],
}
# bindings that patching only the defining module would miss
BINDINGS = [
    "sqlab.hp_sample", "instance.sample", "sqlab.sample_labeled",
    "verification.sample_labeled", "cli.sample_labeled",
    "moments.comb_moment_discrepancies", "verification.build_hard_pair",
    "sqlab.SQOracle.answer", "sqlab.InstanceDistribution.sample_projected",
    "sqlab.NullDistribution.sample_projected", "sqlab.InstanceDistribution.sample_xy",
    "sqlab.NullDistribution.sample_xy",
]


def bench(workload: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    # one second sizes a traced run to a single op group
    return subprocess.run(
        [sys.executable, str(cwd / "mfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module", params=sorted(MOVES))
def traced_pair(request):
    """(detail, result) of two traced runs of one workload with one seed."""
    runs = []
    for _ in range(2):
        proc = bench(request.param)
        assert proc.returncode == 0, proc.stderr
        detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        runs.append((detail, result))
    return request.param, runs


def test_outputs_correct_and_traced_identical(traced_pair):
    # a traced op whose outputs differ from its untraced twin counts as failed
    _, runs = traced_pair
    for detail, result in runs:
        assert result["correct"] and result["failed"] == 0, detail["ops"]
        assert any(op["traced"] for op in detail["ops"])
        assert any(not op["traced"] for op in detail["ops"])


def test_spans_fire_where_they_should(traced_pair):
    workload, runs = traced_pair
    metrics = runs[0][1]["metrics"]
    for name in MOVES[workload]:
        assert metrics[name]["value"] > 0, name
    for name in ZERO[workload]:
        assert metrics[name]["value"] == 0, name


def test_every_import_binding_is_wrapped(traced_pair):
    _, runs = traced_pair
    bindings = set(runs[0][0]["traced_bindings"])
    assert set(BINDINGS) <= bindings, set(BINDINGS) - bindings


def test_counts_repeat_exactly(traced_pair):
    _, runs = traced_pair
    first, second = (result["metrics"] for _, result in runs)
    counted = [
        name for name in first
        if name.endswith((".calls", ".draws", ".rows")) or name == "cli.emit.bytes"
    ]
    assert counted
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "mfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("verify", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

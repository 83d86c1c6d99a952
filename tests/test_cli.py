import argparse
import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from massart_forge import __version__, cli, moments, verification
from massart_forge.cli import main
from massart_forge.errors import MassartForgeError


def run(argv):
    return main([str(a) for a in argv])


def test_plan_success(tmp_path):
    out = tmp_path / "plan.json"
    code = run(["plan", "--log-M", "1e4", "--zeta-exp", "0.5", "--eta", "0.49", "--out", out])
    assert code == 0
    plan = json.loads(out.read_text())
    assert plan["M_prime_log"] <= plan["log_M"]
    manifest = json.loads((tmp_path / "plan.json.manifest.json").read_text())
    assert manifest["command"] == "plan"
    assert "PCG64" in manifest["rng"]


def test_plan_invalid_eta(tmp_path, capsys):
    code = run(["plan", "--log-M", "1e4", "--zeta-exp", "0.5", "--eta", "0.6",
                "--manifest", tmp_path / "m.json"])
    assert code == 2
    assert "eta out of range (0, 1/2]" in capsys.readouterr().err


def test_plan_infeasible_constant(tmp_path):
    code = run(["plan", "--log-M", "1e4", "--zeta-exp", "0.5", "--eta", "0.49",
                "--C-tau", "1e-6", "--manifest", tmp_path / "m.json"])
    assert code == 2


def test_gen_determinism_and_sidecar(tmp_path):
    base = ["gen", "--zeta", "0.05", "--d", "10", "--epsilon", "0.05", "--eta", "0.3",
            "--m", "4", "--n", "500", "--seed", "11"]
    assert run(base + ["--out", tmp_path / "a.csv"]) == 0
    assert run(base + ["--out", tmp_path / "b.csv"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    rows = (tmp_path / "a.csv").read_text().splitlines()
    assert rows[0] == "x_1,x_2,x_3,x_4,y"
    assert len(rows) == 501
    sidecar = json.loads((tmp_path / "a.csv.json").read_text())
    for key in ("m", "eta", "zeta", "d", "delta", "epsilon", "seed", "v", "opt"):
        assert key in sidecar
    assert run(base + ["--out", tmp_path / "c.csv", "--redact"]) == 0
    assert "v" not in json.loads((tmp_path / "c.csv.json").read_text())


def test_gen_rejects_bad_config(tmp_path):
    code = run(["gen", "--zeta", "0.05", "--d", "10", "--epsilon", "0.2", "--eta", "0.3",
                "--m", "4", "--n", "10", "--seed", "1", "--out", tmp_path / "x.csv"])
    assert code == 2


def test_replay_reproduces(tmp_path):
    base = ["gen", "--zeta", "0.05", "--d", "10", "--epsilon", "0.05", "--eta", "0.3",
            "--m", "3", "--n", "200", "--seed", "5", "--out", tmp_path / "orig.csv"]
    assert run(base) == 0
    original = (tmp_path / "orig.csv").read_bytes()
    (tmp_path / "orig.csv").unlink()
    assert run(["replay", tmp_path / "orig.csv.manifest.json"]) == 0
    assert (tmp_path / "orig.csv").read_bytes() == original


# one run per command, every flag kind: a derived value (plan's zeta from
# --zeta-exp, emit-density's default --lo/--hi), a changed default, a bare
# flag, a zero (experiment's --seed, default 1), a choice and a learner list
_REPLAYED = {
    "plan": ["plan", "--log-M", "1e4", "--zeta-exp", "0.5", "--eta", "0.49",
             "--C-tau", "2.5", "--out", "plan.json"],
    "gen": ["gen", "--zeta", "0.05", "--d", "10", "--epsilon", "0.05", "--eta", "0.3",
            "--m", "3", "--n", "200", "--seed", "5", "--redact", "--out", "data.csv"],
    "verify": ["verify", "--seed", "7", "--report", "report.json"],
    "experiment": ["experiment", "--seeds", "2", "--seed", "0", "--learners", "constant",
                   "--oracle-mode", "adversarial", "--out", "exp.json"],
    "emit-density": ["emit-density", "--grid", "200", "--out", "curve.csv"],
}
_RUN_TIME_FIELD = re.compile(rb'^\s*"(timestamp_utc|runtime_seconds)": .*$\n?', re.M)


def _files(directory):
    return {p.name: _RUN_TIME_FIELD.sub(b"", p.read_bytes()) for p in directory.iterdir()}


@pytest.mark.parametrize("argv", _REPLAYED.values(), ids=_REPLAYED.keys())
def test_replay_round_trips_every_command(tmp_path, monkeypatch, argv):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert run(argv) == 0
    written = _files(work)
    (name,) = [name for name in written if name.endswith(".manifest.json")]
    saved = tmp_path / "saved.manifest.json"
    (work / name).rename(saved)
    for path in work.iterdir():
        path.unlink()
    assert run(["replay", saved]) == 0
    assert _files(work) == written


def test_replay_refuses_another_tool_version(tmp_path, monkeypatch, capsys):
    # a 0.1.0 verify manifest kept its report path only in outputs; replayed
    # by today's rule it would print the report to stdout instead
    monkeypatch.chdir(tmp_path)
    old = {
        "command": "verify",
        "config": {"zeta": 0.05, "d": 10, "epsilon": 0.05, "eta": 0.3, "m": 8, "k": 12},
        "seed": 0,
        "tool_version": "0.1.0",
        "outputs": ["report.json"],
        "pass": True,
    }
    (tmp_path / "old.manifest.json").write_text(json.dumps(old))
    assert run(["replay", "old.manifest.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0.1.0" in captured.err and __version__ in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["old.manifest.json"]


def test_every_flag_is_its_dest():
    # the manifest records dests and replay rebuilds "--" + dest, "_" as "-"
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, subparser in sub.choices.items():
        for action in subparser._actions:
            if action.option_strings and not isinstance(action, argparse._HelpAction):
                flag = "--" + action.dest.replace("_", "-")
                assert action.option_strings == [flag], command
                assert cli._dest(flag) == action.dest


def test_verify_pass_and_refusal(tmp_path):
    report_path = tmp_path / "report.json"
    code = run(["verify", "--zeta", "0.05", "--d", "10", "--epsilon", "0.05",
                "--k", "12", "--report", report_path])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["pass"] is True
    assert all(report[name]["pass"] for name in verification.SECTIONS)
    assert abs(report["chi_square"]["closed_form"] - report["chi_square"]["quadrature"]) <= 1e-8
    # corrupted epsilon (> delta/8) refuses to run
    code = run(["verify", "--zeta", "0.05", "--d", "10", "--epsilon", "0.09",
                "--manifest", tmp_path / "m.json"])
    assert code == 2


def test_verify_top_moment_order_passes(tmp_path):
    # odd moments of the symmetric A are rounding residues on the scale of
    # E|X|^t; the cross-check resolves them at every order --k accepts
    report_path = tmp_path / "report.json"
    code = run(["verify", "--k", moments.K_MAX, "--report", report_path,
                "--manifest", tmp_path / "m.json"])
    assert code == 0
    section = json.loads(report_path.read_text())["moments"]
    assert section["pass"] is True
    assert section["recurrence_vs_quadrature_worst_rel"] <= 1e-10
    assert len(section["moments_A"]) == moments.K_MAX + 1


def test_experiment_blames_m_only_when_welch_proves_it(tmp_path, capsys):
    # 21 unit vectors in R^7 must overlap by >= 0.316 > 0.3; in R^8 the Welch
    # bound (0.285) allows them, so a failed search is reported as one
    argv = ["experiment", "--out", tmp_path / "out", "--manifest", tmp_path / "m.json"]
    assert run(argv + ["--m", "7"]) == 2
    err = capsys.readouterr().err
    assert "--m = 7 is too small" in err and "Welch" in err
    assert run(argv + ["--m", "8"]) == 2
    err = capsys.readouterr().err
    assert "too small" not in err
    assert "--m = 8" in err and "3 restarts of 2101 tries" in err
    assert list(tmp_path.iterdir()) == []


def test_emit_density(tmp_path):
    out = tmp_path / "curve.csv"
    assert run(["emit-density", "--grid", "2000", "--out", out]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "x,density_A,density_B,in_J1,in_J2"
    assert len(rows) == 2001
    for row in rows[1:]:
        x, da, db, j1, j2 = row.split(",")
        assert not (j1 == "1" and j2 == "1")
        if j2 == "1":
            assert float(da) == 0.0


def test_experiment_single_learner(tmp_path):
    out = tmp_path / "exp.json"
    code = run(["experiment", "--seeds", "1", "--seed", "2", "--m", "20",
                "--tau", "0.05", "--learners", "constant", "--out", out])
    assert code == 0
    report = json.loads(out.read_text())
    assert list(report["learner_errors"].keys()) == ["constant"]
    assert len(report["learner_errors"]["constant"]) == 1
    for key in ("nu", "rho", "alpha_chi", "N_bound", "tau", "queries_used", "gaps",
                "learner_errors", "seeds"):
        assert key in report


def test_thread_cap_leaves_report_unchanged(tmp_path, monkeypatch):
    # at a cap of 2 the two seeds run on the thread pool; the report has no
    # run-time field, so its bytes must not depend on the cap
    reports = []
    for cap in ("1", "2"):
        monkeypatch.setenv("MASSART_FORGE_THREADS", cap)
        out = tmp_path / f"exp_{cap}.json"
        code = run(["experiment", "--seeds", "2", "--seed", "3", "--learners", "constant",
                    "--out", out, "--manifest", tmp_path / f"m_{cap}.json"])
        assert code == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("raw", ["two", "1.5", "0", "-3"])
def test_bad_thread_cap_exits_2_before_output(tmp_path, monkeypatch, capsys, raw):
    monkeypatch.setenv("MASSART_FORGE_THREADS", raw)
    out = tmp_path / "plan.json"
    code = run(["plan", "--log-M", "1e4", "--zeta-exp", "0.5", "--eta", "0.49", "--out", out])
    assert code == 2
    assert "MASSART_FORGE_THREADS" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_moment_section_failure_vs_internal_fault(tmp_path, monkeypatch, desk_pair):
    def refuse(pair, k):
        raise MassartForgeError("shift bound not certified")

    monkeypatch.setattr(moments, "moment_discrepancy_report", refuse)
    section = verification._moment_section(desk_pair, 4)
    assert section["shift_bound_ok"] is False
    assert section["pass"] is False

    def crash(pair, k):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(moments, "moment_discrepancy_report", crash)
    with pytest.raises(RuntimeError):
        verification._moment_section(desk_pair, 4)
    # through the CLI the fault exits 1 as an internal error, not a failed check
    assert run(["verify", "--report", tmp_path / "r.json"]) == 1
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["experiment", "--seeds", "0"], "--seeds"),
        (["experiment", "--seeds", "-2"], "--seeds"),
        (["emit-density", "--grid", "0"], "--grid"),
        (["emit-density", "--grid", "1"], "--grid"),
        (["emit-density", "--lo", "3", "--hi", "-3"], "--lo"),
        (["emit-density", "--lo", "3", "--hi", "3"], "--hi"),
        (["gen", "--zeta", "0.05", "--d", "10", "--epsilon", "0.05", "--eta", "0.3",
          "--m", "0", "--n", "10", "--seed", "1"], "--m"),
        (["verify", "--m", "0"], "--m"),
        (["experiment", "--m", "0"], "--m"),
        (["experiment", "--learners", "constant,bogus"], "--learners"),
        (["verify", "--k", "-1"], "--k"),
        (["verify", "--k", "0"], "--k"),
        (["verify", "--seed", "-1"], "--seed"),
        (["experiment", "--seed", "-1"], "--seed"),
        (["gen", "--zeta", "0.05", "--d", "10", "--epsilon", "0.05", "--eta", "0.3",
          "--m", "4", "--n", "10", "--seed", "-1"], "--seed"),
        (["experiment", "--m", "8"], "--m"),  # too few dimensions for 21 directions
        (["verify", "--k", str(moments.K_MAX + 1)], "--k"),
        # delta = 4 sqrt(log(1/zeta))/d >= 1, and epsilon >= delta/8
        (["verify", "--d", "6"], "--d"),
        (["experiment", "--zeta", "0.01", "--d", "8"], "--zeta"),
        (["verify", "--epsilon", "0.09"], "--epsilon"),
        (["gen", "--zeta", "0.05", "--d", "10", "--epsilon", "0.2", "--eta", "0.3",
          "--m", "4", "--n", "10", "--seed", "1"], "--epsilon"),
        (["emit-density", "--epsilon", "0.5"], "--epsilon"),
        # log M must be finite and above e before plan raises it to --zeta-exp
        (["plan", "--log-M", "-5", "--zeta-exp", "0.5", "--eta", "0.3"], "--log-M"),
        (["plan", "--log-M", "nan", "--zeta", "0.1", "--eta", "0.3"], "--log-M"),
        (["plan", "--log-M", "inf", "--zeta", "0.1", "--eta", "0.3"], "--log-M"),
        # the paper's exponent 0 < c < 1, and a zeta that underflows to 0
        (["plan", "--log-M", "1e4", "--zeta-exp", "1000", "--eta", "0.3"], "--zeta-exp"),
        (["plan", "--log-M", "1e4", "--zeta-exp", "nan", "--eta", "0.3"], "--zeta-exp"),
        (["plan", "--log-M", "1e6", "--zeta-exp", "0.9", "--eta", "0.3"], "--zeta-exp"),
        (["plan", "--log-M", "1e6", "--zeta-exp", "0.9", "--eta", "0.3"], "--log-M"),
        (["emit-density", "--lo=-inf"], "--lo"),
        (["emit-density", "--hi=inf"], "--hi"),
        (["emit-density", "--lo=-1e308", "--hi=1e308"], "--lo"),
        # plan squares log M, which overflows past sqrt(largest float)
        (["plan", "--log-M", "1.7e308", "--zeta", "0.1", "--eta", "0.49"], "--log-M"),
        (["plan", "--log-M", "1.35e154", "--zeta-exp", "1e-300", "--eta", "0.49"], "--log-M"),
        # a schedule constant large enough that m or m + 8d overflows a float
        (["plan", "--log-M", "1e4", "--zeta-exp", "0.5", "--eta", "0.49", "--C-m", "1e300"],
         "--C-m"),
        (["plan", "--log-M", "1e20", "--zeta-exp", "0.1", "--eta", "0.49", "--C-d", "1e290"],
         "--C-d"),
    ],
)
def test_bad_count_exits_2_before_output(tmp_path, capsys, argv, flag):
    out_flag = "--report" if argv[0] == "verify" else "--out"
    code = run(argv + [out_flag, tmp_path / "out", "--manifest", tmp_path / "m.json"])
    assert code == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_BASE_ARGS = {
    "plan": ["--log-M", "1e4", "--zeta-exp", "0.5", "--eta", "0.49"],
    "gen": ["--zeta", "0.05", "--d", "10", "--epsilon", "0.05", "--eta", "0.3",
            "--m", "4", "--n", "10", "--seed", "1"],
    "verify": [],
    "experiment": [],
    "emit-density": [],
}
_FLAG_COMMANDS = {
    "--m": ("gen", "verify", "experiment"),
    "--n": ("gen",),
    "--seeds": ("experiment",),
    "--seed": ("gen", "verify", "experiment"),
    "--k": ("verify",),
    "--grid": ("emit-density",),
    "--tau": ("experiment",),
    "--eta": ("plan", "gen", "verify", "experiment"),
    "--d": ("gen", "verify", "experiment", "emit-density"),
    "--zeta": ("gen", "verify", "experiment", "emit-density"),
    "--epsilon": ("gen", "verify", "experiment", "emit-density"),
    "--log-M": ("plan",),
    "--zeta-exp": ("plan",),
    "--lo": ("emit-density",),
    "--hi": ("emit-density",),
}
_OUT_OF_RANGE = {
    "--m": st.integers(max_value=0),
    "--n": st.integers(max_value=0),
    "--seeds": st.integers(max_value=0),
    "--seed": st.integers(max_value=-1),
    "--k": st.one_of(st.integers(max_value=0), st.integers(min_value=moments.K_MAX + 1)),
    "--grid": st.integers(max_value=1),
    "--tau": st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0), st.just(math.nan)),
    "--eta": st.one_of(
        st.floats(max_value=0.0), st.floats(min_value=0.5, exclude_min=True), st.just(math.nan)
    ),
    "--d": st.integers(max_value=1),
    "--zeta": st.one_of(st.floats(max_value=0.0), st.floats(min_value=0.5), st.just(math.nan)),
    "--epsilon": st.one_of(st.floats(max_value=0.0), st.just(math.nan)),
    "--log-M": st.one_of(
        st.floats(max_value=math.e),
        st.floats(min_value=cli.LOG_M_MAX, exclude_min=True),
        st.just(math.nan),
    ),
    "--zeta-exp": st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0), st.just(math.nan)),
    "--lo": st.sampled_from([-math.inf, math.inf, math.nan]),
    "--hi": st.sampled_from([-math.inf, math.inf, math.nan]),
}


@st.composite
def _bad_invocation(draw):
    flag = draw(st.sampled_from(sorted(_FLAG_COMMANDS)))
    command = draw(st.sampled_from(_FLAG_COMMANDS[flag]))
    return command, flag, draw(_OUT_OF_RANGE[flag])


# every case must be refused before the output directory is touched, so one
# tmp_path serves all examples
@settings(
    derandomize=True,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=_bad_invocation())
def test_out_of_range_flag_exits_2_before_any_work(tmp_path, capsys, monkeypatch, case):
    command, flag, value = case

    def work(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    for name in ("plan", "HardPairConfig", "build_hard_pair", "build_verification_report",
                 "distinguishing_experiment"):
        monkeypatch.setattr(cli, name, work)
    out_flag = "--report" if command == "verify" else "--out"
    argv = [command, *_BASE_ARGS[command], f"{flag}={value}",
            out_flag, tmp_path / "out", "--manifest", tmp_path / "m.json"]
    assert run(argv) == 2
    named = re.compile(re.escape(flag) + r"\b")  # "--seed" must not match "--seeds"
    assert any(named.search(line) for line in capsys.readouterr().err.splitlines())
    assert list(tmp_path.iterdir()) == []

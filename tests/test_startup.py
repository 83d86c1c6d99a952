"""The package runs on numpy alone: no command imports scipy.  Phi is
hardpair's own rational approximation and verify's quadratures are numpy's
Gauss-Legendre, so a short command pays only for importing numpy.  Every
command runs in one thread, so none loads concurrent.futures either."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import massart_forge

_SCRIPT = """
import json, sys
import massart_forge.cli as cli
code = cli.main(json.loads(sys.argv[1]))
def loaded(package):
    return sorted(name for name in sys.modules if name.split(".")[0] == package)
print(json.dumps({"code": code, "scipy": loaded("scipy"), "concurrent": loaded("concurrent")}))
"""

_COMMANDS = {
    "verify": ["verify", "--seed", "0", "--report", "{out}/report.json"],
    "gen": ["gen", "--zeta", "0.05", "--d", "10", "--epsilon", "0.05", "--eta", "0.3",
            "--m", "3", "--n", "200", "--seed", "5", "--out", "{out}/data.csv"],
    "experiment": ["experiment", "--seeds", "1", "--seed", "0", "--out", "{out}/exp.json"],
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_command_loads_no_scipy(tmp_path, command):
    src = str(Path(massart_forge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [arg.format(out=tmp_path) for arg in _COMMANDS[command]]
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(argv)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"code": 0, "scipy": [], "concurrent": []}
    if command == "verify":
        assert json.loads((tmp_path / "report.json").read_text())["pass"] is True

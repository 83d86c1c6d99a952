"""The package loads only scipy.special: verify's quadratures are numpy's
Gauss-Legendre, so no command pays for scipy.integrate and what it pulls in."""

import json
import os
import subprocess
import sys
from pathlib import Path

import massart_forge

_SCRIPT = """
import json, sys
import massart_forge.cli as cli
code = cli.main(["verify", "--seed", "0", "--report", sys.argv[1]])
heavy = sorted(
    name for name in sys.modules
    if name.split(".")[:2] in (["scipy", "integrate"], ["scipy", "optimize"], ["scipy", "sparse"])
)
print(json.dumps({"code": code, "heavy": heavy}))
"""


def test_verify_loads_no_integrate_optimize_or_sparse(tmp_path):
    src = str(Path(massart_forge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    report = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(report)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"code": 0, "heavy": []}
    assert json.loads(report.read_text())["pass"] is True

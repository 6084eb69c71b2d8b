"""A fresh interpreter that imports carr, runs an oracle audit and prints
the bound table loads no scipy module: scipy is imported only by the first
distance-correlation call."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import contextlib, io, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import carr, carr.cli
assert not scipy_modules(), scipy_modules()[:5]
carr.cli.run_audit("pns", 3, 0)
with contextlib.redirect_stdout(io.StringIO()):
    assert carr.cli.main(["bound"]) == 0
assert not scipy_modules(), scipy_modules()[:5]
carr.distance_correlation([0.0, 1.0, 2.0], [1.0, 0.0, 2.0])
assert "scipy.spatial.distance" in sys.modules
"""


def test_import_and_oracles_load_no_scipy():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

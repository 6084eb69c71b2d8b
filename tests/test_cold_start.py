"""A fresh interpreter that imports carr, runs an oracle audit, prints the
bound table and trains and evaluates one short synthetic run, distance
correlation included, loads no scipy module; no file of the package names
scipy.  Importing carr loads no ``numpy.random`` either.  Every name in a
carr module's ``__all__`` is bound in that module."""

import importlib
import os
import pkgutil
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
assert not [m for m in sys.modules if m.startswith("numpy.random")]
carr.cli.run_audit("pns", 5, 0)  # the fifth trial is audited
with contextlib.redirect_stdout(io.StringIO()):
    assert carr.cli.main(["bound"]) == 0
assert not scipy_modules(), scipy_modules()[:5]
config = carr.RunConfig(method="carr", epochs=1, d_z=8,
                        dataset={"kind": "synthetic", "n": 60})
report = carr.run_experiment(config)
assert report["metrics"]["dcor_pa"] is not None
assert not scipy_modules(), scipy_modules()[:5]
"""


def test_import_and_oracles_load_no_scipy():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_package_names_no_scipy():
    named = [p.name for p in (SRC / "carr").rglob("*.py") if "scipy" in p.read_text()]
    assert not named, named


def test_every_exported_name_resolves():
    import carr

    stale = []
    for info in pkgutil.iter_modules(carr.__path__, "carr."):
        module = importlib.import_module(info.name)
        stale += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    assert not stale, stale

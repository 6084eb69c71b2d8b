"""Smoke test: every script under ``demos/`` runs to completion and prints."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import carr

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# The demos import the same carr package that the tests import.
SRC = str(Path(carr.__file__).resolve().parents[1])
# A reduced run, where the full one would cost more than a smoke test should
ARGS = {"learning_curves.py": ["--models", "20"]}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(tmp_path)  # where a demo writes its files
    done = subprocess.run([sys.executable, str(demo), *ARGS.get(demo.name, [])],
                          cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()

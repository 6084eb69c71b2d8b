"""Golden outputs, compared exactly against ``tests/data/golden.json``.

Frozen here: the metrics and per-epoch history of every method in standard,
robust L2 and robust L-inf mode on short synthetic runs; the failure counts
and worst margins of the oracle audit suites; and the ``carr bound`` table.
Run-vs-rerun determinism cannot see a refactor that changes results the
same way every time; these values can.

A change that alters numbers on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden.py --record`` and says so in
CHANGES.md.  The file also stores the environment it was recorded in, so
that a mismatch on a different numpy, scipy or BLAS build can be told
apart from a change in the code.
"""

import contextlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from carr.cli import main, run_audit
from carr.objective import METHODS
from carr.trainer import RunConfig, run_experiment

GOLDEN = Path(__file__).with_name("data") / "golden.json"

MODES = {
    "standard": {"training_mode": "standard", "attack": {"p": "2", "beta": 0.0},
                 "eval_attack": {"p": "2", "beta": 0.3}},
    "robust_l2": {"training_mode": "robust", "attack": {"p": "2", "beta": 0.3},
                  "eval_attack": {"p": "2", "beta": 0.3}},
    "robust_linf": {"training_mode": "robust", "attack": {"p": "inf", "beta": 0.3},
                    "eval_attack": {"p": "inf", "beta": 0.3}},
}
# n=230 leaves 184 training rows: batches of 64, 64, 56 and of 48, 48, 48, 40,
# so the 1/n scalings of the gradients are mostly not powers of two.
BATCHES = (64, 48)
AUDIT_SUITES = (("dpi", "a"), ("lemma1", "a"), ("lemma1", "b"), ("lemma2", "a"),
                ("pns", "a"), ("pns", "b"))
AUDIT_TRIALS = 20


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _config(method: str, mode: str, batch: int) -> RunConfig:
    # batch 64 stops the negative term's gradient at the encoder, batch 48
    # lets it through, so both branches of the objective are covered.
    return RunConfig.from_dict(dict(
        MODES[mode], method=method, batch_size=batch, epochs=4, lr=0.001,
        seed=3, stop_grad_negative=batch == 64,
        dataset={"kind": "synthetic", "beta": 0.3, "n": 230}))


def training_outputs() -> dict:
    out = {}
    for method in METHODS:
        for mode in MODES:
            for batch in BATCHES:
                report = run_experiment(_config(method, mode, batch))
                out[f"{method}/{mode}/b{batch}"] = {
                    "metrics": report["metrics"], "history": report["history"]}
    return out


def audit_outputs() -> dict:
    out = {}
    for what, shape in AUDIT_SUITES:
        failures, worst = run_audit(what, AUDIT_TRIALS, 0, shape)
        out[f"{what}/{shape}"] = {"failures": failures, "worst": worst}
    return out


def bound_table() -> list:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["bound"])
    return buf.getvalue().splitlines()


def _canonical(value) -> str:
    """Bit-exact text of a value: floats print by their shortest repr."""
    return json.dumps(value, sort_keys=True)


def _assert_matches(section: str, got: dict):
    golden = json.loads(GOLDEN.read_text())
    want = golden[section]
    differing = sorted(k for k in set(got) | set(want)
                       if _canonical(got.get(k)) != _canonical(want.get(k)))
    env_note = ""
    if golden["fingerprint"] != fingerprint():
        env_note = (f"; recorded in {golden['fingerprint']}, "
                    f"running in {fingerprint()}")
    assert not differing, f"{section} differs from golden in {differing}{env_note}"


def test_training_matches_golden():
    _assert_matches("training", training_outputs())


def test_audits_match_golden():
    _assert_matches("audits", audit_outputs())


def test_bound_table_matches_golden():
    _assert_matches("bound_table", {"default": bound_table()})


def record() -> None:
    doc = {
        "fingerprint": fingerprint(),
        "training": training_outputs(),
        "audits": audit_outputs(),
        "bound_table": {"default": bound_table()},
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record()

"""The benchmark's four workloads: their op pools, per-seed selection,
warm-up, and the checks of every op's output against the recorded reference.

An op is one call into carr whose output is plain JSON data.  Each workload
owns a fixed pool of ops keyed by name; ``reference.json`` holds the output
of every pool op at the commit that recorded it, so any ``--seed`` selects
ops that all have a reference.  Carr entry points are looked up on their
module at call time, so the tracer's patches see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from carr import cli, infometrics, objective, scm, trainer
from carr.model import init_params
from carr.numkit import Rng

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# README quickstart config: carr, robust L2 at beta 0.3, synthetic n=500.
QUICKSTART = {
    "method": "carr",
    "training_mode": "robust",
    "attack": {"p": "2", "beta": 0.3},
    "eval_attack": {"p": "2", "beta": 0.3},
    "lr": 0.001,
    "stop_grad_negative": True,
    "dataset": {"kind": "synthetic", "beta": 0.3, "n": 500},
}
LINF = {"attack": {"p": "inf", "beta": 0.3}, "eval_attack": {"p": "inf", "beta": 0.3}}
STANDARD = {"training_mode": "standard", "attack": {"p": "2", "beta": 0.0}}

AUDIT_SUITES = (("dpi", "a"), ("lemma1", "a"), ("lemma1", "b"), ("lemma2", "a"),
                ("pns", "a"), ("pns", "b"))
AUDIT_TRIALS = 50  # trials per audit block: about 5-45 ms per block
AUDIT_TOL = 1e-9
GRADCHECK_TOL = 1e-4
POOL = 32  # pool size per op family; a pass draws a few of each


@dataclass(frozen=True)
class Op:
    """One call into carr.  ``call`` returns JSON data; ``summary`` reduces
    it to what the reference stores; ``check`` compares two summaries and
    returns an error message or None."""

    key: str
    call: Callable[[], dict]
    summary: Callable[[dict], dict]
    check: Callable[[dict, dict], str | None]


def digest(output: dict) -> str:
    """Bit-exact fingerprint of an output: floats print by shortest repr."""
    return json.dumps(output, sort_keys=True)


# ---------------------------------------------------------------------------
# Training ops (robust_sweep, standard_sweep)
# ---------------------------------------------------------------------------


def _train_summary(out):
    return {"runs": [{"metrics": run["metrics"], "epochs": len(run["history"]),
                      "final_loss": run["history"][-1]["total"]}
                     for run in out["runs"]]}


def _exact_check(got, ref):
    if got == ref:
        return None
    diff = sorted(k for k in set(got) | set(ref) if got.get(k) != ref.get(k))
    return f"differs from reference in {diff}"


def _train_op(key, *docs):
    """One op: a ``run_experiment`` per config, in order."""
    cfgs = [trainer.RunConfig.from_dict(doc) for doc in docs]

    def call():
        reports = [trainer.run_experiment(cfg) for cfg in cfgs]
        return {"runs": [{"metrics": r["metrics"], "history": r["history"]}
                         for r in reports]}
    return Op(key, call, _train_summary, _exact_check)


def robust_pool():
    ops = [_train_op(f"l2/s{s}", dict(QUICKSTART, seed=s)) for s in range(POOL)]
    ops += [_train_op(f"linf/s{s}", dict(QUICKSTART, **LINF, seed=s))
            for s in range(POOL // 2)]
    return ops


def standard_pool():
    # One op trains base, then ib, on the same seed: ib costs more per
    # epoch than base, and pairing them keeps op latency one-peaked.
    return [_train_op(f"base+ib/s{s}",
                      dict(QUICKSTART, **STANDARD, method="base", seed=s),
                      dict(QUICKSTART, **STANDARD, method="ib", seed=s))
            for s in range(POOL)]


# ---------------------------------------------------------------------------
# Oracle ops (oracle_audit)
# ---------------------------------------------------------------------------


def _audit_call(what, trials, seed, shape):
    def call():
        failures, worst = cli.run_audit(what, trials, seed, shape)
        return {"failures": int(failures), "worst": float(worst)}
    return call


def _audit_check(got, ref):
    if got["failures"] != ref["failures"]:
        return f"failures {got['failures']} != reference {ref['failures']}"
    if abs(got["worst"] - ref["worst"]) > AUDIT_TOL:
        return f"worst margin {got['worst']!r} != reference {ref['worst']!r}"
    return None


def _close_check(got, ref):
    flat_got, flat_ref = _flatten(got), _flatten(ref)
    if len(flat_got) != len(flat_ref):
        return "output shape differs from reference"
    worst = max((abs(a - b) for a, b in zip(flat_got, flat_ref)), default=0.0)
    if not worst <= AUDIT_TOL:
        return f"differs from reference by {worst:.3e}"
    return None


def _flatten(obj):
    if isinstance(obj, dict):
        return [x for k in sorted(obj) for x in _flatten(obj[k])]
    if isinstance(obj, list):
        return [x for v in obj for x in _flatten(v)]
    return [float(obj)]


def large_scm(seed: int, exo: int) -> scm.DiscreteSCM:
    """Shape-b pa/nd/y/dc model with ``exo`` exogenous states per node, so
    ``exo**4`` exogenous worlds, and three values per node, so that cost
    depends on the world count alone; the seed draws tables and pmfs.  Both
    PNS conditioning events of (pa=0, y=0) have positive probability by
    construction."""
    rng = np.random.default_rng([exo, seed])
    order = ("pa", "nd", "y", "dc")
    parents = {"pa": (), "nd": ("pa",), "y": ("pa",), "dc": ("pa", "y")}
    domains = dict.fromkeys(order, 3)
    tables, exo_dists = {}, {}
    for v in order:
        w = rng.uniform(0.05, 1.0, size=exo)
        exo_dists[v] = w / w.sum()
        shape = tuple(domains[p] for p in parents[v]) + (exo,)
        tables[v] = rng.integers(0, domains[v], size=shape)
    tables["pa"][:2] = (0, 1)
    tables["y"][0, 0], tables["y"][1, 0] = 0, 1
    return scm.DiscreteSCM(order=order, domains=domains, parents=parents,
                           tables=tables, exo_dists=exo_dists)


def _pns_op(key, model):
    def call():
        return {"pns": [float(v) for v in
                        infometrics.pns(model, "pa", 0, "y", 0, z_alt=1)]}
    return Op(key, call, lambda out: out, _close_check)


def _joint_op(key, model):
    def call():
        table = scm.enumerate_joint(model)
        return {"names": list(table.names), "probs": table.probs.tolist()}

    def summary(out):
        probs = np.asarray(out["probs"])
        nz = probs[probs > 0]
        axes = range(probs.ndim)
        return {
            "entropy": float(-(nz * np.log(nz)).sum()),
            "marginals": {name: probs.sum(axis=tuple(a for a in axes if a != i)).tolist()
                          for i, name in enumerate(out["names"])},
        }
    return Op(key, call, summary, _close_check)


def _bound_op():
    args = cli.build_parser().parse_args(["bound"])

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.cmd_bound(args)
        return {"table": buf.getvalue()}
    return Op("bound/default", call, lambda out: out, _exact_check)


LARGE = {"pns4096": ("pns", 8), "pns10000": ("pns", 10),
         "joint10000": ("joint", 10), "joint20736": ("joint", 12)}


def oracle_pool():
    ops = [Op(f"{what}{shape}/b{s}", _audit_call(what, AUDIT_TRIALS, s, shape),
              lambda out: out, _audit_check)
           for what, shape in AUDIT_SUITES for s in range(POOL)]
    for family, (kind, exo) in LARGE.items():
        for s in range(POOL // 4):
            make = _pns_op if kind == "pns" else _joint_op
            ops.append(make(f"{family}/m{s}", large_scm(s, exo)))
    ops.append(_bound_op())
    return ops


# ---------------------------------------------------------------------------
# Gradient-check ops (gradcheck_audit)
# ---------------------------------------------------------------------------


def _gradcheck_check(got, ref):
    if got["failures"] != ref["failures"]:
        return f"failures {got['failures']} != reference {ref['failures']}"
    if not got["worst"] <= GRADCHECK_TOL:
        return f"worst gradient error {got['worst']:.3e} > {GRADCHECK_TOL}"
    return None


def gradcheck_pool():
    return [Op(f"gradcheck/s{s}", _audit_call("gradcheck", 1, s, "a"),
               lambda out: out, _gradcheck_check) for s in range(POOL)]


# ---------------------------------------------------------------------------
# Warm-up: touch every code path once so lazy imports and first-call costs
# land in set-up, not in the first timed op.
# ---------------------------------------------------------------------------


def _warm_train(*overrides):
    for extra in overrides:
        doc = dict(QUICKSTART, **extra, epochs=1,
                   dataset={"kind": "synthetic", "beta": 0.3, "n": 100})
        trainer.run_experiment(trainer.RunConfig.from_dict(doc))


def _warm_oracle():
    for what, shape in AUDIT_SUITES:
        cli.run_audit(what, 2, 0, shape)
    _pns_op("warm", large_scm(0, 3)).call()
    _bound_op().call()


def _warm_gradcheck():
    rng = Rng(0, stream=10)
    params = init_params(rng, d_in=5, d_z=3)
    objective.loss_and_grads(params, rng.uniform(-1, 1, size=(4, 5)),
                             rng.integers(0, 2, size=4), "carr",
                             eps_std=rng.normal(size=(4, 3)),
                             attack_delta=np.zeros((4, 3)),
                             neg_delta=np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# Per-seed selection of one pass
# ---------------------------------------------------------------------------


BALANCE_DRAWS = 1000


def _balanced(groups, reference, rng):
    """Draw ``count`` ops from each ``(ops, count)`` group: of
    BALANCE_DRAWS random draws, the one whose reference epoch counts are
    most typical of the pools.

    Early stopping makes single runs differ by up to 3x in epochs, and a
    run's cost per epoch depends on its method and norm.  A draw is scored
    by how far each group's epoch total per run position, and the pass's
    median op, lie from their pool averages.  The work of a pass, and its
    median op, then stay nearly the same for every seed while the inputs
    still change.  Pools are sized in proportion to their draws, so the
    median over all pool ops is the median a draw should have.
    """
    def epochs(op):
        return [run["epochs"] for run in reference[op.key]["runs"]]

    targets = [[count * statistics.mean(col) for col in zip(*map(epochs, ops))]
               for ops, count in groups]
    mid = statistics.median(sum(epochs(op)) for ops, _ in groups for op in ops)

    def deviation(picked):
        dev = abs(statistics.median(sum(epochs(op)) for s in picked for op in s) / mid - 1)
        for sample, target in zip(picked, targets):
            for got, want in zip(zip(*map(epochs, sample)), target):
                dev += abs(sum(got) / want - 1)
        return dev

    draws = ([rng.sample(ops, count) for ops, count in groups]
             for _ in range(BALANCE_DRAWS))
    return [op for sample in min(draws, key=deviation) for op in sample]


def _family(ops, prefix):
    return [op for op in ops if op.key.split("/")[0] == prefix]


def select(workload: str, pool, seed: int, reference: dict):
    """The fixed op list of one pass for this workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "robust_sweep":
        ops = _balanced([(_family(pool, "l2"), 4), (_family(pool, "linf"), 2)],
                        reference, rng)
    elif workload == "standard_sweep":
        # An odd op count puts the median op time inside one op's samples,
        # not in the gap between two ops of different cost.
        ops = _balanced([(pool, 7)], reference, rng)
    elif workload == "oracle_audit":
        ops = [op for what, shape in AUDIT_SUITES
               for op in rng.sample(_family(pool, f"{what}{shape}"), 4)]
        for family, count in (("pns4096", 2), ("pns10000", 1),
                              ("joint10000", 1), ("joint20736", 1)):
            ops += rng.sample(_family(pool, family), count)
        ops += _family(pool, "bound")
    else:
        ops = rng.sample(pool, 3)
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "robust_sweep": (robust_pool, lambda: _warm_train({}, LINF)),
    "standard_sweep": (standard_pool, lambda: _warm_train(
        dict(STANDARD, method="base"), dict(STANDARD, method="ib"))),
    "oracle_audit": (oracle_pool, _warm_oracle),
    "gradcheck_audit": (gradcheck_pool, _warm_gradcheck),
}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check(op: Op, output: dict, reference: dict) -> str | None:
    ref = reference.get(op.key)
    if ref is None:
        return "no reference output recorded"
    return op.check(op.summary(output), ref)


def epochs_of(output: dict) -> int:
    return sum(len(run["history"]) for run in output.get("runs", ()))

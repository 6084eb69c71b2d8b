"""Spans around the calls into each carr module, recorded from outside.

A span wraps a name where its caller looks it up, because ``from .x import
y`` binds at import time: ``carr.trainer.pgd_attack`` is patched, not
``carr.attack.pgd_attack``.  Spans hold name, start, end and parent in
compact arrays, kept in memory and written out when the benchmark ends.
Wrappers only read clocks and argument shapes, so they draw from no RNG
stream and a traced run computes bit-identical outputs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, span name): every place a carr public function is
# looked up on the paths the workloads run.
PATCHES = (
    ("carr.trainer", "train", "trainer.train"),
    ("carr.trainer", "evaluate", "trainer.evaluate"),
    ("carr.trainer", "pgd_attack", "attack.pgd_attack"),
    ("carr.trainer", "random_ball", "attack.random_ball"),
    ("carr.trainer", "encode", "model.encode"),
    ("carr.trainer", "predict", "model.predict"),
    ("carr.trainer", "loss_and_grads", "objective.loss_and_grads"),
    ("carr.trainer", "batch_iter", "dataio.batch_iter"),
    ("carr.trainer", "split_three_way", "dataio.split_three_way"),
    ("carr.attack", "predictor_xent_grad", "model.predictor_xent_grad"),
    ("carr.model", "predict", "model.predict"),  # attack._per_row_xent imports it per call
    ("carr.model", "dense_forward", "numkit.dense_forward"),
    ("carr.model", "dense_backward", "numkit.dense_backward"),
    ("carr.objective", "dense_forward", "numkit.dense_forward"),
    ("carr.objective", "dense_backward", "numkit.dense_backward"),
    ("carr.cli", "loss_and_grads", "objective.loss_and_grads"),
    ("carr.cli", "grad_check", "numkit.grad_check"),
    ("carr.cli", "run_audit", "cli.run_audit"),
    ("carr.scm", "generate", "scm.generate"),
    ("carr.scm", "random_scm", "scm.random_scm"),
    ("carr.scm", "enumerate_joint", "scm.enumerate_joint"),
    ("carr.infometrics", "enumerate_joint", "scm.enumerate_joint"),
    ("carr.infometrics", "counterfactual_query", "scm.counterfactual_query"),
    ("carr.infometrics", "mutual_info", "infometrics.mutual_info"),
    ("carr.infometrics", "pns", "infometrics.pns"),
    ("carr.infometrics", "auc", "infometrics.auc"),
    ("carr.infometrics", "distance_correlation", "infometrics.distance_correlation"),
    ("carr.bounds", "min_samples", "bounds.min_samples"),
)
# (module, class, method, span name)
METHOD_PATCHES = (
    ("carr.model", "ModelParams", "from_vector", "model.from_vector"),
    ("carr.model", "ModelParams", "to_vector", "model.to_vector"),
)

# Per-layer metrics reported by a traced run, with their units.
REPORTED_SPANS = {
    "calls_and_self": (
        "attack.pgd_attack", "attack.random_ball", "model.encode",
        "model.predictor_xent_grad", "model.predict", "model.from_vector",
        "model.to_vector", "objective.loss_and_grads", "numkit.dense_forward",
        "numkit.dense_backward", "numkit.grad_check", "scm.generate",
        "scm.random_scm", "scm.enumerate_joint", "scm.counterfactual_query",
        "infometrics.mutual_info", "infometrics.pns", "infometrics.auc",
        "infometrics.distance_correlation",
    ),
    "self_only": (
        "trainer.train", "trainer.evaluate", "dataio.batch_iter",
        "dataio.split_three_way", "bounds.min_samples", "cli.run_audit",
    ),
}
# Counts that must repeat exactly from pass to pass and run to run.
EXACT_COUNTERS = ("attack.pgd_attack.rows", "attack.pgd_attack.moved",
                  "attack.pgd_attack.boundary", "scm.enumerate_joint.worlds",
                  "scm.counterfactual_query.worlds", "numkit.dense.flop",
                  "trainer.batches")
BOUNDARY_RTOL = 1e-9


class Tracer:
    """Span recorder.  ``open`` returns the span index that ``close`` takes;
    spans nest strictly because everything runs on one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def summarize(self, lo: int, hi: int) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over spans ``lo:hi``, which must
        hold whole span trees."""
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        start = np.frombuffer(self.start)[lo:hi]
        end = np.frombuffer(self.end)[lo:hi]
        names = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        own = self_times(np.where(parent >= 0, parent - lo, -1), start, end)
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_s[i]))
                for i, n in enumerate(self.names) if calls[i]}

    def save(self, path, meta: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent), start=np.asarray(self.start),
            end=np.asarray(self.end), meta=np.array(meta))


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    ``parent[i]`` is the index of span i's parent, or -1 for a root.
    Children of one span never overlap, so their durations add.
    """
    duration = end - start
    child = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(child, parent[nested], duration[nested])
    return duration - child


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _span(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer.counters, args, out)
        return out
    return traced


def _count_pgd(counters, args, z_adv):
    z0, spec = np.asarray(args[1], dtype=float), args[3]
    delta = z_adv - z0
    if spec.p == "inf":
        size = np.abs(delta).max(axis=1, initial=0.0)
    else:
        size = np.linalg.norm(delta, axis=1)
    counters["attack.pgd_attack.rows"] += z0.shape[0]
    counters["attack.pgd_attack.moved"] += int(np.any(delta != 0, axis=1).sum())
    if spec.beta > 0:
        counters["attack.pgd_attack.boundary"] += int(
            (size >= spec.beta * (1 - BOUNDARY_RTOL)).sum())


def _count_worlds(name):
    def after(counters, args, _out):
        model = args[0]
        counters[f"{name}.worlds"] += math.prod(len(model.exo_dists[v])
                                                for v in model.order)
    return after


def _dense_flops(products):
    # FLOPs computed from shapes, 2 per multiply-add of each matrix product.
    # The backward makes 3 products: it recomputes the pre-activation, then
    # forms the weight and the input gradients.
    def after(counters, args, _out):
        layer, x = args[0], args[1]
        counters["numkit.dense.flop"] += (
            2 * products * np.shape(x)[0] * layer.in_dim * layer.out_dim)
    return after


class _TracedBatches:
    """Iterator proxy: one span per ``next()``, one count per batch."""

    def __init__(self, tracer, name, it):
        self._tracer, self._name, self._it = tracer, name, it

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._tracer.open(self._name)
        try:
            batch = next(self._it)
        finally:
            self._tracer.close(idx)
        self._tracer.counters["trainer.batches"] += 1
        return batch


def _wrap(tracer, name, fn):
    if name == "dataio.batch_iter":
        @functools.wraps(fn)
        def batches(*args, **kwargs):
            return _TracedBatches(tracer, name, fn(*args, **kwargs))
        return batches
    after = {
        "attack.pgd_attack": _count_pgd,
        "scm.enumerate_joint": _count_worlds(name),
        "scm.counterfactual_query": _count_worlds(name),
        "numkit.dense_forward": _dense_flops(1),
        "numkit.dense_backward": _dense_flops(3),
    }.get(name)
    return _span(tracer, name, fn, after)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every lookup site for the duration of the block."""
    saved = []
    try:
        for module, attr, name in PATCHES:
            mod = importlib.import_module(module)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, _wrap(tracer, name, getattr(mod, attr)))
        for module, cls_name, attr, name in METHOD_PATCHES:
            cls = getattr(importlib.import_module(module), cls_name)
            saved.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, _wrap(tracer, name, cls.__dict__[attr]))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------


def pass_profile(tracer: Tracer, lo: int, hi: int, counters: Counter,
                 epochs: int) -> dict:
    """Exact counts and self times of one traced pass."""
    spans = tracer.summarize(lo, hi)
    counts = {f"{n}.calls": c for n, (c, _) in spans.items()}
    counts.update({k: counters.get(k, 0) for k in EXACT_COUNTERS})
    counts["trainer.epochs"] = epochs
    return {"counts": counts, "self_s": {n: s for n, (_, s) in spans.items()}}


def layer_metrics(counts: dict, self_s: dict) -> dict:
    """Per-layer metric values from one pass's exact counts and (median)
    self times; a layer the workload never calls reads 0."""
    out = {}
    for name in REPORTED_SPANS["calls_and_self"]:
        out[f"{name}.calls"] = (counts.get(f"{name}.calls", 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in REPORTED_SPANS["self_only"]:
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")

    rows = counts["attack.pgd_attack.rows"]
    out["attack.pgd_attack.rows"] = (rows, "count")
    out["attack.pgd_attack.moved_frac"] = (
        counts["attack.pgd_attack.moved"] / rows if rows else 0.0, "ratio")
    out["attack.pgd_attack.boundary_frac"] = (
        counts["attack.pgd_attack.boundary"] / rows if rows else 0.0, "ratio")

    gflop = counts["numkit.dense.flop"] / 1e9
    dense_s = self_s.get("numkit.dense_forward", 0.0) + self_s.get("numkit.dense_backward", 0.0)
    out["numkit.dense.gflop"] = (gflop, "GFLOP")
    out["numkit.dense.gflop_per_s"] = (gflop / dense_s if dense_s else 0.0, "GFLOP/s")

    worlds = 0
    for name in ("scm.enumerate_joint", "scm.counterfactual_query"):
        out[f"{name}.worlds"] = (counts[f"{name}.worlds"], "count")
        worlds += counts[f"{name}.worlds"]
    scm_s = self_s.get("scm.enumerate_joint", 0.0) + self_s.get("scm.counterfactual_query", 0.0)
    out["scm.us_per_world"] = (1e6 * scm_s / worlds if worlds else 0.0, "us")

    out["trainer.epochs"] = (counts["trainer.epochs"], "count")
    out["trainer.batches"] = (counts["trainer.batches"], "count")
    return out

"""Training loop (SGD with momentum over the minmax objective), evaluation,
and experiment orchestration with persisted reports; a run's train, val and
test ``dataio.Split`` come from its dataset stanza through one carve step.
"""

from __future__ import annotations

import os
import time
from dataclasses import MISSING, asdict, dataclass, field, replace

import numpy as np

from . import dataio, infometrics, scm as scm_mod
from .attack import AttackSpec, pgd_attack, random_ball
from .dataio import DatasetSpec, Split, batch_iter, split_three_way
from .model import ModelParams, encode, init_params, predict
from .numkit import ConfigurationError, Rng, check_numbers
from .objective import METHODS, encoded_loss_and_grads
from .objective import loss_and_grads  # noqa: F401  patched by benchmarks/tracing.py

__all__ = ["RunConfig", "MetricsReport", "train", "evaluate", "run_experiment",
           "sweep", "TrainingError"]


class TrainingError(RuntimeError):
    """Loss diverged; message carries the epoch/batch context."""


_MODES = ("standard", "robust")


@dataclass(frozen=True)
class RunConfig:
    method: str = "carr"
    training_mode: str = "robust"
    attack: AttackSpec = field(default_factory=lambda: AttackSpec(p="2", beta=0.3))
    eval_attack: AttackSpec = field(default_factory=lambda: AttackSpec(p="2", beta=0.3))
    lam: float = 0.001
    b: float = 0.8
    neg_weight: float = 1.0
    lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 60
    patience: int = 10
    seed: int = 0
    d_z: int = 64
    stop_grad_negative: bool = False
    dataset: dict = field(default_factory=lambda: {"kind": "synthetic", "beta": 0.3,
                                                   "n": 500})

    def __post_init__(self):
        check_numbers(self, ("lam", "b", "neg_weight", "lr", "momentum"),
                      ("batch_size", "epochs", "patience", "seed", "d_z"),
                      ("stop_grad_negative",))
        if not isinstance(self.dataset, dict):
            raise ConfigurationError(f"dataset must be an object, got {self.dataset!r}")
        for name, low in (("d_z", 1), ("batch_size", 1), ("epochs", 1),
                          ("patience", 0)):
            if getattr(self, name) < low:
                raise ConfigurationError(
                    f"{name} must be at least {low}, got {getattr(self, name)}")
        if self.lr <= 0:
            raise ConfigurationError(f"lr must be > 0, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ConfigurationError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.method not in METHODS:
            raise ConfigurationError(f"unknown method {self.method!r}")
        if self.training_mode not in _MODES:
            raise ConfigurationError(f"unknown training mode {self.training_mode!r}")
        if self.training_mode == "standard" and self.attack.beta != 0.0:
            raise ConfigurationError(
                "standard training mode requires a zero training-attack radius"
            )
        if self.training_mode == "robust" and self.attack.beta == 0.0:
            raise ConfigurationError(
                "robust training mode requires a positive training-attack radius"
            )

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        return _read_stanza(cls, doc, "config",
                            {"attack": AttackSpec, "eval_attack": AttackSpec})


def _read_stanza(cls, doc, what: str, nested: dict | None = None):
    """``cls(**doc)`` for a config object ``doc`` whose keys name fields of
    the dataclass ``cls`` and include each field without a default; the
    value of a key in ``nested`` is read the same way, as a stanza of class
    ``nested[key]`` named after its key."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{what} must be an object, got {doc!r}")
    unknown = set(doc) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigurationError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [name for name, f in cls.__dataclass_fields__.items() if name not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigurationError(f"{what} is missing keys: {missing}")
    nested = nested or {}
    return cls(**{key: _read_stanza(nested[key], value, key) if key in nested else value
                  for key, value in doc.items()})


@dataclass
class MetricsReport:
    auc: float
    acc: float
    adv_auc: float
    adv_acc: float
    dcor_pa: float | None = None
    dcor_nd: float | None = None
    dcor_dc: float | None = None


def train(config: RunConfig, train_split: Split, val_split: Split | None = None):
    """Optimize the configured objective; returns (params, history).

    The model takes the columns of ``train_split.x`` as its input features.
    history is a list of per-epoch dicts with the mean loss breakdown and,
    when a non-empty validation split is given, the validation AUC used for
    early stopping (patience in epochs, best parameters restored).
    """
    cfg = config
    rng_init = Rng(cfg.seed, stream=1)
    rng_eps = Rng(cfg.seed, stream=2)
    rng_neg = Rng(cfg.seed, stream=3)

    params = init_params(rng_init, d_in=train_split.x.shape[1], d_z=cfg.d_z)

    velocity = np.zeros_like(params.flat)
    # every batch's gradient is written into this model's arrays
    grads = params.over(np.empty_like(params.flat))
    robust = cfg.training_mode == "robust"
    validate = val_split is not None and len(val_split) > 0
    history = []
    best_val = -np.inf
    best_vec = params.to_vector()
    stale = 0

    for epoch in range(cfg.epochs):
        sums = {"total": 0.0, "positive_ll": 0.0, "kl": 0.0, "negative_ll": 0.0}
        n_batches = 0
        for batch_no, (xb, yb) in enumerate(
            batch_iter(train_split.x, train_split.y, cfg.batch_size,
                       seed=cfg.seed * 100003 + epoch)
        ):
            enc = encode(params, xb, rng_eps.standard_normal(size=(len(yb), cfg.d_z)))
            attack_delta = None
            if robust:
                z_adv = pgd_attack(params, enc.z, yb, cfg.attack)
                attack_delta = z_adv - enc.z
            neg_delta = None
            if cfg.method == "carr":
                neg_delta = random_ball(np.zeros_like(enc.z), cfg.attack.p,
                                        cfg.attack.beta, rng_neg)
            breakdown, grad = encoded_loss_and_grads(
                params, enc, yb, cfg.method, lam=cfg.lam, b=cfg.b,
                neg_weight=cfg.neg_weight, attack_delta=attack_delta,
                neg_delta=neg_delta, stop_grad_negative=cfg.stop_grad_negative,
                out=grads,
            )
            if not np.isfinite(breakdown.total):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}"
                )
            velocity *= cfg.momentum  # momentum * velocity - lr * grad, in place
            velocity -= np.multiply(cfg.lr, grad, out=grad)
            params.flat += velocity
            sums["total"] += breakdown.total
            sums["positive_ll"] += breakdown.positive_ll
            sums["kl"] += breakdown.kl or 0.0
            sums["negative_ll"] += breakdown.negative_ll or 0.0
            n_batches += 1

        entry = {k: v / n_batches for k, v in sums.items()}
        entry["epoch"] = epoch
        if validate:
            entry["val_auc"] = infometrics.auc(
                predict(params, encode(params, val_split.x).z), val_split.y)
            if entry["val_auc"] > best_val + 1e-12:
                best_val = entry["val_auc"]
                best_vec = params.to_vector()
                stale = 0
            else:
                stale += 1
        history.append(entry)
        if validate and stale > cfg.patience:
            break

    if validate:
        params.from_vector(best_vec)
    return params, history


def evaluate(params: ModelParams, split: Split,
             eval_attack: AttackSpec) -> MetricsReport:
    """Clean and adversarial metrics on deterministic representations."""
    z = encode(params, split.x).mean
    clean = predict(params, z)
    adv = predict(params, pgd_attack(params, z, split.y, eval_attack))
    report = MetricsReport(
        auc=infometrics.auc(clean, split.y),
        acc=infometrics.acc(clean, split.y),
        adv_auc=infometrics.auc(adv, split.y),
        adv_acc=infometrics.acc(adv, split.y),
    )
    if split.pa is not None:
        report.dcor_pa = infometrics.distance_correlation(z, split.pa)
        report.dcor_nd = infometrics.distance_correlation(z, split.nd)
        report.dcor_dc = infometrics.distance_correlation(z, split.dc)
    return report


def _resolve_dataset(cfg: RunConfig):
    """Materialize train/val/test splits from the dataset stanza, carving a
    missing val or test split out of train.  An empty test split, or a test
    or non-empty val split with one class, raises before any training."""
    kind = cfg.dataset.get("kind", "synthetic")
    if kind == "synthetic":
        ds = {key: value for key, value in cfg.dataset.items() if key != "kind"}
        synth = _read_stanza(scm_mod.SynthConfig, {"seed": cfg.seed, **ds}, "dataset")
        splits = {"train": scm_mod.generate(synth)}
    elif kind not in dataio.KINDS:  # named before any missing key of the stanza
        raise ConfigurationError(f"unknown dataset kind {kind!r}, expected one of "
                                 f"{['synthetic', *dataio.KINDS]}")
    else:
        splits = dataio.load(_read_stanza(DatasetSpec, cfg.dataset, "dataset"))
    train_split, val, test = (splits.get(name) for name in dataio.SPLIT_NAMES)
    if val is None or test is None:
        shares = (0.8, 0.1) if val is None and test is None else (0.9,)
        train_split, *carved = split_three_way(train_split, cfg.seed + 777, shares)
        val = carved.pop(0) if val is None else val
        test = carved.pop(0) if test is None else test
    if len(test) == 0:
        raise ConfigurationError("the dataset leaves no rows for the test split")
    for part in (val, test):
        if len(part) > 0 and part.y.min() == part.y.max():
            raise infometrics.MetricError("AUC needs both classes present")
    return train_split, val, test


def run_experiment(config: RunConfig) -> dict:
    """Synthesize/load data, train and evaluate; returns the report."""
    start = time.time()
    train_split, val_split, test_split = _resolve_dataset(config)
    params, history = train(config, train_split, val_split)
    metrics = evaluate(params, test_split, config.eval_attack)
    return {
        "config": asdict(config),
        "metrics": asdict(metrics),
        "history": history,
        "wall_clock_s": time.time() - start,
    }


def sweep(config: RunConfig, n_seeds: int, out_dir=None) -> dict:
    """Run ``n_seeds`` independent seeds and aggregate mean/std per metric,
    writing each seed's report and row to ``out_dir`` as it ends."""
    if n_seeds < 1:
        raise ConfigurationError(f"n_seeds must be at least 1, got {n_seeds}")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    reports = []
    for k in range(n_seeds):
        cfg = replace(config, seed=config.seed + k)
        reports.append(run_experiment(cfg))
        if out_dir is not None:
            name = f"run_seed{cfg.seed}.json"
            dataio.save_report(reports[-1], os.path.join(out_dir, name))
            row = {"method": cfg.method, "mode": cfg.training_mode,
                   "p": cfg.eval_attack.p, "seed": cfg.seed, **reports[-1]["metrics"]}
            dataio.append_aggregate_row(os.path.join(out_dir, "aggregate.csv"), row)

    keys = [k for k, v in reports[0]["metrics"].items() if v is not None]
    aggregate = {}
    for key in keys:
        vals = np.array([r["metrics"][key] for r in reports], dtype=float)
        aggregate[key] = {"mean": float(vals.mean()), "std": float(vals.std(ddof=0))}
    summary = {"config": asdict(config), "n_seeds": n_seeds,
               "aggregate": aggregate}
    if out_dir is not None:
        dataio.save_report(summary, os.path.join(out_dir, "sweep_summary.json"))
    return {"reports": reports, "summary": summary}

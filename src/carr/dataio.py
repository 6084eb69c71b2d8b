"""Dataset loading, split management, and report persistence.

Three on-disk schemas are supported (comma-separated, header row, UTF-8):

* synthetic: ``pa_0..pa_4,nd_0..nd_4,dc_0..dc_4[,nc_*],y`` as written by
  the simulator;
* id_pairs: ``user_id,item_id,label`` integer columns, ratings binarized
  by a configurable threshold;
* tabular: ``f_0,...,f_{w-1},label`` float features.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .model import DataError
from .numkit import Rng, check_numbers

__all__ = [
    "DatasetSpec",
    "Split",
    "load",
    "load_synthetic_csv",
    "split_three_way",
    "batch_iter",
    "save_report",
    "append_aggregate_row",
    "AGGREGATE_COLUMNS",
]

KINDS = ("synthetic_csv", "id_pairs", "tabular")
SPLIT_NAMES = ("train", "val_iid", "test_iid", "val_ood", "test_ood")


@dataclass(frozen=True)
class DatasetSpec:
    kind: str
    paths: dict  # split name, or "all" for one file to split, -> file path
    rating_threshold: float = 4.0
    vocab: tuple | None = None  # id_pairs (n_users, n_items); inferred when None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown dataset kind {self.kind!r}")
        if not isinstance(self.paths, dict) or not all(
                isinstance(path, (str, os.PathLike)) for path in self.paths.values()):
            raise DataError(f"paths must map split names to files, got {self.paths!r}")
        for name in self.paths:
            if name != "all" and name not in SPLIT_NAMES:
                raise DataError(f"unknown split designation {name!r}")
        names = set(self.paths)
        if names != {"all"} and ("train" not in names or "all" in names):
            raise DataError("paths must name a 'train' file, or an 'all' file alone")
        check_numbers(self, ("rating_threshold",))
        if self.vocab is not None:
            vocab = tuple(self.vocab) if isinstance(self.vocab, (list, tuple)) else ()
            if self.kind != "id_pairs" or len(vocab) != 2 or not all(
                    type(n) is int and n >= 1 for n in vocab):  # not a bool
                raise DataError("vocab must be [n_users, n_items], two positive ints, "
                                f"of an id_pairs dataset, got {self.vocab!r}")
            object.__setattr__(self, "vocab", vocab)  # a JSON list becomes a tuple


@dataclass
class Split:
    x: np.ndarray  # float features or integer id pairs
    y: np.ndarray  # {0,1}
    pa: np.ndarray | None = None  # ground-truth partition, synthetic only
    nd: np.ndarray | None = None
    dc: np.ndarray | None = None

    def __len__(self):
        return self.x.shape[0]

    def take(self, idx) -> "Split":
        sub = lambda a: None if a is None else a[idx]
        return Split(x=self.x[idx], y=self.y[idx], pa=sub(self.pa),
                     nd=sub(self.nd), dc=sub(self.dc))


def _read_rows(path, expected_width=None):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if expected_width is not None and len(row) != expected_width:
                raise DataError(f"{path}:{lineno}: expected {expected_width} "
                                f"fields, got {len(row)}")
            try:
                values = [float(v) for v in row]
                if not np.isfinite(values).all():
                    raise ValueError("non-finite value")
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            rows.append(values)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return header, np.array(rows, dtype=float)


def load_synthetic_csv(path) -> Split:
    """Load a simulator CSV and recover the ground-truth partition."""
    header, data = _read_rows(path)
    if header[-1] != "y":
        raise DataError(f"{path}: last column must be 'y'")
    blocks = {"pa": [], "nd": [], "dc": [], "nc": []}
    for i, name in enumerate(header[:-1]):
        prefix = name.split("_")[0]
        if prefix not in blocks:
            raise DataError(f"{path}: unexpected column {name!r}")
        blocks[prefix].append(i)
    y = data[:, -1]
    if not np.isin(y, (0.0, 1.0)).all():
        raise DataError(f"{path}: labels must be 0/1")
    return Split(
        x=data[:, :-1],
        y=y.astype(int),
        pa=data[:, blocks["pa"]],
        nd=data[:, blocks["nd"]],
        dc=data[:, blocks["dc"]],
    )


def _binarize(values: np.ndarray, threshold: float) -> np.ndarray:
    if np.isin(values, (0.0, 1.0)).all():
        return values.astype(int)
    return (values >= threshold).astype(int)


def _load_id_pairs(path, threshold, vocab):
    _, data = _read_rows(path, expected_width=3)
    ids = data[:, :2].astype(int)
    if (ids != data[:, :2]).any():
        raise DataError(f"{path}: non-integer ids")
    if (ids < 0).any():
        raise DataError(f"{path}: negative ids")
    if vocab is not None:
        n_users, n_items = vocab
        if ids[:, 0].max(initial=-1) >= n_users or ids[:, 1].max(initial=-1) >= n_items:
            raise DataError(f"{path}: id outside declared vocabulary")
    return Split(x=ids, y=_binarize(data[:, 2], threshold))


def _load_tabular(path, threshold):
    _, data = _read_rows(path)
    return Split(x=data[:, :-1], y=_binarize(data[:, -1], threshold))


def load(spec: DatasetSpec) -> dict:
    """Load every declared file; returns {split name: Split}."""
    out = {}
    for name, path in spec.paths.items():
        if spec.kind == "synthetic_csv":
            out[name] = load_synthetic_csv(path)
        elif spec.kind == "id_pairs":
            out[name] = _load_id_pairs(path, spec.rating_threshold, spec.vocab)
        else:
            out[name] = _load_tabular(path, spec.rating_threshold)
    return out


def infer_vocab(splits: dict) -> tuple[int, int]:
    n_users = max(int(s.x[:, 0].max()) for s in splits.values()) + 1
    n_items = max(int(s.x[:, 1].max()) for s in splits.values()) + 1
    return n_users, n_items


def split_three_way(split: Split, seed: int, shares=(0.8, 0.1)) -> list[Split]:
    """Seeded shuffle into consecutive parts: one per entry of ``shares``,
    each that share of the rows (rounded), then the rest.  The default is
    the 80/10/10 train/val/test split; ``(0.9,)`` carves one 10% part."""
    n = len(split)
    idx = Rng(seed).shuffle_index(n)
    cuts = np.cumsum([int(round(share * n)) for share in shares])
    return [split.take(part) for part in np.split(idx, cuts)]


def batch_iter(x: np.ndarray, y: np.ndarray, batch_size: int, seed: int):
    """Seeded shuffle, then batches in order; the final partial batch is kept."""
    if batch_size < 1:
        raise DataError("batch_size must be >= 1")
    n = x.shape[0]
    idx = Rng(seed).shuffle_index(n)
    for start in range(0, n, batch_size):
        sel = idx[start:start + batch_size]
        yield x[sel], y[sel]


# ---------------------------------------------------------------------------
# Report persistence
# ---------------------------------------------------------------------------

AGGREGATE_COLUMNS = [
    "method", "mode", "p", "seed", "auc", "acc", "adv_auc", "adv_acc",
    "dcor_pa", "dcor_nd", "dcor_dc",
]


def save_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)


def append_aggregate_row(path, row: dict) -> None:
    """Append one run to the aggregate CSV, writing the header if new."""
    new = not os.path.exists(path)
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=AGGREGATE_COLUMNS)
        if new:
            writer.writeheader()
        writer.writerow({k: row.get(k, "") for k in AGGREGATE_COLUMNS})

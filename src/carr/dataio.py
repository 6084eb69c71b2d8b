"""Dataset loading, split management, and report persistence.

Two on-disk schemas are supported (comma-separated, header row, UTF-8,
every data row as wide as the header, at least one feature column):

* synthetic_csv: ``pa_*,nd_*,dc_*[,nc_*],y`` as :func:`write_csv` writes a
  simulator split, with at least one column of each of pa, nd and dc;
* tabular: ``f_0,...,f_{w-1},label`` float features, labels binarized by
  the rule the train file picks (see :func:`load`).
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .numkit import Rng, check_numbers

__all__ = [
    "DataError",
    "DatasetSpec",
    "Split",
    "load",
    "write_csv",
    "split_three_way",
    "batch_iter",
    "save_report",
    "append_aggregate_row",
]

KINDS = ("synthetic_csv", "tabular")
SPLIT_NAMES = ("train", "val", "test")


class DataError(ValueError):
    """Malformed dataset stanza, file or batch size."""


@dataclass(frozen=True)
class DatasetSpec:
    kind: str
    paths: dict  # "train", and optionally "val" and "test", -> file path
    rating_threshold: float = 4.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown dataset kind {self.kind!r}")
        if not isinstance(self.paths, dict) or not all(
                isinstance(path, (str, os.PathLike)) for path in self.paths.values()):
            raise DataError(f"paths must map split names to files, got {self.paths!r}")
        for name in self.paths:
            if name not in SPLIT_NAMES:
                raise DataError(f"unknown split designation {name!r}, "
                                f"expected one of {list(SPLIT_NAMES)}")
        if "train" not in self.paths:
            raise DataError("paths must name a 'train' file")
        check_numbers(self, ("rating_threshold",))


@dataclass
class Split:
    x: np.ndarray  # float features
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


def _read_rows(path):
    """The header and the data rows, (n, width) floats, of a CSV file whose
    last column is the label."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        if len(header) < 2:
            raise DataError(f"{path}: the header names no feature column")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} "
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


def _load_synthetic(path) -> tuple[list[str], Split]:
    """The header and the split of a simulator CSV."""
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
    missing = [f"{name}_*" for name in ("pa", "nd", "dc") if not blocks[name]]
    if missing:
        raise DataError(f"{path}: the header has no {' or '.join(missing)} column")
    return header, Split(
        x=data[:, :-1],
        y=y.astype(int),
        pa=data[:, blocks["pa"]],
        nd=data[:, blocks["nd"]],
        dc=data[:, blocks["dc"]],
    )


def write_csv(split: Split, path) -> None:
    """Persist a simulator split in the layout :func:`load` reads as
    ``synthetic_csv``."""
    blocks = {"pa": split.pa, "nd": split.nd, "dc": split.dc}
    missing = [name for name, block in blocks.items() if block is None]
    if missing:
        raise DataError(f"the split has no {', '.join(missing)} block: only a "
                        "simulator split can be written")
    header = [f"{name}_{i}" for name, block in blocks.items()
              for i in range(block.shape[1])]
    header += [f"nc_{i}" for i in range(split.x.shape[1] - len(header))] + ["y"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row, label in zip(split.x, split.y):
            writer.writerow([f"{v:.9g}" for v in row] + [int(label)])


def load(spec: DatasetSpec) -> dict:
    """Load every declared file; returns {split name: Split}.  Every file
    must carry the train file's header, the same names in the same order.
    The train file also fixes, for tabular files, the label rule: labels as
    they are if the train labels are all 0/1, else
    ``label >= rating_threshold``."""
    if spec.kind == "synthetic_csv":
        files = {name: _load_synthetic(path) for name, path in spec.paths.items()}
    else:
        rows = {name: _read_rows(path) for name, path in spec.paths.items()}
        as_is = np.isin(rows["train"][1][:, -1], (0.0, 1.0)).all()
        files = {}
        for name, (header, data) in rows.items():
            labels = data[:, -1]
            if as_is and not np.isin(labels, (0.0, 1.0)).all():
                raise DataError(f"{spec.paths[name]}: labels must be 0/1, "
                                "as in the train file")
            files[name] = header, Split(x=data[:, :-1], y=(
                labels if as_is else labels >= spec.rating_threshold).astype(int))
    train_header, train = files["train"]
    width = train.x.shape[1]
    for name, (header, split) in files.items():
        if split.x.shape[1] != width:
            raise DataError(f"{spec.paths[name]}: {split.x.shape[1]} feature "
                            f"columns, but the train file has {width}")
        if header != train_header:
            raise DataError(f"{spec.paths[name]}: header {','.join(header)!r} "
                            f"differs from the train file's {','.join(train_header)!r}")
    return {name: split for name, (_, split) in files.items()}


def split_three_way(split: Split, seed: int, shares=(0.8, 0.1)) -> list[Split]:
    """Seeded shuffle into consecutive parts: one per entry of ``shares``,
    each that share of the rows (rounded), then the rest.  The default is
    the 80/10/10 train/val/test split; ``(0.9,)`` carves one 10% part."""
    n = len(split)
    idx = Rng(seed).permutation(n)
    cuts = np.cumsum([int(round(share * n)) for share in shares])
    return [split.take(part) for part in np.split(idx, cuts)]


def batch_iter(x: np.ndarray, y: np.ndarray, batch_size: int, seed: int):
    """Seeded shuffle, then batches in order; the final partial batch is kept."""
    if batch_size < 1:
        raise DataError("batch_size must be >= 1")
    n = x.shape[0]
    idx = Rng(seed).permutation(n)
    for start in range(0, n, batch_size):
        sel = idx[start:start + batch_size]
        yield x[sel], y[sel]


# ---------------------------------------------------------------------------
# Report persistence
# ---------------------------------------------------------------------------

def save_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)


def append_aggregate_row(path, row: dict) -> None:
    """Append one run to the aggregate CSV, None as an empty field.  A new
    or empty file gets the row's keys as its header; a file with another
    header raises :class:`DataError` and is left as it was."""
    header = list(row)
    with open(path, "a+", newline="") as fh:
        fh.seek(0)
        found = next(csv.reader(fh), None)
        if found not in (None, header):
            raise DataError(f"{path}: header {','.join(found)!r} differs from "
                            f"the row's {','.join(header)!r}")
        writer = csv.writer(fh)
        if found is None:
            writer.writerow(header)
        writer.writerow(row.values())

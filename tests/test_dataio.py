"""Loading, splitting, batching, and report persistence."""

import csv
import json

import numpy as np
import pytest

from carr.dataio import (
    AGGREGATE_COLUMNS,
    DataError,
    DatasetSpec,
    Split,
    append_aggregate_row,
    batch_iter,
    load,
    load_synthetic_csv,
    save_report,
    split_three_way,
)
from carr.scm import SynthConfig, generate, write_csv


def test_dataset_spec_validation():
    with pytest.raises(DataError):
        DatasetSpec(kind="parquet", paths={})
    with pytest.raises(DataError):
        DatasetSpec(kind="tabular", paths={"holdout": "x.csv"})
    DatasetSpec(kind="tabular", paths={"train": "a.csv", "test_ood": "b.csv"})
    DatasetSpec(kind="tabular", paths={"all": "a.csv"})


@pytest.mark.parametrize("kwargs, message", [
    ({"paths": ["a.csv"]}, "paths must map split names to files"),
    ({"paths": {"train": 0}}, "paths must map split names to files"),
    ({"paths": {}}, "paths must name a 'train' file"),
    ({"paths": {"test_iid": "b.csv"}}, "paths must name a 'train' file"),
    ({"paths": {"all": "a.csv", "train": "a.csv"}}, "an 'all' file alone"),
])
def test_dataset_spec_rejects_bad_stanza(kwargs, message):
    # an int path would open that file descriptor
    with pytest.raises(DataError) as err:
        DatasetSpec(**{"kind": "tabular", "paths": {"train": "a.csv"}, **kwargs})
    assert message in str(err.value)


def test_synthetic_round_trip(tmp_path):
    data = generate(SynthConfig(beta=0.3, n=30, seed=1, nc_cols=2))
    path = tmp_path / "d.csv"
    write_csv(data, path)
    split = load_synthetic_csv(path)
    assert np.allclose(split.x, data.x, atol=1e-7)  # %.9g formatting
    assert np.array_equal(split.y, data.y)
    assert np.allclose(split.pa, data.pa, atol=1e-7)
    assert np.allclose(split.nd, data.nd, atol=1e-7)
    assert np.allclose(split.dc, data.dc, atol=1e-7)


def test_synthetic_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("pa_0,zz_0,y\n0.1,0.2,1\n")
    with pytest.raises(DataError):
        load_synthetic_csv(bad)
    bad.write_text("pa_0,nd_0\n0.1,0.2\n")
    with pytest.raises(DataError):
        load_synthetic_csv(bad)  # last column must be the label
    bad.write_text("pa_0,y\n0.1,0.7\n")
    with pytest.raises(DataError):
        load_synthetic_csv(bad)  # non-binary label
    bad.write_text("pa_0,y\nnope,1\n")
    with pytest.raises(DataError) as err:
        load_synthetic_csv(bad)
    assert ":2:" in str(err.value)  # line number in the message
    for value in ("nan", "inf", "-inf"):
        bad.write_text(f"pa_0,y\n0.1,1\n{value},0\n")
        with pytest.raises(DataError) as err:
            load_synthetic_csv(bad)
        assert ":3: non-finite value" in str(err.value)
    bad.write_text("")
    with pytest.raises(DataError):
        load_synthetic_csv(bad)
    # a header with no data rows used to load as a 1-D array and fail with
    # an IndexError on the first column slice
    for kind, header in (("synthetic_csv", "pa_0,y"), ("tabular", "f_0,label")):
        bad.write_text(header + "\n")
        with pytest.raises(DataError, match="bad.csv: no data rows"):
            load(DatasetSpec(kind=kind, paths={"train": str(bad)}))


def test_tabular_label_binarization(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("f_0,rating\n0.5,5\n0.1,3\n0.2,4\n0.3,1\n")
    splits = load(DatasetSpec(kind="tabular", paths={"train": str(path)}))
    assert np.array_equal(splits["train"].y, [1, 0, 1, 0])
    splits = load(DatasetSpec(kind="tabular", paths={"train": str(path)},
                              rating_threshold=3.0))
    assert np.array_equal(splits["train"].y, [1, 1, 1, 0])
    # already-binary labels pass through, no threshold applied
    path.write_text("f_0,label\n0.5,1\n0.1,0\n")
    splits = load(DatasetSpec(kind="tabular", paths={"train": str(path)}))
    assert np.array_equal(splits["train"].y, [1, 0])


@pytest.mark.parametrize("kind, header", [("synthetic_csv", "pa_0,nd_0,y"),
                                          ("tabular", "f_0,f_1,label")])
@pytest.mark.parametrize("row", ["0.1,1", "0.1,0.2,0.3,1"], ids=["short", "long"])
def test_rows_must_match_the_header_width(tmp_path, kind, header, row):
    # a short row used to fail with numpy's "inhomogeneous shape" and no
    # line; a long synthetic row loaded its unnamed column as a feature
    path = tmp_path / "rows.csv"
    path.write_text(f"{header}\n0.1,0.2,1\n{row}\n")
    with pytest.raises(DataError) as err:
        load(DatasetSpec(kind=kind, paths={"train": str(path)}))
    assert f"rows.csv:3: expected 3 fields, got {row.count(',') + 1}" in str(err.value)


@pytest.mark.parametrize("kind, header", [("synthetic_csv", "y"), ("tabular", "label")])
def test_label_only_file_rejected(tmp_path, kind, header):
    # a tabular file with no feature column used to train a 0-input encoder
    path = tmp_path / "labels.csv"
    path.write_text(f"{header}\n1\n0\n")
    with pytest.raises(DataError, match="labels.csv: the header names no feature"):
        load(DatasetSpec(kind=kind, paths={"train": str(path)}))


def test_non_finite_features_and_labels_rejected(tmp_path):
    path = tmp_path / "feats.csv"
    # a nan label used to switch the 0/1 column into rating-threshold mode
    # and load every label as 0
    for body in ("0.5,1\n0.1,0\n0.2,1\n0.3,nan\n", "nan,1\n", "0.5,1\ninf,0\n"):
        path.write_text("f_0,label\n" + body)
        with pytest.raises(DataError, match="non-finite value"):
            load(DatasetSpec(kind="tabular", paths={"train": str(path)}))


def test_tabular_load(tmp_path):
    path = tmp_path / "feats.csv"
    path.write_text("f_0,f_1,label\n0.5,-0.5,1\n0.2,0.1,0\n")
    splits = load(DatasetSpec(kind="tabular",
                              paths={"train": str(path), "test_ood": str(path)}))
    assert set(splits) == {"train", "test_ood"}
    assert splits["train"].x.shape == (2, 2)
    assert np.array_equal(splits["test_ood"].y, [1, 0])


def test_split_three_way_partition():
    split = Split(x=np.arange(500, dtype=float)[:, None], y=np.zeros(500, dtype=int),
                  pa=np.arange(500, dtype=float)[:, None])
    tr, va, te = split_three_way(split, seed=0)
    assert (len(tr), len(va), len(te)) == (400, 50, 50)
    merged = np.concatenate([tr.x, va.x, te.x]).ravel()
    assert sorted(merged.tolist()) == list(range(500))
    assert np.array_equal(tr.pa.ravel(), tr.x.ravel())  # blocks stay aligned
    tr2, _, _ = split_three_way(split, seed=0)
    assert np.array_equal(tr.x, tr2.x)


def test_batch_iter_sizes_and_determinism():
    x = np.arange(500, dtype=float)[:, None]
    y = np.zeros(500, dtype=int)
    sizes = [xb.shape[0] for xb, _ in batch_iter(x, y, 128, seed=3)]
    assert sizes == [128, 128, 128, 116]
    first = [xb.copy() for xb, _ in batch_iter(x, y, 128, seed=3)]
    second = [xb for xb, _ in batch_iter(x, y, 128, seed=3)]
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    with pytest.raises(DataError):
        list(batch_iter(x, y, 0, seed=0))


def test_save_report_and_aggregate(tmp_path):
    report_path = tmp_path / "report.json"
    save_report({"metrics": {"auc": 0.9}}, report_path)
    assert json.loads(report_path.read_text())["metrics"]["auc"] == 0.9

    agg = tmp_path / "aggregate.csv"
    row = {"method": "carr", "mode": "robust", "p": "2", "seed": 0, "auc": 0.9,
           "acc": 0.8, "adv_auc": 0.7, "adv_acc": 0.6}
    append_aggregate_row(agg, row)
    append_aggregate_row(agg, dict(row, seed=1))
    with open(agg, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == AGGREGATE_COLUMNS  # header written exactly once
    assert len(rows) == 3
    assert rows[1][AGGREGATE_COLUMNS.index("auc")] == "0.9"

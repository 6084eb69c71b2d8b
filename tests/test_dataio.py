"""Loading, splitting, batching, and report persistence."""

import csv
import json
import re

import numpy as np
import pytest

from carr.dataio import (
    DataError,
    DatasetSpec,
    Split,
    append_aggregate_row,
    batch_iter,
    load,
    save_report,
    split_three_way,
    write_csv,
)
from carr.scm import SynthConfig, generate


def test_dataset_spec_validation():
    with pytest.raises(DataError):
        DatasetSpec(kind="parquet", paths={})
    with pytest.raises(DataError):
        DatasetSpec(kind="tabular", paths={"holdout": "x.csv"})
    DatasetSpec(kind="tabular", paths={"train": "a.csv", "test": "b.csv"})
    DatasetSpec(kind="tabular", paths={"train": "a.csv", "val": "b.csv",
                                       "test": "c.csv"})


@pytest.mark.parametrize("kwargs, message", [
    ({"paths": ["a.csv"]}, "paths must map split names to files"),
    ({"paths": {"train": 0}}, "paths must map split names to files"),
    ({"paths": {}}, "paths must name a 'train' file"),
    ({"paths": {"test": "b.csv"}}, "paths must name a 'train' file"),
    # the single-file and iid/ood split names are gone
    ({"paths": {"all": "a.csv"}}, "unknown split designation 'all'"),
    ({"paths": {"train": "a.csv", "val_iid": "b.csv"}}, "designation 'val_iid'"),
    ({"paths": {"train": "a.csv", "test_iid": "b.csv"}}, "designation 'test_iid'"),
    ({"paths": {"train": "a.csv", "val_ood": "b.csv"}}, "designation 'val_ood'"),
    ({"paths": {"train": "a.csv", "test_ood": "b.csv"}}, "designation 'test_ood'"),
])
def test_dataset_spec_rejects_bad_stanza(kwargs, message):
    # an int path would open that file descriptor
    with pytest.raises(DataError) as err:
        DatasetSpec(**{"kind": "tabular", "paths": {"train": "a.csv"}, **kwargs})
    assert message in str(err.value)


def _load_simulator_file(path) -> Split:
    return load(DatasetSpec(kind="synthetic_csv", paths={"train": str(path)}))["train"]


def test_synthetic_round_trip(tmp_path):
    data = generate(SynthConfig(beta=0.3, n=30, seed=1, nc_cols=2))
    path = tmp_path / "d.csv"
    write_csv(data, path)
    split = _load_simulator_file(path)
    assert np.allclose(split.x, data.x, atol=1e-7)  # %.9g formatting
    assert np.array_equal(split.y, data.y)
    assert np.allclose(split.pa, data.pa, atol=1e-7)
    assert np.allclose(split.nd, data.nd, atol=1e-7)
    assert np.allclose(split.dc, data.dc, atol=1e-7)
    # a loaded split writes the same file back (the nc_* columns counted
    # from the block widths) and loads byte-equal
    again = tmp_path / "again.csv"
    write_csv(split, again)
    assert again.read_bytes() == path.read_bytes()
    reloaded = _load_simulator_file(again)
    for name in ("x", "pa", "nd", "dc", "y"):
        a, b = getattr(split, name), getattr(reloaded, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("drop, message", [
    (("pa", "nd", "dc"), "no pa, nd, dc block"),  # a tabular split
    (("dc",), "no dc block"),
])
def test_write_csv_needs_every_block(tmp_path, drop, message):
    data = generate(SynthConfig(beta=0.3, n=10, seed=1))
    split = Split(x=data.x, y=data.y, pa=data.pa, nd=data.nd, dc=data.dc)
    for name in drop:
        setattr(split, name, None)
    path = tmp_path / "d.csv"
    with pytest.raises(DataError, match=message):
        write_csv(split, path)
    assert not path.exists()


def test_synthetic_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("pa_0,zz_0,y\n0.1,0.2,1\n")
    with pytest.raises(DataError):
        _load_simulator_file(bad)
    bad.write_text("pa_0,nd_0\n0.1,0.2\n")
    with pytest.raises(DataError):
        _load_simulator_file(bad)  # last column must be the label
    bad.write_text("pa_0,y\n0.1,0.7\n")
    with pytest.raises(DataError):
        _load_simulator_file(bad)  # non-binary label
    bad.write_text("pa_0,y\nnope,1\n")
    with pytest.raises(DataError) as err:
        _load_simulator_file(bad)
    assert ":2:" in str(err.value)  # line number in the message
    for value in ("nan", "inf", "-inf"):
        bad.write_text(f"pa_0,y\n0.1,1\n{value},0\n")
        with pytest.raises(DataError) as err:
            _load_simulator_file(bad)
        assert ":3: non-finite value" in str(err.value)
    bad.write_text("")
    with pytest.raises(DataError):
        _load_simulator_file(bad)
    # a header with no data rows used to load as a 1-D array and fail with
    # an IndexError on the first column slice
    for kind, header in (("synthetic_csv", "pa_0,y"), ("tabular", "f_0,label")):
        bad.write_text(header + "\n")
        with pytest.raises(DataError, match="bad.csv: no data rows"):
            load(DatasetSpec(kind=kind, paths={"train": str(bad)}))


@pytest.mark.parametrize("header, missing", [
    ("pa_0,nd_0,y", "dc_*"),
    ("nd_0,dc_0,nc_0,y", "pa_*"),
    ("pa_0,y", "nd_* or dc_*"),
])
def test_synthetic_csv_needs_every_block(tmp_path, header, missing):
    # a header with no dc_* column used to load, and evaluate then reported
    # that block's distance correlation as 0.0, as if measured
    path = tmp_path / "blocks.csv"
    width = header.count(",")
    path.write_text(f"{header}\n" + "0.1," * width + "1\n" + "0.2," * width + "0\n")
    message = re.escape(f"blocks.csv: the header has no {missing} column")
    with pytest.raises(DataError, match=message):
        _load_simulator_file(path)


@pytest.mark.parametrize("kind, train_header, other_header", [
    ("synthetic_csv", "pa_0,nd_0,dc_0,y", "dc_0,pa_0,nd_0,y"),  # permuted
    ("synthetic_csv", "pa_0,nd_0,dc_0,y", "pa_0,nd_0,dc_1,y"),  # renamed
    ("tabular", "f_0,f_1,label", "f_1,f_0,label"),  # permuted
    ("tabular", "f_0,f_1,label", "f_0,g_1,label"),  # renamed
    ("tabular", "f_0,f_1,label", "f_0,f_1,rating"),  # label renamed
])
@pytest.mark.parametrize("other", ["val", "test"])
def test_every_file_carries_the_train_header(tmp_path, kind, train_header,
                                             other_header, other):
    # a test file whose columns are the train file's in another order used
    # to load, and the model scored permuted features
    paths = {}
    for name, header in (("train", train_header), (other, other_header)):
        width = header.count(",")
        paths[name] = str(tmp_path / f"{name}.csv")
        (tmp_path / f"{name}.csv").write_text(
            f"{header}\n" + "0.1," * width + "1\n" + "0.2," * width + "0\n")
    with pytest.raises(DataError, match=re.escape(
            f"{other}.csv: header '{other_header}' differs from the train "
            f"file's '{train_header}'")):
        load(DatasetSpec(kind=kind, paths=paths))
    # the same header loads
    (tmp_path / f"{other}.csv").write_text((tmp_path / "train.csv").read_text())
    assert set(load(DatasetSpec(kind=kind, paths=paths))) == {"train", other}


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


def _train_and_test(tmp_path, train_body, test_body):
    paths = {}
    for name, body in (("train", train_body), ("test", test_body)):
        paths[name] = str(tmp_path / f"{name}.csv")
        (tmp_path / f"{name}.csv").write_text("f_0,label\n" + body)
    return DatasetSpec(kind="tabular", paths=paths)


def test_train_file_ratings_threshold_every_file(tmp_path):
    # a test file whose ratings happen to be 0/1 used to pass through as
    # labels while the same rating 1 in the train file mapped to 0
    splits = load(_train_and_test(tmp_path, "0.5,5\n0.1,1\n", "0.2,1\n0.3,0\n0.4,1\n"))
    assert np.array_equal(splits["train"].y, [1, 0])
    assert np.array_equal(splits["test"].y, [0, 0, 0])


def test_ratings_beside_binary_train_labels_rejected(tmp_path):
    # 0/1 train labels pass through as they are, so every file must hold 0/1
    with pytest.raises(DataError, match="test.csv: labels must be 0/1"):
        load(_train_and_test(tmp_path, "0.5,1\n0.1,0\n", "0.2,1\n0.3,5\n"))


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
                              paths={"train": str(path), "test": str(path)}))
    assert set(splits) == {"train", "test"}
    assert splits["train"].x.shape == (2, 2)
    assert np.array_equal(splits["test"].y, [1, 0])


def test_blank_rows_are_skipped(tmp_path):
    # not read as rows of the wrong width
    path = tmp_path / "feats.csv"
    path.write_text("f_0,f_1,label\n0.5,-0.5,1\n\n0.2,0.1,0\n\n")
    split = load(DatasetSpec(kind="tabular", paths={"train": str(path)}))["train"]
    assert split.x.tolist() == [[0.5, -0.5], [0.2, 0.1]]
    assert split.y.tolist() == [1, 0]


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
           "acc": 0.8, "adv_auc": 0.7, "adv_acc": 0.6, "dcor_pa": None}
    append_aggregate_row(agg, row)
    append_aggregate_row(agg, dict(row, seed=1))
    with open(agg, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(row)  # header taken from the row, written once
    assert len(rows) == 3
    assert rows[1][list(row).index("auc")] == "0.9"
    assert rows[2] == ["carr", "robust", "2", "1", "0.9", "0.8", "0.7", "0.6", ""]


def test_aggregate_row_under_another_header_is_refused(tmp_path):
    agg = tmp_path / "aggregate.csv"
    row = {"method": "carr", "seed": 0, "auc": 0.9}
    append_aggregate_row(agg, row)
    before = agg.read_bytes()
    for other in ({"seed": 1, "method": "carr", "auc": 0.9},  # same keys, reordered
                  {"method": "carr", "seed": 1}):
        with pytest.raises(DataError, match=re.escape(
                f"header 'method,seed,auc' differs from the row's '{','.join(other)}'")):
            append_aggregate_row(agg, other)
        assert agg.read_bytes() == before
    # an empty file has no header yet, so it gets the row's
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    append_aggregate_row(empty, row)
    assert empty.read_bytes() == b"method,seed,auc\r\ncarr,0,0.9\r\n"

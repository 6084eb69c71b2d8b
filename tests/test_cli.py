"""Command-line surface: exit codes, outputs, and the seed override."""

import csv
import json

import numpy as np
import pytest

import carr.cli
import carr.infometrics
import carr.numkit
import carr.scm
import carr.trainer
from carr.cli import main, run_audit
from carr.infometrics import JointTable
from carr.numkit import ConfigurationError
from carr.objective import loss_and_grads, loss_values


def test_synth_writes_csv(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code = main(["synth", "--beta", "0.3", "--n", "20", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "wrote 20 samples" in capsys.readouterr().out
    header = out.read_text().splitlines()[0]
    assert header.endswith(",y")


def test_synth_env_seed_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CARR_SEED", "42")
    out = tmp_path / "d.csv"
    assert main(["synth", "--beta", "0.1", "--n", "5", "--out", str(out)]) == 0
    assert "seed 42" in capsys.readouterr().out


def test_synth_invalid_config(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code = main(["synth", "--beta", "-1", "--n", "5", "--out", str(out)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_train_from_config(tmp_path, capsys, monkeypatch):
    config = {
        "method": "base",
        "training_mode": "standard",
        "attack": {"p": "2", "beta": 0.0},
        "lr": 0.001,
        "epochs": 2,
        "d_z": 8,
        "dataset": {"kind": "synthetic", "beta": 0.3, "n": 120},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    report_path = tmp_path / "report.json"
    reports, _ = _record_reports(monkeypatch, carr.cli)
    code = main(["train", "--config", str(cfg_path), "--out", str(report_path)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads(report_path.read_text())
    assert on_disk == json.loads(json.dumps(reports[0]))  # the report returned
    assert printed == on_disk["metrics"]
    assert on_disk["config"]["epochs"] == 2


def _record_reports(monkeypatch, module, out_dir=None):
    """Wrap ``module.run_experiment``; returns the list of the reports it
    returns and the list of the files in ``out_dir`` as each run starts."""
    reports, seen, run = [], [], module.run_experiment

    def recording(cfg):
        if out_dir is not None:
            seen.append(sorted(p.name for p in out_dir.iterdir()))
        reports.append(run(cfg))
        return reports[-1]

    monkeypatch.setattr(module, "run_experiment", recording)
    return reports, seen


def test_train_seed_flag_overrides_config(tmp_path, capsys):
    config = {"method": "base", "training_mode": "standard",
              "attack": {"p": "2", "beta": 0.0}, "lr": 0.001, "epochs": 1,
              "d_z": 8, "seed": 0,
              "dataset": {"kind": "synthetic", "beta": 0.3, "n": 120}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "r.json"
    assert main(["train", "--config", str(cfg_path), "--seed", "9",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["config"]["seed"] == 9


@pytest.mark.parametrize("doc, seed_flag, seed", [
    ({}, None, 42), ({"seed": 7}, None, 7), ({}, 9, 9),
])
def test_config_seed_from_env_only_without_flag_or_config_seed(
        tmp_path, monkeypatch, doc, seed_flag, seed):
    monkeypatch.setenv("CARR_SEED", "42")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**_SMALL, **doc}))
    assert carr.cli._load_config(cfg_path, seed_flag).seed == seed


def test_train_bad_config_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"method": "nonsense"}))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("attack", [
    {"p": "2", "beta": float("nan"), "steps": 1},
    {"p": "2", "beta": 0.3, "step_size": float("nan")},
    {"p": "2", "beta": 0.3, "steps": 2.5},
])
def test_train_non_finite_or_fractional_attack_exit_2(tmp_path, capsys, attack):
    # json writes NaN as a bare token and reads it back as a float NaN; a NaN
    # radius would otherwise train a "robust" model that was never attacked
    config = {"method": "base", "training_mode": "robust", "attack": attack,
              "epochs": 1, "d_z": 8, "dataset": {"kind": "synthetic", "n": 60}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and ("finite" in err or "int" in err)


@pytest.mark.parametrize("name, override", [
    ("beta", {"attack": {"p": "2", "beta": "0.3"}}),
    ("beta", {"attack": {"p": "2", "beta": True}}),
    ("step_size", {"attack": {"p": "2", "beta": 0.3, "step_size": "0.1"}}),
    ("lr", {"lr": "0.01"}), ("lam", {"lam": None}), ("b", {"b": [0.8]}),
    ("neg_weight", {"neg_weight": True}), ("momentum", {"momentum": "0.9"}),
    ("epochs", {"epochs": 1.5}), ("batch_size", {"batch_size": "64"}),
    ("patience", {"patience": 2.0}), ("seed", {"seed": True}), ("d_z", {"d_z": 8.0}),
    ("lr", {"lr": 1e400}), ("momentum", {"momentum": float("nan")}),
    ("beta", {"attack": {"p": "2", "beta": 10 ** 400}}),
    ("beta", {"dataset": {"kind": "synthetic", "n": 60, "beta": 10 ** 400}}),
    ("beta", {"dataset": {"kind": "synthetic", "n": 60, "beta": float("nan")}}),
    ("q", {"dataset": {"kind": "synthetic", "n": 60, "q": float("inf")}}),
    ("noise_mean", {"dataset": {"kind": "synthetic", "n": 60, "noise_mean": -1e400}}),
    ("n", {"dataset": {"kind": "synthetic", "n": 100.5}}),
    ("n", {"dataset": {"kind": "synthetic", "n": True}}),
    ("seed", {"dataset": {"kind": "synthetic", "n": 60, "seed": 1.0}}),
    ("nc_cols", {"dataset": {"kind": "synthetic", "n": 60, "nc_cols": -4}}),
    ("stop_grad_negative", {"stop_grad_negative": "false"}),
    ("shared_noise", {"dataset": {"kind": "synthetic", "n": 60, "shared_noise": "no"}}),
    ("rating_threshold", {"dataset": {"kind": "tabular", "paths": {"train": "t.csv"},
                                      "rating_threshold": "4"}}),
    ("lr", {"lr": -0.5}), ("lr", {"lr": 0.0}), ("momentum", {"momentum": 1.5}),
    ("momentum", {"momentum": 1.0}), ("momentum", {"momentum": -0.1}),
])
def test_train_config_number_of_wrong_type_exit_2(tmp_path, capsys, name, override):
    # each would otherwise fail later, inside training, with exit 1, or (an
    # inf rate, a NaN momentum; json reads 1e400 as inf) train to a garbage
    # report with exit 0
    config = {"method": "base", "training_mode": "robust",
              "attack": {"p": "2", "beta": 0.3}, "epochs": 1, "d_z": 8,
              "dataset": {"kind": "synthetic", "n": 60}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**config, **override}))
    out = tmp_path / "report.json"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{name} must be" in err
    assert not out.exists()


_SMALL = {"method": "base", "training_mode": "standard",
          "attack": {"p": "2", "beta": 0.0}, "epochs": 1, "d_z": 8,
          "dataset": {"kind": "synthetic", "n": 60}}


def test_train_with_an_empty_test_split_exit_2(tmp_path, capsys, monkeypatch):
    # one row goes to train and none to test; this used to train every epoch,
    # then exit 1 on the empty AUC
    trained = []
    monkeypatch.setattr(carr.trainer, "train", lambda *args: trained.append(args))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**_SMALL, "epochs": 2,
                                    "dataset": {"kind": "synthetic", "n": 1}}))
    out = tmp_path / "report.json"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "no rows for the test split" in err
    assert not out.exists() and not trained


@pytest.mark.parametrize("doc, message", [
    ([], "config must be an object"),
    ("config.json", "config must be an object"),
    ({**_SMALL, "attack": "l2"}, "attack must be an object"),
    ({**_SMALL, "eval_attack": [0.3]}, "eval_attack must be an object"),
    ({**_SMALL, "dataset": None}, "dataset must be an object"),
    ({**_SMALL, "dataset": {"n": 60, "size": 3}}, "unknown dataset keys: ['size']"),
    ({**_SMALL, "dataset": {"kind": "csv"}}, "unknown dataset kind 'csv'"),
    ({**_SMALL, "dataset": {"kind": "tabular"}}, "dataset is missing keys: ['paths']"),
    ({**_SMALL, "dataset": {"kind": "tabular", "paths": {"train": "t.csv"}, "rows": 3}},
     "unknown dataset keys: ['rows']"),
    ({**_SMALL, "dataset": {"kind": "tabular", "paths": "t.csv"}},
     "paths must map split names to files"),
    ({**_SMALL, "dataset": {"kind": "tabular", "paths": {"all": "t.csv"}}},
     "unknown split designation 'all', expected one of ['train', 'val', 'test']"),
])
@pytest.mark.parametrize("seed_args", [[], ["--seed", "3"]])
def test_train_bad_stanza_exit_2(tmp_path, capsys, doc, message, seed_args):
    # a top-level [] used to train the default 60-epoch config, and a
    # non-object attack or dataset stanza used to exit 1
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["train", "--config", str(cfg_path), "--out", str(out),
                 *seed_args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


def _must_not_train(*args):
    raise AssertionError("train ran")


def _train_file_backed(tmp_path, dataset):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**_SMALL, "dataset": dataset}))
    out = tmp_path / "report.json"
    return main(["train", "--config", str(cfg_path), "--out", str(out)]), out


def test_train_id_pairs_kind_exit_2(tmp_path, capsys):
    # the id-pair kind and its embedding model are gone until a
    # recommendation dataset ships with a check that uses them
    (tmp_path / "ratings.csv").write_text("user_id,item_id,label\n0,1,1\n")
    code, out = _train_file_backed(tmp_path, {
        "kind": "id_pairs", "paths": {"train": str(tmp_path / "ratings.csv")}})
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and (
        "unknown dataset kind 'id_pairs', expected one of "
        "['synthetic', 'synthetic_csv', 'tabular']") in err
    assert not out.exists()


def test_train_label_only_tabular_file_exit_2(tmp_path, capsys):
    # a file with a label column and nothing else used to train an encoder
    # with 0 inputs and exit 0 with auc 0.5
    (tmp_path / "labels.csv").write_text("label\n" + "0\n1\n" * 30)
    code, out = _train_file_backed(tmp_path, {
        "kind": "tabular", "paths": {"train": str(tmp_path / "labels.csv")}})
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "the header names no feature" in err
    assert not out.exists()


def _write_tabular(path, n, width, seed):
    x = np.random.default_rng(seed).normal(size=(n, width))
    rows = "".join(",".join(f"{v:.6f}" for v in row) + f",{int(row[0] + row[1] > 0)}\n"
                   for row in x)
    path.write_text(",".join(f"f_{i}" for i in range(width)) + ",label\n" + rows)
    return str(path)


def test_train_tabular_train_file_alone_exit_0(tmp_path, capsys):
    # a train file alone is split 80/10/10 like a synthetic dataset
    code, out = _train_file_backed(tmp_path, {
        "kind": "tabular", "paths": {"train": _write_tabular(tmp_path / "feats.csv",
                                                             200, 3, seed=2)}})
    assert code == 0, capsys.readouterr().err
    assert 0.0 <= json.loads(out.read_text())["metrics"]["auc"] <= 1.0


def test_train_narrower_test_file_exit_2_before_training(tmp_path, capsys, monkeypatch):
    # a 2-column test file against a 3-column train file used to train every
    # epoch and only then fail in the encoder's first layer
    monkeypatch.setattr(carr.trainer, "train", _must_not_train)
    code, out = _train_file_backed(tmp_path, {"kind": "tabular", "paths": {
        "train": _write_tabular(tmp_path / "train.csv", 100, 3, seed=2),
        "test": _write_tabular(tmp_path / "test.csv", 20, 2, seed=3)}})
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and (
        "test.csv: 2 feature columns, but the train file has 3") in err
    assert not out.exists()


def test_train_permuted_test_header_exit_2_before_training(tmp_path, capsys, monkeypatch):
    # a test file with the train file's columns in another order used to
    # load, and the model scored permuted features
    monkeypatch.setattr(carr.trainer, "train", _must_not_train)
    paths = {}
    for name, header in (("train", "pa_0,nd_0,dc_0,y"), ("test", "dc_0,pa_0,nd_0,y")):
        paths[name] = str(tmp_path / f"{name}.csv")
        rows = "".join(f"{i / 10},{i / 20},{i / 30},{i % 2}\n" for i in range(40))
        (tmp_path / f"{name}.csv").write_text(f"{header}\n{rows}")
    code, out = _train_file_backed(tmp_path, {"kind": "synthetic_csv", "paths": paths})
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and (
        "test.csv: header 'dc_0,pa_0,nd_0,y' differs from the train file's "
        "'pa_0,nd_0,dc_0,y'") in err
    assert not out.exists()


def test_train_synthetic_file_without_dc_block_exit_2(tmp_path, capsys, monkeypatch):
    # with no dc_* column the report used to give dcor_dc 0.0, as if measured
    monkeypatch.setattr(carr.trainer, "train", _must_not_train)
    path = tmp_path / "train.csv"
    path.write_text("pa_0,nd_0,y\n" + "".join(
        f"{i / 10},{i / 20},{i % 2}\n" for i in range(40)))
    code, out = _train_file_backed(tmp_path, {"kind": "synthetic_csv",
                                              "paths": {"train": str(path)}})
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and (
        "train.csv: the header has no dc_* column") in err
    assert not out.exists()


@pytest.mark.parametrize("one_class", ["val", "test"])
def test_train_one_class_val_or_test_file_exit_1_before_training(
        tmp_path, capsys, monkeypatch, one_class):
    # a test file of positives alone used to train every epoch before the
    # AUC failed; an empty val split is still legal
    monkeypatch.setattr(carr.trainer, "train", _must_not_train)
    paths = {name: _write_tabular(tmp_path / f"{name}.csv", 40, 3, seed=i)
             for i, name in enumerate(("train", "val", "test"))}
    (tmp_path / f"{one_class}.csv").write_text("f_0,f_1,f_2,label\n0.1,0.2,0.3,1\n")
    code, out = _train_file_backed(tmp_path, {"kind": "tabular", "paths": paths})
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "AUC needs both classes present" in err
    assert not out.exists()


def test_synth_negative_nc_cols_exit_2(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["synth", "--beta", "0.3", "--n", "5", "--nc-cols", "-2",
                 "--out", str(out)]) == 2
    assert "nc_cols must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, value", [
    ("d_z", 0), ("batch_size", 0), ("epochs", -1), ("patience", -3),
])
def test_train_out_of_range_size_exit_2(tmp_path, capsys, name, value):
    config = {"method": "base", "training_mode": "standard",
              "attack": {"p": "2", "beta": 0.0}, "epochs": 1, "d_z": 8,
              "dataset": {"kind": "synthetic", "beta": 0.3, "n": 60}, name: value}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{name} must be at least" in err
    assert not out.exists()


def test_train_single_class_metric_exit_1(tmp_path, capsys):
    # n=10 leaves one row, so one class, in the test split: AUC is undefined,
    # which is a runtime failure, not a configuration error (n=6 leaves none)
    config = {"method": "base", "training_mode": "standard",
              "attack": {"p": "2", "beta": 0.0}, "epochs": 1, "d_z": 8,
              "dataset": {"kind": "synthetic", "beta": 0.3, "n": 10}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "both classes" in err


def test_sweep_command(tmp_path, capsys):
    config = {"method": "base", "training_mode": "standard",
              "attack": {"p": "2", "beta": 0.0}, "lr": 0.001, "epochs": 1,
              "d_z": 8, "dataset": {"kind": "synthetic", "beta": 0.3, "n": 120}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "runs"
    code = main(["sweep", "--config", str(cfg_path), "--seeds", "2",
                 "--out", str(out_dir)])
    assert code == 0
    agg = json.loads(capsys.readouterr().out)
    assert "auc" in agg and "mean" in agg["auc"]
    assert (out_dir / "sweep_summary.json").exists()


@pytest.mark.parametrize("kind", ["synthetic", "tabular"])
def test_sweep_writes_each_seed_as_it_finishes(tmp_path, capsys, monkeypatch, kind):
    doc = dict(_SMALL, seed=3)
    if kind == "tabular":  # no ground-truth blocks, so no dcor values
        doc["dataset"] = {"kind": "tabular", "paths": {
            "train": _write_tabular(tmp_path / "feats.csv", 120, 3, seed=2)}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    out_dir = tmp_path / "runs"
    reports, seen = _record_reports(monkeypatch, carr.trainer, out_dir)
    assert main(["sweep", "--config", str(cfg_path), "--seeds", "2",
                 "--out", str(out_dir)]) == 0, capsys.readouterr().err
    # a seed's report and row are written before the next seed runs, and
    # the summary last
    assert seen == [[], ["aggregate.csv", "run_seed3.json"]]
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "aggregate.csv", "run_seed3.json", "run_seed4.json", "sweep_summary.json"]
    with open(out_dir / "aggregate.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "mode", "p", "seed", "auc", "acc", "adv_auc",
                       "adv_acc", "dcor_pa", "dcor_nd", "dcor_dc"]
    assert len(rows) == 1 + len(reports) == 3
    for row, report in zip(rows[1:], reports):
        cfg = report["config"]
        assert row == [cfg["method"], cfg["training_mode"], cfg["eval_attack"]["p"],
                       str(cfg["seed"])] + ["" if v is None else str(v)
                                            for v in report["metrics"].values()]
        on_disk = json.loads((out_dir / f"run_seed{cfg['seed']}.json").read_text())
        assert on_disk == json.loads(json.dumps(report))
    assert (reports[0]["metrics"]["dcor_pa"] is None) == (kind == "tabular")


def test_sweep_into_another_aggregate_header_exit_2(tmp_path, capsys):
    # rows used to be appended under whatever header the file had
    out_dir = tmp_path / "runs"
    out_dir.mkdir()
    agg = out_dir / "aggregate.csv"
    agg.write_text("method,seed,auc\ncarr,0,0.9\n")
    before = agg.read_bytes()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_SMALL))
    assert main(["sweep", "--config", str(cfg_path), "--seeds", "2",
                 "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert ("header 'method,seed,auc' differs from the row's "
            "'method,mode,p,seed,auc,acc,adv_auc,adv_acc,dcor_pa,dcor_nd,dcor_dc'") in err
    assert agg.read_bytes() == before


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_sweep_without_seeds_exit_2(tmp_path, capsys, seeds):
    # used to exit 1 with "list index out of range"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_SMALL))
    out_dir = tmp_path / "runs"
    assert main(["sweep", "--config", str(cfg_path), "--seeds", seeds,
                 "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "n_seeds must be at least 1" in err
    assert not out_dir.exists()


def test_audit_dpi_ok(capsys):
    assert main(["audit", "--what", "dpi", "--trials", "20", "--seed", "0"]) == 0
    assert "20/20 hold" in capsys.readouterr().out


def test_audit_lemma1_chain_shape_ok(capsys):
    assert main(["audit", "--what", "lemma1", "--trials", "30", "--seed", "0",
                 "--shape", "a"]) == 0
    assert "[ok]" in capsys.readouterr().out


def test_audit_lemma1_confounded_shape_fails(capsys):
    # the confounded graph admits genuine violations; the audit must say so
    assert main(["audit", "--what", "lemma1", "--trials", "30", "--seed", "0",
                 "--shape", "b"]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_run_audit_counts_match_cli():
    failures, worst = run_audit("lemma1", 30, 0, "b")
    assert failures > 0 and worst > 0.1
    failures, worst = run_audit("pns", 20, 0, "a")
    assert failures == 0


def test_audit_negative_trials_exit_2(capsys):
    # it used to print "dpi: -5/-5 hold, worst margin 0.000e+00 [ok]"
    assert main(["audit", "--what", "dpi", "--trials", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trials must be >= 0" in captured.err
    assert run_audit("dpi", 0, 0) == (0, 0.0)


@pytest.mark.parametrize("what", ["dpi", "pns", "gradcheck"])
def test_audit_of_zero_trials_exit_2(monkeypatch, capsys, what):
    # an audit of nothing must not pass; it fails before any suite runs
    monkeypatch.setattr("carr.cli._audit", lambda *a: pytest.fail("suite ran"))
    assert main(["audit", "--what", what, "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: trials must be >= 1" in captured.err


def test_run_audit_rejects_an_unknown_suite():
    with pytest.raises(ConfigurationError, match="unknown audit suite 'everything'"):
        run_audit("everything", 1, 0)


@pytest.mark.parametrize("what", ["dpi", "lemma1", "lemma2", "pns", "gradcheck"])
def test_run_audit_returns_a_count_and_a_margin(what):
    # benchmarks/workloads.py unpacks this pair; seed 0 audits its first pns
    # trial at the fifth
    failures, worst = run_audit(what, 5 if what == "pns" else 2, 0)
    assert isinstance(failures, int) and isinstance(worst, float)
    assert failures == 0 and np.isfinite(worst)


def _audit_line(capsys, what, trials):
    assert main(["audit", "--what", what, "--trials", str(trials), "--seed", "0"]) == 1
    return capsys.readouterr().out.strip()


@pytest.mark.parametrize("rhs", [0.5, float("nan")])
def test_audit_dpi_counts_every_violated_trial(monkeypatch, capsys, rhs):
    # I(x; y) above I(x; z) breaks the inequality along the chain x - z - y;
    # a NaN holds nothing, and stays NaN in the reported worst margin
    info = {("z",): 0.125, ("y",): rhs}
    monkeypatch.setattr(carr.cli.infometrics, "mutual_info",
                        lambda table, a, b: info[b])
    failures, worst = run_audit("dpi", 3, 0)
    assert failures == 3
    assert worst == 0.375 if rhs == 0.5 else np.isnan(worst)
    assert _audit_line(capsys, "dpi", 3) == (
        f"dpi: 0/3 hold, worst margin {worst:.3e} [FAILED]")


@pytest.mark.parametrize("lhs", [0.5, float("nan")])
def test_audit_lemma1_counts_every_violated_trial(monkeypatch, capsys, lhs):
    # I(pa; nd, dc) above I(pa; nd, y) breaks Lemma 1; a NaN holds nothing,
    # and stays NaN in the reported worst margin
    info = {("nd", "dc"): lhs, ("nd", "y"): 0.125}
    monkeypatch.setattr(carr.cli.infometrics, "mutual_info",
                        lambda table, a, b: info[b])
    failures, worst = run_audit("lemma1", 3, 0)
    assert failures == 3
    assert worst == 0.375 if lhs == 0.5 else np.isnan(worst)
    assert _audit_line(capsys, "lemma1", 3) == (
        f"lemma1: 0/3 hold, worst margin {worst:.3e} [FAILED]")


@pytest.mark.parametrize("spoiled", [1, 2])
def test_audit_lemma2_keeps_a_nan_from_either_inequality(monkeypatch, capsys,
                                                         spoiled):
    # one inequality reads NaN, the other holds by a wide margin; the NaN
    # fails the trial and stays in the reported worst margin, and in the
    # second inequality's own margin when it is the second's
    nan = float("nan")
    info = {("nd", "dc"): nan if spoiled == 1 else 0.0,
            ("y",): nan if spoiled == 2 else 0.0, ("nd", "y"): 0.5}
    monkeypatch.setattr(carr.cli.infometrics, "mutual_info",
                        lambda table, a, b: info[b])
    failures, worst = run_audit("lemma2", 3, 0)
    assert failures == 3 and np.isnan(worst)
    own = "nan" if spoiled == 2 else "0.000e+00"
    assert _audit_line(capsys, "lemma2", 3) == (
        f"lemma2: 0/3 hold, worst margin nan, inequality 2 alone {own} [FAILED]")


@pytest.mark.parametrize("shift", [0.25, float("nan")])
def test_audit_pns_counts_every_failed_trial(monkeypatch, capsys, shift):
    # an alternative term that misses the identity by `shift`; trials whose
    # query has no answer are skipped
    pns, answered = carr.cli.infometrics.pns, []

    def shifted(*args, **kw):
        suff, nec, combined, alt = pns(*args, **kw)
        answered.append(alt)
        return suff, nec, combined, alt + shift

    monkeypatch.setattr(carr.cli.infometrics, "pns", shifted)
    failures, worst = run_audit("pns", 10, 0)
    assert failures == len(answered) > 0
    assert abs(worst - 0.25) < 1e-10 if shift == 0.25 else np.isnan(worst)
    assert _audit_line(capsys, "pns", 10) == (
        f"pns: 0/{failures} hold, {10 - failures} skipped (zero-probability event), "
        f"worst margin {worst:.3e} [FAILED]")


def test_audit_pns_counts_audited_and_skipped_trials(capsys):
    assert carr.cli._audit("pns", 10, 0) == (*run_audit("pns", 10, 0), 4, None)
    assert main(["audit", "--what", "pns", "--trials", "10", "--seed", "0"]) == 0
    assert capsys.readouterr().out.startswith(
        "pns: 4/4 hold, 6 skipped (zero-probability event), worst margin ")


def test_audit_returns_lemma2s_second_margin_alone(capsys):
    failures, worst, audited, worst2 = carr.cli._audit("lemma2", 5, 0, "b")
    assert (failures, worst) == run_audit("lemma2", 5, 0, "b") and audited == 5
    assert abs(worst2) < 1e-12 and worst2 <= worst
    assert main(["audit", "--what", "lemma2", "--trials", "5", "--seed", "0",
                 "--shape", "b"]) == 0
    assert capsys.readouterr().out == (
        f"lemma2: 5/5 hold, worst margin {worst:.3e}, "
        f"inequality 2 alone {worst2:.3e} [ok]\n")
    assert all(carr.cli._audit(what, 2, 0)[3] is None
               for what in ("dpi", "lemma1", "pns", "gradcheck"))


def test_audit_help_says_which_suites_check_theorems(capsys):
    assert main(["audit", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert ("dpi (the data-processing inequality) and lemma2 (a consequence of "
            "the chain rule) check theorems that hold for every table, so they "
            "test mutual_info's arithmetic, not a claim of the paper") in text


def test_audit_that_audits_no_trial_fails(capsys):
    # seed 0's first two pns models each have a zero-probability event
    assert _audit_line(capsys, "pns", 2) == (
        "pns: 0/0 hold, 2 skipped (zero-probability event), "
        "worst margin 0.000e+00 [FAILED]")


@pytest.mark.parametrize("what, trials", [("dpi", 3), ("lemma1", 3), ("pns", 10)])
def test_audits_run_no_check_on_drawn_models(monkeypatch, what, trials):
    # a drawn model or chain passes its constructor's checks by construction
    # (tests/test_oracle_properties.py), so the audits skip them; a joint
    # table built by enumerate_joint comes from a model that was checked
    # once and is frozen since, so it is not checked either
    counts = {"scm": 0, "table": 0, "joint": 0}

    def counted(key, fn):
        def wrapper(*args, **kw):
            counts[key] += 1
            return fn(*args, **kw)
        return wrapper

    monkeypatch.setattr(carr.scm.DiscreteSCM, "__post_init__",
                        counted("scm", carr.scm.DiscreteSCM.__post_init__))
    monkeypatch.setattr(JointTable, "__post_init__",
                        counted("table", JointTable.__post_init__))
    joint = counted("joint", carr.scm.enumerate_joint)
    monkeypatch.setattr(carr.scm, "enumerate_joint", joint)
    monkeypatch.setattr(carr.cli.infometrics, "enumerate_joint", joint)
    run_audit(what, trials, 0)
    assert counts["scm"] == counts["table"] == 0
    assert (counts["joint"] > 0) == (what != "dpi")


def test_audits_plan_a_handful_of_marginals(monkeypatch):
    # every table of one suite has the same names, so the plan cache holds
    # one entry per variable tuple that the suites ask for: dpi 5 over
    # (x, z, y), and 7 over (pa, nd, y, dc) that the lemma and pns suites share
    monkeypatch.setattr(carr.infometrics, "_PLANS", {})
    for what in ("dpi", "lemma1", "lemma2", "pns"):
        for shape in "ab":
            run_audit(what, 10, 0, shape)
    assert len(carr.infometrics._PLANS) == 12


@pytest.mark.parametrize("spoil", [1.0, float("nan")])
def test_audit_gradcheck_counts_every_failed_trial(monkeypatch, capsys, spoil):
    # one analytic coordinate off by `spoil`; a NaN used to read as holding
    def spoiled(*args, **kw):
        breakdown, grad = loss_and_grads(*args, **kw)
        grad[7] += spoil
        return breakdown, grad

    monkeypatch.setattr(carr.cli, "loss_and_grads", spoiled)
    failures, worst = run_audit("gradcheck", 2, 0)
    assert failures == 2
    assert worst > 1e-4 if spoil == 1.0 else np.isnan(worst)
    assert _audit_line(capsys, "gradcheck", 2) == (
        f"gradcheck: 0/2 hold, worst margin {worst:.3e} [FAILED]")


def test_audit_gradcheck_small(capsys):
    assert main(["audit", "--what", "gradcheck", "--trials", "2", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "2/2 hold" in out


def test_audit_gradcheck_is_the_same_at_every_chunk_size(monkeypatch):
    # each row's loss is its own per-slice product whatever the chunk
    # width, and the max over coordinates is exact, so the chunk bound
    # moves no bit of the result
    widths = []

    def counted(params, vecs, *args, **kw):
        widths.append(vecs.shape[0] // 2)
        return loss_values(params, vecs, *args, **kw)

    monkeypatch.setattr(carr.cli, "loss_values", counted)
    committed, results = carr.numkit._CHUNK_BYTES, []
    for bound in (2 << 20, committed, 1):  # 1: one coordinate a chunk
        monkeypatch.setattr(carr.numkit, "_CHUNK_BYTES", bound)
        widths.clear()
        results.append([run_audit("gradcheck", 1, seed) for seed in range(8)])
        if bound == committed:
            # a trial's P = 1160 coordinates take 21 calls of at most 56
            assert (len(widths), max(widths)) == (8 * 21, 56)
    assert results[0] == results[1] == results[2]
    assert all(failures == 0 for failures, _ in results[0])


@pytest.mark.parametrize("args, message", [
    (["--beta", "inf"], "beta must be finite"),
    (["--beta", "nan"], "beta must be finite"),
    (["--C", "nan"], "C must be finite"),
    (["--m-grid", "inf"], "--m-grid entries must be whole numbers"),
    (["--m-grid", "1e4,1.5"], "--m-grid entries must be whole numbers"),
    (["--m-grid", "1e4,-5"], "m must be >= 1"),
    (["--C", "1e308"], "the general sample threshold overflows a float"),
    (["--C", "5e306", "--card-z", "1", "--beta", "2"],
     "the ideal sample threshold overflows a float"),
])
def test_bound_bad_argument_exit_2_before_the_table(capsys, args, message):
    # inf used to exit 1 after the header, and a bad last m after its rows;
    # a huge finite C overflowed the thresholds, also after the header
    assert main(["bound", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and message in captured.err


def test_bound_table(capsys):
    assert main(["bound", "--m-grid", "1e4,1e6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    values = [float(tok) for tok in lines[2].split()]
    assert values[0] == 1e6
    assert np.isfinite(values[3:]).all()


def test_usage_errors_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["audit", "--what", "everything"]) == 2
    capsys.readouterr()

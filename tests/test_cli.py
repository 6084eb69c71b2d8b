"""Command-line surface: exit codes, outputs, and the seed override."""

import json

import numpy as np
import pytest

import carr.trainer
from carr.cli import main, run_audit


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


def test_train_from_config(tmp_path, capsys):
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
    code = main(["train", "--config", str(cfg_path), "--out", str(report_path)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads(report_path.read_text())
    assert printed == on_disk["metrics"]
    assert on_disk["config"]["epochs"] == 2


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
        "kind": "tabular", "paths": {"all": str(tmp_path / "labels.csv")}})
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "the header names no feature" in err
    assert not out.exists()


def test_train_tabular_all_file_exit_0(tmp_path, capsys):
    # one "all" file is split 80/10/10 like a synthetic dataset
    rng = np.random.default_rng(2)
    x = rng.normal(size=(200, 3))
    rows = "".join(f"{a:.6f},{b:.6f},{c:.6f},{int(a + b > 0)}\n" for a, b, c in x)
    (tmp_path / "feats.csv").write_text("f_0,f_1,f_2,label\n" + rows)
    code, out = _train_file_backed(tmp_path, {
        "kind": "tabular", "paths": {"all": str(tmp_path / "feats.csv")}})
    assert code == 0, capsys.readouterr().err
    assert 0.0 <= json.loads(out.read_text())["metrics"]["auc"] <= 1.0


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


def test_audit_gradcheck_small(capsys):
    assert main(["audit", "--what", "gradcheck", "--trials", "2", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "2/2 hold" in out


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

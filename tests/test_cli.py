"""Command-line surface: exit codes, outputs, and the seed override."""

import json

import numpy as np
import pytest

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
    # n=6 leaves one class in the test split: AUC is undefined, which is a
    # runtime failure, not a configuration error
    config = {"method": "base", "training_mode": "standard",
              "attack": {"p": "2", "beta": 0.0}, "epochs": 1, "d_z": 8,
              "dataset": {"kind": "synthetic", "beta": 0.3, "n": 6}}
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


def test_audit_gradcheck_small(capsys):
    assert main(["audit", "--what", "gradcheck", "--trials", "2", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "2/2 hold" in out


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

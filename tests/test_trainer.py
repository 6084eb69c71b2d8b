"""Training-loop tests: config plumbing, optimization sanity, ablation
identities between methods, determinism, and sweep aggregation."""

import dataclasses
import json

import numpy as np
import pytest

from carr import model, objective
from carr.attack import AttackSpec
from carr.bounds import BoundInputs
from carr.dataio import DatasetSpec, Split
from carr.numkit import ConfigurationError, Rng
from carr.scm import SynthConfig
from carr.trainer import (
    MetricsReport,
    RunConfig,
    TrainingError,
    _resolve_dataset,
    evaluate,
    run_experiment,
    sweep,
    train,
)

SMALL = {"kind": "synthetic", "beta": 0.3, "n": 200}


def _cfg(**kw):
    kw.setdefault("dataset", dict(SMALL))
    kw.setdefault("lr", 0.001)
    kw.setdefault("epochs", 8)
    kw.setdefault("d_z", 16)
    return RunConfig(**kw)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(method="vae")
    with pytest.raises(ConfigurationError):
        RunConfig(training_mode="hardened")
    with pytest.raises(ConfigurationError):  # standard mode with a live attack
        RunConfig(training_mode="standard", attack=AttackSpec(p="2", beta=0.3))
    with pytest.raises(ConfigurationError):  # robust mode without one
        RunConfig(training_mode="robust", attack=AttackSpec(p="2", beta=0.0))


@pytest.mark.parametrize("name, value", [
    ("d_z", 0), ("d_z", -4), ("batch_size", 0), ("epochs", 0), ("epochs", -1),
    ("patience", -1), ("patience", -3),
])
def test_config_rejects_out_of_range_sizes(name, value):
    # d_z 0 trained a degenerate model, epochs -1 reported the untrained one,
    # patience -3 stopped after epoch 0 and batch_size 0 failed only after
    # the data had been generated
    with pytest.raises(ConfigurationError, match=f"{name} must be at least"):
        RunConfig(**{name: value})


def test_config_accepts_smallest_sizes():
    cfg = RunConfig(d_z=1, batch_size=1, epochs=1, patience=0)
    assert (cfg.d_z, cfg.batch_size, cfg.epochs, cfg.patience) == (1, 1, 1, 0)


def test_config_numbers_typed():
    # an int is a float here, numpy scalars are numbers, a bool is neither
    cfg = RunConfig(lr=1, lam=np.float64(0.01), seed=np.int64(3),
                    attack=AttackSpec(p="2", beta=1, step_size=np.float32(0.1)))
    assert cfg.lr == 1 and cfg.seed == 3
    with pytest.raises(ConfigurationError, match="lr must be a number"):
        RunConfig(lr=False)
    with pytest.raises(ConfigurationError, match="epochs must be an int"):
        RunConfig(epochs=np.float64(2.0))
    with pytest.raises(ConfigurationError, match="beta must be a number"):
        AttackSpec(p="2", beta="0.3")


@pytest.mark.parametrize("cls, required", [
    (RunConfig, {}), (AttackSpec, {}), (SynthConfig, {}), (BoundInputs, {"m": 10}),
    (DatasetSpec, {"kind": "tabular", "paths": {"train": "a.csv"}}),
], ids=["RunConfig", "AttackSpec", "SynthConfig", "BoundInputs", "DatasetSpec"])
def test_every_scalar_config_field_is_type_checked(cls, required):
    # a float, int or bool field added without its check fails here, as
    # stop_grad_negative and shared_noise did (a string "false" read as true)
    checked = 0
    for f in dataclasses.fields(cls):
        assert isinstance(f.type, str)  # the module postpones annotations
        declared = {name.strip() for name in f.type.split("|")}
        if declared & {"float", "int"}:
            wrong = ["1", True]
        elif "bool" in declared:
            wrong = ["false", 0]
        else:
            continue
        for value in wrong:
            with pytest.raises(ConfigurationError, match=f"^{f.name} must be"):
                cls(**{**required, f.name: value})
        checked += 1
    assert checked > 0


def test_config_dict_round_trip():
    cfg = _cfg(method="ib", training_mode="standard",
               attack=AttackSpec(p="2", beta=0.0), seed=3)
    doc = dataclasses.asdict(cfg)
    assert RunConfig.from_dict(doc) == cfg
    assert json.loads(json.dumps(doc)) == doc  # JSON-serializable

    with pytest.raises(ConfigurationError):
        RunConfig.from_dict({"methd": "carr"})
    with pytest.raises(ConfigurationError):
        RunConfig.from_dict({"attack": {"p": "2", "beta": 0.3, "radius": 1}})


def _toy_gaussians(n=120, seed=0):
    """Linearly separable two-Gaussian toy set."""
    rng = Rng(seed, stream=40)
    x0 = rng.normal(size=(n // 2, 4)) - 1.5
    x1 = rng.normal(size=(n // 2, 4)) + 1.5
    x = np.concatenate([x0, x1])
    y = np.concatenate([np.zeros(n // 2, dtype=int), np.ones(n // 2, dtype=int)])
    return Split(x=x, y=y)


def test_base_standard_loss_decreases_on_toy_data():
    cfg = RunConfig(method="base", training_mode="standard",
                    attack=AttackSpec(p="2", beta=0.0), lr=0.001, epochs=10,
                    d_z=8, dataset=dict(SMALL))
    _, history = train(cfg, _toy_gaussians())
    assert history[-1]["total"] < history[0]["total"]


def test_history_structure_and_val_auc():
    cfg = _cfg(method="carr", epochs=5, patience=5)
    split = _toy_gaussians(seed=1)
    params, history = train(cfg, split, split)
    assert len(history) == 5
    for entry in history:
        assert np.isfinite([entry["total"], entry["positive_ll"], entry["kl"],
                            entry["negative_ll"]]).all()
        assert 0.0 <= entry["val_auc"] <= 1.0


def test_early_stopping_truncates_history():
    # a vanishing learning rate freezes validation AUC, so patience=0 stops
    # the loop at the first non-improving epoch
    cfg = _cfg(method="base", training_mode="standard",
               attack=AttackSpec(p="2", beta=0.0), lr=1e-9, epochs=30, patience=0)
    split = _toy_gaussians(seed=2)
    _, history = train(cfg, split, split)
    assert len(history) < 30


def test_empty_validation_split_trains_like_none():
    # an empty split used to restore the initial parameters after training
    cfg = _cfg(method="carr", epochs=3)
    split = _toy_gaussians(seed=5)
    empty = split.take(np.arange(0))
    params, history = train(cfg, split, empty)
    ref_params, ref_history = train(cfg, split, None)
    assert np.array_equal(params.flat, ref_params.flat)
    assert history == ref_history


def test_encoder_runs_once_per_batch(monkeypatch):
    # the toy features are 4 wide and d_z is 16, so only the encoder's
    # hidden layer takes 4 inputs
    in_dims = []
    for module in (model, objective):
        def counted(layer, x, forward=module.dense_forward):
            in_dims.append(layer.in_dim)
            return forward(layer, x)
        monkeypatch.setattr(module, "dense_forward", counted)
    train(_cfg(method="carr", epochs=1, batch_size=32), _toy_gaussians(n=128))
    assert in_dims.count(4) == 128 // 32


@pytest.mark.parametrize("stop_grad_negative", [True, False])
def test_a_carr_run_lays_the_model_a_fixed_number_of_times(monkeypatch,
                                                          stop_grad_negative):
    # once in init_params and once for the step's gradient buffer: a robust
    # carr step's negative branch lays no model of its own
    over = model.ModelParams.over
    calls = []

    def counted(self, *args, **kw):
        calls.append(1)
        return over(self, *args, **kw)

    monkeypatch.setattr(model.ModelParams, "over", counted)
    counts = []
    for epochs in (1, 3):  # 4 and 12 steps
        calls.clear()
        train(_cfg(method="carr", epochs=epochs, batch_size=32,
                   stop_grad_negative=stop_grad_negative), _toy_gaussians(n=128))
        counts.append(len(calls))
    assert counts == [2, 2]


def test_divergence_raises_training_error():
    cfg = RunConfig(method="base", training_mode="standard",
                    attack=AttackSpec(p="2", beta=0.0), lr=1e4, epochs=10,
                    d_z=8, dataset=dict(SMALL))
    split = _toy_gaussians(seed=3)
    with np.errstate(all="ignore"), pytest.raises(TrainingError):
        train(cfg, split, split)


def test_run_experiment_deterministic():
    cfg = _cfg(method="carr", seed=4, epochs=4)
    first = run_experiment(cfg)
    second = run_experiment(RunConfig.from_dict(first["config"]))
    assert first["metrics"] == second["metrics"]  # bit-exact replay
    assert first["config"] == dataclasses.asdict(cfg)


def test_carr_zero_neg_weight_reproduces_rcvae():
    a = run_experiment(_cfg(method="carr", neg_weight=0.0, seed=5, epochs=4))
    b = run_experiment(_cfg(method="rcvae", seed=5, epochs=4))
    assert a["metrics"] == b["metrics"]


def test_rcvae_zero_lambda_standard_reproduces_base():
    kw = dict(training_mode="standard", attack=AttackSpec(p="2", beta=0.0),
              seed=6, epochs=4)
    a = run_experiment(_cfg(method="rcvae", lam=0.0, **kw))
    b = run_experiment(_cfg(method="base", **kw))
    assert a["metrics"] == b["metrics"]


@pytest.mark.parametrize("stop_grad_negative", [True, False])
def test_carr_positive_ll_collapses_with_either_stop_grad_setting(stop_grad_negative):
    # README's reproducibility note: keeping the negative term's gradient out
    # of the encoder does not stop the collapse (positive_ll is about -22 at
    # epoch 10 with it and -105 without)
    cfg = RunConfig(method="carr", training_mode="standard",
                    attack=AttackSpec(p="2", beta=0.0), lr=1e-3, seed=0, epochs=10,
                    stop_grad_negative=stop_grad_negative,
                    dataset={"kind": "synthetic", "beta": 0.3, "n": 500})
    train_split, *_ = _resolve_dataset(cfg)
    _, history = train(cfg, train_split)  # no validation, so no early stop
    assert len(history) == 10
    assert history[-1]["positive_ll"] < -5


def test_evaluate_reports_dcor_for_synthetic_only():
    cfg = _cfg(method="base", training_mode="standard",
               attack=AttackSpec(p="2", beta=0.0), epochs=2)
    report = run_experiment(cfg)
    m = report["metrics"]
    assert all(m[k] is not None for k in ("dcor_pa", "dcor_nd", "dcor_dc"))
    assert all(0.0 <= m[k] <= 1.0 for k in ("auc", "acc", "adv_auc", "adv_acc"))

    split = _toy_gaussians(seed=7)
    params, _ = train(cfg, split)
    metrics = evaluate(params, split, cfg.eval_attack)
    assert isinstance(metrics, MetricsReport)
    assert metrics.dcor_pa is None


def test_adversarial_metrics_not_above_clean():
    report = run_experiment(_cfg(method="carr", seed=8, epochs=6))
    m = report["metrics"]
    assert m["adv_auc"] <= m["auc"] + 1e-9


def test_sweep_aggregation(tmp_path):
    cfg = _cfg(method="ib", training_mode="standard",
               attack=AttackSpec(p="2", beta=0.0), epochs=2, seed=10)
    result = sweep(cfg, n_seeds=2, out_dir=tmp_path)
    agg = result["summary"]["aggregate"]
    assert set(agg) >= {"auc", "acc", "adv_auc", "adv_acc", "dcor_pa"}
    aucs = [r["metrics"]["auc"] for r in result["reports"]]
    assert abs(agg["auc"]["mean"] - np.mean(aucs)) < 1e-12
    assert abs(agg["auc"]["std"] - np.std(aucs)) < 1e-12
    assert (tmp_path / "run_seed10.json").exists()
    assert (tmp_path / "run_seed11.json").exists()
    assert (tmp_path / "sweep_summary.json").exists()
    agg_rows = (tmp_path / "aggregate.csv").read_text().splitlines()
    assert len(agg_rows) == 3  # header + one row per seed


def test_file_backed_synthetic_dataset(tmp_path):
    from carr.dataio import write_csv
    from carr.scm import SynthConfig, generate

    path = tmp_path / "synth.csv"
    write_csv(generate(SynthConfig(beta=0.3, n=200, seed=0)), path)
    cfg = _cfg(method="base", training_mode="standard",
               attack=AttackSpec(p="2", beta=0.0), epochs=2,
               dataset={"kind": "synthetic_csv", "paths": {"train": str(path)}})
    report = run_experiment(cfg)
    assert 0.0 <= report["metrics"]["auc"] <= 1.0


@pytest.mark.parametrize("given", [(), ("val",), ("test",), ("val", "test")])
def test_file_backed_splits_carve_only_what_is_missing(tmp_path, given):
    # no val/test file: 80/10/10 of train; one of them: 90/10, so no carved
    # part is thrown away; both: train is used whole
    from carr.dataio import write_csv
    from carr.scm import SynthConfig, generate

    paths = {}
    for i, name in enumerate(("train", *given)):
        paths[name] = str(tmp_path / f"{name}.csv")
        write_csv(generate(SynthConfig(n=200 if name == "train" else 30, seed=i)),
                  paths[name])
    cfg = _cfg(dataset={"kind": "synthetic_csv", "paths": paths})
    train_split, val, test = _resolve_dataset(cfg)
    assert len(train_split) == (160, 180, 200)[len(given)]
    for part, prefix in ((val, "val"), (test, "test")):
        assert len(part) == (30 if prefix in given else 20)
    full = generate(SynthConfig(n=200, seed=0)).x
    rows = np.vstack([train_split.x] + [part.x for part in (val, test)
                                        if len(part) != 30])
    # the carved parts and train partition the train file (CSV keeps 9 digits)
    assert np.allclose(np.sort(rows, axis=0), np.sort(full, axis=0), rtol=1e-8)


def test_one_class_check_passes_an_empty_val_split(tmp_path):
    # 90% of a 4-row train file keeps every row, so the carved val is empty
    for name, body in (("train", "0.1,1\n0.2,0\n0.3,1\n0.4,0\n"),
                       ("test", "0.5,1\n0.6,0\n")):
        (tmp_path / f"{name}.csv").write_text("f_0,label\n" + body)
    cfg = _cfg(dataset={"kind": "tabular", "paths": {
        name: str(tmp_path / f"{name}.csv") for name in ("train", "test")}})
    train_split, val, test = _resolve_dataset(cfg)
    assert (len(train_split), len(val), len(test)) == (4, 0, 2)


def test_unknown_dataset_keys_rejected():
    with pytest.raises(ConfigurationError):
        run_experiment(_cfg(dataset={"kind": "synthetic", "beta": 0.3, "n": 50,
                                     "rows": 10}, epochs=1))

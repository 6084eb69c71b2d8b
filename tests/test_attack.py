"""Perturbation tests: projections, PGD contracts and its 1-D closed form,
and uniform ball sampling."""

import numpy as np
import pytest

import carr.attack
import carr.numkit
from carr.attack import AttackSpec, _row_norms, pgd_attack, project, random_ball
from carr.model import (
    ModelParams,
    init_params,
    predictor_xent,
    predictor_xent_backward,
    predictor_xent_grad,
)
from carr.numkit import DenseLayer, Rng


def reference_pgd(params, z0_batch, y_batch, spec):
    """PGD with a full predictor backward on all steps + 1 passes,
    ``np.linalg.norm`` row norms and a boolean-mask copy of the best
    iterate: the plain form :func:`pgd_attack` must equal bit for bit."""
    z0 = np.asarray(z0_batch, dtype=float)
    y = np.asarray(y_batch, dtype=int)
    if spec.beta == 0.0 or spec.steps == 0:
        return z0.copy()
    delta = np.zeros_like(z0)
    best_delta = delta.copy()
    best_loss = np.full(z0.shape[0], -np.inf)
    for k in range(spec.steps + 1):
        loss, cache = predictor_xent(params, z0 + delta, y)
        grad = predictor_xent_backward(params, cache, None)[0]
        improved = loss > best_loss
        best_delta[improved] = delta[improved]
        best_loss = np.maximum(best_loss, loss)
        if k == spec.steps:
            break
        if spec.p == "inf":
            direction = np.sign(grad)
        else:
            norms = np.linalg.norm(grad, axis=1, keepdims=True)
            direction = grad / np.maximum(norms, 1e-300)
        delta = delta + spec.effective_step * direction
        if spec.p == "inf":
            delta = np.clip(delta, -spec.beta, spec.beta)
        else:
            norms = np.linalg.norm(delta, axis=1, keepdims=True)
            delta = delta * np.where(norms > spec.beta,
                                     spec.beta / np.maximum(norms, 1e-300), 1.0)
    return z0 + best_delta


def test_attack_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec(p="1", beta=0.1)
    with pytest.raises(ValueError):
        AttackSpec(p="2", beta=-0.1)
    with pytest.raises(ValueError):
        AttackSpec(p="2", beta=0.1, steps=-1)
    with pytest.raises(ValueError):
        AttackSpec(p="2", beta=0.1, step_size=0.0)
    assert AttackSpec(p="2", beta=0.1, steps=np.int64(3)).steps == 3
    assert AttackSpec(p="inf", beta=0.2, steps=8).effective_step == 2.5 * 0.2 / 8


@pytest.mark.parametrize("kw", [
    {"beta": float("nan")}, {"beta": float("inf")},
    {"beta": 0.3, "step_size": float("nan")}, {"beta": 0.3, "step_size": float("inf")},
    {"beta": 0.3, "steps": 2.5}, {"beta": 0.3, "steps": True}, {"beta": 0.3, "steps": "3"},
])
def test_attack_spec_rejects_non_finite_and_non_int(kw):
    # a NaN radius or step would make PGD return z0 unattacked
    with pytest.raises(ValueError):
        AttackSpec(p="2", **kw)


def test_project_inf_clips():
    delta = np.array([[0.5, -0.9], [0.1, 0.0]])
    out = project(delta, "inf", 0.3)
    assert np.allclose(out, [[0.3, -0.3], [0.1, 0.0]])


def test_project_l2_rescales():
    delta = np.array([[3.0, 4.0], [0.1, 0.0]])
    out = project(delta, "2", 1.0)
    assert np.allclose(out[0], [0.6, 0.8])  # norm 5 row scaled onto the sphere
    assert np.allclose(out[1], [0.1, 0.0])  # interior row untouched


@pytest.mark.parametrize("p", ["1", "0", "l2", 2, None])
def test_project_rejects_unknown_norm(p):
    # any order but "inf" used to be projected as L2
    with pytest.raises(ValueError):
        project(np.array([[3.0, 4.0]]), p, 1.0)


@pytest.mark.parametrize("beta", [0.0, 1e-310, 1e-300, 0.3, 1e300])
def test_project_l2_matches_the_where_form_on_edge_rows(beta):
    tiny = np.finfo(float).smallest_subnormal
    delta = np.array([[np.nan, 1.0, 0.0], [np.inf, 1.0, 0.0], [0.0, -0.0, 0.0],
                      [tiny, 0.0, -tiny], [1e-305, 2e-305, 0.0], [3.0, 4.0, 0.0],
                      [0.1, -0.2, 0.05], [1e200, 1e200, 0.0], [1e-310, 0.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(delta, axis=1, keepdims=True)
        want = delta * np.where(norms > beta, beta / np.maximum(norms, 1e-300), 1.0)
        assert project(delta, "2", beta).tobytes() == want.tobytes()


def test_project_leaves_its_input_alone():
    delta = np.array([[3.0, 4.0], [0.5, -0.9]])
    before = delta.copy()
    for p in ("2", "inf"):
        project(delta, p, 0.3)
        assert np.array_equal(delta, before)


def _per_row_xent(params, z, y):
    return predictor_xent_grad(params, z, y)[0]


def _rand_setup(seed, n=8, d_z=4):
    rng = Rng(seed, stream=30)
    params = init_params(rng, d_in=3, d_z=d_z)
    z0 = rng.uniform(-1, 1, size=(n, d_z))
    y = rng.integers(0, 2, size=n)
    return params, z0, y


@pytest.mark.parametrize("p", ["2", "inf"])
def test_pgd_stays_in_ball(p):
    for seed in range(5):
        params, z0, y = _rand_setup(seed)
        spec = AttackSpec(p=p, beta=0.3, steps=10)
        delta = pgd_attack(params, z0, y, spec) - z0
        if p == "inf":
            assert np.abs(delta).max() <= 0.3 + 1e-9
        else:
            assert np.linalg.norm(delta, axis=1).max() <= 0.3 + 1e-9


def test_pgd_never_decreases_attacker_loss():
    params, z0, y = _rand_setup(7)
    spec = AttackSpec(p="2", beta=0.3, steps=10)
    z_adv = pgd_attack(params, z0, y, spec)
    assert (_per_row_xent(params, z_adv, y) >= _per_row_xent(params, z0, y) - 1e-12).all()


def test_pgd_monotone_in_steps():
    params, z0, y = _rand_setup(8)
    losses = []
    for steps in (1, 3, 10):
        z_adv = pgd_attack(params, z0, y, AttackSpec(p="2", beta=0.3, steps=steps))
        losses.append(_per_row_xent(params, z_adv, y).mean())
    assert losses[0] <= losses[1] + 1e-12 <= losses[2] + 2e-12


def test_pgd_zero_radius_is_identity():
    params, z0, y = _rand_setup(9)
    out = pgd_attack(params, z0, y, AttackSpec(p="2", beta=0.0, steps=10))
    assert np.array_equal(out, z0)
    assert out is not z0
    out = pgd_attack(params, z0, y, AttackSpec(p="inf", beta=0.3, steps=0))
    assert np.array_equal(out, z0)


def test_pgd_deterministic():
    params, z0, y = _rand_setup(10)
    spec = AttackSpec(p="inf", beta=0.2, steps=10)
    assert np.array_equal(pgd_attack(params, z0, y, spec),
                          pgd_attack(params, z0, y, spec))


def _linear_1d_params():
    """Predictor that is exactly linear on the attack ball.

    The hidden pre-activation w*z + c stays positive for |z| <= 2 thanks to
    the large bias, so the ELU acts as identity and the logit margin is an
    affine function of z.
    """
    return ModelParams(
        enc_hidden=DenseLayer(np.zeros((64, 1)), np.zeros(64), "elu"),
        enc_head=DenseLayer(np.zeros((2, 64)), np.zeros(2), "identity"),
        pred_hidden=DenseLayer(np.array([[1.5]]), np.array([10.0]), "elu"),
        pred_out=DenseLayer(np.array([[0.7], [-0.4]]), np.array([0.1, -0.2]),
                            "identity"),
        d_z=1,
    )


@pytest.mark.parametrize("p", ["2", "inf"])
def test_pgd_matches_1d_closed_form(p):
    params = _linear_1d_params()
    z0 = np.array([[0.3], [-0.5], [1.2]])
    y = np.array([0, 1, 0])
    beta = 0.25
    z_adv = pgd_attack(params, z0, y, AttackSpec(p=p, beta=beta, steps=10))
    # worst case walks against the margin slope (a_y - a_other) * w
    a = np.array([0.7, -0.4])
    slope_sign = np.sign((a[y] - a[1 - y]) * 1.5)
    z_star = z0 - beta * slope_sign[:, None]
    assert np.abs(z_adv - z_star).max() < 1e-6


def test_random_ball_constraints():
    rng = Rng(11)
    z = np.zeros((2000, 6))
    out2 = random_ball(z, "2", 0.4, rng)
    assert np.linalg.norm(out2, axis=1).max() <= 0.4 + 1e-12
    outi = random_ball(z, "inf", 0.4, rng)
    assert np.abs(outi).max() <= 0.4 + 1e-12
    with pytest.raises(ValueError):
        random_ball(z, "0", 0.4, rng)


def test_random_ball_l2_mean_radius():
    # uniform in the d-ball: E[r] = beta * d / (d + 1)
    d, beta = 6, 0.4
    rng = Rng(12)
    out = random_ball(np.zeros((20000, d)), "2", beta, rng)
    radii = np.linalg.norm(out, axis=1)
    expected = beta * d / (d + 1)
    assert abs(radii.mean() - expected) < 0.003


def test_random_ball_zero_radius():
    z = Rng(13).normal(size=(3, 4))
    out = random_ball(z, "2", 0.0, Rng(14))
    assert np.array_equal(out, z)


@pytest.mark.parametrize("p", ["2", "inf"])
@pytest.mark.parametrize("n", [1, 16, 50, 64])
def test_pgd_bit_identical_to_reference(p, n):
    params, z0, y = _rand_setup(n, n, d_z=64)
    spec = AttackSpec(p=p, beta=0.3, steps=10)
    out = pgd_attack(params, z0, y, spec)
    assert out.tobytes() == reference_pgd(params, z0, y, spec).tobytes()
    assert not np.array_equal(out, z0)


@pytest.mark.parametrize("p", ["2", "inf"])
def test_pgd_bit_identical_to_reference_on_the_boundary(p):
    # a step over twice the radius leaves the ball from anywhere inside it,
    # so every row of every iterate is projected back onto the boundary
    params, z0, y = _rand_setup(3, 50, d_z=64)
    spec = AttackSpec(p=p, beta=0.3, steps=6, step_size=1.0)
    out = pgd_attack(params, z0, y, spec)
    assert out.tobytes() == reference_pgd(params, z0, y, spec).tobytes()
    size = (np.abs(out - z0).max(axis=1) if p == "inf"
            else np.linalg.norm(out - z0, axis=1))
    moved = size > 0
    assert moved.sum() > 25
    assert np.abs(size[moved] - 0.3).max() < 1e-12


@pytest.mark.parametrize("steps", [1, 3, 10])
def test_pgd_pass_counts(monkeypatch, steps):
    # steps gradient passes, then one pass that only scores the last iterate
    counts = {"grad": 0, "score": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(carr.attack, "predictor_xent_grad",
                        counting("grad", carr.attack.predictor_xent_grad))
    monkeypatch.setattr(carr.attack, "predictor_xent",
                        counting("score", carr.attack.predictor_xent))
    params, z0, y = _rand_setup(15)
    pgd_attack(params, z0, y, AttackSpec(p="2", beta=0.3, steps=steps))
    assert counts == {"grad": steps, "score": 1}


def _count_passes(monkeypatch):
    counts = {"grad": 0, "score": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(carr.attack, "predictor_xent_grad",
                        counting("grad", carr.attack.predictor_xent_grad))
    monkeypatch.setattr(carr.attack, "predictor_xent",
                        counting("score", carr.attack.predictor_xent))
    return counts


@pytest.mark.parametrize("p", ["2", "inf"])
def test_pgd_stops_at_once_on_a_flat_predictor(monkeypatch, p):
    # zero output weights make every z-gradient exactly 0, so the first
    # step lands on iterate 0 again
    params, z0, y = _rand_setup(17)
    params.pred_out.weights[:] = 0.0
    spec = AttackSpec(p=p, beta=0.3, steps=10)
    counts = _count_passes(monkeypatch)
    out = pgd_attack(params, z0, y, spec)
    assert counts == {"grad": 1, "score": 0}
    assert np.array_equal(out, z0)
    assert out.tobytes() == reference_pgd(params, z0, y, spec).tobytes()


def test_pgd_stops_once_linf_iterate_settles_on_a_corner(monkeypatch):
    # the margin is linear on the ball, so every sign step points the same
    # way: 0.25 * beta a step reaches the corner at iterate 4, and iterate 5
    # repeats it
    params = _linear_1d_params()
    z0 = np.array([[0.3], [-0.5], [1.2]])
    y = np.array([0, 1, 0])
    spec = AttackSpec(p="inf", beta=0.25, steps=10)
    counts = _count_passes(monkeypatch)
    out = pgd_attack(params, z0, y, spec)
    assert counts == {"grad": 5, "score": 0}
    assert out.tobytes() == reference_pgd(params, z0, y, spec).tobytes()
    assert np.array_equal(np.abs(out - z0), np.full((3, 1), 0.25))


def test_row_norms_equal_linalg_norm():
    rng = Rng(16)
    tiny = np.finfo(float).smallest_subnormal
    x = np.vstack([
        np.zeros((2, 5)),
        np.full((1, 5), tiny), [[tiny, 0.0, 3 * tiny, 0.0, 1e-310]],
        1e154 * rng.normal(size=(3, 5)), [[1e154, 0, 0, 0, 0]],
        [[1.3e154, 1.3e154, 0, 0, 0]],  # squares overflow: both give inf
        rng.normal(size=(20, 5)),
    ])
    with np.errstate(over="ignore"):  # the overflowing row, on purpose
        assert _row_norms(x).tobytes() == np.linalg.norm(x, axis=1, keepdims=True).tobytes()


def _plain_exp(x, out=None):
    return np.exp(x, out=out)


@pytest.mark.parametrize("p", ["2", "inf"])
def test_pgd_bit_identical_to_reference_on_a_diverged_predictor(monkeypatch, p):
    # pre-activations past -1000 put most of the ELU backward's exp below its
    # underflow bound; the reference takes np.exp itself
    params, z0, y = _rand_setup(21, 64, d_z=64)
    params.pred_hidden.weights[:] *= 1000.0
    assert (z0 @ params.pred_hidden.weights.T + params.pred_hidden.bias).min() < -1000
    spec = AttackSpec(p=p, beta=0.3, steps=10)
    zeroed = []  # the guarded branch zeroes entries with np.putmask

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def putmask(self, *args):
            zeroed.append(args[1].sum())
            return np.putmask(*args)

    monkeypatch.setattr(carr.numkit, "np", CountingNumpy())
    out = pgd_attack(params, z0, y, spec)
    assert len(zeroed) > 1 and min(zeroed) > 0
    monkeypatch.setattr(carr.numkit, "np", np)
    monkeypatch.setattr(carr.numkit, "_exp", _plain_exp)
    assert out.tobytes() == reference_pgd(params, z0, y, spec).tobytes()
    assert not np.array_equal(out, z0)


def test_pgd_result_outlives_the_next_call():
    # each call sizes its own buffers by the batch and returns a new array
    params, z0, y = _rand_setup(22, 64, d_z=64)
    spec = AttackSpec(p="2", beta=0.3, steps=10)
    first = pgd_attack(params, z0, y, spec)
    kept = first.copy()
    second = pgd_attack(params, z0[:16], y[:16], spec)
    assert first.tobytes() == kept.tobytes()
    assert first.tobytes() == reference_pgd(params, z0, y, spec).tobytes()
    assert second.tobytes() == reference_pgd(params, z0[:16], y[:16], spec).tobytes()


@pytest.mark.parametrize("p", ["2", "inf"])
def test_pgd_raises_on_a_non_finite_gradient(p):
    params, z0, y = _rand_setup(23)
    params.pred_hidden.weights[0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        pgd_attack(params, z0, y, AttackSpec(p=p, beta=0.3, steps=10))


def test_pgd_takes_a_finite_gradient_whose_norm_overflows():
    # every z-gradient entry is finite, but its squares overflow, so the row
    # norms the L2 step computes are inf: no error, and the reference's steps
    params, z0, y = _rand_setup(24, 16, d_z=64)
    params.pred_hidden.weights[:] *= 1e160
    spec = AttackSpec(p="2", beta=0.3, steps=10)
    with np.errstate(over="ignore"):
        grad = predictor_xent_grad(params, z0, y)[1]
        assert np.isfinite(grad).all() and np.isinf(_row_norms(grad)).any()
        out = pgd_attack(params, z0, y, spec)
        assert out.tobytes() == reference_pgd(params, z0, y, spec).tobytes()


@pytest.mark.parametrize("labels", [
    [1],  # one label for six rows used to broadcast
    [0, 1, 1, 0, 1, -1],  # used to be scored as class 1
    [0.5, 1, 0, 0, 1, 1],  # used to be truncated to 0
    [0, 1, 2, 0, 1, 0],
    [[0, 1, 1, 0, 1, 0]],
    [0, 1, 1, 0, 1, 0, 1],
])
@pytest.mark.parametrize("beta", [0.3, 0.0])
def test_pgd_rejects_labels_other_than_one_0_or_1_per_row(labels, beta):
    params, z0, _ = _rand_setup(25, n=6)
    with pytest.raises(ValueError, match="labels"):
        pgd_attack(params, z0, np.array(labels), AttackSpec(p="2", beta=beta))


def test_pgd_takes_bool_and_float_labels_as_ints():
    params, z0, y = _rand_setup(26, n=12)
    spec = AttackSpec(p="2", beta=0.3, steps=5)
    want = pgd_attack(params, z0, y, spec)
    for labels in (y.astype(bool), y.astype(float), list(y)):
        assert pgd_attack(params, z0, labels, spec).tobytes() == want.tobytes()

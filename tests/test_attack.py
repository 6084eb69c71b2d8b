"""Perturbation tests: projections, PGD contracts and its 1-D closed form,
and uniform ball sampling."""

import numpy as np
import pytest

from carr.attack import AttackSpec, pgd_attack, project, random_ball
from carr.model import ModelParams, init_params, predictor_xent_grad
from carr.numkit import DenseLayer, Rng


def test_attack_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec(p="1", beta=0.1)
    with pytest.raises(ValueError):
        AttackSpec(p="2", beta=-0.1)
    with pytest.raises(ValueError):
        AttackSpec(p="2", beta=0.1, steps=-1)
    with pytest.raises(ValueError):
        AttackSpec(p="2", beta=0.1, step_size=0.0)
    assert AttackSpec(p="inf", beta=0.2, steps=8).effective_step == 2.5 * 0.2 / 8


def test_project_inf_clips():
    delta = np.array([[0.5, -0.9], [0.1, 0.0]])
    out = project(delta, "inf", 0.3)
    assert np.allclose(out, [[0.3, -0.3], [0.1, 0.0]])


def test_project_l2_rescales():
    delta = np.array([[3.0, 4.0], [0.1, 0.0]])
    out = project(delta, "2", 1.0)
    assert np.allclose(out[0], [0.6, 0.8])  # norm 5 row scaled onto the sphere
    assert np.allclose(out[1], [0.1, 0.0])  # interior row untouched


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

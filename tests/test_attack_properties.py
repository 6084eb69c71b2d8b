"""Property tests for the perturbations: ball projection, uniform ball
sampling and the monotonicity of PGD.  Examples are derandomized so that
every run draws the same cases.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from carr.attack import AttackSpec, pgd_attack, project, random_ball  # noqa: E402
from carr.model import init_params, predictor_xent_grad  # noqa: E402
from carr.numkit import Rng  # noqa: E402
from test_attack import reference_pgd  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)

seeds = st.integers(0, 2 ** 20)
norms = st.sampled_from(["2", "inf"])
radii = st.floats(0.01, 2.0)


def _row_size(delta, p):
    if p == "inf":
        return np.abs(delta).max(axis=1)
    return np.linalg.norm(delta, axis=1)


@SETTINGS
@given(seeds, st.integers(1, 8), st.integers(1, 6), norms, radii,
       st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
def test_project_into_ball_idempotent_interior_fixed(seed, n, d, p, beta, scale):
    delta = scale * Rng(seed).normal(size=(n, d))
    out = project(delta, p, beta)
    assert (_row_size(out, p) <= beta * (1 + 1e-12)).all()
    again = project(out, p, beta)
    if p == "inf":
        assert np.array_equal(again, out)
    else:  # a rescaled row can sit an ulp outside and be rescaled again
        assert np.abs(again - out).max() <= 1e-12 * beta
    interior = _row_size(delta, p) <= beta
    assert np.array_equal(out[interior], delta[interior])


@SETTINGS
@given(seeds, st.integers(1, 50), st.integers(1, 8), norms, radii)
def test_random_ball_rows_in_ball(seed, n, d, p, beta):
    out = random_ball(np.zeros((n, d)), p, beta, Rng(seed))
    assert out.shape == (n, d)
    assert (_row_size(out, p) <= beta * (1 + 1e-12)).all()


@SETTINGS
@given(seeds, st.integers(1, 8), st.integers(1, 5), norms, radii,
       st.floats(0.01, 1.0), st.lists(st.integers(0, 12), min_size=2, max_size=4))
def test_pgd_loss_never_below_start_and_monotone_in_steps(seed, n, d_z, p, beta,
                                                          step_size, steps):
    # with step_size fixed, the iterates of a shorter run are a prefix of a
    # longer run's, and PGD returns each row's best iterate
    rng = Rng(seed, stream=30)
    params = init_params(rng, d_in=3, d_z=d_z)
    z0 = rng.uniform(-1, 1, size=(n, d_z))
    y = rng.integers(0, 2, size=n)
    start = predictor_xent_grad(params, z0, y)[0]
    prev = start
    for k in sorted(steps):
        spec = AttackSpec(p=p, beta=beta, steps=k, step_size=step_size)
        loss = predictor_xent_grad(params, pgd_attack(params, z0, y, spec), y)[0]
        assert (loss >= start).all()
        assert (loss >= prev).all()
        prev = loss


@SETTINGS
@given(seeds, st.integers(1, 64), st.integers(1, 64), norms, radii,
       st.integers(0, 12), st.one_of(st.none(), st.floats(0.01, 2.0)))
def test_pgd_bit_identical_to_reference(seed, n, d_z, p, beta, steps, step_size):
    rng = Rng(seed, stream=32)
    params = init_params(rng, d_in=3, d_z=d_z)
    z0 = rng.normal(size=(n, d_z))
    y = rng.integers(0, 2, size=n)
    spec = AttackSpec(p=p, beta=beta, steps=steps, step_size=step_size)
    out = pgd_attack(params, z0, y, spec)
    assert out.tobytes() == reference_pgd(params, z0, y, spec).tobytes()

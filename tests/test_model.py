"""Encoder/predictor tests: shapes, reparameterization, the flat parameter
layout, and the predictor's cross-entropy pass."""

import numpy as np
import pytest

from carr.model import (
    LOGVAR_CLAMP,
    ModelParams,
    encode,
    init_params,
    predict,
    predictor_xent,
    predictor_xent_backward,
    predictor_xent_grad,
    softmax,
)
from carr.numkit import ConfigurationError, DenseLayer, Rng, dense_forward, grad_check


def _params(seed=0, d_in=5, d_z=4):
    return init_params(Rng(seed, stream=1), d_in=d_in, d_z=d_z)


def test_vector_round_trip():
    params = _params()
    vec = params.to_vector()
    bumped = vec + 0.25
    params.from_vector(bumped)
    assert np.array_equal(params.to_vector(), bumped)
    with pytest.raises(ConfigurationError):
        params.from_vector(bumped[:-1])


def _direct_params():
    return ModelParams(
        enc_hidden=DenseLayer(np.ones((4, 2)), np.zeros(4), "elu"),
        enc_head=DenseLayer(np.ones((2, 4)), np.zeros(2)),
        pred_hidden=DenseLayer(np.ones((3, 1)), np.zeros(3), "elu"),
        pred_out=DenseLayer(np.ones((2, 3)), np.zeros(2)),
        d_z=1,
    )


@pytest.mark.parametrize("make", [_params, _direct_params], ids=["d_in", "direct"])
def test_arrays_are_views_of_flat(make):
    params = make()
    arrays = [params.enc_hidden, params.enc_head, params.pred_hidden, params.pred_out]
    arrays = [a for layer in arrays for a in (layer.weights, layer.bias)]
    assert params.flat.dtype == np.float64
    assert sum(a.size for a in arrays) == params.flat.size
    assert all(np.shares_memory(a, params.flat) for a in arrays)

    vec = params.to_vector()
    assert not np.shares_memory(vec, params.flat)
    vec[:] = 0.0  # writing the copy leaves the parameters alone
    assert params.flat.any()

    params.from_vector(np.arange(params.flat.size, dtype=float))
    first = params.enc_hidden.weights
    assert first[0, 0] == 0 and first[0, 1] == 1  # layout order
    assert params.pred_out.bias[-1] == params.flat.size - 1


@pytest.mark.parametrize("make", [_params, _direct_params], ids=["d_in", "direct"])
def test_stacked_rows_are_parameter_vectors(make):
    params = make()
    vec = params.to_vector()
    vecs = np.stack([vec, -vec, np.zeros_like(vec)])
    stack = params.stacked(vecs)
    assert stack.flat is vecs
    names = ["enc_hidden", "enc_head", "pred_hidden", "pred_out"]
    for k, vec in enumerate(vecs):
        params.from_vector(vec)
        for name in names:
            layer, row = getattr(params, name), getattr(stack, name)
            assert row.activation == layer.activation
            assert np.array_equal(row.weights[k], layer.weights)
            assert np.array_equal(row.bias[k], layer.bias)
    with pytest.raises(ConfigurationError):
        params.stacked(vecs[:, :-1])


def test_stacked_keeps_layers_below_unchanged_below():
    params = _params()
    size = params.flat.size
    vecs = np.tile(params.flat, (3, 1))
    names = ["enc_hidden", "enc_head", "pred_hidden", "pred_out"]
    weights_stop = params.enc_hidden.weights.size
    stack = params.stacked(vecs, weights_stop)  # enc_hidden's bias is not below
    assert all(getattr(stack, name).weights.ndim == 3 for name in names)
    stack = params.stacked(vecs, weights_stop + params.enc_hidden.bias.size)
    assert stack.enc_hidden is params.enc_hidden
    assert stack.enc_head.weights.ndim == 3
    stack = params.stacked(vecs, size - 1)
    assert [getattr(stack, name) is getattr(params, name) for name in names] == [
        True, True, True, False]
    for bad in (-1, size):
        with pytest.raises(ConfigurationError):
            params.stacked(vecs, bad)


def test_encode_deterministic_repeatable():
    params = _params()
    x = Rng(2).uniform(-1, 1, size=(6, 5))
    a = encode(params, x)
    b = encode(params, x)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.z, a.mean)
    assert not a.eps_std.any()


def test_encode_stochastic_uses_draw():
    params = _params()
    x = Rng(2).uniform(-1, 1, size=(2, 5))
    eps = Rng(3).normal(size=(2, 4))
    enc = encode(params, x, eps)
    assert enc.eps_std is eps
    assert np.array_equal(enc.std, np.exp(0.5 * enc.logvar))
    assert np.array_equal(enc.z, enc.mean + enc.std * eps)
    assert not np.array_equal(enc.z, enc.mean)


def test_encode_logvar_clamped():
    params = _params()
    params.enc_head.bias += 100.0  # push heads far out
    enc = encode(params, np.zeros((1, 5)))
    assert enc.logvar.max() <= LOGVAR_CLAMP
    assert enc.head[:, 4:].min() > LOGVAR_CLAMP  # the cache keeps the raw head


def test_predict_shape_check():
    params = _params(d_z=4)
    with pytest.raises(ConfigurationError):
        predict(params, np.zeros((2, 5)))
    assert predict(params, np.zeros((2, 4))).shape == (2,)


def test_predict_is_softmax_of_two_dense_layers():
    # the reference runs the predictor's layers itself: predict and
    # predictor_xent share one forward, so neither may stand in for it
    params = _params(d_z=4)
    z = Rng(9).uniform(-2, 2, size=(7, 4))
    hidden, _ = dense_forward(params.pred_hidden, z)
    logits, _ = dense_forward(params.pred_out, hidden)
    assert predict(params, z).tobytes() == softmax(logits)[:, 1].tobytes()


def test_predictor_xent_grad_finite_difference():
    params = _params(d_z=3)
    rng = Rng(5)
    z0 = rng.uniform(-1, 1, size=(4, 3))
    y = np.array([0, 1, 1, 0])

    def loss(vecs, first):
        return predictor_xent(params, vecs.reshape(-1, 4, 3), y)[0].mean(axis=-1)

    _, gz = predictor_xent_grad(params, z0, y)
    assert grad_check(loss, gz.ravel(), z0.ravel()) < 1e-6


def test_predictor_xent_grad_uniform_logits():
    # a zeroed output layer gives uniform logits: log 2 nats on every row
    params = _params(d_z=3)
    params.pred_out.weights[:] = 0.0
    params.pred_out.bias[:] = 0.0
    xent, _ = predictor_xent_grad(params, np.ones((2, 3)), [0, 1])
    assert xent.shape == (2,)
    assert np.abs(xent - np.log(2.0)).max() < 1e-12


@pytest.mark.parametrize("n", [4, 9, 50, 64])
def test_predictor_xent_grad_is_the_full_backwards_z_gradient(n):
    # the attacker's input-only backward forms the same z-gradient, bit for
    # bit, as the objective's backward with layer gradients; n other than a
    # power of two makes the division by n round
    params = _params(seed=n, d_z=16)
    rng = Rng(n, stream=7)
    z = rng.normal(size=(n, 16))
    y = rng.integers(0, 2, size=n)
    xent, gz = predictor_xent_grad(params, z, y)
    xent_full, cache = predictor_xent(params, z, y)
    gz_full = predictor_xent_backward(params, cache, None)[0]
    assert xent.tobytes() == xent_full.tobytes()
    assert gz.tobytes() == gz_full.tobytes()


def test_predictor_backward_without_z_gradient_keeps_layer_gradients():
    params = _params(seed=5, d_z=16)
    rng = Rng(5, stream=7)
    z, y = rng.normal(size=(9, 16)), rng.integers(0, 2, size=9)
    _, want = predictor_xent_backward(params, predictor_xent(params, z, y)[1], -1.3)
    gz, got = predictor_xent_backward(params, predictor_xent(params, z, y)[1], -1.3,
                                      z_grad=False)
    assert gz is None and got.keys() == want.keys()
    for key in want:
        assert got[key].tobytes() == want[key].tobytes()


def test_softmax_two_column_form_matches_axis_reductions():
    # reference: the max/sum reductions over the last axis it replaced
    def softmax_axis(logits):
        shifted = logits - logits.max(axis=-1, keepdims=True)
        ex = np.exp(shifted)
        return ex / ex.sum(axis=-1, keepdims=True)

    edges = np.array([0.0, -0.0, 5e-324, -745.0, 710.0, 1e308, -1e308, np.inf, -np.inf])
    pairs = np.stack(np.meshgrid(edges, edges), axis=-1).reshape(-1, 2)
    logits = np.vstack([pairs, 40.0 * Rng(5).normal(size=(500, 2))])
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf
        for x in (logits, np.stack([logits, logits[::-1], -logits])):
            assert softmax(x).tobytes() == softmax_axis(x).tobytes()

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


_NAMES = ["enc_hidden", "enc_head", "pred_hidden", "pred_out"]


@pytest.mark.parametrize("make", [_params, _direct_params], ids=["d_in", "direct"])
def test_over_a_vector_shares_its_memory_in_layout_order(make):
    params = make()
    vec = np.arange(params.flat.size, dtype=float)
    laid = params.over(vec)
    assert laid.flat is vec and laid.d_z == params.d_z
    arrays = [a for name in _NAMES for a in (getattr(laid, name).weights,
                                              getattr(laid, name).bias)]
    assert all(np.shares_memory(a, vec) for a in arrays)
    assert np.concatenate([a.ravel() for a in arrays]).tobytes() == vec.tobytes()
    for name in _NAMES:
        layer, row = getattr(params, name), getattr(laid, name)
        assert row.activation == layer.activation
        assert row.weights.shape == layer.weights.shape
    laid.pred_out.bias[-1] = -1.0  # a gradient is written through its arrays
    assert vec[-1] == -1.0 and params.flat[-1] != -1.0


@pytest.mark.parametrize("make", [_params, _direct_params], ids=["d_in", "direct"])
def test_stacked_rows_are_parameter_vectors(make):
    params = make()
    vec = params.to_vector()
    vecs = np.stack([vec, -vec, np.zeros_like(vec)])
    stack = params.over(vecs)
    assert stack.flat is vecs
    for k, vec in enumerate(vecs):
        params.from_vector(vec)
        for name in _NAMES:
            layer, row = getattr(params, name), getattr(stack, name)
            assert row.activation == layer.activation
            assert np.array_equal(row.weights[k], layer.weights)
            assert np.array_equal(row.bias[k], layer.bias)


def test_over_rejects_a_vector_of_the_wrong_shape():
    params = _params()
    size = params.flat.size
    for bad in (np.zeros(size - 1), np.zeros(size + 1), np.zeros((3, size - 1)),
                np.zeros((2, 3, size)), np.zeros(())):
        with pytest.raises(ConfigurationError, match="parameter vector has shape"):
            params.over(bad)


def test_stacked_keeps_layers_below_unchanged_below():
    # a layer that holds no coordinate of changed keeps the model's own
    # arrays; the others are laid over the stack
    params = _params()
    size = params.flat.size
    vecs = np.tile(params.flat, (3, 1))
    hidden_stop = params.enc_hidden.weights.size + params.enc_hidden.bias.size
    for changed, laid in [
        (range(10, 20), [True, False, False, False]),  # inside one array
        (range(hidden_stop - 2, hidden_stop + 3), [True, True, False, False]),
        (range(0, 1), [True, False, False, False]),  # the first coordinate
        (range(size - 1, size), [False, False, False, True]),  # the last
        (range(size), [True] * 4),
        (None, [True] * 4),
    ]:
        stack = params.over(vecs, changed)
        for name, stacked in zip(_NAMES, laid):
            layer, own = getattr(stack, name), getattr(params, name)
            if stacked:
                assert layer.weights.ndim == 3 and np.shares_memory(layer.weights, vecs)
            else:
                assert layer is own
                assert layer.weights is own.weights and layer.bias is own.bias
    for bad in (range(-1, 3), range(size - 1, size + 1), range(5, 5), range(0, 9, 2),
                range(9, 0, -1), 0, slice(0, 3)):
        with pytest.raises(ConfigurationError, match="changed must be"):
            params.over(vecs, bad)


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

    def loss(vecs, changed):
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
    # the layer gradients returned without ``out`` are new arrays equal, bit
    # for bit, to those written into a laid buffer, whose arrays come back
    params = _params(seed=5, d_z=16)
    rng = Rng(5, stream=7)
    z, y = rng.normal(size=(9, 16)), rng.integers(0, 2, size=9)
    for coeff in (None, 1.0, -1.3):
        for z_grad in (True, False):
            laid = params.over(np.full_like(params.flat, np.nan))
            gz_laid, written = predictor_xent_backward(
                params, predictor_xent(params, z, y)[1], coeff, laid, z_grad)
            gz, got = predictor_xent_backward(
                params, predictor_xent(params, z, y)[1], coeff, z_grad=z_grad)
            into = (laid.pred_out.weights, laid.pred_out.bias,
                    laid.pred_hidden.weights, laid.pred_hidden.bias)
            assert all(a is b for a, b in zip(written, into, strict=True))
            for a, b in zip(got, into, strict=True):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
                assert not np.shares_memory(a, laid.flat)
            assert not any(np.isnan(a).any() for a in into)
            assert np.isnan(laid.enc_hidden.weights).all()  # other layers untouched
            assert np.isnan(laid.enc_head.bias).all()
            if z_grad:
                assert gz.tobytes() == gz_laid.tobytes()
            else:
                assert gz is None and gz_laid is None


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

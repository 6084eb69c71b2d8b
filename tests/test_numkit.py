"""Kernel tests: RNG streams, activations, dense layers, gradient checker."""

import numpy as np
import pytest

from carr.numkit import (
    ConfigurationError,
    DenseLayer,
    Rng,
    dense_backward,
    dense_forward,
    elu,
    elu_grad,
    grad_check,
    init_dense,
)


def test_rng_same_key_identical():
    a = Rng(7, stream=3).normal(size=100)
    b = Rng(7, stream=3).normal(size=100)
    assert np.array_equal(a, b)


def test_rng_streams_independent():
    a = Rng(7, stream=1).normal(size=100)
    b = Rng(7, stream=2).normal(size=100)
    assert not np.array_equal(a, b)


def test_rng_shuffle_is_permutation():
    idx = Rng(3).shuffle_index(50)
    assert sorted(idx.tolist()) == list(range(50))


def test_elu_values():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 3.0])
    expected = np.array([np.expm1(-2.0), np.expm1(-0.5), 0.0, 0.5, 3.0])
    assert np.allclose(elu(x), expected)


def test_elu_grad_matches_finite_difference():
    x = np.linspace(-3, 3, 41)
    h = 1e-6
    numeric = (elu(x + h) - elu(x - h)) / (2 * h)
    assert np.abs(elu_grad(x) - numeric).max() < 1e-6


def test_elu_matches_where_forms_bit_for_bit():
    # reference: the np.where forms the max/exp forms replaced
    def elu_where(x):
        return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))

    def elu_grad_where(x):
        return np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))

    edges = np.array([0.0, -0.0, 5e-324, -5e-324, -745.0, -746.0, np.inf, -np.inf])
    for x in (edges, 3.0 * Rng(8).normal(size=100_000)):
        assert elu(x).tobytes() == elu_where(x).tobytes()
        assert elu_grad(x).tobytes() == elu_grad_where(x).tobytes()


def test_dense_layer_validation():
    with pytest.raises(ConfigurationError):
        DenseLayer(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ConfigurationError):
        DenseLayer(np.zeros((3, 2)), np.zeros(3), activation="tanh")
    with pytest.raises(ConfigurationError):
        DenseLayer(np.zeros(3), np.zeros(3))


def test_dense_forward_shape_check():
    layer = init_dense(Rng(0), 4, 3, "elu")
    with pytest.raises(ConfigurationError):
        dense_forward(layer, np.zeros((2, 5)))


def test_dense_forward_identity_math():
    layer = DenseLayer(np.array([[1.0, 2.0], [0.0, -1.0]]), np.array([0.5, 0.0]))
    out, pre = dense_forward(layer, np.array([[1.0, 1.0]]))
    assert np.allclose(out, [[3.5, -1.0]])
    assert np.array_equal(pre, out)


@pytest.mark.parametrize("activation", ["identity", "elu"])
def test_dense_backward_gradients(activation):
    rng = Rng(11)
    layer = init_dense(rng, 4, 3, activation)
    x = rng.uniform(-1, 1, size=(6, 4))
    target = rng.normal(size=(6, 3))

    def loss_of(vec):
        w = vec[:12].reshape(3, 4)
        b = vec[12:]
        lyr = DenseLayer(w, b, activation)
        out, pre = dense_forward(lyr, x)
        value = 0.5 * ((out - target) ** 2).sum()
        upstream = out - target
        _, gw, gb = dense_backward(lyr, x, pre, upstream)
        return value, np.concatenate([gw.ravel(), gb.ravel()])

    vec0 = np.concatenate([layer.weights.ravel(), layer.bias.ravel()])
    assert grad_check(loss_of, vec0) < 1e-7


def test_dense_backward_input_grad():
    rng = Rng(12)
    layer = init_dense(rng, 3, 2, "elu")
    x0 = rng.uniform(-1, 1, size=(1, 3))

    def loss_of(vec):
        x = vec.reshape(1, 3)
        out, pre = dense_forward(layer, x)
        gx, _, _ = dense_backward(layer, x, pre, out)
        return 0.5 * (out ** 2).sum(), gx.ravel()

    assert grad_check(loss_of, x0.ravel()) < 1e-7


def test_grad_check_flags_wrong_gradient():
    def bad(vec):
        return float((vec ** 2).sum()), 3.0 * vec  # correct grad is 2*vec

    err = grad_check(bad, np.array([1.0, -2.0]))
    assert err > 0.1

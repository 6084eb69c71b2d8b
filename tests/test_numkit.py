"""Kernel tests: RNG streams, activations, dense layers, gradient checker."""

import numpy as np
import pytest

from carr import numkit
from carr.numkit import (
    ConfigurationError,
    DenseLayer,
    Rng,
    dense_backward,
    dense_forward,
    dense_input_grad,
    elu,
    elu_grad,
    grad_check,
    init_dense,
)

# ELU edge inputs: signed zeros, signed subnormals, where exp underflows, infinities
_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, -745.0, -746.0, np.inf, -np.inf])


def test_rng_same_key_identical():
    a = Rng(7, stream=3).standard_normal(size=100)
    b = Rng(7, stream=3).standard_normal(size=100)
    assert np.array_equal(a, b)


def test_rng_streams_independent():
    a = Rng(7, stream=1).standard_normal(size=100)
    b = Rng(7, stream=2).standard_normal(size=100)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed, stream", [
    (0, 0), (1, 0), (-1, 0), (2 ** 64 - 1, 0), (2 ** 64 + 5, 3), (7, 2 ** 64 - 1),
    (12345, 10),
])
def test_rng_is_the_keyed_philox_generator(seed, stream):
    # Rng hands Philox its key without Philox(key=...)'s discarded SeedSequence
    want = np.random.Generator(np.random.Philox(key=seed % 2 ** 64 + stream * 2 ** 64))
    rng = Rng(seed, stream)
    assert isinstance(rng, np.random.Generator)
    assert repr(rng.bit_generator.state) == repr(want.bit_generator.state)
    for got, expected in ((rng.uniform(-1.0, 2.0, size=9), want.uniform(-1.0, 2.0, size=9)),
                          (rng.standard_normal(size=(3, 4)), want.standard_normal(size=(3, 4))),
                          (rng.integers(0, 7, size=11), want.integers(0, 7, size=11)),
                          (rng.permutation(20), want.permutation(20)),
                          (rng.uniform(), want.uniform())):
        got, expected = np.asarray(got), np.asarray(expected)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("stream", [-1, 2 ** 64, -(2 ** 70)])
def test_rng_rejects_keys_outside_128_bits_as_philox_does(stream):
    with pytest.raises(ValueError) as want:
        np.random.Philox(key=stream << 64)
    with pytest.raises(ValueError) as got:
        Rng(3, stream)
    assert str(got.value) == str(want.value)


def test_rng_shuffle_is_permutation():
    idx = Rng(3).permutation(50)
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

    for x in (_EDGES, 3.0 * Rng(8).normal(size=100_000)):
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


@pytest.mark.parametrize("shape", [(5, 3), (6, 4)])
def test_dense_backward_shape_check(shape):
    # the upstream gradient must have the cached input's rows and the layer's outputs
    layer = init_dense(Rng(0), 4, 3, "elu")
    x = np.zeros((6, 4))
    _, pre = dense_forward(layer, x)
    with pytest.raises(ConfigurationError, match="upstream shape"):
        dense_backward(layer, x, pre, np.zeros(shape))


@pytest.mark.parametrize("activation", ["identity", "elu"])
def test_dense_backward_gradients(activation):
    rng = Rng(11)
    layer = init_dense(rng, 4, 3, activation)
    x = rng.uniform(-1, 1, size=(6, 4))
    target = rng.normal(size=(6, 3))

    def loss_of(vecs, changed):
        lyr = DenseLayer(vecs[:, :12].reshape(-1, 3, 4), vecs[:, 12:], activation)
        out, _ = dense_forward(lyr, x)
        return 0.5 * ((out - target) ** 2).sum(axis=(-2, -1))

    out, pre = dense_forward(layer, x)
    _, gw, gb = dense_backward(layer, x, pre, out - target)
    vec0 = np.concatenate([layer.weights.ravel(), layer.bias.ravel()])
    assert grad_check(loss_of, np.concatenate([gw.ravel(), gb.ravel()]), vec0) < 1e-7


def test_dense_backward_input_grad():
    rng = Rng(12)
    layer = init_dense(rng, 3, 2, "elu")
    x0 = rng.uniform(-1, 1, size=(1, 3))

    def loss_of(vecs, changed):
        out, _ = dense_forward(layer, vecs.reshape(-1, 1, 3))
        return 0.5 * (out ** 2).sum(axis=(-2, -1))

    out, pre = dense_forward(layer, x0)
    gx, _, _ = dense_backward(layer, x0, pre, out)
    assert grad_check(loss_of, gx.ravel(), x0.ravel()) < 1e-7


@pytest.mark.parametrize("activation", ["identity", "elu"])
@pytest.mark.parametrize("shared_input", [True, False])
def test_stacked_dense_forward_equals_slices(activation, shared_input):
    rng = Rng(13)
    layer = DenseLayer(rng.normal(size=(7, 64, 64)), rng.normal(size=(7, 64)),
                       activation)
    x = rng.normal(size=(5, 64) if shared_input else (7, 5, 64))
    out, pre = dense_forward(layer, x)
    assert out.shape == pre.shape == (7, 5, 64)
    for k in range(7):
        ref_out, ref_pre = dense_forward(
            DenseLayer(layer.weights[k], layer.bias[k], activation),
            x if shared_input else x[k])
        assert out[k].tobytes() == ref_out.tobytes()
        assert pre[k].tobytes() == ref_pre.tobytes()
    if not shared_input:  # one 2-D layer over a stacked input
        shared = DenseLayer(layer.weights[0], layer.bias[0], activation)
        out, pre = dense_forward(shared, x)
        assert out.shape == pre.shape == (7, 5, 64)
        for k in range(7):
            ref_out, ref_pre = dense_forward(shared, x[k])
            assert out[k].tobytes() == ref_out.tobytes()
            assert pre[k].tobytes() == ref_pre.tobytes()


def _pre_activation(layer, x):
    return dense_forward(DenseLayer(layer.weights, layer.bias, "identity"), x)[0]


@pytest.mark.parametrize("stacked", [False, True])
def test_elu_cache_is_min_of_pre_activation(stacked):
    rng = Rng(15)
    shape = (3, 9, 6) if stacked else (9, 6)
    layer = DenseLayer(3.0 * rng.normal(size=shape), rng.normal(size=shape[:-1]), "elu")
    x = rng.normal(size=(5, 6))
    pre = _pre_activation(layer, x)
    out, cache = dense_forward(layer, x)
    assert cache.tobytes() == np.minimum(pre, 0.0).tobytes()
    assert out.tobytes() == elu(pre).tobytes()
    # the edge values and NaN as pre-activations: zero weights and the
    # values as bias.  A BLAS sum starts at +0.0, which turns a -0.0 bias
    # into +0.0, so -0.0 meets the forward's min on its own below
    edges = np.append(_EDGES, np.nan)
    layer = DenseLayer(np.zeros(shape[:-2] + (edges.size, 1)),
                       np.broadcast_to(edges, shape[:-2] + (edges.size,)), "elu")
    x = np.ones((2, 1))
    pre = _pre_activation(layer, x)
    assert pre.tobytes() == np.broadcast_to(np.where(edges == 0, 0.0, edges),
                                            pre.shape).tobytes()
    out, cache = dense_forward(layer, x)
    assert cache.tobytes() == np.minimum(pre, 0.0).tobytes()
    assert out.tobytes() == elu(pre).tobytes()
    pre = np.broadcast_to(edges, pre.shape)
    assert (np.minimum(pre, np.zeros(edges.size)).tobytes()
            == np.minimum(pre, 0.0).tobytes())


def test_elu_backward_through_cache_matches_elu_grad_on_edges():
    # one input of 1.0 and the edge values as weights: the pre-activation
    # is the edge values (BLAS turns the -0.0 product into +0.0)
    layer = DenseLayer(_EDGES[:, None], np.zeros(_EDGES.size), "elu")
    x = np.ones((1, 1))
    pre = _pre_activation(layer, x)
    assert np.array_equal(pre, _EDGES[None])
    out, cache = dense_forward(layer, x)
    assert cache.tobytes() == np.minimum(pre, 0.0).tobytes()
    assert out.tobytes() == elu(pre).tobytes()
    g = Rng(16).normal(size=pre.shape)
    with np.errstate(invalid="ignore"):  # the inf weights meet a zero
        for edges in (pre, _EDGES[None]):  # the second keeps -0.0
            g_in, g_pre = dense_input_grad(layer, np.minimum(edges, 0.0), g)
            assert g_pre.tobytes() == (g * elu_grad(edges)).tobytes()
            assert g_in.tobytes() == ((g * elu_grad(edges)) @ layer.weights).tobytes()


def test_elu_backward_through_cache_matches_elu_grad():
    rng = Rng(17)
    layer = DenseLayer(3.0 * rng.normal(size=(64, 8)), rng.normal(size=64), "elu")
    x = rng.normal(size=(32, 8))
    g = rng.normal(size=(32, 64))
    _, cache = dense_forward(layer, x)
    g_pre = g * elu_grad(_pre_activation(layer, x))
    for got, want in zip(dense_backward(layer, x, cache, g),
                         (g_pre @ layer.weights, g_pre.T @ x, g_pre.sum(axis=0))):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("activation", ["identity", "elu"])
def test_dense_backward_writes_into_given_arrays(activation):
    rng = Rng(18)
    layer = DenseLayer(rng.normal(size=(16, 8)), rng.normal(size=16), activation)
    x = rng.normal(size=(32, 8))
    g = rng.normal(size=(32, 16))
    g_before = g.copy()
    _, cache = dense_forward(layer, x)
    want = dense_backward(layer, x, cache, g)
    # views of one flat vector holding garbage, as a training step passes them
    flat = np.full(16 * 8 + 16, np.nan)
    weight_grad, bias_grad = flat[:128].reshape(16, 8), flat[128:]
    got = dense_backward(layer, x, cache, g, weight_grad, bias_grad)
    assert got[1] is weight_grad and got[2] is bias_grad
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    assert g.tobytes() == g_before.tobytes()  # the upstream is left as it is
    # without the input gradient the layer gradients keep their bytes
    skipped = dense_backward(layer, x, cache, g, input_grad=False)
    assert skipped[0] is None
    for a, b in zip(skipped[1:], want[1:]):
        assert a.tobytes() == b.tobytes()


# around the slow-path bound (about -708), the last non-zero result
# (-745.13) and the edges of the range the guarded exp hands to np.exp
_EXP_EDGES = [-700.0, -707.5, -708.4, -745.13, -745.14, -746.0, -1e308, -np.inf, -0.0,
              np.nan]


@pytest.mark.parametrize("value", _EXP_EDGES)
def test_guarded_exp_is_np_exp_bit_for_bit(value):
    rng = Rng(19)
    x = rng.uniform(-800.0, 0.0, size=(16, 8))  # every branch of the guard
    assert (x < -746).any() and ((x >= -746) & (x < -700)).any()
    x[3, 5] = value
    for arr in (x, np.full((2, 3), value), np.array([[value, -800.0, -1.0]])):
        want = np.exp(arr)
        assert numkit._exp(arr).tobytes() == want.tobytes()


def test_stacked_dense_layer_validation():
    with pytest.raises(ConfigurationError):
        DenseLayer(np.zeros((2, 3, 4)), np.zeros(3))  # bias lacks the stack axis
    with pytest.raises(ConfigurationError):
        DenseLayer(np.zeros((2, 3, 4)), np.zeros((5, 3)))  # stack sizes differ
    layer = DenseLayer(np.zeros((2, 3, 4)), np.zeros((2, 3)))
    assert (layer.in_dim, layer.out_dim) == (4, 3)


def test_grad_check_flags_wrong_gradient():
    point = np.array([1.0, -2.0])
    # correct grad is 2*point
    err = grad_check(lambda vecs, changed: (vecs ** 2).sum(axis=-1), 3.0 * point, point)
    assert err > 0.1


def _loop_grad_check(f, analytic, point):
    # one point at a time: the reference for the stacked checker
    eps, worst = 1e-5, 0.0
    for i in range(point.size):
        bumped = point.copy()
        bumped[i] += eps
        hi = f(bumped)
        bumped[i] -= 2 * eps
        lo = f(bumped)
        numeric = (hi - lo) / (2 * eps)
        worst = max(worst, abs(analytic[i] - numeric) / max(1.0, abs(numeric)))
    return worst


@pytest.mark.parametrize("size, per_chunk, stacks", [
    (1, 4, [2]),  # one coordinate
    (5, 4, [8, 2]),  # one above the chunk size
    (8, 4, [8, 8]),  # a multiple of it
])
def test_grad_check_chunk_edges(monkeypatch, size, per_chunk, stacks):
    monkeypatch.setattr(numkit, "_CHUNK_BYTES", 2 * 8 * size * per_chunk)
    rng = Rng(14)
    point = rng.normal(size=size)
    weights = rng.uniform(0.5, 2.0, size=size)
    analytic = 3 * weights * point ** 2 + rng.normal(size=size) * 1e-3
    seen, seen_changed = [], []

    def loss(vecs, changed):
        seen.append(vecs.shape[0])
        seen_changed.append(changed)
        assert vecs.shape[1] == size
        # the promise a loss may rely on: every row is the point outside
        # changed, and inside it row i and row k + i bump coordinate i
        outside = np.ones(size, dtype=bool)
        outside[changed.start:changed.stop] = False
        assert (vecs[:, outside] == point[outside]).all()
        k = len(changed)
        moved = vecs[:, changed.start:changed.stop] != point[changed.start:changed.stop]
        assert np.array_equal(moved, np.vstack([np.eye(k, dtype=bool)] * 2))
        return (weights * vecs ** 3).sum(axis=-1)

    err = grad_check(loss, analytic, point)
    assert seen == stacks
    assert seen_changed == [range(start, min(start + per_chunk, size))
                            for start in range(0, size, per_chunk)]
    reference = _loop_grad_check(lambda v: float((weights * v ** 3).sum()),
                                 analytic, point)
    assert err == reference
    assert err > 1e-5  # the perturbed analytic gradient is flagged


@pytest.mark.parametrize("point", [np.zeros(0), np.zeros((2, 3)), np.float64(1.0)],
                         ids=["empty", "2-D", "0-D"])
def test_grad_check_rejects_a_point_that_is_not_a_non_empty_vector(point):
    def loss(vecs, changed):
        raise AssertionError("loss called")

    with pytest.raises(ConfigurationError, match="point must be a non-empty 1-D"):
        grad_check(loss, np.zeros(np.shape(point)), point)


@pytest.mark.parametrize("shape", [(3, 1), (), (1,), (2,), (1, 3)])
def test_grad_check_rejects_an_analytic_gradient_of_another_shape(shape):
    # each of these would broadcast against the (3,) point: the (3, 1)
    # correct gradient of sum(x**2) would compare 3x3 pairs and read 3.0
    point = np.array([1.0, -2.0, 0.5])
    calls = []
    with pytest.raises(ConfigurationError, match="analytic gradient has shape"):
        grad_check(lambda vecs, changed: calls.append(changed) or (vecs ** 2).sum(-1),
                   np.resize(2.0 * point, shape), point)
    assert calls == []


def test_grad_check_rejects_non_finite_loss():
    def loss(vecs, changed):  # infinite at the upper point only
        return np.where(vecs[:, 0] > 0, np.inf, 0.0)

    with pytest.raises(FloatingPointError):
        grad_check(loss, np.array([0.0]), np.array([0.0]))

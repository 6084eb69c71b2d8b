"""Minimal dense numeric kernel: seeded RNG, activations, dense layers with
hand-derived gradients, and a finite-difference gradient checker.

Everything is float64 and row-major; the networks involved are tiny, so
determinism is worth more than speed.

Every matrix product is ``x @ W.swapaxes(-1, -2)`` over the whole batch.
On OpenBLAS 0.3.31 (SkylakeX kernel, one thread), over random products of
1-79 rows, 4-64 inputs and 2-128 outputs, multiplying by a contiguous copy
of ``W.T`` changed the bytes of 272 in 2000, and multiplying half the rows
alone changed those rows' bytes in 187 of 1166.  So neither a cached
transposed weight nor a per-row active set keeps outputs bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

__all__ = [
    "Rng",
    "elu",
    "elu_grad",
    "DenseLayer",
    "dense_forward",
    "dense_backward",
    "dense_input_grad",
    "grad_check",
    "ConfigurationError",
]


class ConfigurationError(ValueError):
    """Shape or configuration mismatch in a kernel operation."""


def _finite_float(value) -> bool:
    try:
        return math.isfinite(float(value))
    except OverflowError:  # an int too large for a float
        return False


def check_numbers(obj, reals=(), ints=()) -> None:
    """Raise ConfigurationError unless the attributes of ``obj`` named in
    ``reals`` are real numbers that convert to finite floats and those in
    ``ints`` ints; a bool is neither."""
    for name in (*reals, *ints):
        value = getattr(obj, name)
        kind, what = (Integral, "an int") if name in ints else (Real, "a number")
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigurationError(f"{name} must be {what}, got {value!r}")
        if kind is Real and not _finite_float(value):
            raise ConfigurationError(f"{name} must be finite, got {value!r}")


class Rng:
    """Counter-based deterministic random stream (Philox under the hood).

    Identical (seed, stream) pairs produce bit-identical draws.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        key = (self.seed & 0xFFFFFFFFFFFFFFFF) | (self.stream << 64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self, lo: float = 0.0, hi: float = 1.0, size=None) -> np.ndarray:
        return self._gen.uniform(lo, hi, size=size)

    def normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size=size)

    def integers(self, lo: int, hi: int, size=None):
        return self._gen.integers(lo, hi, size=size)

    def shuffle_index(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def elu(x):
    """ELU activation: x for x > 0, exp(x) - 1 otherwise."""
    # the max picks x where x > 0 (expm1(0) = 0) and expm1(x) elsewhere,
    # because expm1(x) >= x
    x = np.asarray(x, dtype=float)
    return np.maximum(x, np.expm1(np.minimum(x, 0.0)))


def elu_grad(x):
    """Derivative of ELU: 1 for x > 0, exp(x) for x <= 0."""
    return np.exp(np.minimum(np.asarray(x, dtype=float), 0.0))


_ACTIVATIONS = ("identity", "elu")


@dataclass
class DenseLayer:
    """Fully-connected layer: out = act(x @ W.T + b).

    Leading axes of ``weights`` and ``bias`` stack independent parameter
    sets, which :func:`dense_forward` evaluates side by side.
    """

    weights: np.ndarray  # (..., out_dim, in_dim)
    bias: np.ndarray  # (..., out_dim)
    activation: str = "identity"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weights.ndim < 2 or self.bias.ndim != self.weights.ndim - 1:
            raise ConfigurationError(
                "weights must be at least 2-D and bias one axis less"
            )
        if self.weights.shape[:-1] != self.bias.shape:
            raise ConfigurationError(
                f"bias shape {self.bias.shape} != weights shape {self.weights.shape} "
                "without its last axis"
            )
        if self.activation not in _ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[-2]


def init_dense(rng: Rng, in_dim: int, out_dim: int,
               activation: str = "identity") -> DenseLayer:
    """Glorot-uniform initialized layer with zero bias."""
    scale = np.sqrt(6.0 / (in_dim + out_dim))
    w = rng.uniform(-scale, scale, size=(out_dim, in_dim))
    return DenseLayer(weights=w, bias=np.zeros(out_dim), activation=activation)


def dense_forward(layer: DenseLayer, x: np.ndarray):
    """Forward pass on a (..., n, in_dim) batch.

    Leading axes of the batch and of a stacked layer broadcast; a 2-D batch
    through a 2-D layer is the plain (n, out_dim) forward.  Returns
    (output, cache): the cache is ``min(pre_activation, 0)`` for an ELU
    layer and the output itself for an identity one, and the backward pass
    takes it back.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 2 or x.shape[-1] != layer.in_dim:
        raise ConfigurationError(
            f"input shape {x.shape} incompatible with in_dim {layer.in_dim}"
        )
    pre = x @ layer.weights.swapaxes(-1, -2)
    pre += layer.bias[..., None, :]
    if layer.activation == "elu":
        neg = np.minimum(pre, 0.0)
        return np.maximum(pre, np.expm1(neg), out=pre), neg  # elu(pre)
    return pre, pre


def dense_backward(layer: DenseLayer, cached_input: np.ndarray, cache: np.ndarray,
                   upstream_grad: np.ndarray, weight_grad=None, bias_grad=None):
    """Gradients of a scalar loss given d(loss)/d(output).

    Takes the 2-D input of :func:`dense_forward` of a 2-D layer and the
    cache it returned.  Writes the weight and bias gradients into
    ``weight_grad`` and ``bias_grad`` (new arrays if None), leaves
    ``upstream_grad`` as it is and returns (input_grad, weight_grad, bias_grad).
    """
    x = np.asarray(cached_input, dtype=float)
    g = np.asarray(upstream_grad, dtype=float)
    if x.shape[0] != g.shape[0] or g.shape[1] != layer.out_dim:
        raise ConfigurationError(
            f"upstream shape {g.shape} incompatible with cached input {x.shape}"
        )
    g_in, g = dense_input_grad(layer, cache, g)
    return g_in, np.matmul(g.T, x, out=weight_grad), g.sum(axis=0, out=bias_grad)


def dense_input_grad(layer: DenseLayer, cache: np.ndarray, g: np.ndarray):
    """(input_grad, pre_activation_grad) given d(loss)/d(output) and the
    cache of :func:`dense_forward`: the step :func:`dense_backward` starts
    with, without the layer gradients."""
    if layer.activation == "elu":
        e = np.exp(cache)  # elu_grad(pre), with the forward's min(pre, 0)
        g = np.multiply(g, e, out=e)
    return g @ layer.weights, g


# Upper bound on the bytes of one chunk of perturbed parameter vectors.
_CHUNK_BYTES = 2 << 20


def grad_check(loss, analytic: np.ndarray, point: np.ndarray) -> float:
    """Compare an analytic gradient against central finite differences.

    ``loss(vecs, first)`` maps a (K, P) stack of parameter vectors to their
    K scalar values; ``analytic`` is the gradient of that scalar at the 1-D
    ``point``.  Coordinate i is bumped to ``point[i] + 1e-5`` and then
    ``2e-5`` below that, and both vectors of a run of coordinates go to
    ``loss`` in one stack of at most about 2 MiB.  ``first`` is the run's
    first coordinate: every row of the stack equals ``point`` below it, so
    the loss may compute what depends only on those coordinates once.
    Returns the max over coordinates of
    ``|analytic - numeric| / max(1, |numeric|)``.
    """
    eps = 1e-5
    point = np.asarray(point, dtype=float)
    analytic = np.asarray(analytic, dtype=float)
    per_chunk = max(1, _CHUNK_BYTES // (2 * point.itemsize * point.size))
    # rows [0, k) of the chunk hold the upper points, rows [k, 2k) the lower
    stack = np.tile(point, (2 * min(per_chunk, point.size), 1))
    worst = 0.0
    for start in range(0, point.size, per_chunk):
        idx = np.arange(start, min(start + per_chunk, point.size))
        k = idx.size
        hi_rows, lo_rows = np.arange(k), np.arange(k, 2 * k)
        stack[hi_rows, idx] = point[idx] + eps
        stack[lo_rows, idx] = stack[hi_rows, idx] - 2 * eps
        values = np.asarray(loss(stack[: 2 * k], start), dtype=float)
        stack[hi_rows, idx] = stack[lo_rows, idx] = point[idx]
        if not np.all(np.isfinite(values)):
            raise FloatingPointError("non-finite loss during finite differencing")
        numeric = (values[:k] - values[k:]) / (2 * eps)
        err = np.abs(analytic[idx] - numeric) / np.maximum(1.0, np.abs(numeric))
        worst = max(worst, float(err.max()))
    return worst

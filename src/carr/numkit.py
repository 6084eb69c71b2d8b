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

import functools
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
    "dense_buffers",
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


def check_numbers(obj, reals=(), ints=(), bools=()) -> None:
    """Raise ConfigurationError unless the attributes of ``obj`` named in
    ``reals`` are real numbers that convert to finite floats, those in
    ``ints`` ints and those in ``bools`` bools; a bool is neither of the
    first two."""
    for name in bools:
        if not isinstance(getattr(obj, name), bool):
            raise ConfigurationError(
                f"{name} must be true or false, got {getattr(obj, name)!r}")
    for name in (*reals, *ints):
        value = getattr(obj, name)
        kind, what = (Integral, "an int") if name in ints else (Real, "a number")
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigurationError(f"{name} must be {what}, got {value!r}")
        if kind is Real and not _finite_float(value):
            raise ConfigurationError(f"{name} must be finite, got {value!r}")


@functools.cache
def _key_sequence() -> type:
    """A seed sequence that hands Philox the key words it is built with, in
    place of the OS-entropy ``SeedSequence()`` that ``Philox(key=...)`` draws
    and drops.  Defined on first use: importing carr loads no numpy.random."""

    class KeySequence(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # Philox asks for its 2 uint64 key words

    return KeySequence


class Rng:
    """Counter-based deterministic random stream (Philox under the hood).

    Identical (seed, stream) pairs produce bit-identical draws: those of
    ``Generator(Philox(key=seed mod 2**64 + stream * 2**64))``.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        key = (self.seed & 0xFFFFFFFFFFFFFFFF) | (self.stream << 64)
        if not 0 <= key < 1 << 128:  # Philox's own check and message
            raise ValueError("key must be positive and less than 2**128.")
        # Philox(key=key) reads the key as two 64-bit words, low word first
        words = np.array([key & 0xFFFFFFFFFFFFFFFF, key >> 64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(_key_sequence()(words)))

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


def dense_forward(layer: DenseLayer, x: np.ndarray, out=None):
    """Forward pass on a (..., n, in_dim) batch.

    Leading axes of the batch and of a stacked layer broadcast; a 2-D batch
    through a 2-D layer is the plain (n, out_dim) forward.  Returns
    (output, cache): the cache is ``min(pre_activation, 0)`` for an ELU
    layer and the output itself for an identity one, and the backward pass
    takes it back.  ``out``, C-contiguous arrays of the output's shape, takes
    the output, then an ELU layer's cache and scratch, in place of new ones.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 2 or x.shape[-1] != layer.in_dim:
        raise ConfigurationError(
            f"input shape {x.shape} incompatible with in_dim {layer.in_dim}"
        )
    out = (None,) * 3 if out is None else out
    pre = np.matmul(x, layer.weights.swapaxes(-1, -2), out=out[0])
    pre += layer.bias[..., None, :]
    if layer.activation == "elu":
        neg = np.minimum(pre, 0.0, out=out[1])
        return np.maximum(pre, np.expm1(neg, out=out[2]), out=pre), neg  # elu(pre)
    return pre, pre


def dense_buffers(layer: DenseLayer, n: int):
    """The ``out`` of :func:`dense_forward` and of :func:`dense_input_grad`
    for an n-row batch through a 2-D ``layer``, as a (forward, backward)
    pair, each slot sized from the layer's activation."""
    elu = layer.activation == "elu"
    forward = tuple(np.empty((3 if elu else 1, n, layer.out_dim)))
    return forward, (np.empty((n, layer.out_dim)) if elu else None,
                     np.empty((n, layer.in_dim)))


def dense_backward(layer: DenseLayer, cached_input: np.ndarray, cache: np.ndarray,
                   upstream_grad: np.ndarray, weight_grad=None, bias_grad=None,
                   input_grad: bool = True):
    """Gradients of a scalar loss given d(loss)/d(output).

    Takes the 2-D input of :func:`dense_forward` of a 2-D layer and the
    cache it returned.  Writes the weight and bias gradients into
    ``weight_grad`` and ``bias_grad`` (new arrays if None), leaves
    ``upstream_grad`` as it is and returns (input_grad, weight_grad,
    bias_grad); with ``input_grad`` False the first is None, not formed.
    """
    x = np.asarray(cached_input, dtype=float)
    g = np.asarray(upstream_grad, dtype=float)
    if x.shape[0] != g.shape[0] or g.shape[1] != layer.out_dim:
        raise ConfigurationError(
            f"upstream shape {g.shape} incompatible with cached input {x.shape}"
        )
    g_in, g = dense_input_grad(layer, cache, g, input_grad)
    return g_in, np.matmul(g.T, x, out=weight_grad), g.sum(axis=0, out=bias_grad)


def dense_input_grad(layer: DenseLayer, cache: np.ndarray, g: np.ndarray,
                     input_grad: bool = True, out=None):
    """(input_grad, pre_activation_grad) given d(loss)/d(output) and the
    cache of :func:`dense_forward`: the step :func:`dense_backward` starts
    with, without the layer gradients.  With ``input_grad`` False the first
    is None, not formed.  ``out``, two C-contiguous arrays, takes an ELU
    layer's pre-activation gradient and the input gradient."""
    pre_out, in_out = (None, None) if out is None else out
    if layer.activation == "elu":
        e = _exp(cache, pre_out)  # elu_grad(pre), with the forward's min(pre, 0)
        g = np.multiply(g, e, out=e)
    return (np.matmul(g, layer.weights, out=in_out) if input_grad else None), g


def _exp(x: np.ndarray, out=None) -> np.ndarray:
    """``np.exp(x, out=out)`` bit for bit; ``out`` must not overlap ``x``.
    np.exp slows down several-fold on a call with an entry below about -708
    and is 0 below about -745.13, so only entries in [-746, -700) get it."""
    if not x.min(initial=0.0) < -700.0:  # NaN included
        return np.exp(x, out=out)
    e = np.maximum(x, -700.0, out=out)
    np.exp(e, out=e)
    low = x < -700.0
    np.putmask(e, low, 0.0)
    low &= x >= -746.0
    e[low] = np.exp(x[low])
    return e


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

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
from dataclasses import dataclass
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


def Rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The counter-based Philox generator keyed by (seed, stream).

    Identical (seed, stream) pairs produce bit-identical draws: those of
    ``Generator(Philox(key=seed mod 2**64 + stream * 2**64))``.
    """
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) | (int(stream) << 64)
    if not 0 <= key < 1 << 128:  # Philox's own check and message
        raise ValueError("key must be positive and less than 2**128.")
    # Philox(key=key) reads the key as two 64-bit words, low word first
    words = np.array([key & 0xFFFFFFFFFFFFFFFF, key >> 64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_key_sequence()(words)))


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


def init_dense(rng: np.random.Generator, in_dim: int, out_dim: int,
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
        # against an array of zeros: numpy 2.4 takes a min against a scalar
        # in a slower loop (1.8x on a (112, 4, 64) stack), for the same bytes
        neg = np.minimum(pre, np.zeros(layer.out_dim))
        return np.maximum(pre, np.expm1(neg), out=pre), neg  # elu(pre)
    return pre, pre


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
                     input_grad: bool = True):
    """(input_grad, pre_activation_grad) given d(loss)/d(output) and the
    cache of :func:`dense_forward`: the step :func:`dense_backward` starts
    with, without the layer gradients.  With ``input_grad`` False the first
    is None, not formed."""
    if layer.activation == "elu":
        e = _exp(cache)  # elu_grad(pre), with the forward's min(pre, 0)
        g = np.multiply(g, e, out=e)
    return (g @ layer.weights if input_grad else None), g


def _exp(x: np.ndarray) -> np.ndarray:
    """``np.exp(x)`` bit for bit.  np.exp slows down several-fold on a call
    with an entry below about -708 and is 0 below about -745.13, so only
    entries in [-746, -700) get it."""
    if not x.min(initial=0.0) < -700.0:  # NaN included
        return np.exp(x)
    e = np.maximum(x, -700.0)
    np.exp(e, out=e)
    low = x < -700.0
    np.putmask(e, low, 0.0)
    low &= x >= -746.0
    e[low] = np.exp(x[low])
    return e


# Upper bound on the bytes of one chunk of perturbed parameter vectors.  A
# wider chunk makes fewer loss calls but larger stacked activations, which
# spill out of the per-core cache and take fresh pages.  Swept on a 2-core
# AVX-512 Xeon (2 MiB L2 a core, one BLAS thread) over the gradcheck audit
# trial (P = 1160): 1 MiB (56 coordinates a chunk) took 0.0164 s, against
# 0.0176 s at 0.75 MiB, 0.0167 s at 0.875 and 1.125 MiB, 0.0168 s at
# 1.5 MiB and 0.0173 s at 2 MiB; 1.25 MiB was as fast but peaked 0.6 MiB
# higher.
_CHUNK_BYTES = 1 << 20


def grad_check(loss, analytic: np.ndarray, point: np.ndarray) -> float:
    """Compare an analytic gradient against central finite differences.

    ``loss(vecs, changed)`` maps a (K, P) stack of parameter vectors to
    their K scalar values; ``analytic`` is the gradient of that scalar at
    the non-empty 1-D ``point``, in its shape.  Coordinate i is bumped to
    ``point[i] + 1e-5`` and then ``2e-5`` below that, and both vectors of a
    run of coordinates go to ``loss`` in one stack of at most about 1 MiB.
    ``changed`` is the run's ``range(start, stop)``: every row of the stack
    equals ``point`` outside it, so the loss may compute what depends only
    on the other coordinates once.  Returns the max over coordinates of
    ``|analytic - numeric| / max(1, |numeric|)``, NaN if ``analytic``
    holds a NaN.
    """
    eps = 1e-5
    point = np.asarray(point, dtype=float)
    analytic = np.asarray(analytic, dtype=float)
    if point.ndim != 1 or point.size == 0:
        raise ConfigurationError(
            f"point must be a non-empty 1-D array, got shape {point.shape}")
    if analytic.shape != point.shape:
        raise ConfigurationError(
            f"analytic gradient has shape {analytic.shape}, expected {point.shape}")
    size = point.size
    per_chunk = max(1, _CHUNK_BYTES // (2 * point.itemsize * size))
    # rows [0, k) of the chunk hold the upper points, rows [k, 2k) the lower;
    # row i bumps coordinate start + i, so the bumps of either half lie on a
    # diagonal of the flattened stack, one entry every size + 1
    stack = np.tile(point, (2 * min(per_chunk, size), 1))
    flat = stack.reshape(-1)
    numeric = np.empty(size)
    for start in range(0, size, per_chunk):
        stop = min(start + per_chunk, size)
        k = stop - start
        lo_start = start + k * size
        hi = flat[start: start + k * (size + 1): size + 1]
        lo = flat[lo_start: lo_start + k * (size + 1): size + 1]
        np.add(point[start:stop], eps, out=hi)
        np.subtract(hi, 2 * eps, out=lo)
        values = np.asarray(loss(stack[: 2 * k], range(start, stop)), dtype=float)
        hi[:] = lo[:] = point[start:stop]
        if not np.all(np.isfinite(values)):
            raise FloatingPointError("non-finite loss during finite differencing")
        numeric[start:stop] = (values[:k] - values[k:]) / (2 * eps)
    err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
    return float(err.max())

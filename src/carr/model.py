"""Gaussian-posterior encoder and two-class predictor.

The encoder maps features through one hidden ELU layer to
mean/log-variance heads; z is drawn by reparameterization.  The
predictor maps z through one hidden ELU layer to two logits.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .numkit import (ConfigurationError, DenseLayer, dense_backward, dense_forward,
                     dense_input_grad, init_dense)

__all__ = [
    "EncoderOutput",
    "ModelParams",
    "init_params",
    "encode",
    "predict",
    "predictor_xent",
    "predictor_xent_grad",
    "predictor_xent_backward",
]

LOGVAR_CLAMP = 10.0
HIDDEN = 64
_LAYERS = ("enc_hidden", "enc_head", "pred_hidden", "pred_out")


@dataclass
class EncoderOutput:
    """One encoder forward for a batch and the cache its backward takes."""

    feats: np.ndarray  # (n, d_in) encoder input
    hidden: np.ndarray  # (n, 64) hidden-layer output
    hidden_neg: np.ndarray  # (n, 64) min(hidden pre-activation, 0), the ELU cache
    head: np.ndarray  # (n, 2*d_z) mean and unclamped log-variance
    mean: np.ndarray  # (n, d_z)
    logvar: np.ndarray  # (n, d_z), clamped
    std: np.ndarray  # (n, d_z)
    eps_std: np.ndarray  # (n, d_z) standard-normal draw used for z
    z: np.ndarray  # (n, d_z)


@dataclass
class ModelParams:
    """Encoder/predictor parameters.

    Every array is a view of the one float64 vector ``flat``, laid out as
    the weights and bias of each layer in field order.  Update the arrays
    in place; rebinding one detaches it.  :meth:`over` lays the same model
    over another vector, such as a gradient, or over K such vectors at once.
    """

    enc_hidden: DenseLayer  # d_in -> 64, elu
    enc_head: DenseLayer  # 64 -> 2*d_z, identity
    pred_hidden: DenseLayer  # d_z -> 64, elu
    pred_out: DenseLayer  # 64 -> 2, identity
    d_z: int
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.flat = np.concatenate([np.ravel(a) for name in _LAYERS for a in (
            getattr(self, name).weights, getattr(self, name).bias)], dtype=float)
        laid = self.over(self.flat)
        for name in _LAYERS:
            setattr(self, name, getattr(laid, name))

    def over(self, vec: np.ndarray, changed: range | None = None) -> ModelParams:
        """This model laid over ``vec``, a (P,) vector such as a gradient or
        a (K, P) stack of K parameter vectors: its ``flat`` is ``vec`` (a
        float64 copy if it is not float64), and every array is a view of it
        in this model's layout, with a leading K axis for a stack, which the
        forward passes carry through.

        ``changed``, a ``range(start, stop)`` of coordinates, is the
        caller's promise that ``vec`` equals this model's ``flat`` outside
        it.  Only the layers that hold a coordinate of it are then laid over
        ``vec``; every other layer keeps this model's own arrays, so a
        stack's forward runs the layers below them once for all K rows and
        multiplies by one shared weight above them.
        """
        vec = np.asarray(vec, dtype=float)
        size = self.flat.size
        if vec.ndim not in (1, 2) or vec.shape[-1] != size:
            raise ConfigurationError(f"parameter vector has shape {vec.shape}, "
                                     f"expected ({size},) or (K, {size})")
        if changed is None:
            changed = range(size)
        elif not (isinstance(changed, range) and changed.step == 1
                  and 0 <= changed.start < changed.stop <= size):
            raise ConfigurationError(
                f"changed must be a non-empty range(start, stop) within [0, {size}), "
                f"got {changed!r}")
        out = copy.copy(self)
        out.flat = vec
        stop = 0
        for name in _LAYERS:
            layer = getattr(self, name)
            start, mid = stop, stop + layer.weights.size
            stop = mid + layer.bias.size
            if start < changed.stop and changed.start < stop:
                w = vec[..., start:mid].reshape(vec.shape[:-1] + layer.weights.shape)
                setattr(out, name, DenseLayer(w, vec[..., mid:stop], layer.activation))
        return out

    def to_vector(self) -> np.ndarray:
        return self.flat.copy()

    def from_vector(self, vec: np.ndarray) -> None:
        """Overwrite parameters in place from a flat vector."""
        if vec.size != self.flat.size:
            raise ConfigurationError(
                f"parameter vector has length {vec.size}, expected {self.flat.size}"
            )
        self.flat[:] = vec


def init_params(rng: np.random.Generator, d_in: int, d_z: int = 64) -> ModelParams:
    """Fresh parameters for ``d_in`` input features."""
    return ModelParams(
        enc_hidden=init_dense(rng, d_in, HIDDEN, "elu"),
        enc_head=init_dense(rng, HIDDEN, 2 * d_z, "identity"),
        pred_hidden=init_dense(rng, d_z, HIDDEN, "elu"),
        pred_out=init_dense(rng, HIDDEN, 2, "identity"),
        d_z=d_z,
    )


def encode(params: ModelParams, x_batch: np.ndarray,
           eps_std: np.ndarray | None = None) -> EncoderOutput:
    """Posterior parameters, z = mean + std * eps_std and the cache the loss
    backpropagates from, for a batch.  ``eps_std`` is the (n, d_z)
    standard-normal draw; None means z = mean.  Stacked parameters give
    every output but the draw a leading K axis."""
    feats = np.asarray(x_batch, dtype=float)
    hidden, hidden_neg = dense_forward(params.enc_hidden, feats)
    head, _ = dense_forward(params.enc_head, hidden)
    mean = head[..., : params.d_z]
    logvar = np.minimum(np.maximum(head[..., params.d_z:], -LOGVAR_CLAMP), LOGVAR_CLAMP)
    if eps_std is None:
        eps_std = np.zeros(mean.shape[-2:])
    elif np.shape(eps_std) != mean.shape[-2:]:
        raise ConfigurationError(
            f"eps_std has shape {np.shape(eps_std)}, expected {mean.shape[-2:]}"
        )
    std = np.exp(0.5 * logvar)
    return EncoderOutput(feats=feats, hidden=hidden, hidden_neg=hidden_neg,
                         head=head, mean=mean, logvar=logvar, std=std,
                         eps_std=eps_std, z=mean + std * eps_std)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the two columns of (..., n, 2) logits."""
    shifted = logits - np.maximum(logits[..., 0], logits[..., 1])[..., None]
    ex = np.exp(shifted, out=shifted)
    return np.divide(ex, (ex[..., 0] + ex[..., 1])[..., None], out=ex)


def _predictor_forward(params: ModelParams, z: np.ndarray):
    """The predictor over (..., n, d_z) representations: hidden output, its
    ELU cache, logits and class probabilities."""
    hidden, hidden_neg = dense_forward(params.pred_hidden, z)
    logits, _ = dense_forward(params.pred_out, hidden)
    return hidden, hidden_neg, logits, softmax(logits)


def predict(params: ModelParams, z_batch: np.ndarray) -> np.ndarray:
    """P(y = 1 | z), shape (n,), for a batch of representations."""
    z = np.asarray(z_batch, dtype=float)
    if z.ndim != 2 or z.shape[1] != params.d_z:
        raise ConfigurationError(
            f"z width {z.shape} does not match d_z={params.d_z}"
        )
    return _predictor_forward(params, z)[3][:, 1]


def predictor_xent(params: ModelParams, z_batch: np.ndarray, y_batch: np.ndarray):
    """Per-row cross-entropy of the predictor, (..., n) over a (..., n, d_z)
    batch, and the cache its backward takes."""
    z = np.asarray(z_batch, dtype=float)
    y = np.asarray(y_batch, dtype=int)
    hidden, hidden_neg, logits, probs = _predictor_forward(params, z)
    # a new C-ordered array, so the mean over a stack's batch sums each row
    # as it sums a 2-D one
    picked = np.where(y == 1, probs[..., 1], probs[..., 0])
    xent = -np.log(np.maximum(picked, 1e-300))
    return xent, (z, y, hidden, hidden_neg, probs, logits)


def predictor_xent_grad(params: ModelParams, z_batch: np.ndarray, y_batch: np.ndarray):
    """Per-row cross-entropy of the predictor and the z-gradient of its mean,
    ``(xent, z_grad)``: the attacker's pass, whose backward forms no layer
    gradient.  ``z_grad`` is that of ``predictor_xent_backward(..., None)``."""
    xent, cache = predictor_xent(params, z_batch, y_batch)
    *_, hidden_neg, _, logits = cache
    g_hidden = dense_input_grad(params.pred_out, logits, _logit_grad(cache, None))[0]
    return xent, dense_input_grad(params.pred_hidden, hidden_neg, g_hidden)[0]


def _logit_grad(cache: tuple, coeff: float | None) -> np.ndarray:
    """d(coeff * mean xent)/dlogits, written over the cached probabilities.
    ``coeff`` None divides by n (the attacker's plain mean), which rounds
    differently from multiplying by ``1.0 / n`` (each objective term's weight)."""
    _, y, _, _, probs, _ = cache
    probs[:, 1] -= y
    probs[:, 0] -= 1 - y
    if coeff is None:
        probs /= y.shape[0]
    else:
        probs *= coeff / y.shape[0]
    return probs


def predictor_xent_backward(params: ModelParams, cache: tuple,
                            coeff: float | None = None,
                            out: ModelParams | None = None, z_grad: bool = True):
    """Gradients of ``coeff * xent.mean()`` (the plain mean for ``coeff``
    None) from the cache of a 2-D :func:`predictor_xent`, which it
    overwrites.  Returns ``(z_grad, grads)``, ``grads`` the weight and bias
    gradients of ``pred_out`` and of ``pred_hidden``: the arrays of ``out``
    (``params`` laid over a gradient) written over, or new ones if None.
    With ``z_grad`` False the first is None, not formed."""
    z, _, hidden, hidden_neg, _, logits = cache
    into = [None] * 4 if out is None else [a for layer in (out.pred_out, out.pred_hidden)
                                           for a in (layer.weights, layer.bias)]
    g, *grads = dense_backward(params.pred_out, hidden, logits,
                               _logit_grad(cache, coeff), *into[:2])
    g, *more = dense_backward(params.pred_hidden, z, hidden_neg, g, *into[2:], z_grad)
    return g, (*grads, *more)

"""Gaussian-posterior encoder and two-class predictor.

The encoder maps features through one hidden ELU layer to
mean/log-variance heads; z is drawn by reparameterization.  The
predictor maps z through one hidden ELU layer to two logits.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .numkit import (ConfigurationError, DenseLayer, Rng, dense_backward, dense_forward,
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
    in place; rebinding one detaches it.  :meth:`stacked` gives the same
    model over K such vectors at once.
    """

    enc_hidden: DenseLayer  # d_in -> 64, elu
    enc_head: DenseLayer  # 64 -> 2*d_z, identity
    pred_hidden: DenseLayer  # d_z -> 64, elu
    pred_out: DenseLayer  # 64 -> 2, identity
    d_z: int
    flat: np.ndarray = field(init=False, repr=False)
    _layout: list = field(init=False, repr=False)  # (key, start, stop, shape)

    def __post_init__(self):
        slots = [(f"{name}.{attr}", getattr(self, name), attr)
                 for name in _LAYERS for attr in ("weights", "bias")]
        self._layout, start = [], 0
        for key, layer, attr in slots:
            shape = getattr(layer, attr).shape
            stop = start + math.prod(shape)
            self._layout.append((key, start, stop, shape))
            start = stop
        self.flat = np.concatenate([np.ravel(getattr(layer, attr))
                                    for _, layer, attr in slots], dtype=float)
        for (_, layer, attr), view in zip(slots, self.views(self.flat).values()):
            setattr(layer, attr, view)

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Views of a (..., P) array shaped (...,) plus the shape of each
        parameter array, in layout order, keyed "<layer>.weights" and
        "<layer>.bias"."""
        return {key: vec[..., start:stop].reshape(vec.shape[:-1] + shape)
                for key, start, stop, shape in self._layout}

    def stacked(self, vecs: np.ndarray, unchanged_below: int = 0) -> ModelParams:
        """Parameters over the (K, P) stack ``vecs``: row k is a parameter
        vector of this model, and every array is a view of ``flat`` (``vecs``
        itself when it is float64) with a leading K axis, which the forward
        passes carry through.

        The caller promises that every row equals ``flat`` below index
        ``unchanged_below``.  A layer whose parameters all lie below it
        keeps this model's own unstacked arrays, so the forward runs it once
        for all K rows.
        """
        vecs = np.asarray(vecs, dtype=float)
        if vecs.ndim != 2 or vecs.shape[1] != self.flat.size:
            raise ConfigurationError(
                f"parameter stack has shape {vecs.shape}, "
                f"expected (K, {self.flat.size})"
            )
        if not 0 <= unchanged_below < self.flat.size:
            raise ConfigurationError(
                f"unchanged_below must lie in [0, {self.flat.size}), "
                f"got {unchanged_below}"
            )
        stops = {key: stop for key, _, stop, _ in self._layout}
        v = self.views(vecs)
        out = copy.copy(self)
        out.flat = vecs
        for name in _LAYERS:
            if stops[f"{name}.bias"] > unchanged_below:
                layer = replace(getattr(self, name), weights=v[f"{name}.weights"],
                                bias=v[f"{name}.bias"])
                setattr(out, name, layer)
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


def init_params(rng: Rng, d_in: int, d_z: int = 64) -> ModelParams:
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
                            coeff: float | None = None, out: dict | None = None,
                            z_grad: bool = True):
    """Gradients of ``coeff * xent.mean()`` (the plain mean for ``coeff``
    None) from the cache of a 2-D :func:`predictor_xent`, which it
    overwrites.  Returns ``(z_grad, layer_grads)``, the second keyed as in
    :meth:`ModelParams.views` and written into ``out``'s arrays of those
    keys (such as views of one flat gradient), new arrays if None; with
    ``z_grad`` False the first is None, not formed."""
    z, _, hidden, hidden_neg, _, logits = cache
    g, grads, out = _logit_grad(cache, coeff), {}, out or {}
    for name, x, layer_cache, need in (("pred_out", hidden, logits, True),
                                       ("pred_hidden", z, hidden_neg, z_grad)):
        w, b = f"{name}.weights", f"{name}.bias"
        g, grads[w], grads[b] = dense_backward(getattr(params, name), x, layer_cache,
                                               g, out.get(w), out.get(b), need)
    return g, grads

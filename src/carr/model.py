"""Gaussian-posterior encoder and two-class predictor.

The encoder maps features (or an embedded id pair) through one hidden ELU
layer to mean/log-variance heads; z is drawn by reparameterization.  The
predictor maps z through one hidden ELU layer to two logits.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .numkit import (ConfigurationError, DenseLayer, Rng, dense_backward, dense_buffers,
                     dense_forward, dense_input_grad, init_dense)

__all__ = [
    "EncoderOutput",
    "ModelParams",
    "init_params",
    "encode",
    "predict",
    "predictor_buffers",
    "predictor_xent",
    "predictor_xent_grad",
    "predictor_xent_backward",
    "DataError",
]

LOGVAR_CLAMP = 10.0
EMB_DIM = 32
HIDDEN = 64
_LAYERS = ("enc_hidden", "enc_head", "pred_hidden", "pred_out")


class DataError(ValueError):
    """Out-of-vocabulary id or malformed input batch."""


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
    ids: np.ndarray | None  # (n, 2) id pairs of embedding models


@dataclass
class ModelParams:
    """Encoder/predictor parameters.

    Every array is a view of the one float64 vector ``flat``, laid out as
    the embeddings (if any), then weights and bias of each layer in field
    order.  Update the arrays in place; rebinding one detaches it.
    :meth:`stacked` gives the same model over K such vectors at once.
    """

    enc_hidden: DenseLayer  # d_in -> 64, elu
    enc_head: DenseLayer  # 64 -> 2*d_z, identity
    pred_hidden: DenseLayer  # d_z -> 64, elu
    pred_out: DenseLayer  # 64 -> 2, identity
    d_z: int
    user_emb: np.ndarray | None = None  # (n_users, 32)
    item_emb: np.ndarray | None = None  # (n_items, 32)
    flat: np.ndarray = field(init=False, repr=False)
    _layout: list = field(init=False, repr=False)  # (key, start, stop, shape)

    def __post_init__(self):
        emb = ("user_emb", "item_emb") if self.uses_embeddings else ()
        slots = [(key, self, key) for key in emb] + [
            (f"{name}.{attr}", getattr(self, name), attr)
            for name in _LAYERS for attr in ("weights", "bias")
        ]
        self._layout, start = [], 0
        for key, owner, attr in slots:
            shape = getattr(owner, attr).shape
            stop = start + math.prod(shape)
            self._layout.append((key, start, stop, shape))
            start = stop
        self.flat = np.concatenate([np.ravel(getattr(owner, attr))
                                    for _, owner, attr in slots], dtype=float)
        for (_, owner, attr), view in zip(slots, self.views(self.flat).values()):
            setattr(owner, attr, view)

    @property
    def uses_embeddings(self) -> bool:
        return self.user_emb is not None

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Views of a (..., P) array shaped (...,) plus the shape of each
        parameter array, in layout order, keyed "user_emb", "item_emb"
        (embedding models only) and "<layer>.weights", "<layer>.bias"."""
        return {key: vec[..., start:stop].reshape(vec.shape[:-1] + shape)
                for key, start, stop, shape in self._layout}

    def stacked(self, vecs: np.ndarray, unchanged_below: int = 0) -> ModelParams:
        """Parameters over the (K, P) stack ``vecs``: row k is a parameter
        vector of this model, and every array is a view of ``flat`` (``vecs``
        itself when it is float64) with a leading K axis, which the forward
        passes carry through.

        The caller promises that every row equals ``flat`` below index
        ``unchanged_below``.  A layer, or the embedding pair, whose
        parameters all lie below it keeps this model's own unstacked
        arrays, so the forward runs it once for all K rows.
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
        if self.uses_embeddings and stops["item_emb"] > unchanged_below:
            out.user_emb, out.item_emb = v["user_emb"], v["item_emb"]
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


def init_params(rng: Rng, d_in: int | None = None, d_z: int = 64,
                vocab: tuple[int, int] | None = None) -> ModelParams:
    """Fresh parameters for raw-feature input (d_in) or an id pair (vocab)."""
    if (d_in is None) == (vocab is None):
        raise ConfigurationError("specify exactly one of d_in or vocab")
    user_emb = item_emb = None
    if vocab is not None:
        n_users, n_items = vocab
        user_emb = 0.1 * rng.normal(size=(n_users, EMB_DIM))
        item_emb = 0.1 * rng.normal(size=(n_items, EMB_DIM))
        d_in = 2 * EMB_DIM
    return ModelParams(
        enc_hidden=init_dense(rng, d_in, HIDDEN, "elu"),
        enc_head=init_dense(rng, HIDDEN, 2 * d_z, "identity"),
        pred_hidden=init_dense(rng, d_z, HIDDEN, "elu"),
        pred_out=init_dense(rng, HIDDEN, 2, "identity"),
        d_z=d_z,
        user_emb=user_emb,
        item_emb=item_emb,
    )


def featurize(params: ModelParams, x_batch: np.ndarray) -> np.ndarray:
    """Raw features pass through; id pairs are embedded and concatenated,
    with the leading axis of stacked embeddings in front."""
    x = np.asarray(x_batch)
    if not params.uses_embeddings:
        return np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != 2:
        raise DataError("id-pair input must have two integer columns")
    u, v = x[:, 0].astype(int), x[:, 1].astype(int)
    if u.min() < 0 or u.max() >= params.user_emb.shape[-2]:
        raise DataError("user id out of vocabulary")
    if v.min() < 0 or v.max() >= params.item_emb.shape[-2]:
        raise DataError("item id out of vocabulary")
    return np.concatenate([params.user_emb[..., u, :], params.item_emb[..., v, :]],
                          axis=-1)


def encode(params: ModelParams, x_batch: np.ndarray,
           eps_std: np.ndarray | None = None) -> EncoderOutput:
    """Posterior parameters, z = mean + std * eps_std and the cache the loss
    backpropagates from, for a batch.  ``eps_std`` is the (n, d_z)
    standard-normal draw; None means z = mean.  Stacked parameters give
    every output but the draw a leading K axis."""
    feats = featurize(params, x_batch)
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
    ids = np.asarray(x_batch).astype(int) if params.uses_embeddings else None
    return EncoderOutput(feats=feats, hidden=hidden, hidden_neg=hidden_neg,
                         head=head, mean=mean, logvar=logvar, std=std,
                         eps_std=eps_std, z=mean + std * eps_std, ids=ids)


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the two columns of (..., n, 2) logits, into ``out`` if given."""
    shifted = np.subtract(logits, np.maximum(logits[..., 0], logits[..., 1])[..., None],
                          out=out)
    ex = np.exp(shifted, out=shifted)
    return np.divide(ex, (ex[..., 0] + ex[..., 1])[..., None], out=ex)


def predictor_buffers(params: ModelParams, y: np.ndarray) -> dict[str, np.ndarray]:
    """The ``out`` of predictor passes over one batch with the int 0/1
    labels ``y``: the labels, also as flat indices into the (n, 2)
    probabilities and as one-hot rows, and arrays each pass overwrites with
    its intermediates."""
    n = len(y)
    hidden, hidden_grad = dense_buffers(params.pred_hidden, n)
    logits, logits_grad = dense_buffers(params.pred_out, n)
    return {"y": y, "pick": 2 * np.arange(n) + y, "onehot": np.eye(2)[y],
            "pred_hidden": hidden, "pred_out": logits, "probs": np.empty((n, 2)),
            "pred_out_grad": logits_grad, "pred_hidden_grad": hidden_grad}


def _predictor_forward(params: ModelParams, z: np.ndarray, out: dict | None = None):
    """The predictor over (..., n, d_z) representations: hidden output, its
    ELU cache, logits and class probabilities, in ``out``'s arrays if given."""
    out = out or {}
    hidden, hidden_neg = dense_forward(params.pred_hidden, z, out.get("pred_hidden"))
    logits, _ = dense_forward(params.pred_out, hidden, out.get("pred_out"))
    return hidden, hidden_neg, logits, softmax(logits, out.get("probs"))


def predict(params: ModelParams, z_batch: np.ndarray) -> np.ndarray:
    """P(y = 1 | z), shape (n,), for a batch of representations."""
    z = np.asarray(z_batch, dtype=float)
    if z.ndim != 2 or z.shape[1] != params.d_z:
        raise ConfigurationError(
            f"z width {z.shape} does not match d_z={params.d_z}"
        )
    return _predictor_forward(params, z)[3][:, 1]


def predictor_xent(params: ModelParams, z_batch: np.ndarray, y_batch: np.ndarray,
                   out: dict | None = None):
    """Per-row cross-entropy of the predictor, (..., n) over a (..., n, d_z)
    batch, and the cache its backward takes, in the arrays of ``out`` if
    given: the :func:`predictor_buffers` of a 2-D batch with these labels."""
    z = np.asarray(z_batch, dtype=float)
    y = np.asarray(y_batch, dtype=int)
    if out is not None and y is not out["y"] and not np.array_equal(y, out["y"]):
        raise ValueError("predictor buffers were made for other labels")
    hidden, hidden_neg, logits, probs = _predictor_forward(params, z, out)
    if out is None:
        # indexing a stack this way lays the result out batch-major; C order
        # makes the mean over the batch sum each row as it sums a 2-D one
        picked, onehot = np.ascontiguousarray(probs[..., np.arange(y.shape[0]), y]), None
    else:
        picked, onehot = probs.take(out["pick"]), out["onehot"]
    xent = -np.log(np.maximum(picked, 1e-300))
    return xent, (z, y, onehot, hidden, hidden_neg, probs, logits)


def predictor_xent_grad(params: ModelParams, z_batch: np.ndarray, y_batch: np.ndarray,
                        out: dict | None = None):
    """Per-row cross-entropy of the predictor and the z-gradient of its mean,
    ``(xent, z_grad)``: the attacker's pass, whose backward forms no layer
    gradient.  ``z_grad`` is that of ``predictor_xent_backward(..., None)``,
    in ``out``'s arrays if given."""
    xent, cache = predictor_xent(params, z_batch, y_batch, out)
    *_, hidden_neg, _, logits = cache
    out = out or {}
    g_hidden = dense_input_grad(params.pred_out, logits, _logit_grad(cache, None),
                                out=out.get("pred_out_grad"))[0]
    return xent, dense_input_grad(params.pred_hidden, hidden_neg, g_hidden,
                                  out=out.get("pred_hidden_grad"))[0]


def _logit_grad(cache: tuple, coeff: float | None) -> np.ndarray:
    """d(coeff * mean xent)/dlogits, written over the cached probabilities.
    ``coeff`` None divides by n (the attacker's plain mean), which rounds
    differently from multiplying by ``1.0 / n`` (each objective term's weight)."""
    _, y, onehot, _, _, probs, _ = cache
    if onehot is None:
        probs[np.arange(y.shape[0]), y] -= 1.0
    else:
        probs -= onehot
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
    z, _, _, hidden, hidden_neg, _, logits = cache
    g, grads, out = _logit_grad(cache, coeff), {}, out or {}
    for name, x, layer_cache, need in (("pred_out", hidden, logits, True),
                                       ("pred_hidden", z, hidden_neg, z_grad)):
        w, b = f"{name}.weights", f"{name}.bias"
        g, grads[w], grads[b] = dense_backward(getattr(params, name), x, layer_cache,
                                               g, out.get(w), out.get(b), need)
    return g, grads

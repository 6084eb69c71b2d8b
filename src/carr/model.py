"""Gaussian-posterior encoder and two-class predictor.

The encoder maps features (or an embedded id pair) through one hidden ELU
layer to mean/log-variance heads; z is drawn by reparameterization.  The
predictor maps z through one hidden ELU layer to two logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import (
    ConfigurationError,
    DenseLayer,
    Rng,
    dense_backward,
    dense_forward,
    init_dense,
)

__all__ = [
    "EncoderOutput",
    "ModelParams",
    "init_params",
    "encode",
    "predict",
    "predictor_xent_grad",
    "DataError",
]

LOGVAR_CLAMP = 10.0
EMB_DIM = 32
HIDDEN = 64


class DataError(ValueError):
    """Out-of-vocabulary id or malformed input batch."""


@dataclass
class EncoderOutput:
    mean: np.ndarray  # (n, d_z)
    logvar: np.ndarray  # (n, d_z), clamped
    z: np.ndarray  # (n, d_z)
    eps_std: np.ndarray  # (n, d_z) standard-normal draw used for z


@dataclass
class ModelParams:
    enc_hidden: DenseLayer  # d_in -> 64, elu
    enc_head: DenseLayer  # 64 -> 2*d_z, identity
    pred_hidden: DenseLayer  # d_z -> 64, elu
    pred_out: DenseLayer  # 64 -> 2, identity
    d_z: int
    user_emb: np.ndarray | None = None  # (n_users, 32)
    item_emb: np.ndarray | None = None  # (n_items, 32)

    @property
    def uses_embeddings(self) -> bool:
        return self.user_emb is not None

    # Flat-vector views keep the optimizer and gradient checker simple.

    def _arrays(self):
        out = []
        for layer in (self.enc_hidden, self.enc_head, self.pred_hidden, self.pred_out):
            out.append(("w", layer))
            out.append(("b", layer))
        return out

    def to_vector(self) -> np.ndarray:
        parts = []
        if self.uses_embeddings:
            parts += [self.user_emb.ravel(), self.item_emb.ravel()]
        for kind, layer in self._arrays():
            parts.append((layer.weights if kind == "w" else layer.bias).ravel())
        return np.concatenate(parts)

    def from_vector(self, vec: np.ndarray) -> None:
        """Overwrite parameters in place from a flat vector."""
        expected = self.to_vector().size
        if vec.size != expected:
            raise ConfigurationError(
                f"parameter vector has length {vec.size}, expected {expected}"
            )
        i = 0

        def take(shape):
            nonlocal i
            size = int(np.prod(shape))
            out = vec[i:i + size].reshape(shape).copy()
            i += size
            return out

        if self.uses_embeddings:
            self.user_emb = take(self.user_emb.shape)
            self.item_emb = take(self.item_emb.shape)
        for kind, layer in self._arrays():
            if kind == "w":
                layer.weights = take(layer.weights.shape)
            else:
                layer.bias = take(layer.bias.shape)


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
    """Raw features pass through; id pairs are embedded and concatenated."""
    x = np.asarray(x_batch)
    if not params.uses_embeddings:
        return np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != 2:
        raise DataError("id-pair input must have two integer columns")
    u, v = x[:, 0].astype(int), x[:, 1].astype(int)
    if u.min() < 0 or u.max() >= params.user_emb.shape[0]:
        raise DataError("user id out of vocabulary")
    if v.min() < 0 or v.max() >= params.item_emb.shape[0]:
        raise DataError("item id out of vocabulary")
    return np.concatenate([params.user_emb[u], params.item_emb[v]], axis=1)


def encode(params: ModelParams, x_batch: np.ndarray, rng: Rng | None = None,
           deterministic: bool = False) -> EncoderOutput:
    """Posterior parameters and a reparameterized sample for a batch."""
    feats = featurize(params, x_batch)
    hidden, _ = dense_forward(params.enc_hidden, feats)
    head, _ = dense_forward(params.enc_head, hidden)
    mean = head[:, : params.d_z]
    logvar = np.clip(head[:, params.d_z:], -LOGVAR_CLAMP, LOGVAR_CLAMP)
    if deterministic:
        eps = np.zeros_like(mean)
    else:
        if rng is None:
            raise ConfigurationError("stochastic encoding needs an rng")
        eps = rng.normal(size=mean.shape)
    z = mean + np.exp(0.5 * logvar) * eps
    return EncoderOutput(mean=mean, logvar=logvar, z=z, eps_std=eps)


def predict(params: ModelParams, z_batch: np.ndarray) -> np.ndarray:
    """Two-class logits for a batch of representations."""
    z = np.asarray(z_batch, dtype=float)
    if z.ndim != 2 or z.shape[1] != params.d_z:
        raise ConfigurationError(
            f"z width {z.shape} does not match d_z={params.d_z}"
        )
    hidden, _ = dense_forward(params.pred_hidden, z)
    return dense_forward(params.pred_out, hidden)[0]


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def predictor_xent_grad(params: ModelParams, z_batch: np.ndarray,
                        y_batch: np.ndarray, coeff: float | None = None):
    """Per-row cross-entropy of the predictor and the gradients of its mean.

    Returns ``(xent, z_grad, (w1_grad, b1_grad, w2_grad, b2_grad))``: one
    cross-entropy per row, and the gradients of ``coeff * xent.mean()``
    w.r.t. z and the two predictor layers.  With ``coeff`` None the
    gradient of the plain mean divides by n, which rounds differently from
    multiplying by ``1.0 / n``: the attacker takes that form, the objective
    passes each term's weight.
    """
    z = np.asarray(z_batch, dtype=float)
    y = np.asarray(y_batch, dtype=int)
    n = z.shape[0]
    rows = np.arange(n)
    hidden, pre_hidden = dense_forward(params.pred_hidden, z)
    logits, pre_logits = dense_forward(params.pred_out, hidden)
    probs = softmax(logits)
    xent = -np.log(np.maximum(probs[rows, y], 1e-300))
    # d(mean xent)/dlogits = (softmax - onehot) / n
    g_logits = probs
    g_logits[rows, y] -= 1.0
    if coeff is None:
        g_logits /= n
    else:
        g_logits *= coeff / n
    g_hidden, gw2, gb2 = dense_backward(params.pred_out, hidden, pre_logits, g_logits)
    g_z, gw1, gb1 = dense_backward(params.pred_hidden, z, pre_hidden, g_hidden)
    return xent, g_z, (gw1, gb1, gw2, gb2)

"""Loss terms and their assembly for the four training methods.

Minimization form throughout: the assembled total is
``-positive_ll + lambda * kl + neg_weight * negative_ll`` with terms
included per method.  ``loss_and_grads`` runs the whole pipeline with
hand-derived gradients; perturbations (adversarial and random) enter as
fixed offsets, so parameter gradients treat them as constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LOGVAR_CLAMP, ModelParams, featurize, predictor_xent_grad
from .numkit import ConfigurationError, dense_backward, dense_forward

__all__ = [
    "LossBreakdown",
    "kl_gaussian",
    "intervene",
    "assemble_loss",
    "loss_and_grads",
    "METHODS",
]

METHODS = ("base", "ib", "rcvae", "carr")


@dataclass
class LossBreakdown:
    positive_ll: float
    kl: float | None
    negative_ll: float | None
    total: float
    lam: float
    mode: str

    @property
    def use_kl(self) -> bool:
        return self.mode in ("ib", "rcvae", "carr")


def kl_gaussian(mean: np.ndarray, logvar: np.ndarray,
                prior_mean: np.ndarray) -> float:
    """KL(N(mean, diag exp(logvar)) || N(prior_mean, I)), summed over
    dimensions and averaged over the batch."""
    mean = np.atleast_2d(np.asarray(mean, dtype=float))
    logvar = np.atleast_2d(np.asarray(logvar, dtype=float))
    prior = np.broadcast_to(np.asarray(prior_mean, dtype=float), mean.shape)
    if logvar.shape != mean.shape:
        raise ConfigurationError("mean and logvar must have equal shape")
    per_sample = 0.5 * (np.exp(logvar) + (mean - prior) ** 2 - 1.0 - logvar).sum(axis=1)
    return float(per_sample.mean())


def intervene(z_batch: np.ndarray, y_batch: np.ndarray, b: float = 0.8) -> np.ndarray:
    """Constant label-dependent shift: +b per coordinate where y=0, -b where y=1."""
    z = np.asarray(z_batch, dtype=float)
    y = np.asarray(y_batch, dtype=int)
    shift = np.where(y == 0, b, -b)[:, None]
    return z + shift


def assemble_loss(mode: str, positive_ll: float, kl: float | None = None,
                  negative_ll: float | None = None, lam: float = 0.0,
                  neg_weight: float = 1.0) -> LossBreakdown:
    """Combine computed terms into the method's minimization objective."""
    if mode not in METHODS:
        raise ConfigurationError(f"unknown method {mode!r}")
    total = -positive_ll
    if mode in ("ib", "rcvae", "carr"):
        if kl is None:
            raise ConfigurationError(f"method {mode!r} requires the KL term")
        total += lam * kl
    if mode == "carr":
        if negative_ll is None:
            raise ConfigurationError("method 'carr' requires the negative term")
        total += neg_weight * negative_ll
    return LossBreakdown(positive_ll=positive_ll, kl=kl, negative_ll=negative_ll,
                         total=total, lam=lam, mode=mode)


def loss_and_grads(params: ModelParams, x_batch: np.ndarray, y_batch: np.ndarray,
                   mode: str, lam: float = 0.001, b: float = 0.8,
                   neg_weight: float = 1.0, eps_std: np.ndarray | None = None,
                   attack_delta: np.ndarray | None = None,
                   neg_delta: np.ndarray | None = None,
                   stop_grad_negative: bool = False):
    """Full loss for one batch plus its gradient as a flat vector.

    ``eps_std`` is the standard-normal draw of the reparameterization
    (None means deterministic z = mean); ``attack_delta`` shifts z for the
    positive term and ``neg_delta`` shifts the intervened representation for
    the negative term.  Both shifts are constants during differentiation.
    """
    if mode not in METHODS:
        raise ConfigurationError(f"unknown method {mode!r}")
    y = np.asarray(y_batch, dtype=int)
    n = y.shape[0]

    # Encoder forward
    feats = featurize(params, x_batch)
    enc_hidden_out, enc_hidden_pre = dense_forward(params.enc_hidden, feats)
    head, _ = dense_forward(params.enc_head, enc_hidden_out)
    mean = head[:, : params.d_z]
    raw_logvar = head[:, params.d_z:]
    logvar = np.clip(raw_logvar, -LOGVAR_CLAMP, LOGVAR_CLAMP)
    clamp_mask = (np.abs(raw_logvar) < LOGVAR_CLAMP).astype(float)
    if eps_std is None:
        eps_std = np.zeros_like(mean)
    std = np.exp(0.5 * logvar)
    z = mean + std * eps_std

    # Positive term (possibly on attacked z)
    z_pos = z if attack_delta is None else z + attack_delta
    xent_pos, g_z_pos, pred_grads_pos = predictor_xent_grad(params, z_pos, y, 1.0)
    positive_ll = -float(xent_pos.mean())

    # KL against the conditional Gaussian prior N(y*1, I)
    prior = y[:, None].astype(float)
    kl = kl_gaussian(mean, logvar, prior) if mode != "base" else None

    # Negative term on the randomly perturbed intervened representation
    negative_ll = None
    g_z_neg = None
    pred_grads_neg = None
    if mode == "carr":
        z_bar = intervene(z, y, b)
        z_neg = z_bar if neg_delta is None else z_bar + neg_delta
        # the negative ll is ADDED to the minimized total, so its upstream
        # coefficient is -neg_weight relative to the positive branch
        xent_neg, g_z_neg, pred_grads_neg = predictor_xent_grad(
            params, z_neg, y, -neg_weight
        )
        negative_ll = -float(xent_neg.mean())

    breakdown = assemble_loss(mode, positive_ll, kl, negative_ll, lam, neg_weight)

    # ----- backward through the encoder -----
    g_z = g_z_pos.copy()
    if g_z_neg is not None and not stop_grad_negative:
        g_z += g_z_neg  # intervention shift is additive, identity jacobian

    g_mean = g_z.copy()
    g_logvar = g_z * eps_std * 0.5 * std
    if mode != "base":
        g_mean += lam * (mean - prior) / n
        g_logvar += lam * 0.5 * (np.exp(logvar) - 1.0) / n
    g_logvar *= clamp_mask

    g_head = np.concatenate([g_mean, g_logvar], axis=1)
    grad = np.zeros_like(params.flat)
    g = params.views(grad)
    g_enc_hidden_out, g["enc_head.weights"][:], g["enc_head.bias"][:] = dense_backward(
        params.enc_head, enc_hidden_out, head, g_head
    )
    g_feats, g["enc_hidden.weights"][:], g["enc_hidden.bias"][:] = dense_backward(
        params.enc_hidden, feats, enc_hidden_pre, g_enc_hidden_out
    )
    if params.uses_embeddings:
        ids = np.asarray(x_batch).astype(int)
        half = params.user_emb.shape[1]
        np.add.at(g["user_emb"], ids[:, 0], g_feats[:, :half])
        np.add.at(g["item_emb"], ids[:, 1], g_feats[:, half:])
    for key, value in pred_grads_pos.items():
        g[key][:] = value if pred_grads_neg is None else value + pred_grads_neg[key]
    return breakdown, grad

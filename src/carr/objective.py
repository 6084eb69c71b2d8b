"""Loss terms and their assembly for the four training methods.

Minimization form throughout: the assembled total is
``-positive_ll + lambda * kl + neg_weight * negative_ll`` with terms
included per method.  ``encoded_loss_and_grads`` takes one encoder forward
(:func:`carr.model.encode`) to the loss and its hand-derived gradient, and
``loss_and_grads`` runs both; perturbations (adversarial and random) enter
as fixed offsets, so parameter gradients treat them as constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LOGVAR_CLAMP, EncoderOutput, ModelParams, encode, predictor_xent_grad
from .numkit import ConfigurationError, dense_backward
from .numkit import dense_forward  # noqa: F401  patched by benchmarks/tracing.py

__all__ = [
    "LossBreakdown",
    "kl_gaussian",
    "intervene",
    "assemble_loss",
    "encoded_loss_and_grads",
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
                         total=total)


def loss_and_grads(params: ModelParams, x_batch: np.ndarray, y_batch: np.ndarray,
                   mode: str, *, eps_std: np.ndarray | None = None, **loss_kw):
    """Full loss for one batch plus its flat gradient: :func:`carr.model.encode`
    with ``eps_std`` (None means z = mean), then :func:`encoded_loss_and_grads`
    with the keywords ``loss_kw``."""
    return encoded_loss_and_grads(params, encode(params, x_batch, eps_std),
                                  y_batch, mode, **loss_kw)


def encoded_loss_and_grads(params: ModelParams, enc: EncoderOutput,
                           y_batch: np.ndarray, mode: str, lam: float = 0.001,
                           b: float = 0.8, neg_weight: float = 1.0,
                           attack_delta: np.ndarray | None = None,
                           neg_delta: np.ndarray | None = None,
                           stop_grad_negative: bool = False):
    """Loss of one batch and its flat gradient, backpropagated from the
    batch's encoder forward ``enc``.  ``attack_delta`` shifts z for the
    positive term and ``neg_delta`` the intervened z for the negative term;
    both have z's shape and are constants during differentiation."""
    for name, delta in (("attack_delta", attack_delta), ("neg_delta", neg_delta)):
        if delta is not None and np.shape(delta) != enc.z.shape:
            raise ConfigurationError(
                f"{name} has shape {np.shape(delta)}, expected {enc.z.shape}"
            )
    y = np.asarray(y_batch, dtype=int)
    n = y.shape[0]
    mean, logvar, std, eps_std, z = enc.mean, enc.logvar, enc.std, enc.eps_std, enc.z
    clamp_mask = (np.abs(enc.head[:, params.d_z:]) < LOGVAR_CLAMP).astype(float)

    # Positive term (possibly on attacked z)
    z_pos = z if attack_delta is None else z + attack_delta
    xent_pos, g_z, pred_grads = predictor_xent_grad(params, z_pos, y, 1.0)
    positive_ll = -float(xent_pos.mean())

    # KL against the conditional Gaussian prior N(y*1, I)
    prior = y[:, None].astype(float)
    kl = kl_gaussian(mean, logvar, prior) if mode != "base" else None

    # Negative term on the randomly perturbed intervened representation
    negative_ll = None
    if mode == "carr":
        z_bar = intervene(z, y, b)
        z_neg = z_bar if neg_delta is None else z_bar + neg_delta
        # the negative ll is ADDED to the minimized total, so its upstream
        # coefficient is -neg_weight relative to the positive branch
        xent_neg, g_z_neg, pred_grads_neg = predictor_xent_grad(
            params, z_neg, y, -neg_weight
        )
        negative_ll = -float(xent_neg.mean())
        if not stop_grad_negative:
            g_z = g_z + g_z_neg  # intervention shift is additive, identity jacobian
        pred_grads = {k: v + pred_grads_neg[k] for k, v in pred_grads.items()}

    breakdown = assemble_loss(mode, positive_ll, kl, negative_ll, lam, neg_weight)

    # ----- backward through the encoder -----
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
        params.enc_head, enc.hidden, enc.head, g_head
    )
    g_feats, g["enc_hidden.weights"][:], g["enc_hidden.bias"][:] = dense_backward(
        params.enc_hidden, enc.feats, enc.hidden_pre, g_enc_hidden_out
    )
    if enc.ids is not None:
        half = params.user_emb.shape[1]
        np.add.at(g["user_emb"], enc.ids[:, 0], g_feats[:, :half])
        np.add.at(g["item_emb"], enc.ids[:, 1], g_feats[:, half:])
    for key, value in pred_grads.items():
        g[key][:] = value
    return breakdown, grad

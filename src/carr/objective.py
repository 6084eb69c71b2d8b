"""Loss terms and their assembly for the four training methods.

Minimization form throughout: the assembled total is
``-positive_ll + lambda * kl + neg_weight * negative_ll`` with terms
included per method.  ``encoded_loss_and_grads`` takes one encoder forward
(:func:`carr.model.encode`) to the loss and its hand-derived gradient, and
``loss_and_grads`` runs both; ``loss_values`` runs their forward alone over
a stack of parameter vectors.  Perturbations (adversarial and random) enter
as fixed offsets, so parameter gradients treat them as constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    LOGVAR_CLAMP,
    EncoderOutput,
    ModelParams,
    encode,
    predictor_xent,
    predictor_xent_backward,
)
from .numkit import ConfigurationError, dense_backward
from .numkit import dense_forward  # noqa: F401  patched by benchmarks/tracing.py

__all__ = [
    "LossBreakdown",
    "kl_gaussian",
    "intervene",
    "encoded_loss_and_grads",
    "loss_and_grads",
    "loss_values",
    "METHODS",
]

METHODS = ("base", "ib", "rcvae", "carr")


@dataclass
class LossBreakdown:
    """Terms and total of one batch's loss: floats, or (K,) arrays for a
    stack of parameter sets."""

    positive_ll: float
    kl: float | None
    negative_ll: float | None
    total: float


def _scalar(value):
    """A Python float for one parameter set; the (K,) array for a stack."""
    return float(value) if np.ndim(value) == 0 else value


def kl_gaussian(mean: np.ndarray, logvar: np.ndarray, prior_mean: np.ndarray,
                var: np.ndarray | None = None) -> float:
    """KL(N(mean, diag exp(logvar)) || N(prior_mean, I)), summed over
    dimensions and averaged over the batch: a float for an (n, d) batch,
    a (K,) array for a stacked (K, n, d) one.  ``var``: exp(logvar), if known."""
    if np.ndim(mean) < 2 or np.shape(logvar) != np.shape(mean):
        raise ConfigurationError("mean and logvar must be batches of equal shape")
    var = np.exp(logvar) if var is None else var
    per_sample = 0.5 * (var + (mean - prior_mean) ** 2 - 1.0 - logvar).sum(-1)
    return _scalar(per_sample.sum(-1) / per_sample.shape[-1])  # the batch mean


def intervene(z_batch: np.ndarray, y_batch: np.ndarray, b: float = 0.8) -> np.ndarray:
    """Constant label-dependent shift: +b per coordinate where y=0, -b where y=1."""
    z = np.asarray(z_batch, dtype=float)
    y = np.asarray(y_batch, dtype=int)
    shift = np.where(y == 0, b, -b)[:, None]
    return z + shift


def loss_and_grads(params: ModelParams, x_batch: np.ndarray, y_batch: np.ndarray,
                   mode: str, *, eps_std: np.ndarray | None = None, **loss_kw):
    """Full loss for one batch plus its flat gradient: :func:`carr.model.encode`
    with ``eps_std`` (None means z = mean), then :func:`encoded_loss_and_grads`
    with the keywords ``loss_kw``."""
    return encoded_loss_and_grads(params, encode(params, x_batch, eps_std),
                                  y_batch, mode, **loss_kw)


def loss_values(params: ModelParams, vecs: np.ndarray, x_batch: np.ndarray,
                y_batch: np.ndarray, mode: str, *, eps_std: np.ndarray | None = None,
                changed: range | None = None, **loss_kw) -> np.ndarray:
    """Totals of one batch under each row of the (K, P) stack ``vecs`` of
    parameter vectors of ``params``: the forward of :func:`loss_and_grads`
    with the same keywords, run once over the stack, without the backward.

    Every row must equal ``params.flat`` outside the ``range`` ``changed``
    (:func:`carr.numkit.grad_check` guarantees it for the range it passes);
    the layers that hold none of its coordinates then keep their unstacked
    arrays, and the totals are bit-identical to those with the default None.
    """
    laid = params.over(vecs, changed)
    return _loss_forward(laid, encode(laid, x_batch, eps_std), y_batch, mode,
                         **loss_kw)[0].total


def _loss_forward(params: ModelParams, enc: EncoderOutput, y_batch: np.ndarray,
                  mode: str, lam: float = 0.001, b: float = 0.8,
                  neg_weight: float = 1.0, attack_delta: np.ndarray | None = None,
                  neg_delta: np.ndarray | None = None):
    """Loss terms of one batch from its encoder forward ``enc``, each added
    into the total as it is computed: ``-positive_ll`` for every method,
    ``+ lam * kl`` for all but ``base``, ``+ neg_weight * negative_ll`` for
    ``carr``.

    Returns the :class:`LossBreakdown`, the predictor caches of the
    positive and (``carr`` only) negative terms, and the KL's prior and
    ``exp(logvar)`` (None for ``base``).  Stacked parameters give every
    term a leading K axis.
    """
    if mode not in METHODS:
        raise ConfigurationError(f"unknown method {mode!r}")
    for name, delta in (("attack_delta", attack_delta), ("neg_delta", neg_delta)):
        if delta is not None and np.shape(delta) != enc.z.shape[-2:]:
            raise ConfigurationError(
                f"{name} has shape {np.shape(delta)}, expected {enc.z.shape[-2:]}"
            )
    y = np.asarray(y_batch, dtype=int)

    # Positive term (possibly on attacked z)
    z_pos = enc.z if attack_delta is None else enc.z + attack_delta
    xent_pos, cache_pos = predictor_xent(params, z_pos, y)
    positive_ll = -_scalar(xent_pos.sum(-1) / len(y))
    total = -positive_ll

    # KL against the conditional Gaussian prior N(y*1, I)
    prior = y[:, None].astype(float)
    kl = var = None
    if mode != "base":
        var = np.exp(enc.logvar)
        kl = kl_gaussian(enc.mean, enc.logvar, prior, var)
        total += lam * kl

    # Negative term on the randomly perturbed intervened representation
    negative_ll = cache_neg = None
    if mode == "carr":
        z_bar = intervene(enc.z, y, b)
        z_neg = z_bar if neg_delta is None else z_bar + neg_delta
        xent_neg, cache_neg = predictor_xent(params, z_neg, y)
        negative_ll = -_scalar(xent_neg.sum(-1) / len(y))
        total += neg_weight * negative_ll

    breakdown = LossBreakdown(positive_ll, kl, negative_ll, total)
    return breakdown, cache_pos, cache_neg, (prior, var)


def encoded_loss_and_grads(params: ModelParams, enc: EncoderOutput,
                           y_batch: np.ndarray, mode: str, lam: float = 0.001,
                           b: float = 0.8, neg_weight: float = 1.0,
                           attack_delta: np.ndarray | None = None,
                           neg_delta: np.ndarray | None = None,
                           stop_grad_negative: bool = False,
                           out: ModelParams | None = None):
    """Loss of one batch and its flat gradient, backpropagated from the
    batch's encoder forward ``enc``.  ``attack_delta`` shifts z for the
    positive term and ``neg_delta`` the intervened z for the negative term;
    both have z's shape and are constants during differentiation.  The
    gradient is written into every entry of ``out.flat`` (``out`` is ``params``
    laid over a float64 vector by :meth:`ModelParams.over`, a new one if None),
    the negative term's predictor gradients added in; that vector is returned."""
    breakdown, cache_pos, cache_neg, (prior, var) = _loss_forward(
        params, enc, y_batch, mode, lam, b, neg_weight, attack_delta, neg_delta)
    g = params.over(np.empty_like(params.flat)) if out is None else out
    n, d_z = enc.z.shape

    # ----- backward through the predictor -----
    g_z, pos = predictor_xent_backward(params, cache_pos, 1.0, g)
    if cache_neg is not None:
        # the negative ll is ADDED to the minimized total, so its upstream
        # coefficient is -neg_weight relative to the positive branch
        g_z_neg, neg = predictor_xent_backward(params, cache_neg, -neg_weight,
                                               z_grad=not stop_grad_negative)
        if not stop_grad_negative:
            g_z += g_z_neg  # intervention shift is additive, identity jacobian
        for into, add in zip(pos, neg):  # pos holds the arrays written into g
            into += add

    # ----- backward through the encoder -----
    g_head = np.empty((n, 2 * d_z))
    g_mean, g_logvar = g_head[:, :d_z], g_head[:, d_z:]
    g_mean[...] = g_z
    np.multiply(g_z * enc.eps_std * 0.5, enc.std, out=g_logvar)
    if var is not None:
        g_mean += lam * (enc.mean - prior) / n
        g_logvar += lam * 0.5 * (var - 1.0) / n
    g_logvar *= np.abs(enc.head[:, d_z:]) < LOGVAR_CLAMP

    g_enc_hidden_out = dense_backward(params.enc_head, enc.hidden, enc.head, g_head,
                                      g.enc_head.weights, g.enc_head.bias)[0]
    # nothing reads the gradient of the raw features, so it is not formed
    dense_backward(params.enc_hidden, enc.feats, enc.hidden_neg, g_enc_hidden_out,
                   g.enc_hidden.weights, g.enc_hidden.bias, False)
    return breakdown, g.flat

"""Perturbations of representations inside L2 / L-infinity balls.

PGD ascends the predictor's cross-entropy from a zero initialization and
keeps the best iterate, so the returned point never has lower attacker
objective than the start.  Random ball sampling draws uniformly from the
ball's volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, predictor_xent_grad
from .numkit import Rng

__all__ = ["AttackSpec", "project", "pgd_attack", "random_ball"]


@dataclass(frozen=True)
class AttackSpec:
    p: str = "2"  # "2" or "inf"
    beta: float = 0.0
    steps: int = 10
    step_size: float | None = None  # default 2.5 * beta / steps

    def __post_init__(self):
        if self.p not in ("2", "inf"):
            raise ValueError(f"norm order must be '2' or 'inf', got {self.p!r}")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.step_size is not None and self.step_size <= 0 and self.steps > 0:
            raise ValueError("step_size must be positive")

    @property
    def effective_step(self) -> float:
        if self.step_size is not None:
            return self.step_size
        if self.steps == 0:
            return 0.0
        return 2.5 * self.beta / self.steps


def project(delta: np.ndarray, p: str, beta: float) -> np.ndarray:
    """Project each row of delta onto the p-ball of radius beta."""
    delta = np.atleast_2d(np.asarray(delta, dtype=float))
    if p == "inf":
        return np.clip(delta, -beta, beta)
    norms = np.linalg.norm(delta, axis=1, keepdims=True)
    scale = np.where(norms > beta, beta / np.maximum(norms, 1e-300), 1.0)
    return delta * scale


def pgd_attack(params: ModelParams, z0_batch: np.ndarray, y_batch: np.ndarray,
               spec: AttackSpec) -> np.ndarray:
    """Worst-case perturbed representation found by projected gradient ascent.

    Deterministic: initialization is zero.  Per-row best-loss iterates are
    retained, which makes the attacker objective monotone in step count at
    the returned point.
    """
    z0 = np.asarray(z0_batch, dtype=float)
    y = np.asarray(y_batch, dtype=int)
    if spec.beta == 0.0 or spec.steps == 0:
        return z0.copy()

    delta = np.zeros_like(z0)
    best_delta = delta.copy()
    best_loss = np.full(z0.shape[0], -np.inf)
    step = spec.effective_step
    # Pass k scores iterate k and, before the last, gives the gradient for
    # iterate k + 1: steps + 1 passes in all.
    for k in range(spec.steps + 1):
        loss, grad, _ = predictor_xent_grad(params, z0 + delta, y)
        improved = loss > best_loss
        best_delta[improved] = delta[improved]
        best_loss = np.maximum(best_loss, loss)
        if k == spec.steps:
            break
        if not np.isfinite(grad).all():
            raise FloatingPointError("non-finite attack gradient")
        if spec.p == "inf":
            direction = np.sign(grad)
        else:
            norms = np.linalg.norm(grad, axis=1, keepdims=True)
            direction = grad / np.maximum(norms, 1e-300)
        delta = project(delta + step * direction, spec.p, spec.beta)
    return z0 + best_delta


def random_ball(z_batch: np.ndarray, p: str, beta: float, rng: Rng) -> np.ndarray:
    """Add an independent uniform draw from the p-ball to every row."""
    z = np.asarray(z_batch, dtype=float)
    if p not in ("2", "inf"):
        raise ValueError(f"norm order must be '2' or 'inf', got {p!r}")
    if beta == 0.0:
        return z.copy()
    n, d = z.shape
    if p == "inf":
        return z + rng.uniform(-beta, beta, size=(n, d))
    direction = rng.normal(size=(n, d))
    direction /= np.maximum(np.linalg.norm(direction, axis=1, keepdims=True), 1e-300)
    radius = beta * rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / d)
    return z + radius * direction

"""Perturbations of representations inside L2 / L-infinity balls.

PGD ascends the predictor's cross-entropy from a zero initialization and
keeps the best iterate, so the returned point never has lower attacker
objective than the start.  Random ball sampling draws uniformly from the
ball's volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, predictor_xent, predictor_xent_grad
from .numkit import check_numbers

__all__ = ["AttackSpec", "project", "pgd_attack", "random_ball"]


def _check_norm(p: str) -> None:
    if p not in ("2", "inf"):
        raise ValueError(f"norm order must be '2' or 'inf', got {p!r}")


@dataclass(frozen=True)
class AttackSpec:
    p: str = "2"  # "2" or "inf"
    beta: float = 0.0
    steps: int = 10
    step_size: float | None = None  # default 2.5 * beta / steps

    def __post_init__(self):
        _check_norm(self.p)
        check_numbers(self, ("beta",) + ("step_size",) * (self.step_size is not None),
                      ("steps",))
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta!r}")
        if self.steps < 0:
            raise ValueError(f"steps must be an int >= 0, got {self.steps!r}")
        if self.step_size is not None and not (self.step_size > 0 or self.steps == 0):
            raise ValueError(f"step_size must be > 0, got {self.step_size!r}")

    @property
    def effective_step(self) -> float:
        if self.step_size is not None:
            return self.step_size
        if self.steps == 0:
            return 0.0
        return 2.5 * self.beta / self.steps


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=1, keepdims=True)`` bit for bit: its own
    expression for a real 2-D array, without its dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True))


def project(delta: np.ndarray, p: str, beta: float) -> np.ndarray:
    """Project each row of delta onto the p-ball of radius beta."""
    _check_norm(p)
    return _project_in_place(np.array(delta, dtype=float, ndmin=2), p, beta)


def _project_in_place(delta: np.ndarray, p: str, beta: float) -> np.ndarray:
    if p == "inf":
        return np.clip(delta, -beta, beta, out=delta)
    norms = _row_norms(delta)
    delta *= np.where(norms > beta, beta / np.maximum(norms, 1e-300), 1.0)
    return delta


def pgd_attack(params: ModelParams, z0_batch: np.ndarray, y_batch: np.ndarray,
               spec: AttackSpec) -> np.ndarray:
    """Worst-case perturbed representation found by projected gradient ascent.

    Deterministic: initialization is zero.  Per-row best-loss iterates are
    retained, which makes the attacker objective monotone in step count at
    the returned point.  It stops once an iterate repeats the one before it
    byte for byte (bytes, not ``==``, so a -0.0/+0.0 flip is a move).
    ``y_batch`` holds one 0/1 label per row of ``z0_batch``.
    """
    z0 = np.asarray(z0_batch, dtype=float)
    y = np.asarray(y_batch)
    if z0.ndim != 2 or y.shape != z0.shape[:1] or not ((y == 0) | (y == 1)).all():
        raise ValueError(f"labels must be one 0 or 1 per row of the {z0.shape} "
                         f"representation batch, got {y_batch!r}")
    y = y.astype(int)
    if spec.beta == 0.0 or spec.steps == 0:
        return z0.copy()

    delta = np.zeros_like(z0)
    best_delta = np.zeros_like(z0)
    n = z0.shape[0]
    best_loss = np.full(n, -np.inf)
    step = spec.effective_step
    # Pass k scores iterate k and, before the last, gives the gradient for
    # iterate k + 1: steps + 1 passes in all, the last without a backward.
    # A repeated iterate would score as its twin did and step to itself
    # again, so best_delta is final.
    for k in range(spec.steps + 1):
        z = z0 + delta
        if k < spec.steps:
            loss, grad = predictor_xent_grad(params, z, y)
        else:
            loss = predictor_xent(params, z, y)[0]
        np.copyto(best_delta, delta, where=(loss > best_loss)[:, None])
        best_loss = np.maximum(best_loss, loss)
        if k == spec.steps:
            break
        if spec.p == "inf":
            if not np.isfinite(grad).all():
                raise FloatingPointError("non-finite attack gradient")
            direction = np.sign(grad)
        else:
            # a non-finite entry makes its row norm non-finite, as overflow may
            norms = _row_norms(grad)
            if np.count_nonzero(np.isfinite(norms)) < n and not np.isfinite(grad).all():
                raise FloatingPointError("non-finite attack gradient")
            direction = grad / np.maximum(norms, 1e-300)
        moved = _project_in_place(delta + step * direction, spec.p, spec.beta)
        if moved.tobytes() == delta.tobytes():
            break
        delta = moved
    return z0 + best_delta


def random_ball(z_batch: np.ndarray, p: str, beta: float,
                rng: np.random.Generator) -> np.ndarray:
    """Add an independent uniform draw from the p-ball to every row."""
    z = np.asarray(z_batch, dtype=float)
    _check_norm(p)
    if beta == 0.0:
        return z.copy()
    n, d = z.shape
    if p == "inf":
        return z + rng.uniform(-beta, beta, size=(n, d))
    direction = rng.standard_normal(size=(n, d))
    direction /= np.maximum(_row_norms(direction), 1e-300)
    radius = beta * rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / d)
    return z + radius * direction

"""Finite-sample generalization bounds for the mutual-information estimate
between labels and a learned representation, in the general and ideal
(representation equals the label's causal parents) cases.

Natural logs throughout.  The default constant C = 16 is the smallest power
of two satisfying sqrt(C log(|Y|/delta)) >= 2 + sqrt(2 log((|Y|+2)/delta))
for delta >= 0.01 and |Y| <= 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numkit import check_numbers

__all__ = ["BoundInputs", "bound_general", "bound_ideal", "min_samples"]


@dataclass(frozen=True)
class BoundInputs:
    m: int  # sample count
    card_y: int = 2  # label alphabet size
    card_z: int = 64  # effective representation alphabet size
    beta: float = 0.3  # exogenous noise variance
    delta: float = 0.05  # confidence parameter
    C: float = 16.0

    def __post_init__(self):
        check_numbers(self, ("beta", "delta", "C"), ("m", "card_y", "card_z"))
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.card_y < 2:
            raise ValueError("card_y must be >= 2")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.C <= 0 or self.beta < 0 or self.card_z < 1:
            raise ValueError("C > 0, beta >= 0, card_z >= 1 required")


def _bound(inputs: BoundInputs, case: str, leading_card: float) -> float:
    """Shared closed form, valid from ``min_samples(case, inputs)`` samples
    on; ``leading_card`` sits under the sqrt of the dominant |Y| log(m) term
    (|Z| in general, beta in the ideal case)."""
    threshold = min_samples(case, inputs)
    if inputs.m < threshold:
        raise ValueError(
            f"bound invalid below the sample threshold m >= {threshold}"
        )
    c_log = math.sqrt(inputs.C * math.log(inputs.card_y / inputs.delta))
    dominant = inputs.card_y * math.sqrt(leading_card) * math.log(inputs.m)
    fixed = 0.5 * math.sqrt(inputs.card_z) * math.log(inputs.card_y)
    return (c_log * (dominant + fixed) + (2.0 / math.e) * inputs.card_y) / math.sqrt(
        inputs.m
    )


def bound_general(inputs: BoundInputs) -> float:
    """Estimation-error bound for an arbitrary representation function."""
    return _bound(inputs, "general", float(inputs.card_z))


def bound_ideal(inputs: BoundInputs) -> float:
    """Bound when the representation equals the causal parents; the noise
    variance replaces |Z| in the dominant term only."""
    return _bound(inputs, "ideal", inputs.beta)


def min_samples(case: str, inputs: BoundInputs) -> int:
    """Validity threshold on the sample count.

    general: ceil((C/4) log(|Y|/delta) |Z| e^2).
    ideal:   ceil(C log(|Y|/delta) beta e^2).  The paper prints the ideal
    case with both C and C/4 as prefactor; the un-quartered C is used.
    """
    log_term = math.log(inputs.card_y / inputs.delta)
    e2 = math.e ** 2
    if case == "general":
        raw = (inputs.C / 4.0) * log_term * inputs.card_z * e2
    elif case == "ideal":
        raw = inputs.C * log_term * inputs.beta * e2
    else:
        raise ValueError(f"case must be 'general' or 'ideal', got {case!r}")
    if not math.isfinite(raw):
        raise ValueError(f"the {case} sample threshold overflows a float")
    return max(1, math.ceil(raw))

"""Finite-sample bound calculator tests against independently recomputed
values and the qualitative orderings the closed forms must respect."""

import math

import numpy as np
import pytest

from carr.bounds import BoundInputs, bound_general, bound_ideal, min_samples


def test_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(m=0)
    with pytest.raises(ValueError):
        BoundInputs(m=10, card_y=1)
    with pytest.raises(ValueError):
        BoundInputs(m=10, delta=1.5)
    with pytest.raises(ValueError):
        BoundInputs(m=10, C=0.0)


def test_frozen_reference_values():
    # recomputed by hand for m=1e5, |Y|=2, |Z|=64, beta=0.3, delta=0.05, C=16
    inputs = BoundInputs(m=10 ** 5)
    assert abs(bound_general(inputs) - 4.547216523735438) < 1e-12
    assert abs(bound_ideal(inputs) - 0.37840820530208585) < 1e-12
    assert min_samples("general", inputs) == 6978
    assert min_samples("ideal", inputs) == 131


def test_ideal_below_general():
    for m in (10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7):
        inputs = BoundInputs(m=m, card_z=64, beta=0.3)
        assert bound_ideal(inputs) < bound_general(inputs)


def test_threshold_ordering():
    # the ideal validity threshold undercuts the general one whenever the
    # noise variance is below a quarter of the representation alphabet
    for beta, card_z in [(0.1, 4), (0.3, 64), (3.0, 16), (15.9, 64)]:
        inputs = BoundInputs(m=10, beta=beta, card_z=card_z)
        assert beta < card_z / 4
        assert min_samples("ideal", inputs) < min_samples("general", inputs)
    crossing = BoundInputs(m=10, beta=20.0, card_z=64)
    assert min_samples("ideal", crossing) > min_samples("general", crossing)


def test_below_threshold_raises():
    small = BoundInputs(m=100)
    assert min_samples("general", small) > 100
    with pytest.raises(ValueError):
        bound_general(small)
    with pytest.raises(ValueError):
        min_samples("chain", small)


def test_monotone_decreasing_beyond_threshold():
    inputs0 = BoundInputs(m=10)
    for case, fn in (("general", bound_general), ("ideal", bound_ideal)):
        start = 4 * min_samples(case, inputs0)
        grid = np.unique(np.geomspace(start, 100 * start, 25).astype(int))
        values = [fn(BoundInputs(m=int(m))) for m in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_ideal_threshold_formula():
    inputs = BoundInputs(m=10)
    raw = inputs.C * math.log(inputs.card_y / inputs.delta) * inputs.beta * math.e ** 2
    assert min_samples("ideal", inputs) == math.ceil(raw)

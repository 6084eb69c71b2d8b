"""Property tests for the sample metrics: the numpy midranks behind ``auc``
must equal ``scipy.stats.rankdata``, and the numpy distances behind
``distance_correlation`` ``scipy.spatial.distance.cdist``, bit for bit.
scipy is the reference here only.  Examples are derandomized so that every
run draws the same cases.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from scipy.spatial.distance import cdist  # noqa: E402
from scipy.stats import rankdata  # noqa: E402

from carr.infometrics import (  # noqa: E402
    _midranks,
    _pairwise_distances,
    auc,
    distance_correlation,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)

# a few repeated values make ties common; signed zeros tie with each other
edges = st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 0.5, 1e-300])
values = st.one_of(edges, st.floats(allow_nan=False, width=64))


@SETTINGS
@given(st.lists(values, min_size=1, max_size=200))
def test_midranks_equal_rankdata(xs):
    x = np.array(xs, dtype=float)
    ours, theirs = _midranks(x), rankdata(x)
    assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


@SETTINGS
@given(st.lists(edges, min_size=2, max_size=200), st.integers(0, 2 ** 20))
def test_auc_equals_rankdata_formula(xs, seed):
    scores = np.array(xs)
    labels = np.random.default_rng(seed).integers(0, 2, size=len(xs))
    labels[:2] = (0, 1)
    n_pos, n_neg = int(labels.sum()), int((labels == 0).sum())
    ranks = rankdata(scores)
    expected = (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    assert auc(scores, labels) == expected


def test_midranks_nan_propagates():
    x = np.array([0.3, np.nan, 0.1, 0.3])
    assert np.isnan(rankdata(x)).all() and np.isnan(_midranks(x)).all()
    assert np.isnan(auc(x, [0, 1, 0, 1]))
    assert np.isnan(auc([np.nan, 0.2], [1, 0]))


@st.composite
def point_sets(draw):
    """(n, d) matrices, n 2-60, d 1-70, drawn with replacement from a pool
    of signed zeros and up to 64 values of one magnitude per matrix, from
    1e-150 to 1e150; small pools make ties common, and some rows repeat."""
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 70))
    scale = 10.0 ** draw(st.integers(-150, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = np.r_[0.0, -0.0, rng.normal(size=draw(st.integers(1, 64))) * scale]
    m = rng.choice(pool, size=(n, d))
    repeats = draw(st.integers(0, n - 1))
    m[rng.integers(0, n, size=repeats)] = m[rng.integers(0, n, size=repeats)]
    return m


@SETTINGS
@given(point_sets())
def test_pairwise_distances_equal_cdist(m):
    ours, theirs = _pairwise_distances(m), cdist(m, m)
    assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


@SETTINGS
@given(point_sets(), st.integers(0, 2 ** 32 - 1))
def test_distance_correlation_equals_cdist_formula(a, seed):
    b = np.random.default_rng(seed).normal(size=(a.shape[0], 5))

    def centered(m):
        d = cdist(m, m)
        return d - d.mean(axis=0) - d.mean(axis=1)[:, None] + d.mean()

    ca, cb = centered(a), centered(b)
    dvar_a, dvar_b = (ca * ca).mean(), (cb * cb).mean()
    expected = 0.0
    if dvar_a > 0 and dvar_b > 0:
        r2 = (ca * cb).mean() / np.sqrt(dvar_a * dvar_b)
        expected = float(np.sqrt(max(r2, 0.0)))
    assert distance_correlation(a, b) == expected

"""Property tests for the sample metrics: the numpy midranks behind ``auc``
must equal ``scipy.stats.rankdata`` bit for bit.  Examples are derandomized
so that every run draws the same cases.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from scipy.stats import rankdata  # noqa: E402

from carr.infometrics import _midranks, auc  # noqa: E402

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

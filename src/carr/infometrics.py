"""Exact information measures on finite distributions, causal-inequality
checkers, PNS enumeration, distance correlation, and classification metrics.

Entropies are in nats throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scm import (DiscreteSCM, _check_value, _unchecked, _worlds,
                  counterfactual_query, enumerate_joint)

__all__ = [
    "JointTable",
    "entropy",
    "mutual_info",
    "check_lemma1",
    "check_lemma2",
    "pns",
    "pns_per_world",
    "distance_correlation",
    "auc",
    "acc",
    "random_markov_chain",
    "QueryError",
    "MetricError",
]

_SLACK = 1e-10
# distance_correlation holds 4 n-by-n float64 matrices: 2 GiB at this n
_DCOR_MAX_N = 8192
# float64 values of squared differences per block of _pairwise_distances
_DIST_BLOCK = 1 << 15


class QueryError(ValueError):
    """Invalid variable subset or degenerate input for a query."""


class MetricError(ValueError):
    """Metric undefined on the given data (e.g. single-class AUC)."""


@dataclass(frozen=True)
class JointTable:
    """Joint probability table over distinct named finite variables.

    ``probs`` is a view of a read-only copy of the given table, whose flag
    cannot be set back, so the entropies :func:`entropy` keeps cannot go
    stale.  The freeze stops writes to ``probs`` and flips of its flag, but
    not a flip of the flag of its ``.base``, after which a write through
    that buffer changes the table.
    """

    names: tuple
    probs: np.ndarray  # shape = one axis per variable
    _entropies: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        if probs.ndim != len(self.names):
            raise QueryError("probs must have one axis per variable")
        for i, name in enumerate(self.names):
            if name in self.names[:i]:
                raise QueryError(f"variable {name!r} is named more than once")
        if probs.size == 0:
            raise QueryError("the table has no entries")
        if not (probs.min() >= -1e-12 and abs(probs.sum() - 1.0) <= 1e-9):  # NaN fails
            raise QueryError("probabilities must be nonnegative and sum to 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs.view())

    def marginal(self, variables) -> np.ndarray:
        """The marginal table over ``variables``, one axis each in their
        order.  Its axes are planned once per names and variables (see
        :func:`_plan`), and the sum is ``probs.sum`` over the other axes,
        transposed when the variables are out of table order."""
        drop, perm = _plan(self.names, tuple(variables))
        m = np.add.reduce(self.probs, axis=drop)  # what ndarray.sum calls
        return m if perm is None else np.transpose(m, perm)


# (names, variables) -> (drop, perm) of JointTable.marginal; every table
# over the same names shares its plans
_PLANS = {}
_MAX_PLANS = 256  # enough for every subset order over a few names


def _plan(names: tuple, variables: tuple) -> tuple:
    """The axes to sum out and the transpose that puts the kept axes in the
    order of ``variables`` after the sum (None when they already are),
    cached in ``_PLANS``.  An unknown or repeated variable raises
    :class:`QueryError`, and is not cached."""
    key = (names, variables)
    try:
        return _PLANS[key]
    except KeyError:
        cache = len(_PLANS) < _MAX_PLANS
    except TypeError:  # an unhashable entry, which no name can equal
        cache = False
    try:
        keep = tuple(map(names.index, variables))
    except ValueError:
        unknown = next(v for v in variables if v not in names)
        raise QueryError(f"variable {unknown!r} is not one of the table's "
                         f"names {names}") from None
    if len(set(keep)) < len(keep):
        repeated = next(v for i, v in enumerate(variables) if v in variables[:i])
        raise QueryError(f"variable {repeated!r} is named more than once")
    drop = tuple(i for i in range(len(names)) if i not in keep)
    # sum() collapses axes in index order; a transpose restores the asked one
    perm = (None if all(a < b for a, b in zip(keep, keep[1:]))
            else tuple(sorted(keep).index(a) for a in keep))
    if cache:
        _PLANS[key] = drop, perm
    return drop, perm


def _h(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-np.add.reduce(p * np.log(p)))


def entropy(table: JointTable, variables) -> float:
    """Shannon entropy of the marginal over ``variables``, in nats.

    Computed once per table and variable tuple; the order of the tuple is
    part of the key, because it sets the order in which :func:`_h` sums.
    """
    variables = tuple(variables)
    if not variables:
        raise QueryError("entropy of an empty variable set")
    memo = table._entropies
    if variables not in memo:
        memo[variables] = _h(table.marginal(variables).ravel())
    return memo[variables]


def mutual_info(table: JointTable, vars_a, vars_b) -> float:
    """I(A;B) = H(A) + H(B) - H(A,B), clipped at 0 against roundoff."""
    vars_a, vars_b = tuple(vars_a), tuple(vars_b)
    if set(vars_a) & set(vars_b):
        raise QueryError("variable subsets must be disjoint")
    value = (
        entropy(table, vars_a)
        + entropy(table, vars_b)
        - entropy(table, vars_a + vars_b)
    )
    return max(value, 0.0)


# ---------------------------------------------------------------------------
# Causal-inequality checkers
# ---------------------------------------------------------------------------

_ROLES = ("pa", "nd", "y", "dc")


def _role_table(scm: DiscreteSCM) -> JointTable:
    missing = [r for r in _ROLES if r not in scm.order]
    if missing:
        raise QueryError(f"SCM lacks designated roles: {missing}")
    return enumerate_joint(scm)


def check_lemma1(scm: DiscreteSCM):
    """I(pa; nd, dc) <= I(pa; nd, y) on a pa/nd/y/dc structured model."""
    table = _role_table(scm)
    lhs = mutual_info(table, ("pa",), ("nd", "dc"))
    rhs = mutual_info(table, ("pa",), ("nd", "y"))
    return lhs, rhs, lhs <= rhs + _SLACK


def check_lemma2(scm: DiscreteSCM):
    """Two inequalities with X read as the tuple (pa, nd, dc).

    1. I(pa; nd, dc) <= I(pa; X) where I(pa; X) = H(pa) since pa is part
       of X (the mixing function is injective).  This holds for every
       joint table, since no mutual information with pa exceeds H(pa), so
       it cannot fail but by roundoff.
    2. I(pa; y) <= I(pa; nd, y).  This holds for every table as well, by
       the chain rule I(pa; nd, y) = I(pa; y) + I(pa; nd | y), so neither
       inequality can fail but by roundoff.
    """
    table = _role_table(scm)
    lhs1 = mutual_info(table, ("pa",), ("nd", "dc"))
    rhs1 = entropy(table, ("pa",))  # I(pa; pa, nd, dc) = H(pa)
    lhs2 = mutual_info(table, ("pa",), ("y",))
    rhs2 = mutual_info(table, ("pa",), ("nd", "y"))
    return (lhs1, rhs1, lhs1 <= rhs1 + _SLACK), (lhs2, rhs2, lhs2 <= rhs2 + _SLACK)


def pns(scm: DiscreteSCM, z_var: str, z_val: int, y_var: str, y_val: int,
        z_alt: int, worlds=None):
    """Probability of necessity and sufficiency via exact counterfactuals.

    sufficient = P(Z!=z, Y!=y) * P(Y(do Z=z) = y | Z!=z, Y!=y)
    necessary  = P(Z=z, Y=y)  * P(Y(do Z=z_alt) != y | Z=z, Y=y)

    Returns (sufficient, necessary, combined, alternative) where
    ``combined = sufficient + necessary`` and ``alternative`` subtracts the
    positive-counterfactual necessary term instead; the two differ by
    exactly P(Z=z, Y=y).  "Z != z" as an intervention target is realized
    by the single designated alternative value ``z_alt``, so the
    decomposition is the PNS only for binary Z and Y; on larger domains it
    can differ from the per-world P(Y(do z) = y, Y(do z_alt) != y) of
    :func:`pns_per_world`.
    ``worlds`` is :func:`carr.scm._worlds` of this model, built here when
    None.  A ``z_val``, ``y_val`` or ``z_alt`` that is not an integer (a
    bool is not) in its domain, or ``z_alt == z_val``, raises
    ``ValueError`` before any world is built; a zero-probability event
    raises :class:`QueryError`.
    """
    for var, val in ((z_var, z_val), (y_var, y_val), (z_var, z_alt)):
        _check_value(scm, var, val)
    if z_alt == z_val:
        raise ValueError(f"z_alt={z_alt!r} equals z_val, so it cannot stand for Z != z")
    worlds = worlds or _worlds(scm)
    joint_zy = enumerate_joint(scm, worlds).marginal((z_var, y_var))
    p_event_nec = float(joint_zy[z_val, y_val])
    p_event_suff = 0.0
    if p_event_nec > 0:  # else the sufficiency event need not be summed
        mask = np.ones_like(joint_zy, dtype=bool)
        mask[z_val, :] = False
        mask[:, y_val] = False
        p_event_suff = float(joint_zy[mask].sum())
    if p_event_suff <= 0:
        raise QueryError("PNS conditioning events must have nonzero probability")

    not_z = frozenset(range(scm.domains[z_var])) - {z_val}
    not_y = frozenset(range(scm.domains[y_var])) - {y_val}

    cf_suff = counterfactual_query(scm, {z_var: not_z, y_var: not_y}, {z_var: z_val},
                                   y_var, worlds)
    cf_nec = counterfactual_query(scm, {z_var: z_val, y_var: y_val}, {z_var: z_alt},
                                  y_var, worlds)

    sufficient = p_event_suff * float(cf_suff[y_val])
    # exogenous-posterior sums can overshoot 1 by an ulp or two
    necessary = p_event_nec * max(0.0, 1.0 - float(cf_nec[y_val]))
    pns_combined = sufficient + necessary
    pns_alt = sufficient - p_event_nec * float(cf_nec[y_val])
    return sufficient, necessary, pns_combined, pns_alt


def pns_per_world(scm: DiscreteSCM, z_var: str, z_val: int, y_var: str,
                  y_val: int, z_alt: int, worlds=None) -> float:
    """P(Y(do Z=z) = y, Y(do Z=z_alt) != y), summed over the exogenous worlds.

    The PNS read world by world (Tian & Pearl 2000): both interventions act
    on each world, so it needs no conditioning event and no binary domain;
    it equals :func:`pns`'s ``combined`` where Z and Y are binary.
    ``worlds`` is :func:`carr.scm._worlds` of this model, built here when
    None.  A value that is not an integer (a bool is not) in its domain
    raises ``ValueError`` before any world is built.
    """
    for var, val in ((z_var, z_val), (y_var, y_val), (z_var, z_alt)):
        _check_value(scm, var, val)
    exo, prob, _ = worlds or _worlds(scm)
    y_z = scm.evaluate(exo, {z_var: z_val})[y_var]
    y_alt = scm.evaluate(exo, {z_var: z_alt})[y_var]
    return float(prob[(y_z == y_val) & (y_alt != y_val)].sum())


def random_markov_chain(rng) -> JointTable:
    """Random joint over a chain X - Z - Y of three-valued variables:
    p(x) p(z|x) p(y|z).

    The table skips :class:`JointTable`'s copy and its checks (one axis per
    distinct name, a nonempty table of nonnegative cells that sum to 1),
    which a product of normalized positive draws passes; it is frozen, its
    ``probs`` a view of a read-only buffer, and its entropy memo starts
    empty, as the constructor leaves them.
    ``test_drawn_chains_pass_their_constructor`` holds drawn chains to that.
    """
    w = rng.uniform(0.05, 1.0, size=21)  # one draw, cut in draw order
    px, pzx, pyz = w[:3], w[3:12].reshape(3, 3), w[12:].reshape(3, 3)
    px /= px.sum()
    pzx /= pzx.sum(axis=1, keepdims=True)
    pyz /= pyz.sum(axis=1, keepdims=True)
    probs = px[:, None, None] * pzx[:, :, None] * pyz[None, :, :]
    probs.setflags(write=False)
    return _unchecked(JointTable, names=("x", "z", "y"), probs=probs.view(),
                      _entropies={})


# ---------------------------------------------------------------------------
# Sample statistics
# ---------------------------------------------------------------------------


def _pairwise_distances(m: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``m``, byte for byte those of
    the reference ``cdist(m, m)`` (tests/test_metric_properties.py).

    ``cdist`` sums ``(x_k - y_k) ** 2`` over the columns in order, starting
    from 0, and takes the square root; ``np.add.reduce`` over axis 0 of a
    (columns, rows, rows) block adds in that same sequential order, where a
    sum over the last axis would add pairwise.  Blocks of rows hold about
    256 KiB of squared differences.  ``x - y`` is ``-(y - x)`` exactly, so
    the matrix is symmetric: each block covers the columns from its own
    first row on and is mirrored below the diagonal.
    """
    n, d = m.shape
    mt = np.ascontiguousarray(m.T)
    out = np.empty((n, n))
    rows = max(1, _DIST_BLOCK // (max(d, 1) * n))
    for r in range(0, n, rows):
        sq = mt[:, r:r + rows, None] - mt[:, None, r:]
        np.square(sq, out=sq)
        block = np.add.reduce(sq, axis=0, out=out[r:r + rows, r:])
        out[r:, r:r + rows] = block.T
    return np.sqrt(out, out=out)


def distance_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Sample distance correlation (biased V-statistic) between two blocks.

    Rows are joint observations, and a 1-D block is one column; returns a
    value in [0, 1], with 0 when either argument has zero distance variance
    (constant rows).  A block of zero width has no distance to measure and
    raises :class:`MetricError`.  The computation holds 4 n-by-n float64
    matrices at once, so n above 8192 (about 2 GiB) raises
    :class:`MetricError`.
    """
    a, b = (np.asarray(m, dtype=float) for m in (a, b))
    a, b = (m.reshape(-1, 1) if m.ndim < 2 else m for m in (a, b))
    n = a.shape[0]
    if n < 2 or b.shape[0] != n:
        raise QueryError("need n >= 2 paired observations")
    if a.shape[1] == 0 or b.shape[1] == 0:
        raise MetricError("distance correlation of a zero-width block is undefined")
    if n > _DCOR_MAX_N:
        raise MetricError(
            f"distance correlation of n={n} rows needs 4*n^2 float64 values; "
            f"the limit is n={_DCOR_MAX_N}"
        )

    def centered(m):
        d = _pairwise_distances(m)
        return d - d.mean(axis=0) - d.mean(axis=1)[:, None] + d.mean()

    ca, cb = centered(a), centered(b)
    dcov2 = (ca * cb).mean()
    dvar_a = (ca * ca).mean()
    dvar_b = (cb * cb).mean()
    if dvar_a <= 0 or dvar_b <= 0:
        return 0.0
    r2 = dcov2 / np.sqrt(dvar_a * dvar_b)
    return float(np.sqrt(max(r2, 0.0)))


def _midranks(x: np.ndarray) -> np.ndarray:
    """The reference ``rankdata(x)`` of tests/test_metric_properties.py bit
    for bit: ties share their mean rank, and any NaN makes every rank NaN."""
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    new = np.r_[True, xs[1:] != xs[:-1]]
    dense = np.cumsum(new)[np.argsort(order)]
    count = np.r_[np.flatnonzero(new), len(x)]
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def _scores_and_labels(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Float scores and int labels, checked: non-empty 1-D arrays of one
    length, and every label 0 or 1."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape or scores.size == 0:
        raise MetricError(f"scores {scores.shape} and labels {labels.shape} must "
                          "be non-empty 1-D arrays of one length")
    if not ((labels == 0) | (labels == 1)).all():
        raise MetricError("labels must be 0 or 1")
    return scores, labels.astype(int)


def auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative; midranks
    for ties.  Labels must be 0 or 1."""
    scores, labels = _scores_and_labels(scores, labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC needs both classes present")
    ranks = _midranks(scores)
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def acc(scores, labels) -> float:
    """Accuracy of scores thresholded at 0.5 against 0/1 labels."""
    scores, labels = _scores_and_labels(scores, labels)
    pred = (scores >= 0.5).astype(int)
    return float((pred == labels).mean())

"""Structural causal model machinery.

Two halves live here:

* a continuous synthetic-data simulator whose observation vector mixes the
  label's parents, non-descendants and descendants, drawn as a
  :class:`carr.dataio.Split` with those blocks kept, and
* finite-domain SCMs with exact joint enumeration and counterfactual
  (abduction-action-prediction) queries, used as oracles for the
  information-theoretic checks.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate
from types import MappingProxyType

import numpy as np

from .dataio import Split
from .numkit import Rng, check_numbers

__all__ = [
    "SynthConfig",
    "kappa1",
    "generate",
    "DiscreteSCM",
    "enumerate_joint",
    "counterfactual_query",
    "random_scm",
    "CapacityError",
    "InferenceError",
]

PA_DIM = 5
ND_DIM = 5
DC_DIM = 5
MAX_WORLDS = 10 ** 6  # cap on the exogenous worlds an oracle query enumerates


class CapacityError(RuntimeError):
    """Discrete state space too large to enumerate."""


class InferenceError(ValueError):
    """Conditioning on a zero-probability event."""


# ---------------------------------------------------------------------------
# Continuous simulator
# ---------------------------------------------------------------------------


def kappa1(x):
    """x - 0.5 where x > 0, else 0."""
    x = np.asarray(x, dtype=float)
    return np.where(x > 0, x - 0.5, 0.0)


@dataclass(frozen=True)
class SynthConfig:
    beta: float = 0.3  # exogenous noise variance
    n: int = 500
    seed: int = 0
    q: float = 0.3  # additive offset in the mixing step
    noise_mean: float = 0.3
    weight_seed: int = 12345  # mixing vectors are drawn separately from samples
    shared_noise: bool = False  # one draw reused for all three noises
    nc_cols: int = 0  # extra uncorrelated Uniform(-1,1) columns

    def __post_init__(self):
        check_numbers(self, ("beta", "q", "noise_mean"),
                      ("n", "seed", "weight_seed", "nc_cols"), ("shared_noise",))
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.nc_cols < 0:
            raise ValueError(f"nc_cols must be >= 0, got {self.nc_cols}")


def _two_branch(a_rows: np.ndarray, base: np.ndarray, noise: np.ndarray,
                q: float) -> np.ndarray:
    """The simulator's shared two-branch composition before its sigmoid, as
    it acts: v1 + v1 * q with v1 = A . k1([base, noise]) + q, per output
    coordinate.  The paper's v1 applies k1 after the ReLU k2, but k1(k2(.))
    is k1 byte for byte: both give 0.0 wherever k2 does.  The second branch
    v2 = A . k3(k2([-base, -noise])) + q of v1 + v1 * v2 is q itself,
    because k3(k2(.)) is identically 0.
    """
    v1 = kappa1(np.concatenate([base, noise], axis=1)) @ a_rows.T + q
    return v1 + v1 * q


def _sigmoid(x):
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def generate(config: SynthConfig) -> Split:
    """Draw n samples from the nonlinear synthetic causal system.

    pa ~ Uniform(-1,1)^5 drives the binary label y through one two-branch
    composition; nd is a non-descendant sibling driven by pa; dc is a
    descendant driven by y alone.  The label thresholds the pre-sigmoid
    sum at 0 (a strict "sigmoid output > 0" indicator would always fire).
    """
    cfg = config
    wrng = Rng(cfg.weight_seed)
    a_nd = wrng.standard_normal(size=(ND_DIM, PA_DIM * 2))
    a_y = wrng.standard_normal(size=(1, PA_DIM * 2))
    a_dc = wrng.standard_normal(size=(DC_DIM, 1 + PA_DIM))

    rng = Rng(cfg.seed)
    n = cfg.n
    pa = rng.uniform(-1.0, 1.0, size=(n, PA_DIM))
    sd = np.sqrt(cfg.beta)
    eps1 = cfg.noise_mean + sd * rng.standard_normal(size=(n, PA_DIM))
    if cfg.shared_noise:
        eps2 = eps1
        eps3 = eps1
    else:
        eps2 = cfg.noise_mean + sd * rng.standard_normal(size=(n, PA_DIM))
        eps3 = cfg.noise_mean + sd * rng.standard_normal(size=(n, PA_DIM))

    nd = _sigmoid(_two_branch(a_nd, pa, eps2, cfg.q))
    y = (_two_branch(a_y, pa, eps1, cfg.q)[:, 0] > 0).astype(int)
    dc = _sigmoid(_two_branch(a_dc, y[:, None].astype(float), eps3, cfg.q))

    cols = [pa, nd, dc]
    if cfg.nc_cols > 0:
        cols.append(rng.uniform(-1.0, 1.0, size=(n, cfg.nc_cols)))
    x = np.concatenate(cols, axis=1)
    return Split(x=x, y=y, pa=pa, nd=nd, dc=dc)


# ---------------------------------------------------------------------------
# Finite-domain SCMs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteSCM:
    """Finite-domain structural model with one exogenous variable per node.

    ``tables[v]`` maps (parent values..., exogenous value) to the value of v;
    it is an integer ndarray of shape (*parent domain sizes, exo domain size).
    ``exo_dists[v]`` is the pmf of v's exogenous input.  Exogenous variables
    are mutually independent; ``order`` must be topological.

    The constructor checks this once: a topological order that names each
    node once, domain sizes that are integers >= 1 (a bool is not), 1-D
    nonnegative pmfs that sum to 1, and integer tables of that shape with
    entries in their node's domain.  It then freezes the model: views of
    read-only copies of the tables and pmfs (float64), whose flags cannot be
    set back, are held with the domains and parents (as tuples) in read-only
    mappings, so no field can change after the check and the caller's arrays
    stay theirs.  The freeze stops writes to those arrays and flips of their
    flags, but not a flip of the flag of an array's ``.base``, after which a
    write through that buffer changes the model.
    :func:`random_scm` builds its model frozen and skips the checks, which
    its draws pass by construction.
    """

    order: tuple
    domains: Mapping
    parents: Mapping
    tables: Mapping
    exo_dists: Mapping

    def __post_init__(self):
        seen = set()
        tables, exo_dists = {}, {}
        for v in self.order:
            if v in seen:
                raise ValueError(f"order names {v} more than once")
            for p in self.parents[v]:
                if p not in seen:
                    raise ValueError(f"order is not topological: {p} after {v}")
            seen.add(v)
            size = self.domains[v]
            if (isinstance(size, bool) or not isinstance(size, (int, np.integer))
                    or size < 1):
                raise ValueError(f"domain of {v} must be an integer >= 1, got {size!r}")
            pmf = np.array(self.exo_dists[v], dtype=float)
            weights = pmf.ravel().tolist()
            if (pmf.ndim != 1 or min(weights, default=0.0) < 0
                    or not abs(sum(weights) - 1.0) <= 1e-9):  # or NaN
                raise ValueError(f"exogenous pmf for {v} is not a distribution")
            table = np.array(self.tables[v])
            expected = (*(self.domains[p] for p in self.parents[v]), pmf.size)
            if table.shape != expected:
                raise ValueError(
                    f"table for {v} has shape {table.shape}, expected {expected}"
                )
            if table.dtype.kind not in "iu":  # a float or bool array indexes wrongly
                raise ValueError(f"table for {v} is not an integer array")
            entries = table.ravel().tolist()  # builtin min/max/sum beat reductions
            if min(entries) < 0 or max(entries) >= self.domains[v]:
                raise ValueError(f"table for {v} leaves its domain")
            pmf.setflags(write=False)
            table.setflags(write=False)
            exo_dists[v], tables[v] = pmf.view(), table.view()
        parents = {v: tuple(ps) for v, ps in self.parents.items()}
        for name, value in (("order", tuple(self.order)),
                            ("domains", MappingProxyType(dict(self.domains))),
                            ("parents", MappingProxyType(parents)),
                            ("tables", MappingProxyType(tables)),
                            ("exo_dists", MappingProxyType(exo_dists))):
            object.__setattr__(self, name, value)

    def evaluate(self, exo: dict, intervention: dict | None = None) -> dict:
        """Deterministic world(s) given exogenous values and optional do().

        ``exo`` values are ints, or equal-shape integer arrays that evaluate
        many worlds at once: one fancy index per node in topological order,
        with do() values filled to the worlds' shape.
        """
        intervention = intervention or {}
        shape = np.broadcast(*exo.values()).shape
        values = {}
        for v in self.order:
            if v in intervention:
                values[v] = np.full(shape, intervention[v])
                continue
            idx = (*map(values.__getitem__, self.parents[v]), exo[v])
            values[v] = self.tables[v][idx]
        if shape == ():
            return {v: int(x) for v, x in values.items()}
        return values


def _unchecked(cls, **fields):
    """An instance of the dataclass ``cls`` holding ``fields`` as given,
    built without ``__post_init__``: for values that pass its checks by
    construction."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _worlds(scm: DiscreteSCM):
    """Every exogenous world at once, in ``itertools.product`` order.

    Returns ({node: (W,) exogenous values}, (W,) probabilities, {node: (W,)
    factual values}); each probability is the left-to-right product of the
    pmfs.  Raises :class:`CapacityError` above ``MAX_WORLDS``.
    """
    sizes = [len(scm.exo_dists[v]) for v in scm.order]
    count = math.prod(sizes)
    if count > MAX_WORLDS:
        raise CapacityError(f"exogenous state space exceeds {MAX_WORLDS}")
    # row-major digits of the world number, as np.indices would give them
    exo = dict(zip(scm.order, np.unravel_index(np.arange(count), sizes)))
    factors = (scm.exo_dists[v][e] for v, e in exo.items())
    prob = next(factors)
    for factor in factors:  # one at a time: a list of them costs page faults
        prob *= factor
    return exo, prob, scm.evaluate(exo)


def enumerate_joint(scm: DiscreteSCM, worlds=None):
    """Exact joint distribution over all endogenous variables.

    Returns a :class:`carr.infometrics.JointTable`, summed over every
    exogenous world in world order.  ``worlds`` is :func:`_worlds` of this
    model, built here when None.  The table skips :class:`JointTable`'s
    copy and checks: the model was checked once and cannot change since,
    so its nodes are distinct, every domain is nonempty, and its worlds'
    probabilities are nonnegative and sum to 1 up to roundoff.  It is
    frozen, its ``probs`` a view of a read-only buffer, and its entropy memo
    starts empty, as the constructor leaves them.
    """
    from .infometrics import JointTable  # local import to avoid a cycle

    _, prob, values = worlds or _worlds(scm)
    shape = tuple(scm.domains[v] for v in scm.order)
    flat = np.ravel_multi_index(tuple(values[v] for v in scm.order), shape)
    probs = np.bincount(flat, weights=prob, minlength=math.prod(shape))
    probs.setflags(write=False)
    return _unchecked(JointTable, names=scm.order, probs=probs.reshape(shape),
                      _entropies={})


def _check_value(scm: DiscreteSCM, var: str, val) -> None:
    """Raise ValueError unless ``var`` is a node of ``scm`` and ``val`` an
    int or numpy integer, not a bool, in its domain."""
    if (isinstance(val, bool) or not isinstance(val, (int, np.integer))
            or not 0 <= val < scm.domains.get(var, 0)):
        raise ValueError(f"{var}={val!r} is outside the model's domains")


def counterfactual_query(scm: DiscreteSCM, evidence: dict, intervention: dict,
                         target: str, worlds=None) -> np.ndarray:
    """Exact counterfactual distribution of ``target``.

    Abduction: posterior over exogenous worlds given the evidence (values may
    be single values or sets of admissible values).  Action: apply the do()
    intervention.  Prediction: push the posterior through the mutated model.
    ``worlds`` is :func:`_worlds` of this model, built here when None.  A
    do() value that is not an integer (a bool is not) in its variable's
    domain raises ``ValueError``.
    """
    for var in (*evidence, target):
        if var not in scm.domains:
            raise ValueError(f"variable {var!r} is not in the model")
    for var, val in intervention.items():
        _check_value(scm, var, val)
    exo, prob, values = worlds or _worlds(scm)
    mask = np.ones(prob.shape, dtype=bool)
    for var, want in evidence.items():
        if not isinstance(want, (set, frozenset, tuple, list)):
            want = (want,)
        allowed = np.array([w in want for w in range(scm.domains[var])])
        mask &= allowed[values[var]]
    kept = prob[mask]
    # sequential, like the world-at-a-time sum; skipped worlds would add 0.0
    z = np.cumsum(kept)[-1] if kept.size else 0.0
    if z <= 0.0:
        raise InferenceError(f"evidence {evidence} has zero probability")
    after = scm.evaluate({v: e[mask] for v, e in exo.items()}, intervention)
    return np.bincount(after[target], weights=kept / z,
                       minlength=scm.domains[target])


def random_scm(rng: np.random.Generator, shape: str = "a", max_domain: int = 4,
               deterministic: bool = False) -> DiscreteSCM:
    """Random four-node SCM in the pa/nd/y/dc causal shapes.

    shape "a": pa -> y, pa -> nd, y -> dc.
    shape "b": additionally pa -> dc (pa confounds y and dc).
    ``deterministic`` collapses every exogenous pmf to a point mass.
    ``max_domain`` is the largest domain size, an integer >= 2.

    The model is built frozen, as the constructor leaves a checked one: its
    tables and pmfs are read-only views of the two draw buffers, held with
    the domains and parents in read-only mappings.  It skips
    :class:`DiscreteSCM`'s checks, which its draw passes: each pmf is
    ``w / w.sum()`` of positive weights, and each table entry an
    ``integers(0, domain)`` draw in a table of the checked shape.
    ``test_drawn_models_pass_their_constructor`` holds drawn models to
    them, and ``test_audits_run_no_check_on_drawn_models`` counts that the
    audits run none.
    """
    if shape not in ("a", "b"):
        raise ValueError(f"shape must be 'a' or 'b', got {shape!r}")
    if (isinstance(max_domain, bool) or not isinstance(max_domain, (int, np.integer))
            or max_domain < 2):
        raise ValueError(f"max_domain must be an integer >= 2, got {max_domain!r}")
    order = ("pa", "nd", "y", "dc")
    parents = {
        "pa": (),
        "nd": ("pa",),
        "y": ("pa",),
        "dc": ("pa", "y") if shape == "b" else ("y",),
    }
    # One Philox call per kind of draw, in the order of one call per node:
    # domains, exogenous sizes, pmfs, tables, each over ``order``.  NumPy
    # takes a bounded integer from one 32-bit word (none for a single value)
    # whether its bound is a scalar or per element, so the numbers match.
    # Slices cut the draws apart: ``np.split``'s overhead gives the gain back.
    draws = rng.integers(2, [max_domain + 1] * 4
                         + ([] if deterministic else [4] * 4)).tolist()
    domains = dict(zip(order, draws))
    exo_sizes = draws[4:] or [1] * 4
    cuts = list(zip(order, exo_sizes, accumulate(exo_sizes)))
    # Each draw buffer is made read-only once, before the views kept in the
    # model are cut from it, so that every one of them is read-only too.
    # ``w /= w.sum()`` gives the bits of ``w / w.sum()``.
    weights = (np.ones(4) if deterministic
               else rng.uniform(0.05, 1.0, size=sum(exo_sizes)))
    for _, k, end in cuts:
        w = weights[end - k:end]
        w /= w.sum()
    weights.setflags(write=False)
    exo_dists = {v: weights[end - k:end] for v, k, end in cuts}
    shapes = [(*(domains[p] for p in parents[v]), k) for v, k in zip(order, exo_sizes)]
    sizes = [math.prod(s) for s in shapes]
    entries = rng.integers(0, np.repeat(draws[:4], sizes))
    entries.setflags(write=False)
    tables = {v: entries[end - n:end].reshape(s)
              for v, s, n, end in zip(order, shapes, sizes, accumulate(sizes))}
    return _unchecked(DiscreteSCM, order=order, domains=MappingProxyType(domains),
                      parents=MappingProxyType(parents), tables=MappingProxyType(tables),
                      exo_dists=MappingProxyType(exo_dists))

"""Property tests for the discrete-SCM oracle and the information measures.

The vectorised oracle in ``carr.scm`` must equal, bit for bit, a reference
that walks the exogenous worlds one at a time (kept below).  Examples are
derandomized so that every run draws the same cases.
"""

import itertools
from dataclasses import fields

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from carr.infometrics import (  # noqa: E402
    JointTable,
    QueryError,
    entropy,
    mutual_info,
    pns,
    pns_per_world,
    random_markov_chain,
)
from carr.numkit import Rng  # noqa: E402
from carr.scm import (  # noqa: E402
    DiscreteSCM,
    InferenceError,
    _worlds,
    counterfactual_query,
    enumerate_joint,
    random_scm,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)


# ---- world-at-a-time reference ----


def _ref_worlds(scm):
    names = list(scm.order)
    sizes = [len(scm.exo_dists[v]) for v in names]
    for combo in itertools.product(*(range(s) for s in sizes)):
        p = 1.0
        for v, e in zip(names, combo):
            p *= float(scm.exo_dists[v][e])
        if p == 0.0:
            continue
        yield dict(zip(names, combo)), p


def _ref_evaluate(scm, exo, intervention):
    values = {}
    for v in scm.order:
        if v in intervention:
            values[v] = intervention[v]
            continue
        idx = tuple(values[p] for p in scm.parents[v]) + (exo[v],)
        values[v] = int(np.asarray(scm.tables[v])[idx])
    return values


def _ref_joint(scm):
    probs = np.zeros(tuple(scm.domains[v] for v in scm.order))
    for exo, p in _ref_worlds(scm):
        values = _ref_evaluate(scm, exo, {})
        probs[tuple(values[v] for v in scm.order)] += p
    return probs


def _ref_match(values, evidence):
    for var, want in evidence.items():
        if isinstance(want, (set, frozenset, tuple, list)):
            if values[var] not in want:
                return False
        elif values[var] != want:
            return False
    return True


def _ref_counterfactual(scm, evidence, intervention, target):
    post = []
    z = 0.0
    for exo, p in _ref_worlds(scm):
        if _ref_match(_ref_evaluate(scm, exo, {}), evidence):
            post.append((exo, p))
            z += p
    if z <= 0.0:
        raise InferenceError("zero-probability evidence")
    dist = np.zeros(scm.domains[target])
    for exo, p in post:
        dist[_ref_evaluate(scm, exo, intervention)[target]] += p / z
    return dist


# ---- strategies ----


@st.composite
def rngs(draw):
    return Rng(draw(st.integers(0, 2 ** 20)), stream=draw(st.integers(0, 50)))


@st.composite
def scms(draw, max_domains=st.integers(2, 4)):
    return random_scm(
        draw(rngs()),
        shape=draw(st.sampled_from("ab")),
        max_domain=draw(max_domains),
        deterministic=draw(st.booleans()),
    )


@st.composite
def queries(draw):
    scm = draw(scms())
    evidence = {}
    for v in draw(st.sets(st.sampled_from(scm.order), max_size=3)):
        values = range(scm.domains[v])
        if draw(st.booleans()):
            evidence[v] = draw(st.sampled_from(values))
        else:
            evidence[v] = frozenset(draw(st.sets(st.sampled_from(values), min_size=1)))
    intervention = {v: draw(st.sampled_from(range(scm.domains[v])))
                    for v in draw(st.sets(st.sampled_from(scm.order), max_size=2))}
    return scm, evidence, intervention, draw(st.sampled_from(scm.order))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---- properties ----


@SETTINGS
@given(scms())
def test_enumerate_joint_equals_reference(scm):
    assert _same_bits(enumerate_joint(scm).probs, _ref_joint(scm))


@SETTINGS
@given(queries())
def test_counterfactual_query_equals_reference(query):
    try:
        want = _ref_counterfactual(*query)
    except InferenceError:
        with pytest.raises(InferenceError):
            counterfactual_query(*query)
        return
    assert _same_bits(counterfactual_query(*query), want)


@SETTINGS
@given(queries())
def test_prebuilt_worlds_give_the_same_bytes(query):
    # pns builds the worlds once and hands them to both oracles, and the
    # pns audit hands its own build to pns and to enumerate_joint
    scm = query[0]
    assert _same_bits(enumerate_joint(scm, _worlds(scm)).probs,
                      enumerate_joint(scm).probs)
    for call, args in ((counterfactual_query, query),
                       (pns, (scm, "pa", 0, "y", 0, 1))):
        try:
            want = call(*args)
        except (InferenceError, QueryError) as exc:
            with pytest.raises(type(exc)):
                call(*args, worlds=_worlds(scm))
            continue
        assert _same_bits(call(*args, worlds=_worlds(scm)), want)


@SETTINGS
@given(st.integers(0, 2 ** 20), st.sampled_from("ab"), st.sampled_from([2, 4]))
def test_marginal_equals_sum_then_transpose(seed, shape, max_domain):
    # marginal returns the sum as it is when the requested order is sorted
    table = enumerate_joint(random_scm(Rng(seed), shape=shape, max_domain=max_domain))
    names = table.names
    for size in range(1, len(names) + 1):
        for subset in itertools.permutations(names, size):
            keep = [names.index(v) for v in subset]
            drop = tuple(i for i in range(len(names)) if i not in keep)
            order = tuple(np.argsort(np.argsort(keep)))
            want = np.transpose(table.probs.sum(axis=drop), order)
            assert _same_bits(table.marginal(subset), want)


@SETTINGS
@given(scms(), st.data())
def test_pns_readings_differ_by_event_probability(scm, data):
    z_val, z_alt = data.draw(st.permutations(range(scm.domains["pa"])))[:2]
    y_val = data.draw(st.sampled_from(range(scm.domains["y"])))
    try:
        _, _, combined, alt = pns(scm, "pa", z_val, "y", y_val, z_alt=z_alt)
    except QueryError:
        return  # a conditioning event has probability zero
    p_event = enumerate_joint(scm).marginal(("pa", "y"))[z_val, y_val]
    assert abs((combined - alt) - p_event) <= 1e-12


@SETTINGS
@given(scms(), st.data())
def test_mutual_info_symmetric_and_nonnegative(scm, data):
    table = enumerate_joint(scm)
    names = data.draw(st.permutations(scm.order))
    cut = data.draw(st.integers(1, len(names) - 1))
    a = tuple(names[:cut])
    b = tuple(names[cut:cut + data.draw(st.integers(1, len(names) - cut))])
    ab, ba = mutual_info(table, a, b), mutual_info(table, b, a)
    assert ab >= 0.0
    assert abs(ab - ba) <= 1e-12
    assert ab <= min(entropy(table, a), entropy(table, b)) + 1e-12


# ---- drawn models skip their constructor's checks, which they pass ----


@SETTINGS
@given(scms(st.sampled_from([2, 3, 4, 6])))
def test_drawn_models_pass_their_constructor(scm):
    rebuilt = DiscreteSCM(**{f.name: getattr(scm, f.name) for f in fields(DiscreteSCM)})
    assert vars(rebuilt).keys() == vars(scm).keys()
    assert (rebuilt.order, rebuilt.domains, rebuilt.parents) == (
        scm.order, scm.domains, scm.parents)
    for v in scm.order:
        assert _same_bits(rebuilt.tables[v], scm.tables[v])
        assert _same_bits(rebuilt.exo_dists[v], scm.exo_dists[v])


@SETTINGS
@given(rngs())
def test_drawn_chains_pass_their_constructor(rng):
    chain = random_markov_chain(rng)
    rebuilt = JointTable(names=chain.names, probs=chain.probs)
    assert vars(chain).keys() == vars(rebuilt).keys()
    assert chain.names == rebuilt.names and chain._entropies == rebuilt._entropies == {}
    assert _same_bits(chain.probs, rebuilt.probs)
    assert not chain.probs.flags.writeable
    assert chain.probs.flags.c_contiguous


def _large_like(seed, exo):
    """A shape-b model built the way benchmarks/workloads.large_scm builds
    its models, with ``exo`` exogenous states and three values per node."""
    rng = np.random.default_rng([exo, seed])
    order = ("pa", "nd", "y", "dc")
    parents = {"pa": (), "nd": ("pa",), "y": ("pa",), "dc": ("pa", "y")}
    domains = dict.fromkeys(order, 3)
    tables, exo_dists = {}, {}
    for v in order:
        w = rng.uniform(0.05, 1.0, size=exo)
        exo_dists[v] = w / w.sum()
        tables[v] = rng.integers(0, 3, size=(*(domains[p] for p in parents[v]), exo))
    return DiscreteSCM(order=order, domains=domains, parents=parents,
                       tables=tables, exo_dists=exo_dists)


def _assert_joint_passes_its_constructor(scm):
    table = enumerate_joint(scm)
    checked = JointTable(table.names, table.probs)
    assert vars(table).keys() == vars(checked).keys()
    assert table.names == checked.names == scm.order
    assert table._entropies == checked._entropies == {}
    assert _same_bits(table.probs, checked.probs)
    assert not table.probs.flags.writeable
    assert table.probs.flags.c_contiguous


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("max_domain", [2, 3, 4])
@pytest.mark.parametrize("shape", ["a", "b"])
@settings(SETTINGS, max_examples=25)
@given(rngs())
def test_enumerated_joints_pass_their_constructor(shape, max_domain, deterministic,
                                                  rng):
    # enumerate_joint skips JointTable's checks, which a frozen checked
    # model's joint passes
    _assert_joint_passes_its_constructor(random_scm(rng, shape, max_domain,
                                                    deterministic))


@pytest.mark.parametrize("exo", [2, 5, 8])
def test_enumerated_joints_of_large_models_pass_their_constructor(exo):
    for seed in range(3):
        _assert_joint_passes_its_constructor(_large_like(seed, exo))


# ---- the per-world PNS ----


@SETTINGS
@given(scms(st.just(2)), st.data())
def test_pns_per_world_equals_combined_on_binary_models(scm, data):
    z_val, z_alt = data.draw(st.permutations([0, 1]))
    y_val = data.draw(st.sampled_from([0, 1]))
    worlds = _worlds(scm)
    try:
        combined = pns(scm, "pa", z_val, "y", y_val, z_alt=z_alt, worlds=worlds)[2]
    except QueryError:
        return  # a conditioning event has probability zero
    assert abs(pns_per_world(scm, "pa", z_val, "y", y_val, z_alt, worlds)
               - combined) <= 1e-12


@SETTINGS
@given(scms(st.just(4)), st.data())
def test_pns_per_world_within_tian_pearl_bounds(scm, data):
    # max(0, P(y_z) - P(y_z_alt)) <= PNS <= min(P(y_z), 1 - P(y_z_alt))
    z_val, z_alt = data.draw(st.permutations(range(scm.domains["pa"])))[:2]
    y_val = data.draw(st.sampled_from(range(scm.domains["y"])))
    worlds = _worlds(scm)
    p_z, p_alt = (counterfactual_query(scm, {}, {"pa": z}, "y", worlds)[y_val]
                  for z in (z_val, z_alt))
    value = pns_per_world(scm, "pa", z_val, "y", y_val, z_alt, worlds)
    assert max(0.0, p_z - p_alt) - 1e-12 <= value <= min(p_z, 1.0 - p_alt) + 1e-12

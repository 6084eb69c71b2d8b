"""Information measures, inequality checkers, PNS, and sample statistics."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest

import carr.infometrics
from carr.infometrics import (
    JointTable,
    MetricError,
    QueryError,
    acc,
    auc,
    check_lemma1,
    check_lemma2,
    distance_correlation,
    entropy,
    mutual_info,
    pns,
    pns_per_world,
    random_markov_chain,
)
from carr.numkit import Rng
from carr.scm import DiscreteSCM, enumerate_joint, random_scm


def test_joint_table_rejects_a_nan_cell():
    # a NaN compares False both ways, so each check must be written to fail
    # on it; _h would drop it and read the rest as a distribution
    for probs in ([[np.nan, 0.5], [0.25, 0.25]], [[0.5, 0.5], [np.nan, 0.0]]):
        with pytest.raises(QueryError, match="nonnegative and sum to 1"):
            JointTable(("a", "b"), np.array(probs))


def test_joint_table_validation():
    with pytest.raises(QueryError):
        JointTable(names=("a",), probs=np.array([[0.5, 0.5]]))
    with pytest.raises(QueryError):
        JointTable(names=("a", "b"), probs=np.array([[0.5, 0.6], [0.0, 0.0]]))


@pytest.mark.parametrize("names, probs, message", [
    # a repeated name used to be accepted, and its marginal summed the
    # other axis of that name
    (("a", "a"), np.full((2, 2), 0.25), "variable 'a' is named more than once"),
    (["b", "a", "b"], np.full((2, 1, 2), 0.25), "variable 'b' is named more than once"),
    # an empty table used to fail inside numpy's min reduction
    (("a",), np.zeros(0), "the table has no entries"),
    (("a", "b"), np.zeros((2, 0)), "the table has no entries"),
])
def test_joint_table_rejects_repeated_names_and_an_empty_table(names, probs, message):
    with pytest.raises(QueryError, match=f"^{re.escape(message)}$"):
        JointTable(names, probs)


def test_marginal_restores_axis_order():
    probs = Rng(0).uniform(0.1, 1.0, size=(2, 3, 4))
    probs /= probs.sum()
    table = JointTable(names=("a", "b", "c"), probs=probs)
    m = table.marginal(("c", "a"))
    assert m.shape == (4, 2)
    assert np.allclose(m, probs.sum(axis=1).T)
    with pytest.raises(QueryError, match=r"^variable 'd' is not one of the "
                                         r"table's names \('a', 'b', 'c'\)$"):
        table.marginal(("a", "d"))
    with pytest.raises(QueryError, match=r"^variable 'c' is named more than once$"):
        table.marginal(("c", "a", "c"))
    with pytest.raises(QueryError, match=r"^variable 'a' is named more than once$"):
        entropy(table, ("a", "a"))


def test_planned_axes_and_marginals():
    # each (names, variables) pair is planned once and read from the plan
    # after that; two tables over the same names share their plans
    names = ("a", "b", "c")
    tables = []
    for seed in (0, 1):
        probs = Rng(seed).uniform(0.1, 1.0, size=(2, 3, 4))
        tables.append(JointTable(names=names, probs=probs / probs.sum()))
    tables.append(JointTable(names=list(names), probs=tables[0].probs))  # unhashable
    for table in tables * 2:
        for subset in itertools.chain.from_iterable(
                itertools.permutations(names, k) for k in (1, 2, 3)):
            keep = tuple(names.index(v) for v in subset)
            drop = tuple(i for i in range(3) if i not in keep)
            want = np.transpose(table.probs.sum(axis=drop),
                                tuple(np.argsort(np.argsort(keep))))
            for got in (table.marginal(subset), table.marginal(iter(subset))):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        unknown = f"is not one of the table's names {table.names}"
        repeated = "is named more than once"
        for bad, message in ((("a", "d"), f"variable 'd' {unknown}"),
                             ((["a"],), f"variable ['a'] {unknown}"),
                             (("c", "a", "c"), f"variable 'c' {repeated}"),
                             (("b", "b"), f"variable 'b' {repeated}")):
            with pytest.raises(QueryError, match=f"^{re.escape(message)}$"):
                table.marginal(bad)


def test_the_plan_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(carr.infometrics, "_PLANS", {})
    probs = np.full(4, 0.25)
    for i in range(carr.infometrics._MAX_PLANS + 10):
        table = JointTable(names=(f"v{i}",), probs=probs)
        assert table.marginal((f"v{i}",)).tobytes() == probs.tobytes()
    assert len(carr.infometrics._PLANS) == carr.infometrics._MAX_PLANS


def test_entropy_uniform():
    table = JointTable(names=("a",), probs=np.full(8, 1 / 8))
    assert abs(entropy(table, ("a",)) - np.log(8)) < 1e-12
    with pytest.raises(QueryError):
        entropy(table, ())


def test_mutual_info_independent_and_copy():
    indep = JointTable(names=("a", "b"), probs=np.full((2, 2), 0.25))
    assert mutual_info(indep, ("a",), ("b",)) == 0.0
    copy = JointTable(names=("a", "b"), probs=np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert abs(mutual_info(copy, ("a",), ("b",)) - np.log(2)) < 1e-12
    with pytest.raises(QueryError):
        mutual_info(copy, ("a",), ("a",))


def test_dpi_on_random_chains():
    # information never grows along x - z - y
    for i in range(50):
        table = random_markov_chain(Rng(0, stream=100 + i))
        assert (mutual_info(table, ("x",), ("z",))
                >= mutual_info(table, ("x",), ("y",)) - 1e-10)


def _confounded_counterexample():
    """Shape (b) model where the label ignores pa but dc copies it.

    Then I(pa; nd, dc) = H(pa) = ln 2 while I(pa; nd, y) = 0, so the
    first inequality checker must report a violation.
    """
    return DiscreteSCM(
        order=("pa", "nd", "y", "dc"),
        domains={"pa": 2, "nd": 2, "y": 2, "dc": 2},
        parents={"pa": (), "nd": ("pa",), "y": ("pa",), "dc": ("pa", "y")},
        tables={
            "pa": np.array([0, 1]),
            "nd": np.zeros((2, 1), dtype=int),
            "y": np.array([[0, 1], [0, 1]]),
            "dc": np.array([[[0], [0]], [[1], [1]]]),
        },
        exo_dists={
            "pa": np.array([0.5, 0.5]),
            "nd": np.array([1.0]),
            "y": np.array([0.5, 0.5]),
            "dc": np.array([1.0]),
        },
    )


def test_lemma1_holds_on_chain_shape():
    for i in range(50):
        lhs, rhs, ok = check_lemma1(random_scm(Rng(1, stream=10 + i), shape="a"))
        assert ok, (lhs, rhs)


def test_lemma1_violated_under_confounding():
    lhs, rhs, ok = check_lemma1(_confounded_counterexample())
    assert not ok
    assert abs(lhs - np.log(2)) < 1e-12 and abs(rhs) < 1e-12


def test_lemma2_holds_both_shapes():
    for shape in ("a", "b"):
        for i in range(50):
            ineq1, ineq2 = check_lemma2(random_scm(Rng(2, stream=10 + i), shape))
            assert ineq1[2] and ineq2[2]


def _fresh_entropy(table, variables):
    """The entropy computed on its own, in a new table with no stored entropies."""
    return entropy(JointTable(names=table.names, probs=table.probs), variables)


def _fresh_mi(table, a, b):
    return max(_fresh_entropy(table, a) + _fresh_entropy(table, b)
               - _fresh_entropy(table, a + b), 0.0)


def _bits(values):
    return [float(v).hex() if not isinstance(v, bool) else v for v in values]


def test_lemma_checks_equal_separate_entropy_calls():
    # the checks compute each marginal entropy once per table, bit for bit
    for shape in ("a", "b"):
        for i in range(40):
            model = random_scm(Rng(4, stream=10 + i), shape)
            table = enumerate_joint(model)
            lhs1 = _fresh_mi(table, ("pa",), ("nd", "dc"))
            rhs1 = _fresh_mi(table, ("pa",), ("nd", "y"))
            lhs2 = _fresh_mi(table, ("pa",), ("y",))
            assert _bits(check_lemma1(model)) == _bits((lhs1, rhs1, lhs1 <= rhs1 + 1e-10))
            h_pa = _fresh_entropy(table, ("pa",))
            ineq1, ineq2 = check_lemma2(model)
            assert _bits(ineq1) == _bits((lhs1, h_pa, lhs1 <= h_pa + 1e-10))
            assert _bits(ineq2) == _bits((lhs2, rhs1, lhs2 <= rhs1 + 1e-10))


def test_dpi_mutual_infos_equal_separate_entropy_calls():
    # the dpi suite's I(x; z) and I(x; y) share H(x) on one table
    for i in range(30):
        table = random_markov_chain(Rng(6, stream=10 + i))
        for a, b in ((("x",), ("z",)), (("x",), ("y",)), (("z",), ("x", "y"))):
            want = _fresh_mi(table, a, b)
            assert float(mutual_info(table, a, b)).hex() == float(want).hex()


def _per_factor_markov_chain(rng):
    """The reference for ``random_markov_chain``: one uniform draw per
    factor."""
    px = rng.uniform(0.05, 1.0, size=3)
    px /= px.sum()
    pzx = rng.uniform(0.05, 1.0, size=(3, 3))
    pzx /= pzx.sum(axis=1, keepdims=True)
    pyz = rng.uniform(0.05, 1.0, size=(3, 3))
    pyz /= pyz.sum(axis=1, keepdims=True)
    return px[:, None, None] * pzx[:, :, None] * pyz[None, :, :]


def test_random_markov_chain_draws_the_per_factor_numbers():
    for seed in range(4):
        for stream in range(20):
            got_rng, want_rng = Rng(seed, stream), Rng(seed, stream)
            got = random_markov_chain(got_rng).probs
            want = _per_factor_markov_chain(want_rng)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)


def test_entropies_are_kept_per_ordered_variable_tuple():
    # axis order changes the summation order, so ("a", "b") and ("b", "a")
    # are kept apart; each equals its own fresh computation
    probs = Rng(9).uniform(0.0, 1.0, size=(3, 4, 5))
    probs /= probs.sum()
    table = JointTable(names=("a", "b", "c"), probs=probs)
    for variables in [("a", "b"), ("b", "a"), ("c", "a", "b"), ("a", "b"), ("b",)]:
        assert (float(entropy(table, variables)).hex()
                == float(_fresh_entropy(table, variables)).hex())
    assert set(table._entropies) == {("a", "b"), ("b", "a"), ("c", "a", "b"), ("b",)}


def test_joint_table_probs_cannot_change_under_its_entropies():
    probs = np.array([[0.25, 0.25], [0.5, 0.0]])
    table = JointTable(names=("a", "b"), probs=probs)
    h = entropy(table, ("a",))
    with pytest.raises(ValueError):
        table.probs[0, 0] = 1.0  # read-only
    probs[0, 0], probs[1, 0] = 0.75, 0.0  # the caller's array is a separate copy
    assert probs.flags.writeable
    assert table.probs[0, 0] == 0.25 and entropy(table, ("a",)) == h
    assert entropy(JointTable(names=("a", "b"), probs=probs), ("a",)) != h
    # nor can the writeable flag be set back, on a checked table or on one
    # built from a checked model, a drawn model or a drawn chain
    checked = DiscreteSCM(order=("x",), domains={"x": 2}, parents={"x": ()},
                          tables={"x": np.array([0, 1])},
                          exo_dists={"x": np.array([0.25, 0.75])})
    for table in (table, enumerate_joint(checked),
                  enumerate_joint(random_scm(Rng(0, stream=10))),
                  random_markov_chain(Rng(0, stream=100))):
        for flip in (lambda: setattr(table.probs.flags, "writeable", True),
                     lambda: table.probs.setflags(write=True)):
            with pytest.raises(ValueError, match="WRITEABLE"):
                flip()
        assert not table.probs.flags.writeable


def test_lemma_checkers_require_roles():
    chain = DiscreteSCM(order=("x",), domains={"x": 2}, parents={"x": ()},
                        tables={"x": np.array([0, 1])},
                        exo_dists={"x": np.array([0.5, 0.5])})
    with pytest.raises(QueryError):
        check_lemma1(chain)


def _identity_scm():
    """Z uniform binary, Y = Z deterministically."""
    return DiscreteSCM(
        order=("z", "y"), domains={"z": 2, "y": 2},
        parents={"z": (), "y": ("z",)},
        tables={"z": np.array([0, 1]), "y": np.array([[0], [1]])},
        exo_dists={"z": np.array([0.5, 0.5]), "y": np.array([1.0])},
    )


def test_pns_identity_scm_exact():
    suff, nec, combined, alt = pns(_identity_scm(), "z", 1, "y", 1, z_alt=0)
    assert abs(suff - 0.5) < 1e-12
    assert abs(nec - 0.5) < 1e-12
    assert abs(combined - 1.0) < 1e-12
    # combined - alt = P(Z=1, Y=1) = 0.5
    assert abs((combined - alt) - 0.5) < 1e-12


def test_pns_difference_identity_random():
    checked = 0
    for i in range(80):
        scm = random_scm(Rng(3, stream=10 + i), shape="a")
        try:
            _, _, combined, alt = pns(scm, "pa", 0, "y", 0, z_alt=1)
        except QueryError:
            continue
        joint = JointTable(names=("pa", "y"),
                           probs=enumerate_joint(scm).marginal(("pa", "y")))
        assert abs((combined - alt) - joint.probs[0, 0]) < 1e-10
        checked += 1
    assert checked > 10  # zero-probability events skip the rest


@pytest.mark.parametrize("args, message", [
    (("z", 2, "y", 1, 0), "z=2 is outside"),
    (("z", -1, "y", 1, 0), "z=-1 is outside"),
    (("z", 1, "y", 2, 0), "y=2 is outside"),
    (("z", 1, "w", 1, 0), "w=1 is outside"),
    (("z", 1, "y", 1, 1), "z_alt=1 equals z_val"),
])
def test_pns_rejects_a_bad_query_by_name(args, message):
    # a ValueError, not the QueryError that the audit reads as a skipped trial
    with pytest.raises(ValueError, match=message) as info:
        pns(_identity_scm(), *args[:4], z_alt=args[4])
    assert not isinstance(info.value, QueryError)


@pytest.mark.parametrize("value", [1.0, True, np.float64(1)], ids=repr)
@pytest.mark.parametrize("slot", ["z_val", "y_val", "z_alt"])
def test_pns_rejects_a_value_that_is_not_an_integer(slot, value, monkeypatch):
    # each equals 1, so `value in range(domain)` used to let it through; the
    # check comes before any world is built
    query = dict(z_val=1, y_val=0, z_alt=0)
    query[slot] = value
    scm = random_scm(Rng(0, stream=14))
    monkeypatch.setattr("carr.infometrics._worlds", None)
    var = "y" if slot == "y_val" else "pa"
    with pytest.raises(ValueError, match="^" + re.escape(f"{var}={value!r} is outside")):
        pns(scm, "pa", query["z_val"], "y", query["y_val"], z_alt=query["z_alt"])


def test_pns_accepts_numpy_integers():
    want = pns(_identity_scm(), "z", 1, "y", 1, z_alt=0)
    assert pns(_identity_scm(), "z", np.int64(1), "y", np.int64(1),
               z_alt=np.int64(0)) == want


def test_pns_per_world_identity_scm_is_one():
    assert abs(pns_per_world(_identity_scm(), "z", 1, "y", 1, z_alt=0) - 1.0) < 1e-12


def _two_node_scm():
    """Z ~ (0.4, 0.6); Y = table[z, u] with u ~ (0.1, 0.2, 0.3, 0.4): u=0
    copies z, u=1 gives 1, u=2 gives 2 - z, u=3 gives 1 - z."""
    return DiscreteSCM(
        order=("z", "y"), domains={"z": 2, "y": 3},
        parents={"z": (), "y": ("z",)},
        tables={"z": np.array([0, 1]), "y": np.array([[0, 1, 2, 1], [1, 1, 1, 0]])},
        exo_dists={"z": np.array([0.4, 0.6]), "y": np.array([0.1, 0.2, 0.3, 0.4])},
    )


@pytest.mark.parametrize("z_val, y_val, z_alt, want", [
    (1, 1, 0, 0.4),  # u=0 (Y_1=1, Y_0=0) and u=2 (Y_1=1, Y_0=2)
    (0, 2, 1, 0.3),  # u=2 alone
    (0, 1, 1, 0.4),  # u=3 alone: u=1 gives 1 under both
    (1, 2, 0, 0.0),  # no world gives Y_1=2
])
def test_pns_per_world_two_node_model_by_hand(z_val, y_val, z_alt, want):
    got = pns_per_world(_two_node_scm(), "z", z_val, "y", y_val, z_alt=z_alt)
    assert abs(got - want) < 1e-12


@pytest.mark.parametrize("value", [1.0, True, 2])
def test_pns_per_world_rejects_a_bad_value_before_building_worlds(value, monkeypatch):
    monkeypatch.setattr("carr.infometrics._worlds", None)
    with pytest.raises(ValueError, match="^" + re.escape(f"z={value!r} is outside")):
        pns_per_world(_identity_scm(), "z", value, "y", 1, z_alt=0)


def test_pns_zero_probability_event():
    # Z constant 0 makes the (Z=1, Y=1) event impossible
    scm = DiscreteSCM(order=("z", "y"), domains={"z": 2, "y": 2},
                      parents={"z": (), "y": ("z",)},
                      tables={"z": np.array([0]), "y": np.array([[0], [1]])},
                      exo_dists={"z": np.array([1.0]), "y": np.array([1.0])})
    with pytest.raises(QueryError):
        pns(scm, "z", 1, "y", 1, z_alt=0)


# ---- sample statistics ----


def test_distance_correlation_affine():
    rng = Rng(4)
    a = rng.normal(size=(120, 3))
    b = 2.0 * a + 1.0
    assert abs(distance_correlation(a, b) - 1.0) < 1e-10


def test_distance_correlation_independent_small():
    rng = Rng(5)
    a = rng.normal(size=(400, 2))
    b = rng.normal(size=(400, 2))
    assert distance_correlation(a, b) < 0.15


def test_distance_correlation_degenerate():
    a = np.zeros((10, 2))
    b = Rng(6).normal(size=(10, 2))
    assert distance_correlation(a, b) == 0.0
    with pytest.raises(QueryError):
        distance_correlation(np.zeros(1), np.zeros(1))


def test_distance_correlation_rejects_zero_width_block():
    # a zero-width block used to read 0.0, as if measured
    z = Rng(8).normal(size=(10, 3))
    for a, b in ((z, np.empty((10, 0))), (np.empty((10, 0)), z)):
        with pytest.raises(MetricError, match="zero-width"):
            distance_correlation(a, b)


def test_distance_correlation_reads_a_one_row_block_as_one_observation():
    # a (1, 5) block is one row of 5 features, not 5 rows of 1 feature
    row = np.arange(5.0)[None, :]
    with pytest.raises(QueryError, match="need n >= 2"):
        distance_correlation(row, row ** 2)


def test_distance_correlation_accepts_1d():
    rng = Rng(7)
    a = rng.normal(size=50)
    assert abs(distance_correlation(a, -3.0 * a) - 1.0) < 1e-10


def test_distance_correlation_size_cap(monkeypatch):
    # 4 n-by-n float64 matrices: 2 GiB at n = 8192, so n = 8193 is refused
    # before anything n-by-n is built; a stub distance helper marks getting
    # past the cap
    class PastCap(Exception):
        pass

    def distances_stub(*_):
        raise PastCap

    monkeypatch.setattr("carr.infometrics._pairwise_distances", distances_stub)
    with pytest.raises(PastCap):
        distance_correlation(np.zeros(8192), np.zeros(8192))
    with pytest.raises(MetricError, match="n=8193"):
        distance_correlation(np.zeros(8193), np.zeros(8193))


def test_distance_correlation_peak_memory():
    # the cap's 2 GiB assumes at most 4 n-by-n float64 matrices alive at once
    n = 1000
    rng = Rng(8)
    a, b = rng.normal(size=(n, 64)), rng.normal(size=(n, 5))
    tracemalloc.start()
    try:
        distance_correlation(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.01 * 4 * n * n * 8, peak / (n * n * 8)


def test_auc_textbook_example():
    assert abs(auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) - 0.75) < 1e-12


def test_auc_ties_midrank():
    assert abs(auc([0.5, 0.5], [0, 1]) - 0.5) < 1e-12


def test_auc_single_class():
    with pytest.raises(MetricError):
        auc([0.1, 0.2], [1, 1])


def test_acc_threshold():
    assert acc([0.9, 0.4, 0.6, 0.1], [1, 0, 0, 0]) == 0.75


@pytest.mark.parametrize("metric", [auc, acc])
@pytest.mark.parametrize("labels", [[0, 1, 2, 1], [0, 1, -1, 1], [0, 1, 0.5, 1],
                                    [0, 1, np.nan, 1]])
def test_metrics_reject_non_binary_labels(metric, labels):
    # a label 2 used to count as neither class, and auc read 1.5 here
    with pytest.raises(MetricError):
        metric([0.1, 0.9, 0.5, 0.2], labels)


@pytest.mark.parametrize("metric", [auc, acc])
@pytest.mark.parametrize("scores, labels", [
    ([0.9], [1, 0]),  # acc broadcast this to 0.5
    ([0.9, 0.1, 0.3], [1, 0]),  # auc raised numpy's IndexError
    ([], []),  # acc gave NaN and two warnings
    ([[0.9, 0.1]], [[1, 0]]),
])
def test_metrics_reject_mismatched_or_empty_input(metric, scores, labels):
    with pytest.raises(MetricError):
        metric(scores, labels)


@pytest.mark.parametrize("metric", [auc, acc])
def test_metrics_take_bool_and_float_labels(metric):
    scores, labels = [0.1, 0.9, 0.5, 0.2], [0, 1, 1, 0]
    expected = metric(scores, labels)
    assert metric(scores, np.array(labels, dtype=bool)) == expected
    assert metric(scores, np.array(labels, dtype=float)) == expected

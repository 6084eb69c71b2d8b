"""Simulator and discrete-SCM oracle tests."""

import re

import numpy as np
import pytest

from carr.dataio import write_csv
from carr.numkit import Rng
from carr.scm import (
    MAX_WORLDS,
    CapacityError,
    DiscreteSCM,
    InferenceError,
    SynthConfig,
    counterfactual_query,
    enumerate_joint,
    generate,
    kappa1,
    random_scm,
)


# ---- continuous simulator ----


def kappa2(x):
    """The paper's kappa2, a ReLU: x where x > 0, else 0.  The simulator
    leaves it out, because kappa1 gives 0.0 wherever kappa2 does."""
    x = np.asarray(x, dtype=float)
    return np.where(x > 0, x, 0.0)


def kappa3(x):
    """The paper's kappa3: x + 0.5 where x < 0, else 0.  Its second branch
    ``kappa3(kappa2(-u))`` is 0 everywhere, since ``kappa2`` is never
    negative, so the simulator does not call it."""
    x = np.asarray(x, dtype=float)
    return np.where(x < 0, x + 0.5, 0.0)


def _mix(a_rows, u, q):
    """The paper's mixing step: row j of the output is a_rows[j] . u + q."""
    return u @ a_rows.T + q


def test_kappa_pointwise():
    x = np.array([-1.0, -0.25, 0.0, 0.25, 1.0])
    assert np.allclose(kappa1(x), [0.0, 0.0, 0.0, -0.25, 0.5])
    assert np.allclose(kappa2(x), [0.0, 0.0, 0.0, 0.25, 1.0])
    assert np.allclose(kappa3(x), [-0.5, 0.25, 0.0, 0.0, 0.0])


def test_kappa1_after_kappa2_is_kappa1_byte_for_byte():
    edges = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]
    x = np.concatenate([edges, Rng(21).standard_normal(size=10_000)])
    assert kappa1(kappa2(x)).tobytes() == kappa1(x).tobytes()


def _two_branch_generate(cfg):
    # the simulator written with both branches, as the paper states it
    from carr.scm import DC_DIM, ND_DIM, PA_DIM, _sigmoid

    def two_branch(a, base, noise):
        u = np.concatenate([base, noise], axis=1)
        v1 = _mix(a, kappa1(kappa2(u)), cfg.q)
        v2 = _mix(a, kappa3(kappa2(-u)), cfg.q)
        return v1 + v1 * v2

    wrng = Rng(cfg.weight_seed)
    a_nd = wrng.standard_normal(size=(ND_DIM, PA_DIM * 2))
    a_y = wrng.standard_normal(size=(1, PA_DIM * 2))
    a_dc = wrng.standard_normal(size=(DC_DIM, 1 + PA_DIM))
    rng = Rng(cfg.seed)
    pa = rng.uniform(-1.0, 1.0, size=(cfg.n, PA_DIM))
    eps = [cfg.noise_mean + np.sqrt(cfg.beta) * rng.standard_normal(size=(cfg.n, PA_DIM))]
    eps += eps * 2 if cfg.shared_noise else [
        cfg.noise_mean + np.sqrt(cfg.beta) * rng.standard_normal(size=(cfg.n, PA_DIM))
        for _ in range(2)]
    nd = _sigmoid(two_branch(a_nd, pa, eps[1]))
    y = (two_branch(a_y, pa, eps[0])[:, 0] > 0).astype(int)
    dc = _sigmoid(two_branch(a_dc, y[:, None].astype(float), eps[2]))
    cols = [pa, nd, dc]
    if cfg.nc_cols > 0:
        cols.append(rng.uniform(-1.0, 1.0, size=(cfg.n, cfg.nc_cols)))
    return np.concatenate(cols, axis=1), y


@pytest.mark.parametrize("seed, beta, q, shared_noise, nc_cols", [
    (0, 0.3, 0.3, False, 0), (1, 0.0, 0.3, False, 0), (2, 1.5, -0.7, False, 2),
    (3, 0.3, 0.0, True, 0), (4, 0.05, -0.0, False, 0), (5, 3.0, 2.5, True, 3),
])
def test_generate_equals_two_branch_form(seed, beta, q, shared_noise, nc_cols):
    cfg = SynthConfig(beta=beta, n=400, seed=seed, q=q, shared_noise=shared_noise,
                      nc_cols=nc_cols)
    x, y = _two_branch_generate(cfg)
    data = generate(cfg)
    assert data.x.tobytes() == x.tobytes()
    assert data.y.tobytes() == y.tobytes()


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(beta=-0.1, n=10)
    with pytest.raises(ValueError):
        SynthConfig(beta=0.3, n=0)


@pytest.mark.parametrize("name, value", [
    ("n", 100.5), ("n", True), ("seed", "0"), ("weight_seed", 1.0),
    ("nc_cols", None), ("nc_cols", -4),
])
def test_synth_config_rejects_bad_integers(name, value):
    # a float n used to fail inside numpy, and a negative nc_cols read as 0
    with pytest.raises(ValueError, match=f"{name} must be"):
        SynthConfig(**{name: value})


def test_generate_shapes_and_ranges():
    data = generate(SynthConfig(beta=0.3, n=200, seed=1))
    assert data.pa.shape == (200, 5)
    assert data.nd.shape == (200, 5)
    assert data.dc.shape == (200, 5)
    assert data.x.shape == (200, 15)
    assert set(np.unique(data.y)) <= {0, 1}
    assert np.abs(data.pa).max() <= 1.0
    # nd and dc pass through a sigmoid
    assert data.nd.min() >= 0.0 and data.nd.max() <= 1.0
    assert data.dc.min() >= 0.0 and data.dc.max() <= 1.0
    assert np.array_equal(data.x, np.concatenate([data.pa, data.nd, data.dc], axis=1))


def test_generate_deterministic_and_seed_sensitive():
    cfg = SynthConfig(beta=0.3, n=100, seed=5)
    a, b = generate(cfg), generate(cfg)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    c = generate(SynthConfig(beta=0.3, n=100, seed=6))
    assert not np.array_equal(a.x, c.x)


def test_generate_label_rate_sane():
    data = generate(SynthConfig(beta=0.3, n=2000, seed=0))
    assert 0.2 < data.y.mean() < 0.8


def test_generate_weight_seed_decoupled_from_samples():
    # same mixing weights, new samples: dc for identical y and noise would
    # agree, so check the label function is shared by regenerating pa-close
    # datasets and comparing the nd map on identical inputs instead
    a = generate(SynthConfig(beta=0.0, n=50, seed=3))
    b = generate(SynthConfig(beta=0.0, n=50, seed=3, weight_seed=999))
    assert np.array_equal(a.pa, b.pa)  # sample stream untouched
    assert not np.array_equal(a.nd, b.nd)  # mixing weights changed


def test_generate_zero_beta_noise_collapses():
    # beta=0 makes every noise coordinate exactly its mean, so dc depends on
    # y alone: rows with equal labels have identical dc vectors
    data = generate(SynthConfig(beta=0.0, n=80, seed=2))
    for label in (0, 1):
        rows = data.dc[data.y == label]
        assert rows.shape[0] > 0
        assert np.abs(rows - rows[0]).max() < 1e-12


def test_generate_shared_noise_flag():
    a = generate(SynthConfig(beta=0.3, n=60, seed=4, shared_noise=True))
    b = generate(SynthConfig(beta=0.3, n=60, seed=4, shared_noise=False))
    assert np.array_equal(a.pa, b.pa)
    assert not np.array_equal(a.nd, b.nd)


def test_generate_nc_cols():
    data = generate(SynthConfig(beta=0.3, n=40, seed=0, nc_cols=3))
    assert data.x.shape == (40, 18)
    extra = data.x[:, 15:]
    assert np.abs(extra).max() <= 1.0


def test_write_csv_header(tmp_path):
    data = generate(SynthConfig(beta=0.3, n=5, seed=0, nc_cols=1))
    path = tmp_path / "synth.csv"
    write_csv(data, path)
    header = path.read_text().splitlines()[0].split(",")
    assert header[:5] == [f"pa_{i}" for i in range(5)]
    assert header[-2:] == ["nc_0", "y"]


# ---- discrete SCMs ----


def _identity_chain():
    """X uniform binary, Y = X."""
    return DiscreteSCM(
        order=("x", "y"),
        domains={"x": 2, "y": 2},
        parents={"x": (), "y": ("x",)},
        tables={"x": np.array([0, 1]), "y": np.array([[0], [1]])},
        exo_dists={"x": np.array([0.5, 0.5]), "y": np.array([1.0])},
    )


def test_discrete_scm_validation():
    with pytest.raises(ValueError):  # non-topological order
        DiscreteSCM(order=("y", "x"), domains={"x": 2, "y": 2},
                    parents={"x": (), "y": ("x",)},
                    tables={"x": np.array([0, 1]), "y": np.array([[0], [1]])},
                    exo_dists={"x": np.array([0.5, 0.5]), "y": np.array([1.0])})
    with pytest.raises(ValueError):  # table leaves its domain
        DiscreteSCM(order=("x",), domains={"x": 2}, parents={"x": ()},
                    tables={"x": np.array([0, 5])},
                    exo_dists={"x": np.array([0.5, 0.5])})
    with pytest.raises(ValueError):  # pmf does not normalize
        DiscreteSCM(order=("x",), domains={"x": 2}, parents={"x": ()},
                    tables={"x": np.array([0, 1])},
                    exo_dists={"x": np.array([0.5, 0.6])})


def _one_node(table, pmf, domain=2):
    return DiscreteSCM(order=("x",), domains={"x": domain}, parents={"x": ()},
                       tables={"x": np.asarray(table)},
                       exo_dists={"x": np.asarray(pmf, dtype=float)})


@pytest.mark.parametrize("table, pmf, message", [
    ([0, 2], [0.5, 0.5], "table for x leaves its domain"),
    ([-1, 1], [0.5, 0.5], "table for x leaves its domain"),
    ([[0, 1]], [0.5, 0.5], r"table for x has shape \(1, 2\), expected \(2,\)"),
    ([0, 1], [1.5, -0.5], "exogenous pmf for x is not a distribution"),
    ([0, 1], [0.5, 0.6], "exogenous pmf for x is not a distribution"),
    ([0, 1], [np.nan, 1.0], "exogenous pmf for x is not a distribution"),
    ([0, 1], [1.0, np.nan], "exogenous pmf for x is not a distribution"),
    ([0, 1], [0.5, 0.5 + 2e-9], "exogenous pmf for x is not a distribution"),
    # a pmf must be 1-D, whatever shape the table has
    ([0, 1], [[0.5], [0.5]], "exogenous pmf for x is not a distribution"),
    ([[0, 1]], [[0.5, 0.5]], "exogenous pmf for x is not a distribution"),
    ([0], 1.0, "exogenous pmf for x is not a distribution"),
    ([], [], "exogenous pmf for x is not a distribution"),
])
def test_discrete_scm_rejects_bad_tables_and_pmfs(table, pmf, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        _one_node(table, pmf)


def test_discrete_scm_rejects_an_order_that_names_a_node_twice():
    # it used to be accepted, and enumerate_joint then built a table whose
    # probabilities summed to 2, with an entropy of -0.0
    with pytest.raises(ValueError, match="^order names a more than once$"):
        DiscreteSCM(order=("a", "a"), domains={"a": 2}, parents={"a": ()},
                    tables={"a": np.array([0, 1])},
                    exo_dists={"a": np.array([0.5, 0.5])})


@pytest.mark.parametrize("domain", [2.5, 2.0, "2", True, 0, -1, None])
def test_discrete_scm_rejects_a_domain_that_is_not_an_integer_of_one_or_more(domain):
    # 2.5 used to pass the constructor and fail inside enumerate_joint
    with pytest.raises(ValueError, match=re.escape(
            f"domain of x must be an integer >= 1, got {domain!r}")):
        _one_node([0, 0], [0.5, 0.5], domain)


@pytest.mark.parametrize("domain", [1, np.int64(3)])
def test_discrete_scm_accepts_an_integer_domain(domain):
    model = _one_node([0, 0], [0.5, 0.5], domain)
    assert enumerate_joint(model).probs.tolist() == [1.0] + [0.0] * (domain - 1)


def test_discrete_scm_accepts_a_table_at_its_domain_edges():
    assert _one_node([1, 0, 1], [0.25, 0.25, 0.5]).evaluate({"x": 2}) == {"x": 1}


def test_discrete_scm_accepts_a_pmf_within_its_tolerance():
    # the sum may miss 1 by up to 1e-9; 2e-9 is rejected above
    assert _one_node([0, 1], [0.5, 0.5 + 5e-10]).evaluate({"x": 1}) == {"x": 1}


@pytest.mark.parametrize("table", [[0.0, 1.0], [False, True]])
def test_discrete_scm_rejects_a_table_that_is_not_integer(table):
    # a float table cannot index its children, and a bool one indexes them
    # as a mask
    with pytest.raises(ValueError, match="^table for x is not an integer array$"):
        _one_node(table, [0.5, 0.5])


def _frozen_fields(scm):
    """The arrays and mappings that a frozen model must refuse to change."""
    arrays = [*scm.tables.values(), *scm.exo_dists.values()]
    mappings = [scm.domains, scm.parents, scm.tables, scm.exo_dists]
    return arrays, mappings


@pytest.mark.parametrize("build", ["checked", "drawn", "drawn deterministic"])
def test_a_model_cannot_change_after_its_check(build):
    if build == "checked":
        scm = _identity_chain()
    else:
        scm = random_scm(Rng(0, stream=10), deterministic=build != "drawn")
    arrays, mappings = _frozen_fields(scm)
    assert len(arrays) == 2 * len(scm.order)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
        # an owned array's flag could be set back, and a later write would
        # reach the model; a view of a read-only owner refuses the flip
        with pytest.raises(ValueError, match="WRITEABLE"):
            a.flags.writeable = True
        with pytest.raises(ValueError, match="WRITEABLE"):
            a.setflags(write=True)
        assert not a.flags.writeable
    for m in mappings:
        with pytest.raises(TypeError):
            m[scm.order[0]] = m[scm.order[0]]
    assert scm.order == tuple(scm.order)
    assert all(type(p) is tuple for p in scm.parents.values())
    assert all(t.dtype.kind in "iu" for t in scm.tables.values())
    assert all(p.dtype == np.float64 for p in scm.exo_dists.values())


def test_a_drawn_pmf_no_longer_takes_a_write():
    # this write used to reach the model, and only enumerate_joint's table
    # check caught it, as a QueryError far from the write
    scm = random_scm(Rng(0, stream=10))
    with pytest.raises(ValueError, match="read-only"):
        scm.exo_dists["pa"][:] = 0.9
    assert abs(enumerate_joint(scm).probs.sum() - 1.0) < 1e-12


def test_the_constructor_copies_its_inputs():
    tables = {"x": np.array([0, 1]), "y": np.array([[0], [1]])}
    exo_dists = {"x": np.array([0.5, 0.5]), "y": np.array([1.0])}
    domains, parents = {"x": 2, "y": 2}, {"x": [], "y": ["x"]}
    scm = DiscreteSCM(order=["x", "y"], domains=domains, parents=parents,
                      tables=tables, exo_dists=exo_dists)
    before = enumerate_joint(scm).probs.copy()
    for a in (*tables.values(), *exo_dists.values()):
        assert a.flags.writeable  # the caller's arrays stay the caller's
    tables["x"][:] = 1
    tables["y"] = np.array([[1], [0]])
    exo_dists["x"][:] = [0.9, 0.1]
    domains["x"], parents["y"] = 3, []
    parents["x"].append("y")
    assert scm.order == ("x", "y")
    assert dict(scm.domains) == {"x": 2, "y": 2}
    assert dict(scm.parents) == {"x": (), "y": ("x",)}
    assert scm.tables["x"].tolist() == [0, 1]
    assert scm.tables["y"].tolist() == [[0], [1]]
    assert scm.exo_dists["x"].tolist() == [0.5, 0.5]
    assert enumerate_joint(scm).probs.tobytes() == before.tobytes()


def test_evaluate_and_intervention():
    scm = _identity_chain()
    assert scm.evaluate({"x": 1, "y": 0}) == {"x": 1, "y": 1}
    assert scm.evaluate({"x": 1, "y": 0}, {"x": 0}) == {"x": 0, "y": 0}
    # equal-shape arrays evaluate many worlds at once; do() values broadcast
    exo = {"x": np.array([0, 1, 1]), "y": np.zeros(3, dtype=int)}
    assert scm.evaluate(exo)["y"].tolist() == [0, 1, 1]
    values = scm.evaluate(exo, {"x": 1})
    assert values["x"].tolist() == values["y"].tolist() == [1, 1, 1]


def test_enumerate_joint_identity_chain():
    table = enumerate_joint(_identity_chain())
    assert table.names == ("x", "y")
    assert np.allclose(table.probs, [[0.5, 0.0], [0.0, 0.5]])


def _four_root_nodes(exo_size):
    """Four independent binary roots, each with an exo_size-valued input."""
    names = ("a", "b", "c", "d")
    return DiscreteSCM(
        order=names,
        domains={v: 2 for v in names},
        parents={v: () for v in names},
        tables={v: np.arange(exo_size) % 2 for v in names},
        exo_dists={v: np.full(exo_size, 1.0 / exo_size) for v in names},
    )


def test_enumerate_joint_capacity():
    # 32**4 = 1048576 exogenous worlds, just above MAX_WORLDS
    assert 32 ** 4 > MAX_WORLDS
    with pytest.raises(CapacityError):
        enumerate_joint(_four_root_nodes(32))


def test_counterfactual_query_capacity():
    with pytest.raises(CapacityError):
        counterfactual_query(_four_root_nodes(32), {"a": 0}, {"b": 1}, "c")


def test_enumerate_joint_at_capacity():
    # 31**4 worlds fit under the cap; 16 of a root's 31 exogenous values give 0
    table = enumerate_joint(_four_root_nodes(31))
    assert np.allclose(table.marginal(("a",)), [16 / 31, 15 / 31])


def test_counterfactual_identity():
    # evidence Z=0, Y=0; do(Z=1); deterministic mechanism forces Y=1
    dist = counterfactual_query(_identity_chain(), {"x": 0, "y": 0}, {"x": 1}, "y")
    assert np.allclose(dist, [0.0, 1.0])


def test_counterfactual_set_evidence():
    dist = counterfactual_query(_identity_chain(), {"x": {0, 1}}, {}, "y")
    assert np.allclose(dist, [0.5, 0.5])


@pytest.mark.parametrize("want", [{0, 7}, {0, -1}])
def test_counterfactual_evidence_ignores_values_outside_the_domain(want):
    # a negative value must not index from the end and admit x = 1
    scm = _identity_chain()
    dist = counterfactual_query(scm, {"x": want}, {}, "y")
    assert dist.tolist() == [1.0, 0.0]
    assert dist.tobytes() == counterfactual_query(scm, {"x": {0}}, {}, "y").tobytes()


def test_counterfactual_evidence_outside_the_domain_has_zero_probability():
    with pytest.raises(InferenceError):
        counterfactual_query(_identity_chain(), {"x": 7}, {}, "y")


def test_counterfactual_zero_probability_evidence():
    with pytest.raises(InferenceError):
        counterfactual_query(_identity_chain(), {"x": 0, "y": 1}, {}, "y")


@pytest.mark.parametrize("intervention", [
    {"y": -1}, {"x": -1}, {"y": 2}, {"x": 2}, {"w": 0},
])
def test_counterfactual_rejects_bad_intervention(intervention):
    # negative values used to wrap around inside the tables
    with pytest.raises(ValueError, match="outside"):
        counterfactual_query(_identity_chain(), {"x": 0}, intervention, "y")


@pytest.mark.parametrize("value", [1.0, True, np.float64(1)], ids=repr)
def test_counterfactual_rejects_a_do_value_that_is_not_an_integer(value, monkeypatch):
    # each equals 1, so `value in range(2)` used to let it through; the check
    # comes before any world is built
    monkeypatch.setattr("carr.scm._worlds", None)
    with pytest.raises(ValueError, match=re.escape(f"x={value!r} is outside")):
        counterfactual_query(_identity_chain(), {"x": 0}, {"x": value}, "y")


def test_counterfactual_accepts_a_numpy_integer_do_value():
    dist = counterfactual_query(_identity_chain(), {"x": 0, "y": 0}, {"x": np.int64(1)},
                                "y")
    assert dist.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("evidence, target", [({"w": 0}, "y"), ({"x": 0}, "w")])
def test_counterfactual_rejects_a_variable_the_model_lacks(evidence, target):
    with pytest.raises(ValueError, match="variable 'w' is not in the model"):
        counterfactual_query(_identity_chain(), evidence, {}, target)


def test_random_scm_structure():
    a = random_scm(Rng(0, stream=1), shape="a")
    assert a.parents["dc"] == ("y",)
    b = random_scm(Rng(0, stream=1), shape="b")
    assert b.parents["dc"] == ("pa", "y")
    with pytest.raises(ValueError):
        random_scm(Rng(0), shape="c")


def test_random_scm_deterministic_flag():
    scm = random_scm(Rng(1, stream=2), shape="a", deterministic=True)
    for v in scm.order:
        pmf = np.asarray(scm.exo_dists[v])
        assert pmf.size == 1 and pmf[0] == 1.0


def test_random_scm_joint_normalizes():
    for i in range(10):
        table = enumerate_joint(random_scm(Rng(2, stream=i), shape="b"))
        assert abs(table.probs.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("max_domain", [1, 0, -3, 2.5, 4.0, True, "4", None])
def test_random_scm_rejects_a_bad_max_domain(max_domain):
    rng = Rng(0, stream=1)
    before = repr(rng.bit_generator.state)
    with pytest.raises(ValueError, match=f"max_domain must be an integer >= 2, "
                                         f"got {max_domain!r}"):
        random_scm(rng, max_domain=max_domain)
    assert repr(rng.bit_generator.state) == before  # rejected before any draw


def _per_node_random_scm(rng, shape="a", max_domain=4, deterministic=False):
    """The reference for ``random_scm``: one generator call per node and
    kind of draw."""
    order = ("pa", "nd", "y", "dc")
    domains = {v: int(rng.integers(2, max_domain + 1)) for v in order}
    parents = {"pa": (), "nd": ("pa",), "y": ("pa",),
               "dc": ("pa", "y") if shape == "b" else ("y",)}
    exo_sizes = [1 if deterministic else int(rng.integers(2, 4)) for _ in order]
    exo_dists = {}
    for v, k in zip(order, exo_sizes):
        if deterministic:
            exo_dists[v] = np.zeros(k)
            exo_dists[v][int(rng.integers(0, k))] = 1.0
        else:
            w = rng.uniform(0.05, 1.0, size=k)
            exo_dists[v] = w / w.sum()
    tables = {v: rng.integers(0, domains[v],
                              size=(*(domains[p] for p in parents[v]), k))
              for v, k in zip(order, exo_sizes)}
    return DiscreteSCM(order=order, domains=domains, parents=parents,
                       tables=tables, exo_dists=exo_dists)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("max_domain", [2, 3, 4, 6])
def test_random_scm_draws_the_per_node_numbers(max_domain, deterministic):
    for seed in range(4):
        for stream in range(10):
            for shape in "ab":
                got_rng, want_rng = Rng(seed, stream), Rng(seed, stream)
                got = random_scm(got_rng, shape, max_domain, deterministic)
                want = _per_node_random_scm(want_rng, shape, max_domain, deterministic)
                assert got.domains == want.domains
                assert all(type(d) is int for d in got.domains.values())
                for v in want.order:
                    assert _same_bits(got.tables[v], want.tables[v])
                    assert _same_bits(got.exo_dists[v], want.exo_dists[v])
                assert _same_bits(enumerate_joint(got).probs, enumerate_joint(want).probs)
                assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)

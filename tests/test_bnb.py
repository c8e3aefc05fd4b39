import numpy as np
import pytest

from confl3 import bnb, simplex
from confl3.confl import build_3confl, strengthen, strengthening_pairs
from confl3.instance_io import GeneratorParams, generate
from confl3.milp import (
    BINARY,
    CONTINUOUS,
    GE,
    LE,
    Model,
    apply_fixings,
    evaluate,
    lp_relaxation,
)

from instances import DESK, conflict_instance, strengthening_preset
from oracles import mip_enumeration_optimum
from solve import solve_model


def test_cover_pair():
    m = Model()
    a = m.add_variable("x1", BINARY, 0, 1)
    b = m.add_variable("x2", BINARY, 0, 1)
    m.set_objective_coef(a, 1.0)
    m.set_objective_coef(b, 1.0)
    m.add_constraint([(a, 1.0), (b, 1.0)], GE, 1.0)
    r = solve_model(m, 10.0)
    assert r.status == bnb.OPTIMAL
    assert r.objective == pytest.approx(1.0)
    assert r.lower_bound <= r.objective + 1e-9


def test_contradictory_fixing_proved_infeasible():
    m = Model()
    v = m.add_variable("x1", BINARY, 0, 1)
    m.set_objective_coef(v, 1.0)
    m.add_constraint([(v, 1.0)], GE, 1.0)
    r = solve_model(apply_fixings(m, {v: 0.0}), 10.0)
    assert r.status == bnb.INFEASIBLE
    assert r.incumbent is None


def _random_milp(rng: np.random.Generator, n_bin=8, n_cont=3, n_cons=8) -> Model:
    m = Model()
    bins = [m.add_variable(f"b{i}", BINARY, 0, 1) for i in range(n_bin)]
    conts = [m.add_variable(f"c{i}", CONTINUOUS, 0.0, float(rng.uniform(1, 4))) for i in range(n_cont)]
    for vid in bins + conts:
        m.set_objective_coef(vid, float(rng.normal()))
    everything = bins + conts
    for _ in range(n_cons):
        terms = [(i, float(rng.normal())) for i in everything if rng.random() < 0.6]
        if not terms:
            terms = [(everything[0], 1.0)]
        m.add_constraint(terms, str(rng.choice([LE, GE])), float(rng.normal() * 2))
    return m


@pytest.mark.parametrize("seed", range(25))
def test_random_milps_match_enumeration(seed):
    rng = np.random.default_rng(seed)
    m = _random_milp(rng)
    got = solve_model(m, 60.0)
    want_status, want_obj, _ = mip_enumeration_optimum(m)
    assert got.status == ("optimal" if want_status == "optimal" else "infeasible")
    if want_status == "optimal":
        assert got.objective == pytest.approx(want_obj, abs=1e-6)


@pytest.mark.parametrize("seed", range(8))
def test_incumbent_is_integral_and_feasible(seed):
    rng = np.random.default_rng(300 + seed)
    m = _random_milp(rng, n_bin=6)
    r = solve_model(m, 60.0)
    if r.incumbent is None:
        return
    _, violations = evaluate(m, r.incumbent, tol=1e-6)
    assert violations == []
    for vid in m.binary_ids():
        assert min(abs(r.incumbent[vid]), abs(r.incumbent[vid] - 1.0)) <= 1e-6


@pytest.mark.parametrize("seed", range(8))
def test_lp_relaxation_bounds_mip(seed):
    rng = np.random.default_rng(600 + seed)
    m = _random_milp(rng, n_bin=6)
    mip = solve_model(m, 60.0)
    lp = simplex.solve_lp(lp_relaxation(m))
    if mip.status == bnb.OPTIMAL:
        assert lp.status == simplex.OPTIMAL
        assert lp.objective <= mip.objective + 1e-6
        assert mip.lower_bound <= mip.objective + 1e-9


def test_determinism_across_runs():
    rng = np.random.default_rng(42)
    m = _random_milp(rng, n_bin=9)
    r1 = solve_model(m, 60.0)
    r2 = solve_model(m, 60.0)
    assert r1.status == r2.status
    assert r1.nodes == r2.nodes
    assert r1.objective == r2.objective
    assert np.array_equal(r1.incumbent, r2.incumbent)
    assert r1.lower_bound == r2.lower_bound


def test_time_limit_respected():
    rng = np.random.default_rng(7)
    m = _random_milp(rng, n_bin=18, n_cont=6, n_cons=24)
    limit = 0.05
    r = solve_model(m, limit)
    assert r.elapsed < limit + 2.0  # within one node's overhead at this scale
    assert r.status in (bnb.OPTIMAL, bnb.FEASIBLE, bnb.INFEASIBLE, bnb.TIMEOUT_NO_INCUMBENT)


def test_node_limit():
    rng = np.random.default_rng(8)
    m = _random_milp(rng, n_bin=12, n_cons=14)
    r = solve_model(m, 60.0, node_limit=1)
    assert r.nodes <= 1


def test_bound_out_without_incumbent_is_distinct_status():
    rng = np.random.default_rng(9)
    m = _random_milp(rng, n_bin=10, n_cons=12)
    r = solve_model(m, 60.0, node_limit=0)
    assert r.status == bnb.TIMEOUT_NO_INCUMBENT
    assert r.incumbent is None


def test_only_the_root_relaxation_is_solved_cold(monkeypatch):
    model = build_3confl(generate(DESK, 1)).model
    cold = []
    solve_prepared = simplex.solve_prepared

    def counting_solve_prepared(prep, lo, hi, basis=None):
        if basis is None:
            cold.append(prep)
        return solve_prepared(prep, lo, hi, basis)

    monkeypatch.setattr(simplex, "solve_prepared", counting_solve_prepared)
    r = solve_model(model, 60.0)
    assert r.status == bnb.OPTIMAL
    assert r.nodes > 10
    assert len(cold) == 1


# The instance that tests/test_cli.py's GEN_ARGS generate with --seed 4.
CLI_PARAMS = GeneratorParams(
    grid_width=3, grid_height=2, n_facilities=2, n_central_offices=1, n_steiner=0,
    users_per_pixel=0.5, knn=1, radii={1: 1.5, 2: 2.2, 3: 3.0},
    coverage_fractions={1: 0.2, 2: 0.4, 3: 0.5}, eta_noise=0.05, delta=1.8,
)


def _pool_case(case):
    name, seed = case
    if name == "conflict":
        return conflict_instance()[0]
    params = {"desk": DESK, "strengthening": strengthening_preset(), "cli": CLI_PARAMS}[name]
    return generate(params, seed)


@pytest.mark.parametrize("case", [("desk", s) for s in range(8)]
                         + [("strengthening", s) for s in range(4)]
                         + [("cli", 4), ("conflict", 0)], ids=str)
def test_pool_cuts_match_the_full_row_model(case, monkeypatch):
    """Branch and bound on the plain matrix with the strengthening rows as
    a cut pool gives the status and optimum of branch and bound on the
    strengthened model, and its root the full-row root LP value."""
    inst = _pool_case(case)
    plain = build_3confl(inst)
    strong, pool = strengthen(plain, inst).model, strengthening_pairs(plain, inst)
    lo, hi = simplex.model_bounds(plain.model)
    appended = []
    append_rows = simplex.append_rows

    def recording_append_rows(prep, rows, rhs):
        appended.append(len(rhs))
        return append_rows(prep, rows, rhs)

    def close(a, b):
        return abs(a - b) <= 1e-9 * max(1.0, abs(b))

    prep = simplex.prepare(plain.model)
    full_root = simplex.solve_prepared(simplex.prepare(strong), lo, hi)
    with monkeypatch.context() as m:
        m.setattr(simplex, "append_rows", recording_append_rows)
        _, root = simplex.separate(prep, lo, hi, simplex.solve_prepared(prep, lo, hi), pool)
        got = bnb.solve_mip(prep, lo, hi, 120.0, pool=pool)
    want = solve_model(strong, 120.0)
    assert root.status == full_root.status == simplex.OPTIMAL
    assert close(root.objective, full_root.objective)
    assert got.status == want.status == bnb.OPTIMAL
    assert close(got.objective, want.objective)
    _, violations = evaluate(strong, got.incumbent, tol=1e-6)
    assert violations == []
    # The preset exists to make the rows bind: the cut loop must have run.
    assert appended or case[0] != "strengthening"


def test_pool_rows_are_appended_once_for_the_whole_tree(monkeypatch):
    """Every node's cut loop shares one mask of appended pool rows."""
    inst = generate(strengthening_preset(), 2)
    plain = build_3confl(inst)
    pool = strengthening_pairs(plain, inst)
    prep = simplex.prepare(plain.model)
    lo, hi = simplex.model_bounds(plain.model)
    appended, masks = [], []
    append_rows, separate = simplex.append_rows, simplex.separate

    def recording_append_rows(prep, rows, rhs):
        appended.append(rows)
        return append_rows(prep, rows, rhs)

    def recording_separate(prep, lo, hi, res, pool, cut=None):
        masks.append(cut)
        return separate(prep, lo, hi, res, pool, cut)

    monkeypatch.setattr(simplex, "append_rows", recording_append_rows)
    monkeypatch.setattr(simplex, "separate", recording_separate)
    res = bnb.solve_mip(prep, lo, hi, 120.0, pool=pool)
    assert res.status == bnb.OPTIMAL
    assert len(masks) == res.nodes and masks[0] is not None
    assert all(mask is masks[0] for mask in masks)
    rows = np.vstack(appended)
    assert len(appended) > 1
    assert len(np.unique(rows, axis=0)) == len(rows)
    assert masks[0].sum() == len(rows)


@pytest.mark.parametrize("with_pool", [False, True], ids=["plain", "pool"])
def test_a_remembered_start_factorization_changes_no_tree(with_pool):
    """Two trees on one prepared matrix, the second starting with the
    root's start basis already in the matrix's slot, both build the tree of
    a run on a fresh `prepare`: the same nodes, optimum and incumbent."""
    inst = generate(DESK, 2)
    plain = build_3confl(inst)
    pool = strengthening_pairs(plain, inst) if with_pool else None
    lo, hi = simplex.model_bounds(plain.model)
    prep = simplex.prepare(plain.model)
    root = simplex.solve_prepared(prep, lo, hi).basis
    want = bnb.solve_mip(simplex.prepare(plain.model), lo, hi, 120.0, basis=root, pool=pool)
    assert want.status == bnb.OPTIMAL and want.nodes > 50
    first = bnb.solve_mip(prep, lo, hi, 120.0, basis=root, pool=pool)
    simplex.solve_prepared(prep, lo, hi, root)
    assert prep.warm[0] is root
    second = bnb.solve_mip(prep, lo, hi, 120.0, basis=root, pool=pool)
    for got in (first, second):
        assert ((got.status, got.nodes, got.objective, got.lower_bound)
                == (want.status, want.nodes, want.objective, want.lower_bound))
        assert np.array_equal(got.incumbent, want.incumbent)


def test_no_pool_appends_nothing(monkeypatch):
    monkeypatch.setattr(simplex, "separate", None)
    monkeypatch.setattr(simplex, "append_rows", None)
    r = solve_model(build_3confl(generate(DESK, 2)).model, 60.0)
    assert r.status == bnb.OPTIMAL

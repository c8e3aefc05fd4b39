import heapq
import math
import sys
import time

import numpy as np
import pytest

from confl3 import bnb, simplex
from confl3.confl import build_3confl, strengthen, strengthening_pairs
from confl3.instance_io import generate
from confl3.milp import (
    BINARY,
    CONTINUOUS,
    GE,
    LE,
    Model,
    apply_fixings,
    lp_relaxation,
)

from instances import CLI_PARAMS, DESK, DESK_OPTIMUM, conflict_instance, strengthening_preset
from oracles import evaluate, highs_mip_optimum, mip_enumeration_optimum
from rows import add_row
from solve import solve_model


def test_cover_pair():
    m = Model()
    a, b = m.add_variables(["x1", "x2"], BINARY, 0, 1, 1.0)
    add_row(m, [(a, 1.0), (b, 1.0)], GE, 1.0)
    r = solve_model(m, 10.0)
    assert r.status == bnb.OPTIMAL
    assert r.objective == pytest.approx(1.0)
    assert r.lower_bound <= r.objective + 1e-9


def test_contradictory_fixing_proved_infeasible():
    m = Model()
    v = m.add_variables(["x1"], BINARY, 0, 1, 1.0)[0]
    add_row(m, [(v, 1.0)], GE, 1.0)
    r = solve_model(apply_fixings(m, {v: 0.0}), 10.0)
    assert r.status == bnb.INFEASIBLE
    assert r.incumbent is None


def _first_branch(model: Model, monkeypatch) -> tuple[simplex.LpResult, int]:
    """The root relaxation of branch and bound on `model` and the one column
    whose bounds its first child changes."""
    calls = []
    solve_prepared = simplex.solve_prepared

    def recording_solve_prepared(prep, lo, hi, basis=None, factor=None):
        res = solve_prepared(prep, lo, hi, basis, factor)
        calls.append((lo.copy(), hi.copy(), res))
        return res

    monkeypatch.setattr(simplex, "solve_prepared", recording_solve_prepared)
    solve_model(model, 60.0, node_limit=2)
    (root_lo, root_hi, root), (lo, hi, _) = calls[:2]
    changed = np.flatnonzero((lo != root_lo) | (hi != root_hi))
    assert len(changed) == 1
    return root, int(changed[0])


def test_branches_on_the_highest_weighted_fractionality(monkeypatch):
    """z (cost 0) and a (cost 1) sit at 0.5 and b (cost 10) at 0.25: the
    binary closest to 0.5 with the lowest id is z, but b has the highest
    |c| * min(f, 1 - f), so the first child bounds b."""
    m = Model()
    z, a, b = m.add_variables(["z", "a", "b"], BINARY, 0, 1, [0.0, 1.0, 10.0])
    for vid, scale in ((z, 2.0), (a, 2.0), (b, 4.0)):
        add_row(m, [(vid, scale)], GE, 1.0)
    root, j = _first_branch(m, monkeypatch)
    frac = root.assignment[[z, a, b]]
    assert frac == pytest.approx([0.5, 0.5, 0.25])
    dist = np.minimum(frac, 1.0 - frac)
    assert int(np.argmin(np.abs(dist - 0.5))) == z
    assert j == b == int(np.argmax(np.array([0.0, 1.0, 10.0]) * dist))


def test_a_zero_cost_binary_is_branched_on_when_no_costed_one_is_fractional(monkeypatch):
    m = Model()
    x = m.add_variables(["x"], BINARY, 0, 1, 1.0)[0]
    z = m.add_variables(["z"], BINARY, 0, 1)[0]
    add_row(m, [(z, 2.0)], GE, 1.0)
    root, j = _first_branch(m, monkeypatch)
    assert root.assignment == pytest.approx([0.0, 0.5])
    assert j == z


def test_desk_seed_11_closes_within_30_nodes():
    """A tree of 303 nodes under branching on the binary closest to 0.5."""
    model = build_3confl(generate(DESK, 11)).model
    r = solve_model(model, 60.0, node_limit=30)
    status, want = highs_mip_optimum(model)
    assert r.status == bnb.OPTIMAL and status == "optimal"
    assert r.objective == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_desk_optimum_matches_highs(seed):
    model = build_3confl(generate(DESK, seed)).model
    got = solve_model(model, 60.0)
    status, want = highs_mip_optimum(model)
    assert got.status == bnb.OPTIMAL and status == "optimal"
    assert got.objective == pytest.approx(want, rel=1e-9)


def _random_milp(rng: np.random.Generator, n_bin=8, n_cont=3, n_cons=8) -> Model:
    m = Model()
    upper = [float(rng.uniform(1, 4)) for _ in range(n_cont)]
    costs = [float(rng.normal()) for _ in range(n_bin + n_cont)]
    bins = list(m.add_variables([f"b{i}" for i in range(n_bin)], BINARY, 0, 1, costs[:n_bin]))
    conts = [m.add_variables([f"c{i}"], CONTINUOUS, 0.0, u, c)[0]
             for i, (u, c) in enumerate(zip(upper, costs[n_bin:]))]
    everything = bins + conts
    for _ in range(n_cons):
        terms = [(i, float(rng.normal())) for i in everything if rng.random() < 0.6]
        if not terms:
            terms = [(everything[0], 1.0)]
        add_row(m, terms, str(rng.choice([LE, GE])), float(rng.normal() * 2))
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


def _feasible_milp(rng: np.random.Generator, n_bin=6, n_cont=3, n_cons=8) -> Model:
    """A random MILP shaped as :func:`_random_milp`, feasible by
    construction: each row's right-hand side leaves a drawn point, binaries
    at 0 or 1 and continuous values inside their boxes, a positive slack."""
    m = Model()
    upper = rng.uniform(1, 4, size=n_cont)
    costs = [float(rng.normal()) for _ in range(n_bin + n_cont)]
    bins = list(m.add_variables([f"b{i}" for i in range(n_bin)], BINARY, 0, 1, costs[:n_bin]))
    conts = [m.add_variables([f"c{i}"], CONTINUOUS, 0.0, float(u), c)[0]
             for i, (u, c) in enumerate(zip(upper, costs[n_bin:]))]
    everything = bins + conts
    point = np.concatenate([rng.integers(0, 2, size=n_bin), rng.uniform(0.2, 0.8) * upper])
    for _ in range(n_cons):
        terms = [(i, float(rng.normal())) for i in everything if rng.random() < 0.6]
        if not terms:
            terms = [(everything[0], 1.0)]
        sense = str(rng.choice([LE, GE]))
        lhs = sum(coef * point[i] for i, coef in terms)
        margin = abs(float(rng.normal())) + 0.1
        add_row(m, terms, sense, lhs + margin if sense == LE else lhs - margin)
    return m


@pytest.mark.parametrize("seed", range(8))
def test_incumbent_is_integral_and_feasible(seed):
    rng = np.random.default_rng(300 + seed)
    m = _feasible_milp(rng)
    r = solve_model(m, 60.0)
    assert r.status == bnb.OPTIMAL and r.incumbent is not None
    _, violations = evaluate(m, r.incumbent, tol=1e-6)
    assert violations == []
    for vid in np.flatnonzero(m.variables.binary):
        assert min(abs(r.incumbent[vid]), abs(r.incumbent[vid] - 1.0)) <= 1e-6


@pytest.mark.parametrize("seed", range(8))
def test_lp_relaxation_bounds_mip(seed):
    rng = np.random.default_rng(600 + seed)
    m = _feasible_milp(rng)
    mip = solve_model(m, 60.0)
    lp = simplex.solve_lp(lp_relaxation(m))
    assert mip.status == bnb.OPTIMAL and mip.incumbent is not None
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
    start = time.monotonic()
    r = solve_model(m, limit)
    assert time.monotonic() - start < limit + 2.0  # within one node's overhead at this scale
    assert r.status in (bnb.OPTIMAL, bnb.FEASIBLE, bnb.INFEASIBLE, bnb.TIMEOUT_NO_INCUMBENT)


def test_a_passed_deadline_solves_no_lp(monkeypatch):
    m = _random_milp(np.random.default_rng(7), n_bin=6)
    prep = simplex.prepare(m)
    lo, hi = m.variables.lower, m.variables.upper

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved after the deadline")

    monkeypatch.setattr(simplex, "solve_prepared", no_lp)
    r = bnb.solve_mip(prep, lo, hi, deadline=time.monotonic() - 1.0)
    assert r.status == bnb.TIMEOUT_NO_INCUMBENT
    assert r.incumbent is None and r.objective is None
    assert r.nodes == 0
    assert r.lower_bound == -math.inf


def test_the_deadline_is_keyword_only():
    m = _random_milp(np.random.default_rng(7), n_bin=6)
    with pytest.raises(TypeError):
        bnb.solve_mip(simplex.prepare(m), m.variables.lower, m.variables.upper, 120.0)


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

    def counting_solve_prepared(prep, lo, hi, basis=None, factor=None):
        if basis is None:
            cold.append(prep)
        return solve_prepared(prep, lo, hi, basis, factor)

    monkeypatch.setattr(simplex, "solve_prepared", counting_solve_prepared)
    r = solve_model(model, 60.0)
    assert r.status == bnb.OPTIMAL
    assert r.nodes > 10
    assert len(cold) == 1


def test_children_share_the_bound_vector_branching_leaves(monkeypatch):
    # The down child keeps its parent's lower bounds and the up child its
    # upper bounds, as the same read-only arrays; the caller's arrays keep
    # their values and flags.
    model = build_3confl(generate(DESK, 1)).model
    prep = simplex.prepare(model)
    lo, hi = model.variables.lower.copy(), model.variables.upper.copy()
    given = lo.copy(), hi.copy()
    events = []   # ("pop" | "push", heap entry), in order
    push, pop = heapq.heappush, heapq.heappop

    def recording_push(heap, node):
        events.append(("push", node))
        push(heap, node)

    def recording_pop(heap):
        events.append(("pop", pop(heap)))
        return events[-1][1]

    monkeypatch.setattr(heapq, "heappush", recording_push)
    monkeypatch.setattr(heapq, "heappop", recording_pop)
    r = bnb.solve_mip(prep, lo, hi)
    assert r.status == bnb.OPTIMAL and r.nodes > 10
    assert np.array_equal(lo, given[0]) and np.array_equal(hi, given[1])
    assert lo.flags.writeable and hi.flags.writeable
    # A branching is a pop followed by its two children's pushes.
    branchings = 0
    for (a, parent), (b, down), (c, up) in zip(events, events[1:], events[2:]):
        if (a, b, c) == ("pop", "push", "push"):
            assert down[2] is parent[2] and up[3] is parent[3]
            assert down[3] is not parent[3] and up[2] is not parent[2]
            branchings += 1
    assert branchings > 5
    assert not any(a.flags.writeable for _, node in events for a in node[2:4])


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
    lo, hi = plain.model.variables.lower, plain.model.variables.upper
    appended = []
    append_rows = simplex.append_rows

    def recording_append_rows(prep, cols, coefs, rhs):
        appended.append(len(rhs))
        return append_rows(prep, cols, coefs, rhs)

    def close(a, b):
        return abs(a - b) <= 1e-9 * max(1.0, abs(b))

    prep = simplex.prepare(plain.model)
    full_root = simplex.solve_prepared(simplex.prepare(strong), lo, hi)
    with monkeypatch.context() as m:
        m.setattr(simplex, "append_rows", recording_append_rows)
        _, root = simplex.separate(prep, lo, hi, simplex.solve_prepared(prep, lo, hi), pool)
        got = bnb.solve_mip(prep, lo, hi, deadline=time.monotonic() + 120.0, pool=pool)
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
    lo, hi = plain.model.variables.lower, plain.model.variables.upper
    appended, masks = [], []
    append_rows, separate = simplex.append_rows, simplex.separate

    def recording_append_rows(prep, cols, coefs, rhs):
        appended.append(cols)
        return append_rows(prep, cols, coefs, rhs)

    def recording_separate(prep, lo, hi, res, pool, cut=None):
        masks.append(cut)
        return separate(prep, lo, hi, res, pool, cut)

    monkeypatch.setattr(simplex, "append_rows", recording_append_rows)
    monkeypatch.setattr(simplex, "separate", recording_separate)
    res = bnb.solve_mip(prep, lo, hi, deadline=time.monotonic() + 120.0, pool=pool)
    assert res.status == bnb.OPTIMAL
    assert len(masks) == res.nodes and masks[0] is not None
    assert all(mask is masks[0] for mask in masks)
    # Each appended row as its sorted pair of column ids.
    rows = np.sort(np.vstack(appended), axis=1)
    assert len(appended) > 1
    assert len(np.unique(rows, axis=0)) == len(rows)
    assert masks[0].sum() == len(rows)


@pytest.mark.parametrize("with_pool", [False, True], ids=["plain", "pool"])
def test_a_remembered_start_factorization_changes_no_tree(with_pool):
    """Two trees on one prepared matrix, the second after another solve
    from the root's start basis, both build the tree of a run on a fresh
    `prepare`: the same nodes, optimum and incumbent."""
    inst = generate(DESK, 2)
    plain = build_3confl(inst)
    pool = strengthening_pairs(plain, inst) if with_pool else None
    lo, hi = plain.model.variables.lower, plain.model.variables.upper
    prep = simplex.prepare(plain.model)
    root = simplex.solve_prepared(prep, lo, hi).basis
    want = bnb.solve_mip(simplex.prepare(plain.model), lo, hi, deadline=time.monotonic() + 120.0,
                         basis=root, pool=pool)
    assert want.status == bnb.OPTIMAL and want.nodes > 50
    first = bnb.solve_mip(prep, lo, hi, deadline=time.monotonic() + 120.0, basis=root,
                          pool=pool)
    simplex.solve_prepared(prep, lo, hi, root)
    second = bnb.solve_mip(prep, lo, hi, deadline=time.monotonic() + 120.0, basis=root,
                          pool=pool)
    for got in (first, second):
        assert ((got.status, got.nodes, got.objective, got.lower_bound)
                == (want.status, want.nodes, want.objective, want.lower_bound))
        assert np.array_equal(got.incumbent, want.incumbent)


def _session_tree(model, pool) -> bnb.MipResult:
    """The tree of a session after its root LP: the root node starts from
    the root's basis and factor."""
    session = bnb.Session(model)
    assert session.root().status == simplex.OPTIMAL
    return session.mip({}, deadline=math.inf, pool=pool)


@pytest.mark.parametrize("case", [("desk", s, p) for s in range(8) for p in (False, True)]
                         + [("strengthening", s, p) for s in range(4) for p in (False, True)],
                         ids=str)
def test_handed_factors_change_no_tree(case, monkeypatch):
    """A tree whose nodes start from their parents' factors and the tree
    with every factor dropped end with the same status, node count,
    objective and lower bound, the DESK optimum on the DESK seeds."""
    name, seed, with_pool = case
    inst = generate(DESK if name == "desk" else strengthening_preset(), seed)
    plain = build_3confl(inst)
    pool = strengthening_pairs(plain, inst) if with_pool else None
    got = _session_tree(plain.model, pool)
    solve_prepared = simplex.solve_prepared
    monkeypatch.setattr(simplex, "solve_prepared",
                        lambda prep, lo, hi, basis=None, factor=None:
                        solve_prepared(prep, lo, hi, basis))
    want = _session_tree(plain.model, pool)
    assert got.status == want.status == bnb.OPTIMAL
    assert got.nodes == want.nodes
    for a, b in ((got.objective, want.objective), (got.lower_bound, want.lower_bound)):
        assert a == pytest.approx(b, rel=1e-9)
    if name == "desk":
        assert got.objective == pytest.approx(DESK_OPTIMUM[seed], rel=1e-9)
        assert want.objective == pytest.approx(DESK_OPTIMUM[seed], rel=1e-9)


@pytest.mark.parametrize("kept", [0, 1, 2, bnb._KEPT_FACTORS])
def test_the_tree_keeps_at_most_kept_factors(kept, monkeypatch):
    """`solve_mip` never holds more than ``_KEPT_FACTORS`` factors for
    children yet to start, and holds that many on a tree of DESK seed 2; any
    cap builds the same tree."""
    model = build_3confl(generate(DESK, 2)).model
    want = _session_tree(model, None)
    monkeypatch.setattr(bnb, "_KEPT_FACTORS", kept)
    sizes, handed = [], []
    solve_prepared = simplex.solve_prepared

    def recording(prep, lo, hi, basis=None, factor=None):
        caller = sys._getframe(1)
        if caller.f_code is bnb.solve_mip.__code__:
            sizes.append(sum(slot[0] is not None for slot in caller.f_locals["kept"].values()))
            handed.append(factor is not None)
        return solve_prepared(prep, lo, hi, basis, factor)

    monkeypatch.setattr(simplex, "solve_prepared", recording)
    got = _session_tree(model, None)
    assert (got.status, got.nodes) == (want.status, want.nodes)
    assert got.objective == pytest.approx(want.objective, rel=1e-9)
    assert got.lower_bound == pytest.approx(want.lower_bound, rel=1e-9)
    assert want.nodes > 50
    assert max(sizes) == kept
    # The root starts from the session's factor; with none kept, a node
    # whose sibling is still to start factorizes its start and hands that on.
    assert handed[0] and sum(handed) > 1


def test_no_pool_appends_nothing(monkeypatch):
    monkeypatch.setattr(simplex, "separate", None)
    monkeypatch.setattr(simplex, "append_rows", None)
    r = solve_model(build_3confl(generate(DESK, 2)).model, 60.0)
    assert r.status == bnb.OPTIMAL


def _recording_lps(monkeypatch) -> list:
    """Record every `simplex.solve_prepared` call as (lo, hi, start basis,
    result), the bounds copied."""
    calls = []
    solve_prepared = simplex.solve_prepared

    def recording(prep, lo, hi, basis=None, factor=None):
        calls.append((np.array(lo), np.array(hi), basis,
                      solve_prepared(prep, lo, hi, basis, factor)))
        return calls[-1][3]

    monkeypatch.setattr(simplex, "solve_prepared", recording)
    return calls


def _desk_pins(confl) -> dict[int, float]:
    """Open the first facility on fiber and close its other technologies."""
    fid = sorted(confl.z)[0][0]
    return {confl.z[fid, t]: float(t == 1) for t in (1, 2, 3)}


class TestSession:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_before_root_a_mip_is_the_tree_of_a_fresh_prepare(self, seed, monkeypatch):
        model = build_3confl(generate(DESK, seed)).model
        cols = model.variables
        calls = _recording_lps(monkeypatch)
        want = bnb.solve_mip(simplex.prepare(model), cols.lower, cols.upper)
        want_lps, calls[:] = list(calls), []
        got = bnb.Session(model).mip({}, deadline=math.inf)
        assert want.status == bnb.OPTIMAL and want.nodes > 10
        assert ((got.status, got.nodes, got.objective, got.lower_bound)
                == (want.status, want.nodes, want.objective, want.lower_bound))
        assert np.array_equal(got.incumbent, want.incumbent)
        assert len(calls) == len(want_lps)
        for (lo, hi, basis, res), (want_lo, want_hi, want_basis, want_res) in zip(calls, want_lps):
            assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)
            assert (basis is None) == (want_basis is None)
            assert (res.status, res.objective) == (want_res.status, want_res.objective)

    def test_after_root_lp_and_mip_start_from_the_root_basis(self, monkeypatch):
        confl = build_3confl(generate(DESK, 1))
        session = bnb.Session(confl.model)
        calls = _recording_lps(monkeypatch)
        session.lp({})
        assert calls[-1][2] is None  # the slack basis before root()
        root = session.root()
        assert root.status == simplex.OPTIMAL and calls[-1][2] is None
        pins = _desk_pins(confl)
        for solve in (lambda: session.lp(pins), lambda: session.mip(pins, deadline=math.inf)):
            calls[:] = []
            solve()
            assert calls[0][2] is root.basis

    def test_rows_of_one_mip_are_gone_after_it(self):
        model = build_3confl(generate(DESK, 3)).model
        want = solve_model(model, 60.0)
        assert want.status == bnb.OPTIMAL and want.objective > 1.0
        session = bnb.Session(model)
        session.root()
        below = want.objective - 1.0   # no point costs less than the optimum
        costed = np.flatnonzero(model.variables.cost)
        cutoff = ([costed], [model.variables.cost[costed]], np.array([below]))
        assert session.mip({}, deadline=math.inf, rows=cutoff).status == bnb.INFEASIBLE
        got = session.mip({}, deadline=math.inf)
        assert got.status == bnb.OPTIMAL
        assert got.objective == pytest.approx(want.objective, rel=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_lp_agrees_with_solve_prepared_under_the_same_bounds(self, seed):
        confl = build_3confl(generate(DESK, seed))
        cols = confl.model.variables
        pins = _desk_pins(confl)
        lo, hi = cols.lower.copy(), cols.upper.copy()
        lo[list(pins)] = hi[list(pins)] = list(pins.values())
        want = simplex.solve_prepared(simplex.prepare(confl.model), lo, hi)
        session = bnb.Session(confl.model)
        cold = session.lp(pins)   # from the slack basis, as `want`
        assert cold.status == want.status and cold.objective == want.objective
        session.root()
        warm = session.lp(pins)
        assert warm.status == want.status
        if want.status == simplex.OPTIMAL:
            assert warm.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-9)
            assert np.all(warm.assignment >= lo) and np.all(warm.assignment <= hi)

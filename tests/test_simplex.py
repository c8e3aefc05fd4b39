import math
from dataclasses import replace

import numpy as np
import pytest

from confl3 import simplex
from confl3.milp import BINARY, CONTINUOUS, EQ, GE, LE, Model, evaluate

from oracles import lp_vertex_optimum


def test_simple_lower_bounded_min():
    m = Model()
    x = m.add_variable("x", CONTINUOUS, 0, 10)
    m.set_objective_coef(x, 1.0)
    m.add_constraint([(x, 1.0)], GE, 3.0)
    r = simplex.solve_lp(m)
    assert r.status == simplex.OPTIMAL
    assert r.objective == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("lower, upper", [(0, math.inf), (-math.inf, 0), (0, math.nan)])
def test_unboxed_columns_are_rejected(lower, upper):
    m = Model()
    x = m.add_variable("x", CONTINUOUS, 0, 1)
    m.set_objective_coef(x, -1.0)
    m.add_constraint([(x, 1.0)], GE, 0.0)
    with pytest.raises(ValueError, match="finite"):
        simplex.solve_prepared(simplex.prepare(m), np.array([lower]), np.array([upper]))


def test_infeasible_detected():
    m = Model()
    x = m.add_variable("x", CONTINUOUS, 0, 10)
    m.add_constraint([(x, 1.0)], LE, 1.0)
    m.add_constraint([(x, 1.0)], GE, 2.0)
    m.set_objective_coef(x, 1.0)
    assert simplex.solve_lp(m).status == simplex.INFEASIBLE


def test_binary_variable_is_contract_violation():
    m = Model()
    m.add_variable("x", BINARY, 0, 1)
    with pytest.raises(ValueError, match="binary"):
        simplex.solve_lp(m)


def test_no_constraints_box_problem():
    m = Model()
    x = m.add_variable("x", CONTINUOUS, -2, 5)
    y = m.add_variable("y", CONTINUOUS, 1, 3)
    m.set_objective_coef(x, 1.0)
    m.set_objective_coef(y, -2.0)
    r = simplex.solve_lp(m)
    assert r.status == simplex.OPTIMAL
    assert r.objective == pytest.approx(-2 - 6)


def test_degenerate_cycling_guard():
    # Beale's classic cycling example for Dantzig pricing, every column boxed
    # to [0, 1e4]: the rows give objective >= 15*x1 - 0.05*x2 >= -0.05, so
    # the optimum stays -0.05, reached by the dual simplex through
    # degenerate pivots.
    m = Model()
    x = [m.add_variable(f"x{i}", CONTINUOUS, 0, 1e4) for i in range(4)]
    for vid, c in zip(x, (-0.75, 150.0, -0.02, 6.0)):
        m.set_objective_coef(vid, c)
    m.add_constraint([(x[0], 0.25), (x[1], -60.0), (x[2], -0.04), (x[3], 9.0)], LE, 0.0)
    m.add_constraint([(x[0], 0.5), (x[1], -90.0), (x[2], -0.02), (x[3], 3.0)], LE, 0.0)
    m.add_constraint([(x[2], 1.0)], LE, 1.0)
    r = simplex.solve_lp(m)
    assert r.status == simplex.OPTIMAL
    assert r.objective == pytest.approx(-0.05, abs=1e-9)


def _random_lp(rng: np.random.Generator, n_vars=5, n_cons=8) -> Model:
    m = Model()
    ids = [m.add_variable(f"v{i}", CONTINUOUS, 0.0, float(rng.uniform(1, 6))) for i in range(n_vars)]
    for i in ids:
        m.set_objective_coef(i, float(rng.normal()))
    for _ in range(n_cons):
        terms = [(i, float(rng.normal())) for i in ids if rng.random() < 0.8]
        if not terms:
            terms = [(ids[0], 1.0)]
        sense = rng.choice([LE, GE, EQ], p=[0.45, 0.45, 0.10])
        m.add_constraint(terms, str(sense), float(rng.normal() * 2))
    return m


@pytest.mark.parametrize("seed", range(30))
def test_random_lps_match_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    m = _random_lp(rng)
    got = simplex.solve_lp(m)
    want_status, want_obj, _ = lp_vertex_optimum(m)
    assert got.status == want_status
    if want_status == "optimal":
        assert got.objective == pytest.approx(want_obj, abs=1e-6)
        _, violations = evaluate(m, got.assignment, tol=1e-6)
        assert violations == []


@pytest.mark.parametrize("seed", range(10))
def test_optimal_assignment_attains_reported_objective(seed):
    rng = np.random.default_rng(100 + seed)
    m = _random_lp(rng, n_vars=7, n_cons=10)
    r = simplex.solve_lp(m)
    if r.status != simplex.OPTIMAL:
        return
    obj, violations = evaluate(m, r.assignment, tol=1e-6)
    assert violations == []
    assert obj == pytest.approx(r.objective, abs=1e-6)


def _feasible_lp(rng: np.random.Generator, dependent: bool, n_vars=4, n_cons=5) -> Model:
    """Random bounded LP built around an interior point, so its root is
    feasible.  With `dependent`, an equality row is repeated at twice the
    scale: no basis can drive both rows' fixed slacks out, so one stays
    basic at 0."""
    m = Model()
    ids = [m.add_variable(f"v{i}", CONTINUOUS, 0.0, float(rng.uniform(1, 6))) for i in range(n_vars)]
    point = np.array([rng.uniform(0.2, 0.8) * m.variables[i].upper for i in ids])
    for i in ids:
        m.set_objective_coef(i, float(rng.normal()))
    for sense in [LE, GE, EQ] + [str(rng.choice([LE, GE])) for _ in range(n_cons - 3)]:
        coefs = rng.normal(size=n_vars)
        lhs = float(coefs @ point)
        margin = {LE: 1.0, GE: -1.0, EQ: 0.0}[sense] * abs(float(rng.normal()))
        m.add_constraint([(i, float(c)) for i, c in zip(ids, coefs)], sense, lhs + margin)
    if dependent:
        coefs = rng.normal(size=n_vars)
        lhs = float(coefs @ point)
        m.add_constraint([(i, float(c)) for i, c in zip(ids, coefs)], EQ, lhs)
        m.add_constraint([(i, 2.0 * float(c)) for i, c in zip(ids, coefs)], EQ, 2.0 * lhs)
    return m


def _bound_cuts(x, lo, hi):
    """One-variable tightenings away from the point `x`: halfway toward a
    bound and all the way to it, downward and upward."""
    for j in range(len(x)):
        if x[j] > lo[j] + 1e-6:
            yield j, lo[j], lo[j] + 0.5 * (x[j] - lo[j])
            yield j, lo[j], lo[j]
        if x[j] < hi[j] - 1e-6:
            yield j, x[j] + 0.5 * (hi[j] - x[j]), hi[j]
            yield j, hi[j], hi[j]


@pytest.mark.parametrize("dependent", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_warm_start_matches_cold_solve_and_oracle(seed, dependent, monkeypatch):
    # The dual ratio test keeps every reduced cost on its side, so after the
    # round that reaches primal feasibility, one more round on a fresh
    # factorization only confirms optimality: no solve, warm or cold, needs
    # more than two rounds.
    rounds = []
    solve, dual = simplex.solve_prepared, simplex._dual_simplex

    def counting_solve(*args):
        rounds.append(0)
        return solve(*args)

    def counting_dual(*args):
        rounds[-1] += 1
        return dual(*args)

    monkeypatch.setattr(simplex, "solve_prepared", counting_solve)
    monkeypatch.setattr(simplex, "_dual_simplex", counting_dual)
    rng = np.random.default_rng(900 + seed)
    model = _feasible_lp(rng, dependent)
    prep = simplex.prepare(model)
    lo = np.array([v.lower for v in model.variables])
    hi = np.array([v.upper for v in model.variables])
    n, m = len(lo), len(model.constraints)
    root = simplex.solve_prepared(prep, lo, hi)
    assert root.status == simplex.OPTIMAL
    assert root.basis.basic.max() < n + m  # structurals and slacks only
    if dependent:
        # One of the repeated rows keeps its fixed slack basic at 0.
        assert any(col >= n and prep.is_eq[col - n] for col in root.basis.basic)

    x = np.array([root.assignment[j] for j in range(n)])
    statuses = set()

    def check(warm, cold, cut_model, label):
        want_status, want_obj, _ = lp_vertex_optimum(cut_model)
        assert warm.status == cold.status == want_status, label
        statuses.add(warm.status)
        if want_status == simplex.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
            assert warm.objective == pytest.approx(want_obj, rel=1e-9)
            _, violations = evaluate(cut_model, warm.assignment, tol=1e-6)
            assert violations == []

    for j, new_lo, new_hi in _bound_cuts(x, lo, hi):
        cut_lo, cut_hi = lo.copy(), hi.copy()
        cut_lo[j], cut_hi[j] = new_lo, new_hi
        warm = simplex.solve_prepared(prep, cut_lo, cut_hi, root.basis)
        cold = simplex.solve_prepared(prep, cut_lo, cut_hi)
        cut_model = model.copy()
        cut_model.variables[j] = replace(cut_model.variables[j], lower=new_lo, upper=new_hi)
        check(warm, cold, cut_model, (j, new_lo, new_hi))

    # Appended rows that cut the root point off, a random one and an
    # objective cutoff, each a little and far: the root basis plus the new
    # row's slack starts the dual simplex.
    for g in (rng.normal(size=n), prep.costs):
        for shift in (0.5, 50.0):
            rhs = float(g @ x) - shift
            cut_prep = simplex.append_rows(prep, g[None, :], np.array([rhs]))
            warm = simplex.solve_prepared(cut_prep, lo, hi, root.basis.with_slacks(1))
            cold = simplex.solve_prepared(cut_prep, lo, hi)
            cut_model = model.copy()
            cut_model.add_constraint([(j, float(g[j])) for j in range(n)], LE, rhs)
            check(warm, cold, cut_model, (g, shift))
    assert {simplex.OPTIMAL, simplex.INFEASIBLE} <= statuses
    assert rounds and max(rounds) <= 2


def _unboxed_lp(rng: np.random.Generator, n_vars=5, n_cons=4) -> tuple[Model, Model]:
    """Random feasible LP with [0, inf) and (-inf, u] columns, and the same
    LP with each infinite bound replaced by a value its last row makes
    redundant.

    The last row, the sum of the [0, inf) columns minus the sum of the
    (-inf, u] columns <= cap, keeps the region finite.  Costs have mixed
    signs; the first [0, inf) column costs less than 0 and the first
    (-inf, u] column more, so both push toward the infinite bound that the
    last row, or in the twin a wide box, keeps finite.
    """
    kinds = ["up", "down"] + [str(k) for k in rng.choice(["up", "down", "box"], n_vars - 2)]
    costs = rng.normal(size=n_vars)
    costs[0] = -abs(costs[0]) - 0.1
    costs[1] = abs(costs[1]) + 0.1
    m = Model()
    point = []
    for j, kind in enumerate(kinds):
        if kind == "up":
            m.add_variable(f"v{j}", CONTINUOUS, 0.0, math.inf)
            point.append(rng.uniform(0.0, 2.0))
        elif kind == "down":
            u = float(rng.uniform(-2.0, 3.0))
            m.add_variable(f"v{j}", CONTINUOUS, -math.inf, u)
            point.append(u - rng.uniform(0.0, 2.0))
        else:
            u = float(rng.uniform(1.0, 6.0))
            m.add_variable(f"v{j}", CONTINUOUS, 0.0, u)
            point.append(rng.uniform(0.2, 0.8) * u)
        m.set_objective_coef(j, float(costs[j]))
    point = np.array(point)
    for _ in range(n_cons):
        coefs = rng.normal(size=n_vars)
        sense = str(rng.choice([LE, GE, EQ], p=[0.45, 0.45, 0.10]))
        margin = {LE: 1.0, GE: -1.0, EQ: 0.0}[sense] * abs(float(rng.normal()))
        m.add_constraint([(j, float(c)) for j, c in enumerate(coefs)], sense,
                         float(coefs @ point) + margin)
    sign = np.array([{"up": 1.0, "down": -1.0, "box": 0.0}[k] for k in kinds])
    cap = float(sign @ point) + float(rng.uniform(0.5, 3.0))
    m.add_constraint([(j, float(c)) for j, c in enumerate(sign) if c], LE, cap)

    # The row bounds each [0, inf) column by reach and each (-inf, u]
    # column from below by u - reach; one more unit keeps them redundant.
    reach = cap + sum(v.upper for v, k in zip(m.variables, kinds) if k == "down")
    boxed = m.copy()
    for j, kind in enumerate(kinds):
        v = boxed.variables[j]
        if kind == "up":
            boxed.variables[j] = replace(v, upper=reach + 1.0)
        elif kind == "down":
            boxed.variables[j] = replace(v, lower=v.upper - reach - 1.0)
    return m, boxed


@pytest.mark.parametrize("seed", range(20))
def test_unboxed_columns_start_from_a_cost_shift(seed, monkeypatch):
    # Unboxed columns are refused.  Their boxed twin has wide boxes and
    # negative lower bounds, and every column of negative cost is
    # wrong-signed at its lower bound in the slack basis: bound flips alone,
    # with the true costs and no cost shift, must make the start of the
    # dual simplex dual feasible.
    dual = simplex._dual_simplex
    starts = []

    def checking_dual(a, b, c, lo, hi, basis, state, x, binv, d, max_iter):
        np.testing.assert_allclose(c[: len(costs)], costs)
        np.testing.assert_allclose(d, c - (c[basis] @ binv) @ a, atol=1e-9)
        free = lo < hi
        assert np.all(d[(state == simplex._AT_LOWER) & free] >= -1e-9)
        assert np.all(d[(state == simplex._AT_UPPER) & free] <= 1e-9)
        starts.append(state.copy())
        return dual(a, b, c, lo, hi, basis, state, x, binv, d, max_iter)

    monkeypatch.setattr(simplex, "_dual_simplex", checking_dual)
    model, boxed = _unboxed_lp(np.random.default_rng(1300 + seed))
    with pytest.raises(ValueError, match="finite"):
        simplex.solve_lp(model)
    costs = simplex.prepare(boxed).costs
    got = simplex.solve_lp(boxed)
    # The first round starts with exactly the negative-cost columns flipped
    # to their upper bound.
    assert np.array_equal(starts[0][: len(costs)] == simplex._AT_UPPER, costs < 0)
    want_status, want_obj, _ = lp_vertex_optimum(boxed)
    assert got.status == want_status == simplex.OPTIMAL
    assert got.objective == pytest.approx(want_obj, rel=1e-9, abs=1e-9)
    _, violations = evaluate(boxed, got.assignment, tol=1e-6)
    assert violations == []


def test_foreign_basis_with_wrong_signed_slack_is_refused():
    # The optimal basis of min -x over x <= 5 leaves the row's slack
    # nonbasic at 0; under min x its reduced cost is negative, and a
    # [0, inf) slack has no other bound to flip to.
    def lp(cost):
        m = Model()
        x = m.add_variable("x", CONTINUOUS, 0, 10)
        m.set_objective_coef(x, cost)
        m.add_constraint([(x, 1.0)], LE, 5.0)
        return m

    maximize = simplex.solve_lp(lp(-1.0))
    assert maximize.objective == pytest.approx(-5.0)
    model = lp(1.0)
    with pytest.raises(ArithmeticError, match="dual feasible"):
        simplex.solve_prepared(simplex.prepare(model), *simplex.model_bounds(model),
                               maximize.basis)
    assert simplex.solve_lp(model).objective == pytest.approx(0.0)

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from confl3 import simplex
from confl3.cli import main
from confl3.confl import build_3confl, strengthen, strengthening_pairs
from confl3.instance_io import generate, write_instance
from confl3.milp import BINARY, CONTINUOUS, EQ, GE, LE, Model, lp_relaxation

from instances import DESK, strengthening_preset
from oracles import dual_simplex, evaluate, highs_lp_optimum, lp_vertex_optimum, times_column
from rows import add_row, row_list


def test_simple_lower_bounded_min():
    m = Model()
    x = m.add_variables(["x"], CONTINUOUS, 0, 10, 1.0)[0]
    add_row(m, [(x, 1.0)], GE, 3.0)
    r = simplex.solve_lp(m)
    assert r.status == simplex.OPTIMAL
    assert r.objective == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_prepared_costs_are_the_model_costs(seed):
    """The prepared costs are the model's cost array bit for bit, and
    build_3confl gives each z, x and y its opening, arc or assignment cost
    and every other variable none."""
    instance = generate(DESK, seed)
    confl = build_3confl(instance)
    cost = confl.model.variables.cost
    assert np.array_equal(simplex.prepare(confl.model).costs.view(np.int64), cost.view(np.int64))
    want = np.zeros(len(cost))
    for f in instance.facilities:
        for t, open_cost in f.open_cost.items():
            want[confl.z[f.id, t]] = open_cost
    for tail, head, arc_cost in confl.arcs:
        want[confl.x[tail, head]] = arc_cost
    for t, arcs in instance.assignment_arcs.items():
        for a in arcs:
            want[confl.y[a.facility, a.user, t]] = a.cost
    assert np.array_equal(cost.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("lower, upper", [(0, math.inf), (-math.inf, 0), (0, math.nan)])
def test_unboxed_columns_are_rejected(lower, upper):
    m = Model()
    x = m.add_variables(["x"], CONTINUOUS, 0, 1, -1.0)[0]
    add_row(m, [(x, 1.0)], GE, 0.0)
    with pytest.raises(ValueError, match="finite"):
        simplex.solve_prepared(simplex.prepare(m), np.array([lower]), np.array([upper]))


@pytest.mark.parametrize("m", [16_384, 16_385])
def test_prepare_refuses_rows_and_inverse_past_2_gib(m):
    """m rows need 8 m² bytes of dense basis inverse: 16,384 rows fit in
    2 GiB and 16,385 do not.  The refusal names the sizes and comes before
    anything of m entries is allocated."""
    model = Model()
    x = model.add_variables(["x"], CONTINUOUS, 0, 1)[0]
    model.add_rows(np.full((m, 1), x), np.ones((m, 1)), LE, np.ones(m))
    size = 8 * m * m
    if size <= 2 * 1024**3:
        prep = simplex.prepare(model)
        assert (len(prep.rhs), len(prep.costs), len(prep.vals)) == (m, 1, m)
        return
    tracemalloc.start()
    try:
        with pytest.raises(simplex.ProblemTooLargeError) as err:
            simplex.prepare(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(err.value, ValueError)
    assert (err.value.m, err.value.n, err.value.size) == (m, 1, size)
    assert f"{m} rows x 1 columns need {size:,} bytes" in str(err.value)
    assert peak < 8 * m


def test_prepare_allocates_nothing_of_size_m_by_n(monkeypatch):
    """A wide sparse LP, 500 rows over 50,000 columns with 3 nonzeros each,
    whose dense rows would take 200 MB: `prepare` and a cold solve together
    allocate under 20 MB at their peak.  Its 40 >= rows pull some 60
    structurals into the basis, and rounds of at most 5 pivots make the
    solve gather them from the nonzeros at each refactorization."""
    rng = np.random.default_rng(31)
    m, n = 500, 50_000
    model = Model()
    model.add_variables([f"x{j}" for j in range(n)], CONTINUOUS, 0, 1, 1.0)
    # Column j has rows r_j, r_j + 167 and r_j + 334 (mod m), all distinct.
    row_of = (rng.integers(0, m, size=(n, 1)) + np.array([0, 167, 334])) % m
    order = np.argsort(row_of.ravel(), kind="stable")
    cuts = np.cumsum(np.bincount(row_of.ravel(), minlength=m))[:-1]
    cols = np.split(np.repeat(np.arange(n), 3)[order], cuts)
    coefs = np.split(rng.uniform(0.5, 1.5, size=3 * n)[order], cuts)
    model.add_rows(cols, coefs, [GE] * 40 + [LE] * (m - 40), np.ones(m))
    lo, hi = model.variables.lower, model.variables.upper
    monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 5)
    tracemalloc.start()
    try:
        res = simplex.solve_prepared(simplex.prepare(model), lo, hi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 1024**2
    assert res.status == simplex.OPTIMAL and np.sum(res.basis.basic < n) >= 40
    assert res.objective == pytest.approx(highs_lp_optimum(model)[1], rel=1e-9)
    _, violations = evaluate(model, res.assignment, tol=1e-6)
    assert violations == []


def test_infeasible_detected():
    m = Model()
    x = m.add_variables(["x"], CONTINUOUS, 0, 10, 1.0)[0]
    add_row(m, [(x, 1.0)], LE, 1.0)
    add_row(m, [(x, 1.0)], GE, 2.0)
    assert simplex.solve_lp(m).status == simplex.INFEASIBLE


def test_binary_variable_is_contract_violation():
    m = Model()
    m.add_variables(["x"], BINARY, 0, 1)
    with pytest.raises(ValueError, match="binary"):
        simplex.solve_lp(m)


def test_no_constraints_box_problem():
    m = Model()
    m.add_variables(["x"], CONTINUOUS, -2, 5, 1.0)
    m.add_variables(["y"], CONTINUOUS, 1, 3, -2.0)
    r = simplex.solve_lp(m)
    assert r.status == simplex.OPTIMAL
    assert r.objective == pytest.approx(-2 - 6)


def test_degenerate_cycling_guard():
    # Beale's classic cycling example for Dantzig pricing, every column boxed
    # to [0, 1e4]: the rows give objective >= 15*x1 - 0.05*x2 >= -0.05, so
    # the optimum stays -0.05, reached by the dual simplex through
    # degenerate pivots.
    m = Model()
    x = m.add_variables([f"x{i}" for i in range(4)], CONTINUOUS, 0, 1e4,
                        [-0.75, 150.0, -0.02, 6.0])
    add_row(m, [(x[0], 0.25), (x[1], -60.0), (x[2], -0.04), (x[3], 9.0)], LE, 0.0)
    add_row(m, [(x[0], 0.5), (x[1], -90.0), (x[2], -0.02), (x[3], 3.0)], LE, 0.0)
    add_row(m, [(x[2], 1.0)], LE, 1.0)
    r = simplex.solve_lp(m)
    assert r.status == simplex.OPTIMAL
    assert r.objective == pytest.approx(-0.05, abs=1e-9)


def _random_lp(rng: np.random.Generator, n_vars=5, n_cons=8) -> Model:
    m = Model()
    uppers = [float(rng.uniform(1, 6)) for _ in range(n_vars)]
    ids = [m.add_variables([f"v{i}"], CONTINUOUS, 0.0, upper, float(rng.normal()))[0]
           for i, upper in enumerate(uppers)]
    for _ in range(n_cons):
        terms = [(i, float(rng.normal())) for i in ids if rng.random() < 0.8]
        if not terms:
            terms = [(ids[0], 1.0)]
        sense = rng.choice([LE, GE, EQ], p=[0.45, 0.45, 0.10])
        add_row(m, terms, str(sense), float(rng.normal() * 2))
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
    uppers = [float(rng.uniform(1, 6)) for _ in range(n_vars)]
    point = np.array([rng.uniform(0.2, 0.8) * upper for upper in uppers])
    ids = [m.add_variables([f"v{i}"], CONTINUOUS, 0.0, upper, float(rng.normal()))[0]
           for i, upper in enumerate(uppers)]
    for sense in [LE, GE, EQ] + [str(rng.choice([LE, GE])) for _ in range(n_cons - 3)]:
        coefs = rng.normal(size=n_vars)
        lhs = float(coefs @ point)
        margin = {LE: 1.0, GE: -1.0, EQ: 0.0}[sense] * abs(float(rng.normal()))
        add_row(m, [(i, float(c)) for i, c in zip(ids, coefs)], sense, lhs + margin)
    if dependent:
        coefs = rng.normal(size=n_vars)
        lhs = float(coefs @ point)
        add_row(m, [(i, float(c)) for i, c in zip(ids, coefs)], EQ, lhs)
        add_row(m, [(i, 2.0 * float(c)) for i, c in zip(ids, coefs)], EQ, 2.0 * lhs)
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
    # The dual ratio test keeps every reduced cost on its side, so the round
    # that reaches primal feasibility either passes the certificate or is
    # followed by one round on a fresh factorization that only confirms
    # optimality: no solve, warm or cold, needs more than two rounds.
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
    lo, hi = model.variables.lower, model.variables.upper
    n, m = len(lo), len(model.constraints)
    root = simplex.solve_prepared(prep, lo, hi)
    assert root.status == simplex.OPTIMAL
    assert root.basis.basic.max() < n + m  # structurals and slacks only
    if dependent:
        # One of the repeated rows keeps its fixed slack basic at 0.
        assert any(col >= n and prep.is_eq[col - n] for col in root.basis.basic)

    x = root.assignment
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
        cut_model._columns = replace(model.variables, lower=cut_lo, upper=cut_hi)
        check(warm, cold, cut_model, (j, new_lo, new_hi))

    # Appended rows that cut the root point off, a random one and an
    # objective cutoff, each a little and far: the root basis, extended by
    # the new row's slack, starts the dual simplex.  A basis of the longer
    # matrix is refused on the shorter one.
    for g in (rng.normal(size=n), prep.costs):
        for shift in (0.5, 50.0):
            rhs = float(g @ x) - shift
            cut_prep = simplex.append_rows(prep, [range(n)], [g], np.array([rhs]))
            warm = simplex.solve_prepared(cut_prep, lo, hi, root.basis)
            cold = simplex.solve_prepared(cut_prep, lo, hi)
            if cold.status == simplex.OPTIMAL:
                with pytest.raises(ValueError, match="rows for a matrix of"):
                    simplex.solve_prepared(prep, lo, hi, cold.basis)
            cut_model = model.copy()
            add_row(cut_model, [(j, float(g[j])) for j in range(n)], LE, rhs)
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
            m.add_variables([f"v{j}"], CONTINUOUS, 0.0, math.inf, costs[j])
            point.append(rng.uniform(0.0, 2.0))
        elif kind == "down":
            u = float(rng.uniform(-2.0, 3.0))
            m.add_variables([f"v{j}"], CONTINUOUS, -math.inf, u, costs[j])
            point.append(u - rng.uniform(0.0, 2.0))
        else:
            u = float(rng.uniform(1.0, 6.0))
            m.add_variables([f"v{j}"], CONTINUOUS, 0.0, u, costs[j])
            point.append(rng.uniform(0.2, 0.8) * u)
    point = np.array(point)
    for _ in range(n_cons):
        coefs = rng.normal(size=n_vars)
        sense = str(rng.choice([LE, GE, EQ], p=[0.45, 0.45, 0.10]))
        margin = {LE: 1.0, GE: -1.0, EQ: 0.0}[sense] * abs(float(rng.normal()))
        add_row(m, [(j, float(c)) for j, c in enumerate(coefs)], sense,
                float(coefs @ point) + margin)
    sign = np.array([{"up": 1.0, "down": -1.0, "box": 0.0}[k] for k in kinds])
    cap = float(sign @ point) + float(rng.uniform(0.5, 3.0))
    add_row(m, [(j, float(c)) for j, c in enumerate(sign) if c], LE, cap)

    # The row bounds each [0, inf) column by reach and each (-inf, u]
    # column from below by u - reach; one more unit keeps them redundant.
    reach = cap + sum(u for u, k in zip(m.variables.upper.tolist(), kinds) if k == "down")
    lower, upper = m.variables.lower.copy(), m.variables.upper.copy()
    for j, kind in enumerate(kinds):
        if kind == "up":
            upper[j] = reach + 1.0
        elif kind == "down":
            lower[j] = upper[j] - reach - 1.0
    boxed = m.copy()
    boxed._columns = replace(m.variables, lower=lower, upper=upper)
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

    def checking_dual(prep, lo, hi, basis, state, x, binv, d, max_iter):
        a = np.hstack([rows, np.eye(len(rows))])
        c = np.concatenate([costs, np.zeros(len(rows))])
        np.testing.assert_allclose(d, c - (c[basis] @ binv) @ a, atol=1e-9)
        free = lo < hi
        assert np.all(d[(state == simplex._AT_LOWER) & free] >= -1e-9)
        assert np.all(d[(state == simplex._AT_UPPER) & free] <= 1e-9)
        starts.append(state.copy())
        return dual(prep, lo, hi, basis, state, x, binv, d, max_iter)

    monkeypatch.setattr(simplex, "_dual_simplex", checking_dual)
    model, boxed = _unboxed_lp(np.random.default_rng(1300 + seed))
    with pytest.raises(ValueError, match="finite"):
        simplex.solve_lp(model)
    costs, rows = simplex.prepare(boxed).costs, _dense_rows(boxed)
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
        x = m.add_variables(["x"], CONTINUOUS, 0, 10, cost)[0]
        add_row(m, [(x, 1.0)], LE, 5.0)
        return m

    maximize = simplex.solve_lp(lp(-1.0))
    assert maximize.objective == pytest.approx(-5.0)
    model = lp(1.0)
    with pytest.raises(ArithmeticError, match="dual feasible"):
        simplex.solve_prepared(simplex.prepare(model), model.variables.lower,
                               model.variables.upper, maximize.basis)
    assert simplex.solve_lp(model).objective == pytest.approx(0.0)


def _dense_rows(model: Model) -> np.ndarray:
    """The dense reference of a prepared matrix, built one row of `model`
    at a time: its rows with >= rows negated, so that their zeros become
    -0.0."""
    dense = np.zeros((len(model.constraints), len(model.variables)))
    for i, (terms, sense, _) in enumerate(row_list(model.constraints)):
        for vid, coef in terms:
            dense[i, vid] = coef
        if sense == GE:
            dense[i] *= -1.0
    return dense


def _prep_of(rows: np.ndarray) -> simplex.PreparedLp:
    """A prepared matrix whose <= rows are the dense `rows`: each row's
    coefficients on every column, of which append_rows keeps the nonzeros."""
    k, n = rows.shape
    model = Model()
    for j in range(n):
        model.add_variables([f"x{j}"], CONTINUOUS, 0, 1)
    return simplex.append_rows(simplex.prepare(model), np.broadcast_to(np.arange(n), (k, n)),
                               rows, np.zeros(k))


@pytest.mark.parametrize("seed", range(4))
def test_append_rows_matches_prepare_of_the_model_with_those_rows(seed):
    """Rows appended by append_rows, in the form Model.add_rows takes, give
    the arrays that prepare gives for the model with the same rows added by
    add_rows, dtypes included: the cut loop's pool pairs as a (k, 2) array,
    and a ragged pair of rows like VLNS's hamming and cutoff rows."""
    inst = generate(strengthening_preset(), seed)
    plain = build_3confl(inst)
    prep = simplex.prepare(plain.model)
    pool = strengthening_pairs(plain, inst)
    assert len(pool)
    z = list(plain.z.values())[::2]
    priced = np.flatnonzero(prep.costs)
    ragged = ([z, priced], [[(-1.0) ** k for k in range(len(z))], prep.costs[priced]],
              np.array([2.0, 40.0]))
    for cols, coefs, rhs in ((pool, np.ones(pool.shape), np.ones(len(pool))), ragged):
        model = plain.model.copy()
        model.add_rows(cols, coefs, LE, rhs)
        want = simplex.prepare(model)
        got = simplex.append_rows(prep, cols, coefs, rhs)
        for name in ("row_ids", "col_ids", "vals", "starts", "rhs", "is_eq", "costs",
                     "binaries"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def _full_inverse(rows, basis):
    return np.linalg.inv(np.hstack([rows, np.eye(len(rows))])[:, basis])


def test_kernel_inverse_matches_the_full_basis_inverse(monkeypatch):
    rng = np.random.default_rng(5)
    m, n = 6, 9
    rows = rng.normal(size=(m, n))
    prep = _prep_of(rows)

    def refused(a):
        raise AssertionError("the slack basis was factorized")

    # k = 0: a slack basis inverts without a factorization, to the identity
    # or, permuted, to its transpose.
    permuted = n + rng.permutation(m)
    want = _full_inverse(rows, permuted)
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "inv", refused)
        np.testing.assert_array_equal(simplex._invert(prep, n + np.arange(m)), np.eye(m))
        np.testing.assert_array_equal(simplex._invert(prep, permuted), want)

    bases = [rng.choice(n, m, replace=False) for _ in range(5)]          # k = m
    bases += [rng.choice(n + m, m, replace=False) for _ in range(30)]    # mixed
    # The optimal basis of an LP whose repeated equality row keeps its
    # fixed slack basic.
    model = _feasible_lp(np.random.default_rng(900), dependent=True)
    eq_prep = simplex.prepare(model)
    root = simplex.solve_lp(model)
    n_eq = len(model.variables)
    assert any(col >= n_eq and eq_prep.is_eq[col - n_eq] for col in root.basis.basic)
    cases = ([(rows, prep, basis) for basis in bases]
             + [(_dense_rows(model), eq_prep, root.basis.basic)])
    for case_rows, case_prep, basis in cases:
        want = _full_inverse(case_rows, basis)
        np.testing.assert_allclose(simplex._invert(case_prep, basis), want,
                                   rtol=1e-9, atol=1e-12 * np.abs(want).max())


def test_singular_kernel_raises():
    # Column 0 is zero on every row whose slack is nonbasic, so it is a
    # multiple of row 0's basic slack and the kernel has a zero column.
    rows = np.arange(1.0, 13.0).reshape(3, 4)
    rows[1:, 0] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        simplex._invert(_prep_of(rows), np.array([4, 0, 1]))


def test_cold_solve_factorizes_only_basic_structurals(monkeypatch):
    # Every factorization inverts the kernel of the basic structurals and
    # nothing larger; the first, of the slack basis, inverts nothing.  A
    # short refactorization period makes the solve refactorize mid-way.
    inverted, factorizations = [], []
    inv, invert = np.linalg.inv, simplex._invert

    def recording_inv(a):
        inverted.append(len(a))
        return inv(a)

    def recording_invert(prep, basis):
        before = len(inverted)
        out = invert(prep, basis)
        factorizations.append((int(np.sum(basis < len(prep.costs))), inverted[before:]))
        return out

    model = build_3confl(generate(replace(DESK, grid_width=6, grid_height=4, n_facilities=4),
                                  seed=0)).model
    prep = simplex.prepare(model)
    monkeypatch.setattr(np.linalg, "inv", recording_inv)
    monkeypatch.setattr(simplex, "_invert", recording_invert)
    monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 20)
    lo, hi = model.variables.lower, model.variables.upper
    assert simplex.solve_prepared(prep, lo, hi).status == simplex.OPTIMAL
    assert factorizations[0] == (0, [])
    assert len(factorizations) > 3
    assert len(inverted) == sum(len(sizes) for _, sizes in factorizations)
    for structurals, sizes in factorizations[1:]:
        assert sizes == [structurals] and structurals < len(prep.rhs)


def _grid_6x4_model() -> Model:
    return build_3confl(generate(replace(DESK, grid_width=6, grid_height=4, n_facilities=4),
                                 seed=0)).model


def _grid_6x4():
    model = _grid_6x4_model()
    return simplex.prepare(model), model.variables.lower, model.variables.upper


def test_the_iteration_cap_falls_across_rounds(monkeypatch):
    # A budget of 25 pivots in rounds of at most 10 runs out in the third
    # round, which the 6x4 root LP reaches with bounds still violated: the
    # solve raises right there, after exactly 25 pivots.  The dual simplex
    # calls are bounded, so a budget that is not kept fails, not hangs.
    prep, lo, hi = _grid_6x4()
    replace_column, dual = simplex._replace_column, simplex._dual_simplex
    pivots, calls = [], []

    def counting_replace(binv, w, r):
        pivots.append(r)
        return replace_column(binv, w, r)

    def bounded_dual(*args):
        calls.append(args[-1])
        assert len(calls) <= 10, "the iteration budget is not kept"
        return dual(*args)

    monkeypatch.setattr(simplex, "_replace_column", counting_replace)
    assert simplex.solve_prepared(prep, lo, hi).status == simplex.OPTIMAL
    assert len(pivots) > 25
    pivots.clear()
    monkeypatch.setattr(simplex, "_dual_simplex", bounded_dual)
    monkeypatch.setattr(simplex, "_max_iter", lambda prep: 25)
    monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 10)
    with pytest.raises(ArithmeticError, match="dual simplex iteration limit exceeded"):
        simplex.solve_prepared(prep, lo, hi)
    assert len(pivots) == 25 and calls == [10, 10, 5]


def test_each_round_starts_on_a_fresh_factorization(monkeypatch):
    # With rounds of at most 20 pivots the 6x4 root LP takes several rounds,
    # and so, with rounds of at most 5, does a warm re-solve under one fixed
    # binary (it needs some 15-35 pivots, the count turning on ratio-test
    # ties that the BLAS summation order breaks).  Each dual simplex call
    # is handed exactly the inverse a fresh factorization of its basis
    # gives, makes at most the round's pivots, and factorizes and prices
    # nothing itself.
    prep, lo, hi = _grid_6x4()
    want = simplex.solve_prepared(prep, lo, hi)
    invert, replace_column, dual = simplex._invert, simplex._replace_column, simplex._dual_simplex
    inside, made = [], []

    def guarded(name, fn):
        def call(*args):
            assert not inside, f"{name} called inside the dual simplex"
            return fn(*args)
        return call

    def counting_replace(binv, w, r):
        made[-1] += 1
        return replace_column(binv, w, r)

    def checking_dual(prep, lo, hi, basis, state, x, binv, d, max_iter):
        np.testing.assert_array_equal(binv, invert(prep, basis))
        assert max_iter <= simplex._REFACTOR_EVERY
        made.append(0)
        inside.append(True)
        status, pivots = dual(prep, lo, hi, basis, state, x, binv, d, max_iter)
        inside.pop()
        assert pivots == made[-1] <= max_iter
        return status, pivots

    for name in ("_invert", "_recompute_basics", "_reduced_costs"):
        monkeypatch.setattr(simplex, name, guarded(name, getattr(simplex, name)))
    monkeypatch.setattr(simplex, "_replace_column", counting_replace)
    monkeypatch.setattr(simplex, "_dual_simplex", checking_dual)
    monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 20)
    root = simplex.solve_prepared(prep, lo, hi)
    assert root.status == simplex.OPTIMAL
    assert root.objective == pytest.approx(want.objective, rel=1e-9)
    assert len(made) > 3 and max(made) == 20
    x = root.assignment
    j = next(j for j in prep.binaries if 1e-6 < x[j] < 1 - 1e-6)
    lo_j, hi_j = lo.copy(), hi.copy()
    lo_j[j] = 1.0
    del made[:]
    monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 5)
    child = simplex.solve_prepared(prep, lo_j, hi_j, root.basis)
    monkeypatch.undo()
    fresh = simplex.solve_prepared(prep, lo_j, hi_j, want.basis)
    assert child.status == fresh.status
    if fresh.status == simplex.OPTIMAL:
        assert child.objective == pytest.approx(fresh.objective, rel=1e-9)
    assert len(made) > 1 and max(made) <= 5


@pytest.mark.parametrize("seed", range(8))
def test_corrupted_update_is_caught_by_the_certificate(seed, monkeypatch):
    # Throughout the first round each product-form update leaves one entry
    # of B^-1 off by 1e-3.  The certificate checks the point and the duals
    # against the raw rows, so it must refuse that round; the refactorized
    # round after it must reach the vertex optimum.
    replace_column, dual = simplex._replace_column, simplex._dual_simplex
    rounds = []

    def corrupting_replace(binv, w, r):
        changed = replace_column(binv, w, r)
        if len(rounds) == 1:
            binv[r, r] += 1e-3
        return changed

    def counting_dual(*args):
        rounds.append(0)
        return dual(*args)

    monkeypatch.setattr(simplex, "_replace_column", corrupting_replace)
    monkeypatch.setattr(simplex, "_dual_simplex", counting_dual)
    model = _feasible_lp(np.random.default_rng(1700 + seed), dependent=False)
    got = simplex.solve_lp(model)
    assert len(rounds) == 2
    want_status, want_obj, _ = lp_vertex_optimum(model)
    assert got.status == want_status == simplex.OPTIMAL
    assert got.objective == pytest.approx(want_obj, rel=1e-9, abs=1e-9)
    _, violations = evaluate(model, got.assignment, tol=1e-6)
    assert violations == []


def _checked_against_the_reference(monkeypatch) -> list:
    """Make every dual simplex call first run the reference pivot loop of
    oracles.py on copies of the basis, states, point, inverse and reduced
    costs, then check that the kernel returns the same status and pivot
    count and leaves the same bits in all five arrays.  Returns the list of
    the calls' results."""
    kernel = simplex._dual_simplex
    seen = []

    def checked(prep, lo, hi, basis, state, x, binv, d, max_iter):
        arrays = (basis, state, x, binv, d)
        copies = [a.copy() for a in arrays]
        want = dual_simplex(prep, lo, hi, *copies, max_iter)
        got = kernel(prep, lo, hi, *arrays, max_iter)
        assert got == want
        for a, b in zip(arrays, copies):
            assert np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()
        seen.append(got)
        return got

    monkeypatch.setattr(simplex, "_dual_simplex", checked)
    return seen


def _counting_switches(monkeypatch) -> list:
    """Record the row count of each dual simplex call that stops updating
    its basic slacks' rows of the inverse: each builds the rows' view once."""
    by_row = simplex._by_row
    switches = []

    def counting(prep):
        switches.append(len(prep.rhs))
        return by_row(prep)

    monkeypatch.setattr(simplex, "_by_row", counting)
    return switches


def _row_heavy_lp(k: int) -> Model:
    """A random sparse boxed LP of 300-600 rows over 40-80 columns, so that
    most basics are slacks and the entering columns' images are dense."""
    rng = np.random.default_rng(2600 + k)
    n_cons = int(rng.integers(300, 601))
    return _sparse_lp(rng, n_cons, n_vars=int(rng.integers(40, 81)), density=0.08)


@pytest.mark.parametrize("case", [f"random-{k}" for k in range(20)]
                         + [f"row-heavy-{k}" for k in range(3)]
                         + ["root-6x4", "desk-child", "leaving-row-fallback", "no-rows",
                            "strong-8x6"])
def test_kernel_matches_the_reference_bit_for_bit(case, monkeypatch):
    # The pivot loop makes the pivots and the floating-point operations of
    # its plainer reference, call by call.  Random boxed LPs are solved cold,
    # then warm and cold under each tightened bound, and row-heavy ones,
    # whose rounds stop updating the basic slacks' rows of the inverse, under
    # every tenth; the 6x4 root LP runs in rounds of at most 20 pivots, so
    # some rounds end on the cap; a desk branch-and-bound child starts from
    # its parent's optimal basis; a start whose largest violation lies within
    # its own relative tolerance takes the kernel's fallback choice of the
    # leaving row; an LP with no rows has no basics; and the strengthened 8x6
    # root LP of the benchmark's scale workload stops updating its slacks'
    # rows.
    seen = _checked_against_the_reference(monkeypatch)
    switches = _counting_switches(monkeypatch)
    if case.startswith(("random-", "row-heavy-")):
        k = int(case.split("-")[-1])
        model = (_row_heavy_lp(k) if case.startswith("row-heavy-")
                 else _feasible_lp(np.random.default_rng(3100 + k), dependent=k % 2 == 1))
        prep, lo, hi = simplex.prepare(model), model.variables.lower, model.variables.upper
        root = simplex.solve_prepared(prep, lo, hi)
        assert root.status == simplex.OPTIMAL
        cuts = list(_bound_cuts(root.assignment, lo, hi))
        for j, new_lo, new_hi in cuts[:: 10 if case.startswith("row-heavy-") else 1]:
            cut_lo, cut_hi = lo.copy(), hi.copy()
            cut_lo[j], cut_hi[j] = new_lo, new_hi
            simplex.solve_prepared(prep, cut_lo, cut_hi, root.basis)
            simplex.solve_prepared(prep, cut_lo, cut_hi)
        assert {simplex.OPTIMAL} < {status for status, _ in seen}
        assert bool(switches) == case.startswith("row-heavy-")
    elif case == "strong-8x6":
        assert simplex.solve_lp(_strong_8x6_root()).status == simplex.OPTIMAL
        assert switches
    elif case == "root-6x4":
        monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 20)
        prep, lo, hi = _grid_6x4()
        assert simplex.solve_prepared(prep, lo, hi).status == simplex.OPTIMAL
        assert (None, 20) in seen
    elif case == "desk-child":
        model = build_3confl(generate(DESK, seed=0)).model
        prep, lo, hi = (simplex.prepare(model), model.variables.lower.copy(),
                        model.variables.upper)
        root = simplex.solve_prepared(prep, lo, hi)
        x = root.assignment
        j = next(j for j in prep.binaries if 1e-6 < x[j] < 1 - 1e-6)
        lo[j] = 1.0
        del seen[:]
        assert simplex.solve_prepared(prep, lo, hi, root.basis).status == simplex.OPTIMAL
    elif case == "leaving-row-fallback":
        # x0 + u0 <= 1e12 + 100 and x1 + u1 <= 11 from the basis {x0, x1}:
        # x0 = 1e12 + 100 passes its upper bound 1e12 by 100, the largest
        # violation but within its tolerance 1e-9 * |x0| (about 1e3); x1 = 11
        # passes its bound 10 by 1, above its tolerance 1.1e-8.  So the
        # leaving row is row 1, not row 0, the raw violations' argmax.
        m = Model()
        for name, upper, cost in (("x0", 1e12, 0.0), ("x1", 10.0, 0.0),
                                  ("u0", 1.0, 1.0), ("u1", 1.0, 2.0)):
            m.add_variables([name], CONTINUOUS, 0.0, upper, cost)
        add_row(m, [(0, 1.0), (2, 1.0)], LE, 1e12 + 100)
        add_row(m, [(1, 1.0), (3, 1.0)], LE, 11.0)
        prep, lo, hi = simplex.prepare(m), m.variables.lower, m.variables.upper
        state = np.array([simplex._BASIC] * 2 + [simplex._AT_LOWER] * 4, dtype=np.int8)
        res = simplex.solve_prepared(prep, lo, hi, simplex.Basis(np.array([0, 1]), state))
        assert seen == [(simplex.OPTIMAL, 1)]
        # Row 0 keeps x0; row 1's slack, column n + 1 = 5, replaced x1 at its bound.
        assert res.basis.basic.tolist() == [0, 5]
        assert res.assignment.tolist() == [1e12, 10.0, 0.0, 0.0]
    else:
        m = Model()
        for name, lower, upper, cost in (("x", -2, 5, 1.0), ("y", 1, 3, -2.0)):
            m.add_variables([name], CONTINUOUS, lower, upper, cost)
        assert simplex.solve_lp(m).objective == -8.0
        assert seen == [(simplex.OPTIMAL, 0)]
    assert case == "no-rows" or sum(pivots for _, pivots in seen) > 0


def test_cut_loop_appends_each_pool_row_once(monkeypatch):
    """A re-solve whose point still violates an appended pool row (as a
    tolerance-level miss would) ends the loop instead of appending the row
    again; a mask shared between calls keeps it out of later calls too."""
    m = Model()
    a, b = m.add_variables(["a", "b"], BINARY, 0, 1, -1.0)
    pool = np.array([[a, b]])
    prep = simplex.prepare(m)
    lo, hi = m.variables.lower, m.variables.upper
    res = simplex.solve_prepared(prep, lo, hi)
    assert res.assignment.tolist() == [1.0, 1.0]
    calls = []

    def stale_solve(prep, lo, hi, basis=None):
        calls.append(len(prep.rhs))
        assert len(calls) < 5, "the cut loop does not end"
        return res

    monkeypatch.setattr(simplex, "solve_prepared", stale_solve)
    cut = np.zeros(len(pool), dtype=bool)
    cuts, _ = simplex.separate(prep, lo, hi, res, pool, cut)
    assert len(cuts.rhs) == 1 and calls == [1]
    assert cut.tolist() == [True]
    again, _ = simplex.separate(prep, lo, hi, res, pool, cut)
    assert again is prep and calls == [1]


def _same_result(got, want):
    assert got.status == want.status
    if want.status == simplex.OPTIMAL:
        assert got.objective == want.objective
        assert np.array_equal(got.assignment, want.assignment)
        assert np.array_equal(got.basis.basic, want.basis.basic)
        assert np.array_equal(got.basis.state, want.basis.state)


def test_a_remembered_start_factorization_changes_no_result(monkeypatch):
    """A prepared matrix keeps the factorization of its last warm start
    basis and reuses it for a solve from the same Basis object.  Solves
    from the same basis under other bounds, interleaved with other bases, a
    cold solve, appended rows and a raising solve, each return bitwise what
    the same call returns on a fresh `prepare(model)`."""
    model = build_3confl(generate(DESK, seed=1)).model
    prep = simplex.prepare(model)
    lo, hi = model.variables.lower, model.variables.upper
    root = simplex.solve_prepared(prep, lo, hi)
    assert prep.warm is None   # a cold solve remembers nothing
    x = root.assignment
    bins = prep.binaries
    frac = bins[np.abs(x[bins] - np.round(x[bins])) > 1e-6][:4]
    assert len(frac) == 4
    bounds = []
    for j in frac:
        for value in (0.0, 1.0):
            b_lo, b_hi = lo.copy(), hi.copy()
            b_lo[j] = b_hi[j] = value
            bounds.append((b_lo, b_hi))
    a = root.basis
    first = simplex.solve_prepared(prep, *bounds[0], a)
    assert first.status == simplex.OPTIMAL and prep.warm[0] is a
    b = first.basis
    shared = []
    invert = simplex._invert

    def counting_invert(p, basis):
        shared.append(p is prep)
        return invert(p, basis)

    monkeypatch.setattr(simplex, "_invert", counting_invert)
    # The slot holds `a`: the 1st, 2nd and 6th solves reuse `a`'s inverse and
    # the 8th `b`'s; the cold 5th factorizes the slack basis and leaves the
    # slot alone.
    calls = [(a, 1), (a, 2), (b, 3), (a, 4), (None, 5), (a, 6), (b, 7), (b, 2)]
    for basis, k in calls:
        got = simplex.solve_prepared(prep, *bounds[k], basis)
        _same_result(got, simplex.solve_prepared(simplex.prepare(model), *bounds[k], basis))
        if basis is not None:
            assert prep.warm[0] is basis
        np.testing.assert_array_equal(prep.warm[1], invert(prep, prep.warm[0].basic))
    assert sum(shared) == 4 and len(shared) == 4 + len(calls)

    # Rows appended past the basis: the new matrix starts with an empty
    # slot, extends the old basis and remembers the extended inverse.
    cut = [range(len(prep.costs))], [-prep.costs]
    cut_prep = simplex.append_rows(prep, *cut, np.array([-(root.objective + 0.5)]))
    assert cut_prep.warm is None
    for k in (0, 3):
        got = simplex.solve_prepared(cut_prep, *bounds[k], a)
        fresh = simplex.append_rows(simplex.prepare(model), *cut, cut_prep.rhs[-1:])
        _same_result(got, simplex.solve_prepared(fresh, *bounds[k], a))
        assert cut_prep.warm[1].shape == (len(cut_prep.rhs),) * 2
    assert prep.warm[0] is b

    # A solve that scribbles over the inverse it is handed and then raises
    # leaves the remembered one intact.
    dual = simplex._dual_simplex

    def failing_dual(prep, lo, hi, basis, state, x, binv, d, max_iter):
        binv[:] = np.nan
        raise ArithmeticError("dual simplex iteration limit exceeded")

    monkeypatch.setattr(simplex, "_dual_simplex", failing_dual)
    with pytest.raises(ArithmeticError):
        simplex.solve_prepared(prep, *bounds[5], a)
    monkeypatch.setattr(simplex, "_dual_simplex", dual)
    assert prep.warm[0] is a
    np.testing.assert_array_equal(prep.warm[1], invert(prep, a.basic))
    got = simplex.solve_prepared(prep, *bounds[6], a)
    _same_result(got, simplex.solve_prepared(simplex.prepare(model), *bounds[6], a))


def _sparse_lp(rng: np.random.Generator, n_cons: int, n_vars: int, density: float) -> Model:
    """Random sparse LP built around a point inside its boxes, so it is
    feasible: <=, >= and = rows with about `density` of the columns each,
    and every fifth column in no row."""
    m = Model()
    lo = rng.uniform(-3.0, 1.0, size=n_vars)
    hi = lo + rng.uniform(0.5, 5.0, size=n_vars)
    for j in range(n_vars):
        m.add_variables([f"v{j}"], CONTINUOUS, float(lo[j]), float(hi[j]), float(rng.normal()))
    point = lo + rng.uniform(0.2, 0.8, size=n_vars) * (hi - lo)
    used = np.flatnonzero(np.arange(n_vars) % 5)
    for _ in range(n_cons):
        cols = rng.choice(used, size=max(1, rng.binomial(len(used), density)), replace=False)
        coefs = rng.normal(size=len(cols))
        sense = str(rng.choice([LE, GE, EQ], p=[0.45, 0.45, 0.10]))
        margin = {LE: 1.0, GE: -1.0, EQ: 0.0}[sense] * abs(float(rng.normal()))
        add_row(m, [(int(j), float(c)) for j, c in zip(cols, coefs)], sense,
                float(coefs @ point[cols]) + margin)
    return m


def _random_basis(rng: np.random.Generator, rows: np.ndarray,
                  prep: simplex.PreparedLp) -> np.ndarray | None:
    """A basis over ``[rows | I]``, `rows` the dense reference of `prep`:
    the slack basis with a random matching of rows to structural nonzeros
    swapped in, or None if its kernel is singular."""
    m, n = rows.shape
    basis = n + np.arange(m)
    taken = set()
    for i in rng.permutation(m)[: m // 2]:
        free = [j for j in np.flatnonzero(rows[i]) if j not in taken]
        if free:
            basis[i] = j = int(rng.choice(free))
            taken.add(j)
    try:
        simplex._invert(prep, basis)
    except np.linalg.LinAlgError:
        return None
    return basis


@pytest.mark.parametrize("seed", range(6))
def test_column_index_is_the_dense_rows(seed):
    # The nonzeros of a prepared matrix are the model's rows: scattered
    # back they give the dense reference built from the constraint objects
    # exactly, with empty columns, >= rows negated (their zeros become -0.0,
    # which the nonzeros leave out) along with their right-hand sides,
    # equality rows, and pool rows appended as the cut loop appends them.
    # The products read from them (the pivot row y A, the point's row
    # values A x and the entering column B^-1 a_q) match the reference's
    # dense products under random bases, to 1e-12 of the sum of the terms'
    # magnitudes, and so does the basis inverse gathered from them.  The
    # kernel computes B^-1 a_q inline, as oracles.times_column does; the
    # bit-for-bit kernel test ties the two together.
    rng = np.random.default_rng(2300 + seed)
    model = _sparse_lp(rng, n_cons=40, n_vars=30, density=0.15)
    prep = simplex.prepare(model)
    n = len(prep.costs)
    ref = _dense_rows(model)
    senses = [sense for _, sense, _ in row_list(model.constraints)]
    rhs = np.array([-b if sense == GE else b for _, sense, b in row_list(model.constraints)])
    assert EQ in senses and np.any((ref == 0) & np.signbit(ref))
    pool = np.array([rng.choice(n, 2, replace=False) for _ in range(6)])
    block = np.zeros((len(pool), n))
    block[np.arange(len(pool))[:, None], pool] = 1.0
    cut = simplex.append_rows(prep, pool, np.ones(pool.shape), np.ones(len(pool)))
    cut_ref = np.vstack([ref, block])
    for p, dense, is_eq, want_rhs in ((prep, ref, np.equal(senses, EQ), rhs),
                                      (cut, cut_ref, np.equal(senses + [LE] * len(pool), EQ),
                                       np.concatenate([rhs, np.ones(len(pool))]))):
        m = len(p.rhs)
        assert dense.shape == (m, n)
        np.testing.assert_array_equal(p.is_eq, is_eq)
        np.testing.assert_array_equal(p.rhs, want_rhs)
        scattered = np.zeros((m, n))
        scattered[p.row_ids, p.col_ids] = p.vals
        np.testing.assert_array_equal(scattered, dense)
        assert np.all(p.vals != 0) and len(p.vals) == np.count_nonzero(dense)
        assert p.starts[0] == 0 and p.starts[-1] == len(p.vals)
        empty = ~dense.any(axis=0)
        assert empty.any()
        for j in range(n):
            span = slice(p.starts[j], p.starts[j + 1])
            assert np.all(p.col_ids[span] == j)
            np.testing.assert_array_equal(p.row_ids[span], np.flatnonzero(dense[:, j]))
        bases = [b for b in (_random_basis(rng, dense, p) for _ in range(8)) if b is not None]
        assert len(bases) >= 4
        for basis in bases:
            binv = simplex._invert(p, basis)
            want = _full_inverse(dense, basis)
            np.testing.assert_allclose(binv, want, rtol=1e-9, atol=1e-12 * np.abs(want).max())
            for r in range(m):
                want = binv[r] @ dense
                bound = 1e-12 * (np.abs(binv[r]) @ np.abs(dense))
                assert np.all(np.abs(simplex._row_times(p, binv[r]) - want) <= bound)
            x = rng.normal(size=n + m)
            x[basis] = binv @ want_rhs
            x = x[:n]
            want = dense @ x
            bound = 1e-12 * (np.abs(dense) @ np.abs(x))
            assert np.all(np.abs(simplex._times_point(p, x) - want) <= bound)
            for q in range(n):
                want = binv @ dense[:, q]
                bound = 1e-12 * (np.abs(binv) @ np.abs(dense[:, q]))
                assert np.all(np.abs(times_column(p, binv, q) - want) <= bound)


def _strong_8x6_root() -> Model:
    instance = generate(replace(DESK, grid_width=8, grid_height=6, n_facilities=6), seed=1)
    return lp_relaxation(strengthen(build_3confl(instance), instance).model)


@pytest.mark.parametrize("case", ["strong-8x6", "plain-6x4"] + [f"sparse-{k}" for k in range(10)]
                         + [f"row-heavy-{k}" for k in range(6)])
def test_bundled_lp_matches_highs(case, monkeypatch):
    # LPs far beyond vertex enumeration, against scipy's HiGHS: the
    # strengthened 8x6 root LP of the benchmark's scale workload, the 6x4
    # root LP, random sparse boxed LPs of 200-400 rows, and row-heavy ones
    # whose rounds, like the 8x6 root LP's, stop updating the basic slacks'
    # rows of the inverse.
    switches = _counting_switches(monkeypatch)
    if case == "strong-8x6":
        model = _strong_8x6_root()
    elif case == "plain-6x4":
        model = _grid_6x4_model()
    elif case.startswith("row-heavy-"):
        model = _row_heavy_lp(int(case.split("-")[-1]))
    else:
        rng = np.random.default_rng(2400 + int(case.split("-")[1]))
        n_cons = int(rng.integers(200, 401))
        model = _sparse_lp(rng, n_cons, n_vars=int(rng.integers(150, 300)), density=0.03)
    want_status, want_obj = highs_lp_optimum(model)
    got = simplex.solve_prepared(simplex.prepare(model), model.variables.lower,
                                 model.variables.upper)
    assert bool(switches) or not case.startswith(("strong-", "row-heavy-"))
    assert got.status == want_status == simplex.OPTIMAL
    assert got.objective == pytest.approx(want_obj, rel=1e-9, abs=1e-9)
    _, violations = evaluate(model, got.assignment, tol=1e-6)
    assert violations == []


@pytest.mark.parametrize("case", ["strong-8x6", "row-heavy-0", "row-heavy-3"])
def test_a_stale_round_keeps_the_structurals_rows_of_the_inverse(case, monkeypatch):
    # After a dual simplex call that stopped updating its basic slacks' rows
    # of the inverse, the basic structurals' rows still match a fresh
    # factorization of the final basis to 1e-9, and each basic slack's row
    # derived from them matches its fresh row too.
    dual, invert, by_row = simplex._dual_simplex, simplex._invert, simplex._by_row
    switches = _counting_switches(monkeypatch)
    checked = []

    def checking_dual(prep, lo, hi, basis, state, x, binv, d, max_iter):
        before = len(switches)
        out = dual(prep, lo, hi, basis, state, x, binv, d, max_iter)
        if len(switches) > before:
            n = len(prep.costs)
            fresh = invert(prep, basis)
            structural = basis < n
            np.testing.assert_allclose(binv[structural], fresh[structural], rtol=0, atol=1e-9)
            pos = np.full(n, -1)
            pos[basis[structural]] = np.flatnonzero(structural)
            rows = by_row(prep)
            for r in np.flatnonzero(~structural):
                np.testing.assert_allclose(simplex._slack_row(rows, binv, pos, basis[r] - n),
                                           fresh[r], rtol=0, atol=1e-9)
            checked.append(out)
        return out

    monkeypatch.setattr(simplex, "_dual_simplex", checking_dual)
    model = (_strong_8x6_root() if case == "strong-8x6"
             else _row_heavy_lp(int(case.split("-")[-1])))
    assert simplex.solve_lp(model).status == simplex.OPTIMAL
    assert checked and len(checked) == len(switches)


def test_the_slack_rows_rule_stays_off_at_desk_scale(tmp_path, monkeypatch):
    # No update of `exact` or `solve --iters 2` on the desk seeds 0-7 comes
    # near the cap, so every desk pivot keeps the whole inverse up to date;
    # the strengthened 8x6 root LP passes it.
    switches = _counting_switches(monkeypatch)
    for seed in range(8):
        path = tmp_path / f"desk-{seed}.json"
        path.write_text(write_instance(generate(DESK, seed)), encoding="utf-8")
        assert main(["exact", str(path), "-o", str(tmp_path / f"ref-{seed}.json")]) == 0
        assert main(["solve", str(path), "--iters", "2", "--seed", str(seed),
                     "-o", str(tmp_path / f"sol-{seed}.json")]) == 0
    assert switches == []
    assert simplex.solve_lp(_strong_8x6_root()).status == simplex.OPTIMAL
    assert switches

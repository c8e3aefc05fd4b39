"""Bundled reference LP solver: bounded-variable revised simplex.

Dense algebra throughout, sized for desk-scale models (hundreds to a few
thousand rows).  The basis inverse is kept explicitly, updated in product
form after each pivot, and refactorized periodically.  Dantzig pricing with
a permanent switch to Bland's rule after a long run of degenerate pivots.

:func:`prepare` builds the dense row data once; :func:`solve_prepared`
solves it under caller-supplied variable bounds, which is what lets the
branch-and-bound and the fixing heuristic re-solve the same matrix under
many bound vectors without rebuilding it.

A solve without a starting basis runs the two-phase primal simplex.  Every
optimal result carries its final :class:`Basis`.  Handed back to
:func:`solve_prepared` with other bounds, that basis is still dual feasible,
because only the bounds changed: the warm path refactorizes it once, moves
boxed nonbasic columns whose reduced cost has the wrong sign to their other
bound, and runs a bounded dual simplex until the basics are within their
bounds, then lets the primal simplex confirm optimality.  A row the dual
cannot repair proves the bounds infeasible.  The warm path falls back to the
two-phase solve when an unboxed column is dual infeasible, when the dual
reaches its iteration cap, or when its final point fails the bound check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .milp import BINARY, EQ, GE, Assignment, Model

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2

_DTOL = 1e-9        # reduced-cost tolerance
_PIVTOL = 1e-9      # smallest rate treated as blocking
_FEASTOL = 1e-7     # phase-1 residual accepted as feasible; warm bound check
_DUAL_FEASTOL = 1e-9  # bound violation (relative) the dual simplex repairs
_BLAND_AFTER = 1000 # consecutive degenerate pivots before Bland's rule
_REFACTOR_EVERY = 150


@dataclass(frozen=True, eq=False)
class Basis:
    """A simplex basis over the columns ``[structural | slack]``: the basic
    column of each row and the state of every column (at lower, at upper or
    basic).  It never holds the inverse, so it is cheap to keep per node."""

    basic: np.ndarray    # (m,) column index basic in each row
    state: np.ndarray    # (n + m,) int8: _AT_LOWER, _AT_UPPER or _BASIC


@dataclass(frozen=True)
class LpResult:
    status: str
    objective: float | None = None
    assignment: Assignment | None = None
    basis: Basis | None = None    # set on optimal results


@dataclass
class PreparedLp:
    model: Model
    rows: np.ndarray     # (m, n) dense, >= rows negated to <=
    rhs: np.ndarray      # (m,)
    is_eq: np.ndarray    # (m,) bool
    costs: np.ndarray    # (n,)


def prepare(model: Model) -> PreparedLp:
    n = len(model.variables)
    m = len(model.constraints)
    rows = np.zeros((m, n))
    rhs = np.zeros(m)
    is_eq = np.zeros(m, dtype=bool)
    for i, con in enumerate(model.constraints):
        for vid, coef in con.terms:
            rows[i, vid] = coef
        rhs[i] = con.rhs
        if con.sense == GE:
            rows[i] *= -1.0
            rhs[i] = -rhs[i]
        elif con.sense == EQ:
            is_eq[i] = True
    costs = np.zeros(n)
    for vid, cost in model.objective.items():
        costs[vid] += cost
    return PreparedLp(model, rows, rhs, is_eq, costs)


def solve_lp(model: Model) -> LpResult:
    """Solve a pure-LP model. Binary variables are a contract violation:
    callers relax first."""
    for v in model.variables:
        if v.kind == BINARY:
            raise ValueError(f"solve_lp called on model with binary variable {v.name!r}")
    prep = prepare(model)
    lo = np.array([v.lower for v in model.variables])
    hi = np.array([v.upper for v in model.variables])
    return solve_prepared(prep, lo, hi)


def solve_prepared(prep: PreparedLp, lo: np.ndarray, hi: np.ndarray,
                   basis: Basis | None = None) -> LpResult:
    """Solve the prepared matrix under variable bounds `lo`/`hi`.

    `basis` is an optimal basis of the same prepared matrix under other
    bounds, as returned in :attr:`LpResult.basis`; the solve then starts
    from it (see the module docstring).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi + 1e-12):
        return LpResult(INFEASIBLE)
    if np.any((lo == -math.inf) & (hi == math.inf)):
        raise ValueError("free variables are not supported by the bundled simplex")
    solved = None if basis is None else _warm(prep, lo, hi, basis)
    status, x, end = solved or _two_phase(prep, lo, hi)
    if status != OPTIMAL:
        return LpResult(status)
    x = np.clip(x, lo, hi)
    objective = float(prep.costs @ x)
    assignment: Assignment = {i: float(x[i]) for i in range(len(x))}
    return LpResult(OPTIMAL, objective, assignment, end)


def _columns(prep: PreparedLp, lo_s: np.ndarray, hi_s: np.ndarray):
    """Matrix, bounds and costs over [structural | one slack per row].

    Slacks are [0, inf) for <= rows and fixed [0, 0] for = rows.
    """
    m, n = prep.rows.shape
    a = np.hstack([prep.rows, np.eye(m)]) if m else prep.rows.copy()
    lo = np.concatenate([lo_s, np.zeros(m)])
    hi = np.concatenate([hi_s, np.where(prep.is_eq, 0.0, math.inf)])
    cost = np.concatenate([prep.costs, np.zeros(m)])
    return a, lo, hi, cost


def _two_phase(prep: PreparedLp, lo_s: np.ndarray, hi_s: np.ndarray):
    m, n = prep.rows.shape
    a, lo, hi, cost = _columns(prep, lo_s, hi_s)

    # Nonbasic start: every structural at a finite bound.
    x = np.zeros(n + m)
    state = np.full(n + m, _AT_LOWER, dtype=np.int8)
    for j in range(n):
        if lo[j] == -math.inf:
            x[j], state[j] = hi[j], _AT_UPPER
        else:
            x[j] = lo[j]

    residual = prep.rhs - prep.rows @ x[:n] if m else np.empty(0)
    basis = np.empty(m, dtype=int)
    art_cols: list[np.ndarray] = []
    art_rows: list[int] = []
    for i in range(m):
        r = residual[i]
        if not prep.is_eq[i] and r >= 0.0:
            basis[i] = n + i          # slack carries the row
            x[n + i] = r
            state[n + i] = _BASIC
        else:
            col = np.zeros(m)
            col[i] = 1.0 if r >= 0 else -1.0
            art_cols.append(col)
            art_rows.append(i)
            basis[i] = n + m + len(art_cols) - 1

    if art_cols:
        n_art = len(art_cols)
        x1 = np.concatenate([x, np.abs(residual[art_rows])])
        state1 = np.concatenate([state, np.full(n_art, _BASIC, dtype=np.int8)])
        phase1_cost = np.concatenate([np.zeros(n + m), np.ones(n_art)])
        status = _simplex(
            np.hstack([a, np.column_stack(art_cols)]), prep.rhs, phase1_cost,
            np.concatenate([lo, np.zeros(n_art)]),
            np.concatenate([hi, np.full(n_art, math.inf)]),
            basis, state1, x1, phase=1,
        )
        if status != OPTIMAL:
            raise ArithmeticError("phase-1 simplex terminated abnormally")
        rhs_scale = float(np.abs(prep.rhs).max())
        if float(x1[n + m :].sum()) > _FEASTOL * max(1.0, rhs_scale):
            return INFEASIBLE, None, None
        x, state = x1[: n + m], state1[: n + m]
        # An artificial can stay basic at (about) zero.  Its row's slack has
        # a parallel column, so it takes the place and the basis stays
        # nonsingular; phase 2 then runs without artificial columns.
        for r in np.flatnonzero(basis >= n + m):
            k = int(basis[r]) - n - m
            i = art_rows[k]
            basis[r] = n + i
            state[n + i] = _BASIC
            x[n + i] = art_cols[k][i] * x1[n + m + k]

    status = _simplex(a, prep.rhs, cost, lo, hi, basis, state, x, phase=2)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    return OPTIMAL, x[:n].copy(), Basis(basis, state)


def _warm(prep: PreparedLp, lo_s: np.ndarray, hi_s: np.ndarray, start: Basis):
    """Re-solve from `start` by dual simplex; None asks for the cold solve."""
    n = prep.rows.shape[1]
    a, lo, hi, cost = _columns(prep, lo_s, hi_s)
    basis = start.basic.copy()
    state = start.state.copy()
    nonbasic = state != _BASIC
    # Nonbasic columns sit on the bound their state names, or on the other
    # one when that bound is infinite under the new bounds.
    upper = np.where(state == _AT_UPPER, hi < math.inf, lo == -math.inf)
    state[nonbasic] = np.where(upper[nonbasic], _AT_UPPER, _AT_LOWER)
    x = np.where(upper, hi, lo)

    binv = np.linalg.inv(a[:, basis])
    d = cost - (cost[basis] @ binv) @ a
    wrong = nonbasic & (lo < hi) & np.where(upper, d > _DTOL, d < -_DTOL)
    if wrong.any():
        if not np.all(np.isfinite(lo[wrong]) & np.isfinite(hi[wrong])):
            return None
        state[wrong] = np.where(upper[wrong], _AT_LOWER, _AT_UPPER)
        x[wrong] = np.where(upper[wrong], lo[wrong], hi[wrong])
    _recompute_basics(a, prep.rhs, basis, state, x, binv)

    status, binv = _dual_simplex(a, prep.rhs, cost, lo, hi, basis, state, x, binv, d)
    if status is None:
        return None
    if status == INFEASIBLE:
        return INFEASIBLE, None, None
    status = _simplex(a, prep.rhs, cost, lo, hi, basis, state, x, phase=2, binv=binv)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    tol = _FEASTOL * np.maximum(1.0, np.abs(x))
    if np.any(x < lo - tol) or np.any(x > hi + tol):
        return None
    return OPTIMAL, x[:n].copy(), Basis(basis, state)


def _dual_simplex(a, b, c, lo, hi, basis, state, x, binv, d):
    """Bounded dual simplex from a dual feasible basis.

    Returns (OPTIMAL, binv) once every basic lies within its bounds,
    (INFEASIBLE, binv) when a violated row has no entering column, and
    (None, binv) at the iteration cap.
    """
    m, k = a.shape
    fixed = lo == hi
    for it in range(m + k):
        if it and it % _REFACTOR_EVERY == 0:
            binv = np.linalg.inv(a[:, basis])
            _recompute_basics(a, b, basis, state, x, binv)
            d = c - (c[basis] @ binv) @ a

        bx = x[basis]
        below = lo[basis] - bx
        above = bx - hi[basis]
        viol = np.maximum(below, above)
        viol[viol <= _DUAL_FEASTOL * np.maximum(1.0, np.abs(bx))] = 0.0
        if not viol.any():
            return OPTIMAL, binv
        r = int(np.argmax(viol))
        leave = int(basis[r])
        increase = below[r] > 0
        target = lo[leave] if increase else hi[leave]

        # Entering columns move the leaving basic toward its violated bound
        # and keep every reduced cost on its side of zero.
        alpha = binv[r] @ a
        s_alpha = alpha if increase else -alpha
        at_lower = state == _AT_LOWER
        eligible = ~fixed & np.where(at_lower, s_alpha < -_PIVTOL,
                                     (state == _AT_UPPER) & (s_alpha > _PIVTOL))
        cand = np.flatnonzero(eligible)
        if not len(cand):
            return INFEASIBLE, binv
        slack_d = np.maximum(np.where(at_lower[cand], d[cand], -d[cand]), 0.0)
        ratios = slack_d / np.abs(alpha[cand])
        near = cand[ratios <= ratios.min() + 1e-12]
        q = int(near[np.argmax(np.abs(alpha[near]))])

        w = binv @ a[:, q]
        step = (x[leave] - target) / w[r]
        x[basis] = bx - step * w
        x[q] += step
        x[leave] = target
        d -= (d[q] / alpha[q]) * alpha
        d[q] = 0.0
        state[leave] = _AT_LOWER if increase else _AT_UPPER
        basis[r] = q
        state[q] = _BASIC
        binv = _replace_column(a, b, basis, state, x, binv, w, r)
    return None, binv


def _simplex(a, b, c, lo, hi, basis, state, x, phase: int, binv=None) -> str:
    m, k = a.shape
    if m == 0:
        # Pure box problem: push each variable to its attractive bound.
        for j in range(k):
            if c[j] < -_DTOL:
                if hi[j] == math.inf:
                    return UNBOUNDED
                x[j], state[j] = hi[j], _AT_UPPER
            elif c[j] > _DTOL and lo[j] == -math.inf:
                return UNBOUNDED
        return OPTIMAL

    if binv is None:
        binv = np.linalg.inv(a[:, basis])
    fixed = lo == hi
    degenerate_run = 0
    bland = False
    max_iter = 50_000 + 60 * (m + k)

    for it in range(max_iter):
        if it and it % _REFACTOR_EVERY == 0:
            binv = np.linalg.inv(a[:, basis])
            _recompute_basics(a, b, basis, state, x, binv)

        y = c[basis] @ binv
        d = c - y @ a
        can_up = (state == _AT_LOWER) & ~fixed & (d < -_DTOL)
        can_dn = (state == _AT_UPPER) & ~fixed & (d > _DTOL)
        if not (can_up.any() or can_dn.any()):
            # Refactorize once so the reported point carries no update drift.
            binv = np.linalg.inv(a[:, basis])
            _recompute_basics(a, b, basis, state, x, binv)
            return OPTIMAL

        if bland:
            candidates = np.flatnonzero(can_up | can_dn)
            j = int(candidates[0])
        else:
            score = np.where(can_up, -d, 0.0) + np.where(can_dn, d, 0.0)
            j = int(np.argmax(score))
        direction = 1.0 if state[j] == _AT_LOWER else -1.0

        w = binv @ a[:, j]
        rate = -direction * w  # d x_B / dt
        t_bound = hi[j] - lo[j]

        limits = np.full(m, math.inf)
        up_block = rate > _PIVTOL
        dn_block = rate < -_PIVTOL
        bx = x[basis]
        with np.errstate(invalid="ignore"):
            limits[up_block] = (hi[basis[up_block]] - bx[up_block]) / rate[up_block]
            limits[dn_block] = (bx[dn_block] - lo[basis[dn_block]]) / (-rate[dn_block])
        limits = np.maximum(limits, 0.0)
        t_basic = float(limits.min()) if m else math.inf
        t = min(t_bound, t_basic)

        if t == math.inf:
            return UNBOUNDED if phase == 2 else _raise_phase1_unbounded()

        if t <= 1e-12:
            degenerate_run += 1
            if degenerate_run > _BLAND_AFTER:
                bland = True
        else:
            degenerate_run = 0

        if t_bound <= t_basic:
            # Bound flip: the entering variable traverses its whole span.
            x[basis] = bx - direction * w * t
            x[j] = hi[j] if direction > 0 else lo[j]
            state[j] = _AT_UPPER if direction > 0 else _AT_LOWER
            continue

        near = np.flatnonzero(limits <= t + 1e-9)
        if bland:
            r = int(near[np.argmin(basis[near])])
        else:
            r = int(near[np.argmax(np.abs(rate[near]))])
        leave = int(basis[r])

        x[basis] = bx - direction * w * t
        x[j] += direction * t
        x[leave] = hi[leave] if rate[r] > 0 else lo[leave]
        state[leave] = _AT_UPPER if rate[r] > 0 else _AT_LOWER
        basis[r] = j
        state[j] = _BASIC
        binv = _replace_column(a, b, basis, state, x, binv, w, r)

    raise ArithmeticError("simplex iteration limit exceeded")


def _raise_phase1_unbounded() -> str:
    raise ArithmeticError("phase-1 objective unbounded; numerical breakdown")


def _replace_column(a, b, basis, state, x, binv, w, r) -> np.ndarray:
    """B^-1 after row r's basic column was replaced by the column whose
    image under the old B^-1 is `w` (`basis` already updated): a
    product-form update, or a refactorization when the pivot is tiny."""
    piv = w[r]
    if abs(piv) < 1e-11:
        binv = np.linalg.inv(a[:, basis])
        _recompute_basics(a, b, basis, state, x, binv)
        return binv
    row = binv[r, :] / piv
    binv -= np.outer(w, row)
    binv[r, :] = row
    return binv


def _recompute_basics(a, b, basis, state, x, binv) -> None:
    nonbasic = state != _BASIC
    x[basis] = binv @ (b - a[:, nonbasic] @ x[nonbasic])

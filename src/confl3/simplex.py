"""Bundled reference LP solver: bounded-variable revised simplex.

Dense algebra throughout, sized for desk-scale models (hundreds to a few
thousand rows).  The basis inverse is kept explicitly, updated in product
form after each pivot, and refactorized periodically.  Dantzig pricing with
a permanent switch to Bland's rule after a long run of degenerate pivots.

:func:`prepare` builds the dense row data once; :func:`solve_prepared`
solves it under caller-supplied variable bounds, which is what lets the
branch-and-bound and the fixing heuristic re-solve the same matrix under
many bound vectors without rebuilding it.  :func:`append_rows` adds ``<=``
rows to a prepared matrix, and :meth:`Basis.with_slacks` extends a basis of
the original by the new rows' slacks.

Every solve starts from a basis: the caller's, or else the slack basis, in
which each row's slack is basic and every structural sits at a finite
bound.  Every optimal result carries its final :class:`Basis`.  Handed back
to :func:`solve_prepared` with other bounds, that basis is still dual
feasible, because only the bounds changed.  The solve refactorizes the start
basis and moves boxed nonbasic columns whose reduced cost has the wrong sign
to their other bound.  An unboxed column cannot move, so for the dual phase
only its cost is shifted until its reduced cost is zero (Koberstein, PhD
thesis, Paderborn 2005).  A bounded dual simplex then runs until the basics
are within their bounds; a row it cannot repair proves the bounds
infeasible.  The primal simplex finishes on the true costs, to optimality or
a proof of unboundedness; after a warm start it usually only confirms
optimality.  Reaching the iteration cap, or a final point outside its
bounds, raises :class:`ArithmeticError`.
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
_FEASTOL = 1e-7     # final bound check
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

    def with_slacks(self, k: int) -> "Basis":
        """This basis for the matrix with `k` rows appended (see
        :func:`append_rows`): each new row's slack is basic.  The new rows
        have zero duals, so a dual feasible basis stays dual feasible."""
        new = np.arange(len(self.state), len(self.state) + k)
        return Basis(np.concatenate([self.basic, new]),
                     np.concatenate([self.state, np.full(k, _BASIC, dtype=np.int8)]))


@dataclass(frozen=True)
class LpResult:
    status: str
    objective: float | None = None
    assignment: Assignment | None = None
    basis: Basis | None = None    # set on optimal results


@dataclass
class PreparedLp:
    model: Model         # the variables; rows appended later are not in it
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


def append_rows(prep: PreparedLp, rows: np.ndarray, rhs: np.ndarray) -> PreparedLp:
    """`prep` with the rows ``rows @ x <= rhs`` appended; the original's
    arrays are left as they are."""
    return PreparedLp(prep.model, np.vstack([prep.rows, rows]),
                      np.concatenate([prep.rhs, rhs]),
                      np.concatenate([prep.is_eq, np.zeros(len(rhs), dtype=bool)]),
                      prep.costs)


def model_bounds(model: Model) -> tuple[np.ndarray, np.ndarray]:
    """The variable bounds of `model` as the vectors `lo`, `hi`."""
    return (np.array([v.lower for v in model.variables]),
            np.array([v.upper for v in model.variables]))


def solve_lp(model: Model) -> LpResult:
    """Solve a pure-LP model. Binary variables are a contract violation:
    callers relax first."""
    for v in model.variables:
        if v.kind == BINARY:
            raise ValueError(f"solve_lp called on model with binary variable {v.name!r}")
    return solve_prepared(prepare(model), *model_bounds(model))


def solve_prepared(prep: PreparedLp, lo: np.ndarray, hi: np.ndarray,
                   basis: Basis | None = None) -> LpResult:
    """Solve the prepared matrix under variable bounds `lo`/`hi`.

    The solve starts from `basis`, an optimal basis of the same prepared
    matrix under other bounds as returned in :attr:`LpResult.basis`, or
    from the slack basis when it is None (see the module docstring).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi + 1e-12):
        return LpResult(INFEASIBLE)
    if np.any((lo == -math.inf) & (hi == math.inf)):
        raise ValueError("free variables are not supported by the bundled simplex")
    if basis is None:
        # The slack basis is the empty basis with every row's slack added.
        basis = Basis(np.empty(0, dtype=int),
                      np.full(len(lo), _AT_LOWER, dtype=np.int8)).with_slacks(len(prep.rhs))
    status, x, end = _solve(prep, lo, hi, basis)
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
    m = len(prep.rhs)
    a = np.hstack([prep.rows, np.eye(m)])
    lo = np.concatenate([lo_s, np.zeros(m)])
    hi = np.concatenate([hi_s, np.where(prep.is_eq, 0.0, math.inf)])
    cost = np.concatenate([prep.costs, np.zeros(m)])
    return a, lo, hi, cost


def _max_iter(a: np.ndarray) -> int:
    """The iteration cap of the dual and of the primal simplex."""
    return 50_000 + 60 * sum(a.shape)


def _solve(prep: PreparedLp, lo_s: np.ndarray, hi_s: np.ndarray, start: Basis):
    """Dual simplex from `start`, then primal simplex on the true costs."""
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
    # A wrong-signed boxed column moves to its other bound; an unboxed one
    # cannot, so the dual phase runs on costs that zero its reduced cost.
    boxed = np.isfinite(lo) & np.isfinite(hi)
    flip = wrong & boxed
    state[flip] = np.where(upper[flip], _AT_LOWER, _AT_UPPER)
    x[flip] = np.where(upper[flip], lo[flip], hi[flip])
    shift = wrong & ~boxed
    dual_cost = np.where(shift, cost - d, cost)
    d[shift] = 0.0
    _recompute_basics(a, prep.rhs, basis, state, x, binv)

    status, binv = _dual_simplex(a, prep.rhs, dual_cost, lo, hi, basis, state, x, binv, d)
    if status == INFEASIBLE:
        return INFEASIBLE, None, None
    if _simplex(a, prep.rhs, cost, lo, hi, basis, state, x, binv) == UNBOUNDED:
        return UNBOUNDED, None, None
    tol = _FEASTOL * np.maximum(1.0, np.abs(x))
    if np.any(x < lo - tol) or np.any(x > hi + tol):
        raise ArithmeticError("simplex final point violates its bounds")
    return OPTIMAL, x[:n].copy(), Basis(basis, state)


def _dual_simplex(a, b, c, lo, hi, basis, state, x, binv, d):
    """Bounded dual simplex from a dual feasible basis with reduced costs `d`.

    Returns (OPTIMAL, binv) once every basic lies within its bounds and
    (INFEASIBLE, binv) when a violated row has no entering column.
    """
    fixed = lo == hi
    for it in range(_max_iter(a)):
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
    raise ArithmeticError("dual simplex iteration limit exceeded")


def _simplex(a, b, c, lo, hi, basis, state, x, binv) -> str:
    """Primal simplex from a primal feasible basis with inverse `binv`;
    returns OPTIMAL or UNBOUNDED."""
    m = a.shape[0]
    fixed = lo == hi
    degenerate_run = 0
    bland = False

    for it in range(_max_iter(a)):
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
            return UNBOUNDED

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

"""Bundled reference LP solver: bounded dual simplex over boxed columns.

Dense algebra throughout, sized for desk-scale models (hundreds to a few
thousand rows).  The basis inverse is kept explicitly, updated in product
form after each pivot, and refactorized periodically.

:func:`prepare` builds the dense row data once; :func:`solve_prepared`
solves it under caller-supplied variable bounds, which is what lets the
branch-and-bound and the fixing heuristic re-solve the same matrix under
many bound vectors without rebuilding it.  :func:`append_rows` adds ``<=``
rows to a prepared matrix, and :meth:`Basis.with_slacks` extends a basis of
the original by the new rows' slacks.

Every variable bound must be finite.  With every structural column boxed,
moving a nonbasic column to its other bound fixes the sign of its reduced
cost, so any basis whose nonbasic slacks price correctly is made dual
feasible by bound flips alone, and the dual simplex needs neither a phase 1
nor a primal phase after it (Koberstein, PhD thesis, Paderborn 2005).

Every solve starts from a basis: the caller's, or else the slack basis, in
which each row's slack is basic.  Every optimal result carries its final
:class:`Basis`; handed back to :func:`solve_prepared` with other bounds, it
is still dual feasible, because only the bounds changed.  A solve runs
rounds of four steps: refactorize the basis, recompute the reduced costs
from scratch, flip each wrong-signed nonbasic column to its other bound, and
run a bounded dual simplex until the basics are within their bounds (a row
it cannot repair proves the bounds infeasible).  It stops after a round
whose dual simplex makes no pivot, so the reported point and its reduced
costs come from a fresh factorization.  Reaching the iteration cap, a
nonbasic slack with a wrong-signed reduced cost, or a final point outside
its bounds raises :class:`ArithmeticError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .milp import BINARY, EQ, GE, Assignment, Model

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2

_DTOL = 1e-9        # reduced-cost tolerance
_PIVTOL = 1e-9      # smallest |alpha| of an entering column
_FEASTOL = 1e-7     # final bound check
_DUAL_FEASTOL = 1e-9  # bound violation (relative) the dual simplex repairs
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
    """Solve the prepared matrix under the finite variable bounds `lo`/`hi`.

    The solve starts from `basis`, an optimal basis of the same prepared
    matrix and costs under other bounds as returned in
    :attr:`LpResult.basis` (possibly extended by :meth:`Basis.with_slacks`),
    or from the slack basis when it is None (see the module docstring).
    Another basis may leave a ``<=`` row's slack nonbasic with a
    wrong-signed reduced cost, which no bound flip can fix; that raises
    :class:`ArithmeticError`.  An infinite or NaN bound raises
    :class:`ValueError`.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("the bundled simplex needs finite variable bounds")
    if np.any(lo > hi + 1e-12):
        return LpResult(INFEASIBLE)
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
    """The number of dual simplex pivots one solve may make in all."""
    return 50_000 + 60 * sum(a.shape)


def _solve(prep: PreparedLp, lo_s: np.ndarray, hi_s: np.ndarray, start: Basis):
    """Rounds of refactorization, bound flips and dual simplex from `start`,
    until a round makes no pivot."""
    n = prep.rows.shape[1]
    a, lo, hi, cost = _columns(prep, lo_s, hi_s)
    basis = start.basic.copy()
    state = start.state.copy()
    x = np.where(state == _AT_UPPER, hi, lo)
    budget = _max_iter(a)
    while True:
        binv = np.linalg.inv(a[:, basis])
        d = cost - (cost[basis] @ binv) @ a
        upper = state == _AT_UPPER
        wrong = (state != _BASIC) & (lo < hi) & np.where(upper, d > _DTOL, d < -_DTOL)
        if wrong.any():
            # Only the [0, inf) slack of a <= row has no other bound.
            if np.any(wrong & (hi == math.inf)):
                raise ArithmeticError("start basis is not dual feasible: "
                                      "a nonbasic slack has a negative reduced cost")
            state[wrong] = np.where(upper[wrong], _AT_LOWER, _AT_UPPER)
            x[wrong] = np.where(upper[wrong], lo[wrong], hi[wrong])
        _recompute_basics(a, prep.rhs, basis, state, x, binv)
        status, pivots = _dual_simplex(a, prep.rhs, cost, lo, hi, basis, state, x, binv, d,
                                       budget)
        if status == INFEASIBLE:
            return INFEASIBLE, None, None
        if not pivots:
            break
        budget -= pivots
    tol = _FEASTOL * np.maximum(1.0, np.abs(x))
    if np.any(x < lo - tol) or np.any(x > hi + tol):
        raise ArithmeticError("simplex final point violates its bounds")
    return OPTIMAL, x[:n].copy(), Basis(basis, state)


def _dual_simplex(a, b, c, lo, hi, basis, state, x, binv, d, max_iter):
    """Bounded dual simplex from a dual feasible basis with reduced costs `d`,
    making at most `max_iter` pivots.

    Returns (OPTIMAL, pivots) once every basic lies within its bounds and
    (INFEASIBLE, pivots) when a violated row has no entering column.
    """
    fixed = lo == hi
    for it in range(max_iter + 1):
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
            return OPTIMAL, it
        if it == max_iter:
            break
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
            return INFEASIBLE, it
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

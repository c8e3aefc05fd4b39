"""Independent brute-force oracles used to check the bundled solvers.

Kept deliberately dumb: the LP oracle enumerates candidate vertices from
scratch with dense linear algebra (no simplex involved), and the MIP oracle
enumerates every 0/1 pattern of the binaries, completing the continuous
part with an LP solve per surviving pattern.  The pairwise power-feasibility
oracle decides one pair of wireless services at a time by enumerating the
vertices of its power polygon, the lone-blocker oracle tests one interferer
at a time, :func:`big_m` sums one SIR row's big-M facility by facility, and
:func:`evaluate` recomputes a point's objective and row violations from a
model's rows.  For LPs too large to enumerate,
:func:`highs_lp_optimum` and :func:`highs_mip_optimum` ask scipy's HiGHS,
which shares no code with the bundled solvers.  :func:`dual_simplex` is
the bundled pivot loop in its plainer first form, the reference that the
kernel must match bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import csr_array

from confl3.confl import Instance, WirelessParams
from confl3.milp import EQ, GE, LE, SENSES, Model, apply_fixings, lp_relaxation
from confl3 import simplex
from confl3.simplex import (_AT_LOWER, _AT_UPPER, _BASIC, _DUAL_FEASTOL, _PIVTOL, INFEASIBLE,
                            OPTIMAL, PreparedLp, _row_times, _times_point)
from rows import row_list

_FEAS = 1e-7


def evaluate(model: Model, assignment: np.ndarray,
             tol: float = 1e-6) -> tuple[float, list[tuple[int, float]]]:
    """Exact objective plus every constraint violated by more than `tol`.

    Returns ``(objective, [(constraint id, violation amount), ...])``.
    The assignment must be an array of one value per variable.
    """
    n = len(model.variables)
    if not isinstance(assignment, np.ndarray) or assignment.shape != (n,):
        raise ValueError(f"partial assignment: expected {n} values, got shape "
                         f"{np.shape(assignment)}")
    values = assignment.tolist()
    objective = sum(cost * values[vid]
                    for vid, cost in enumerate(model.variables.cost.tolist()) if cost)
    rows = model.constraints
    # bincount adds each row's products in term order, as a running sum would.
    lhs = np.bincount(rows.entry_rows(), weights=rows.coefs * assignment[rows.cols],
                      minlength=len(rows.rhs))
    excess = np.where(rows.sense == SENSES.index(LE), lhs - rows.rhs,
                      np.where(rows.sense == SENSES.index(GE), rows.rhs - lhs,
                               np.abs(lhs - rows.rhs)))
    return objective, [(int(cid), float(excess[cid])) for cid in np.flatnonzero(excess > tol)]


def lp_vertex_optimum(model: Model) -> tuple[str, float | None, np.ndarray | None]:
    """Minimize over all vertices of a *bounded* LP by enumerating active sets.

    Every variable must have finite bounds.  Returns (status, objective, x).
    """
    n = len(model.variables)
    lo, hi = model.variables.lower, model.variables.upper
    assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)), "oracle needs a bounded box"

    planes: list[tuple[np.ndarray, float]] = []
    rows = []
    senses = []
    rhs = []
    for terms, sense, row_rhs in row_list(model.constraints):
        row = np.zeros(n)
        for vid, coef in terms:
            row[vid] = coef
        rows.append(row)
        senses.append(sense)
        rhs.append(row_rhs)
        planes.append((row, row_rhs))
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = 1.0
        planes.append((ej, lo[j]))
        planes.append((ej, hi[j]))

    cost = model.variables.cost

    def feasible(x: np.ndarray) -> bool:
        if np.any(x < lo - _FEAS) or np.any(x > hi + _FEAS):
            return False
        for row, sense, b in zip(rows, senses, rhs):
            lhs = float(row @ x)
            if sense == LE and lhs > b + _FEAS:
                return False
            if sense == GE and lhs < b - _FEAS:
                return False
            if sense == EQ and abs(lhs - b) > _FEAS:
                return False
        return True

    best = None
    best_x = None
    for combo in itertools.combinations(range(len(planes)), n):
        a = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(a)) < 1e-10:
            continue
        x = np.linalg.solve(a, b)
        if not feasible(x):
            continue
        val = float(cost @ x)
        if best is None or val < best - 1e-12:
            best, best_x = val, x
    if best is None:
        return "infeasible", None, None
    return "optimal", best, best_x


def _highs_arrays(model: Model) -> tuple[np.ndarray, csr_array]:
    """The cost vector and the sparse rows of `model`, built from the model
    itself, not by :func:`simplex.prepare`."""
    r = model.constraints
    n = len(model.variables)
    return model.variables.cost, csr_array((r.coefs, (r.entry_rows(), r.cols)), shape=(len(r.rhs), n))


def highs_lp_optimum(model: Model) -> tuple[str, float | None]:
    """Status and optimal objective of the LP relaxation of `model` under its
    own bounds, by scipy's HiGHS on the model's rows (``>=`` rows negated
    here, not by :func:`simplex.prepare`)."""
    r = model.constraints
    cost, a = _highs_arrays(model)
    eq = r.sense == SENSES.index(EQ)
    sign = np.where(r.sense == SENSES.index(GE), -1.0, 1.0)
    ub = np.flatnonzero(~eq)
    bounds = list(zip(model.variables.lower.tolist(), model.variables.upper.tolist()))
    res = linprog(cost, A_ub=a[ub] * sign[ub, None], b_ub=r.rhs[ub] * sign[ub],
                  A_eq=a[np.flatnonzero(eq)], b_eq=r.rhs[eq], bounds=bounds, method="highs")
    if res.status == 2:
        return "infeasible", None
    assert res.status == 0, res.message
    return "optimal", float(res.fun)


def highs_mip_optimum(model: Model) -> tuple[str, float | None]:
    """Status and optimal objective of `model` as a MIP under its own
    bounds, by scipy's HiGHS branch and cut with no relative gap allowed."""
    r = model.constraints
    cost, a = _highs_arrays(model)
    le, ge = r.sense == SENSES.index(LE), r.sense == SENSES.index(GE)
    rows = LinearConstraint(a, np.where(le, -np.inf, r.rhs), np.where(ge, np.inf, r.rhs))
    integrality = np.zeros(len(cost))
    integrality[model.variables.binary] = 1
    bounds = Bounds(model.variables.lower, model.variables.upper)
    res = milp(cost, integrality=integrality, bounds=bounds, constraints=rows,
               options={"mip_rel_gap": 0.0})
    if res.status == 2:
        return "infeasible", None
    assert res.status == 0, res.message
    return "optimal", float(res.fun)


def enumerate_binary_patterns(model: Model):
    """Yield (pattern dict, lp result) for every 0/1 pattern of the binaries
    whose continuous completion is feasible.

    Constraints whose terms touch only binaries are screened (vectorized)
    before the completion LP runs; screening only discards patterns that are
    infeasible regardless of the continuous variables, so the enumeration
    stays exhaustive.
    """
    bin_ids = np.flatnonzero(model.variables.binary).tolist()
    b = len(bin_ids)
    assert b <= 22, "enumeration oracle is meant for tiny models"
    pos = {vid: k for k, vid in enumerate(bin_ids)}
    pure_rows, pure_rhs, pure_sense = [], [], []
    for terms, sense, row_rhs in row_list(model.constraints):
        if all(vid in pos for vid, _ in terms):
            row = np.zeros(b)
            for vid, coef in terms:
                row[pos[vid]] = coef
            pure_rows.append(row)
            pure_rhs.append(row_rhs)
            pure_sense.append(sense)

    relaxed = lp_relaxation(model)
    bin_lo = model.variables.lower[bin_ids]
    bin_hi = model.variables.upper[bin_ids]
    mat = np.array(pure_rows).T if pure_rows else None
    rhs = np.array(pure_rhs)
    chunk = 1 << 16
    for lo_idx in range(0, 2**b, chunk):
        idx = np.arange(lo_idx, min(lo_idx + chunk, 2**b))
        patterns = ((idx[:, None] >> np.arange(b)) & 1).astype(float)
        keep = np.all((patterns >= bin_lo) & (patterns <= bin_hi), axis=1)
        if mat is not None:
            lhs = patterns @ mat
            for k, sense in enumerate(pure_sense):
                if sense == LE:
                    keep &= lhs[:, k] <= rhs[k] + _FEAS
                elif sense == GE:
                    keep &= lhs[:, k] >= rhs[k] - _FEAS
                else:
                    keep &= np.abs(lhs[:, k] - rhs[k]) <= _FEAS
        for row in np.flatnonzero(keep):
            pattern = {vid: float(patterns[row, k]) for vid, k in pos.items()}
            res = simplex.solve_lp(apply_fixings(relaxed, pattern))
            if res.status == simplex.OPTIMAL:
                yield pattern, res


def mip_enumeration_optimum(model: Model) -> tuple[str, float | None, np.ndarray | None]:
    """Exhaustive optimum over binary patterns, continuous part LP-completed."""
    best = None
    best_assignment = None
    for pattern, res in enumerate_binary_patterns(model):
        if best is None or res.objective < best - 1e-12:
            best = res.objective
            best_assignment = res.assignment.copy()
            best_assignment[list(pattern)] = list(pattern.values())
    if best is None:
        return "infeasible", None, None
    return "optimal", best, best_assignment


def _two_sir_feasible(
    a1: float, b1: float, a2: float, b2: float, w: WirelessParams
) -> bool:
    """Exact feasibility of the 2-facility system
    a1 p1 - delta b1 p2 >= delta eta, a2 p2 - delta b2 p1 >= delta eta,
    p in [p_min, p_max]^2, by enumerating candidate polygon vertices."""
    rhs = w.delta * w.eta_noise
    tol = 1e-9
    # Lines as (c1, c2, c0): c1 p1 + c2 p2 = c0.
    lines = [
        (a1, -w.delta * b1, rhs),
        (-w.delta * b2, a2, rhs),
        (1.0, 0.0, w.p_min),
        (1.0, 0.0, w.p_max),
        (0.0, 1.0, w.p_min),
        (0.0, 1.0, w.p_max),
    ]
    for (c1, c2, c0), (d1, d2, d0) in itertools.combinations(lines, 2):
        det = c1 * d2 - c2 * d1
        if abs(det) < 1e-14:
            continue
        p1 = (c0 * d2 - c2 * d0) / det
        p2 = (c1 * d0 - c0 * d1) / det
        if not (w.p_min - tol <= p1 <= w.p_max + tol):
            continue
        if not (w.p_min - tol <= p2 <= w.p_max + tol):
            continue
        if a1 * p1 - w.delta * b1 * p2 < rhs - tol:
            continue
        if a2 * p2 - w.delta * b2 * p1 < rhs - tol:
            continue
        return True
    return False


def big_m(instance: Instance, fid: str, uid: str) -> float:
    """Tightest constant that silences the SIR row of (fid, uid) when the
    assignment variable is 0: worst in-bounds case is the server silent and
    every interferer at full power.  The big-M of the SIR rows of
    ``build_3confl``, computed one arc at a time by a running sum over the
    facilities in instance order."""
    w = instance.wireless
    interference = sum(
        w.fading[k.id, uid] * w.p_max for k in instance.facilities if k.id != fid
    )
    return w.delta * w.eta_noise + w.delta * interference


def superinterferers(instance: Instance, uid: str, fid: str) -> set[str]:
    """Facilities that alone deny wireless service of `uid` by `fid` even at
    their minimum power against the server's maximum power."""
    w = instance.wireless
    a_fu = w.fading[fid, uid]
    out = set()
    for k in instance.facilities:
        if k.id == fid:
            continue
        if a_fu * w.p_max - w.delta * w.fading[k.id, uid] * w.p_min < w.delta * w.eta_noise:
            out.add(k.id)
    return out


# The bundled dual simplex's pivot loop in its first, plainer form: one
# gather and scatter of the basics, one concatenated pivot row and an
# np.ix_/np.outer update per pivot.  The kernel in confl3.simplex must make
# the same pivots and the same floating-point operations, so the two agree
# bit for bit from identical inputs.  Both follow one rule: once an update
# writes more than simplex._SLACK_ROWS_CAP entries into rows whose basic is
# a slack, the rest of the call leaves those rows of the inverse stale and
# derives a slack's pivot row and its entry of each entering column from the
# basic structurals' rows.


def dual_simplex(prep, lo, hi, basis, state, x, binv, d, max_iter):
    """The reference pivot loop: :func:`simplex._dual_simplex` as it was
    written before its numpy calls were trimmed, plus the rule above on the
    basic slacks' rows, kept so that the kernel can be checked against it
    bit for bit.

    Bounded dual simplex on the matrix `prep` from a dual feasible basis
    with inverse `binv` and reduced costs `d`, all updated in place, making
    at most `max_iter` pivots.

    Returns (OPTIMAL, pivots, stale) once every basic lies within its
    bounds, (INFEASIBLE, pivots, stale) when a violated row has no entering
    column, and (None, max_iter, stale) when the pivots run out first;
    `stale` is whether the basic slacks' rows were left stale.
    """
    n, m = len(prep.costs), len(basis)
    fixed = lo == hi
    # The way each column may move off its bound: +1 up from its lower, -1
    # down from its upper, 0 for basic and fixed columns.
    move = np.where(state == _AT_LOWER, 1.0, -1.0)
    move[(state == _BASIC) | fixed] = 0.0
    lo_b, hi_b = lo[basis], hi[basis]
    stale = False   # whether the basic slacks' rows of binv are left stale
    for it in range(max_iter + 1):
        bx = x[basis]
        below = lo_b - bx
        above = bx - hi_b
        viol = np.maximum(below, above)
        viol[viol <= _DUAL_FEASTOL * np.maximum(1.0, np.abs(bx))] = 0.0
        if not viol.any():
            return OPTIMAL, it, stale
        if it == max_iter:
            return None, it, stale
        r = int(np.argmax(viol))
        leave = int(basis[r])
        increase = below[r] > 0
        target = lo[leave] if increase else hi[leave]
        if stale and leave >= n:
            binv[r, :] = slack_row(prep, binv, basis, leave - n)

        # Entering columns move the leaving basic toward its violated bound
        # and keep every reduced cost on its side of zero.
        alpha = np.concatenate([_row_times(prep, binv[r]), binv[r]])
        m_alpha = move * alpha
        cand = np.flatnonzero(m_alpha < -_PIVTOL if increase else m_alpha > _PIVTOL)
        if not len(cand):
            return INFEASIBLE, it, stale
        ratios = np.maximum(move[cand] * d[cand], 0.0) / np.abs(alpha[cand])
        near = cand[ratios <= ratios.min() + 1e-12]
        q = int(near[np.argmax(np.abs(alpha[near]))])

        w = times_column(prep, binv, q) if q < n else binv[:, q - n].copy()
        if stale:
            set_slack_entries(prep, w, basis, q)
        step = (x[leave] - target) / w[r]
        x[basis] = bx - step * w
        x[q] += step
        x[leave] = target
        d -= (d[q] / alpha[q]) * alpha
        d[q] = 0.0
        state[leave] = _AT_LOWER if increase else _AT_UPPER
        move[leave] = 0.0 if fixed[leave] else 1.0 if increase else -1.0
        basis[r] = q
        state[q] = _BASIC
        move[q] = 0.0
        lo_b[r], hi_b[r] = lo[q], hi[q]
        if stale:
            w[(basis >= n) & (np.arange(m) != r)] = 0.0
        rw, cr = replace_column(binv, w, r)
        stale = stale or int(np.sum(basis[rw] >= n)) * len(cr) > simplex._SLACK_ROWS_CAP


def slack_row(prep: PreparedLp, binv: np.ndarray, basis: np.ndarray, l: int) -> np.ndarray:
    """Row l's slack's row of the basis inverse: ``e_l`` minus row l's
    coefficients on the basic structurals times their rows of `binv`."""
    mine = np.flatnonzero(prep.row_ids == l)    # row l's nonzeros, by column
    at = [np.flatnonzero(basis == j) for j in prep.col_ids[mine]]
    on = [len(a) > 0 for a in at]
    terms = prep.vals[mine][on][:, None] * binv[[int(a[0]) for a in at if len(a)]]
    y = -terms.sum(axis=0)
    y[l] += 1.0
    return y


def set_slack_entries(prep: PreparedLp, w: np.ndarray, basis: np.ndarray, q: int) -> None:
    """Set the basic slacks' entries of `w`, the image of column q under the
    inverse, to ``[A | I] (e_q - z)`` at their rows, z the basic
    structurals' values in `w` placed at their columns."""
    n = len(prep.costs)
    v = np.zeros(n + len(w))
    v[q] = 1.0
    for k in np.flatnonzero(basis < n):
        v[basis[k]] = -w[k]
    w[basis >= n] = (_times_point(prep, v[:n]) + v[n:])[basis[basis >= n] - n]


def times_column(prep: PreparedLp, binv: np.ndarray, q: int) -> np.ndarray:
    """``binv @ a_q`` from the nonzeros of column q."""
    nz = slice(prep.starts[q], prep.starts[q + 1])
    return binv[:, prep.row_ids[nz]] @ prep.vals[nz]


def replace_column(binv, w, r) -> tuple[np.ndarray, np.ndarray]:
    """Update `binv` in place to the inverse after row r's basic column was
    replaced by the column whose image under the old inverse is `w`: a
    product-form update.  The pivot ``w[r]`` is the entering column's
    ``alpha``, which the ratio test admits only above ``_PIVTOL``.  Returns
    the rows and the columns whose entries the update rewrote."""
    row = binv[r, :] / w[r]
    # Only the entries in the nonzero rows of w and nonzero columns of row
    # change; slack-heavy bases leave both sparse.
    rw, cr = np.flatnonzero(w), np.flatnonzero(row)
    binv[np.ix_(rw, cr)] -= np.outer(w[rw], row[cr])
    binv[r, :] = row
    return rw, cr

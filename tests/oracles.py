"""Independent brute-force oracles used to check the bundled solvers.

Kept deliberately dumb: the LP oracle enumerates candidate vertices from
scratch with dense linear algebra (no simplex involved), and the MIP oracle
enumerates every 0/1 pattern of the binaries, completing the continuous
part with an LP solve per surviving pattern.  The pairwise power-feasibility
oracle decides one pair of wireless services at a time by enumerating the
vertices of its power polygon.
"""

from __future__ import annotations

import itertools

import numpy as np

from confl3.confl import WirelessParams
from confl3.milp import EQ, GE, LE, Model, apply_fixings, lp_relaxation
from confl3 import simplex

_FEAS = 1e-7


def lp_vertex_optimum(model: Model) -> tuple[str, float | None, np.ndarray | None]:
    """Minimize over all vertices of a *bounded* LP by enumerating active sets.

    Every variable must have finite bounds.  Returns (status, objective, x).
    """
    n = len(model.variables)
    lo = np.array([v.lower for v in model.variables])
    hi = np.array([v.upper for v in model.variables])
    assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)), "oracle needs a bounded box"

    planes: list[tuple[np.ndarray, float]] = []
    rows = []
    senses = []
    rhs = []
    for con in model.constraints:
        row = np.zeros(n)
        for vid, coef in con.terms:
            row[vid] = coef
        rows.append(row)
        senses.append(con.sense)
        rhs.append(con.rhs)
        planes.append((row, con.rhs))
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = 1.0
        planes.append((ej, lo[j]))
        planes.append((ej, hi[j]))

    cost = np.zeros(n)
    for vid, c in model.objective.items():
        cost[vid] += c

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


def enumerate_binary_patterns(model: Model):
    """Yield (pattern dict, lp result) for every 0/1 pattern of the binaries
    whose continuous completion is feasible.

    Constraints whose terms touch only binaries are screened (vectorized)
    before the completion LP runs; screening only discards patterns that are
    infeasible regardless of the continuous variables, so the enumeration
    stays exhaustive.
    """
    bin_ids = model.binary_ids()
    b = len(bin_ids)
    assert b <= 22, "enumeration oracle is meant for tiny models"
    pos = {vid: k for k, vid in enumerate(bin_ids)}
    pure_rows, pure_rhs, pure_sense = [], [], []
    for con in model.constraints:
        if all(vid in pos for vid, _ in con.terms):
            row = np.zeros(b)
            for vid, coef in con.terms:
                row[pos[vid]] = coef
            pure_rows.append(row)
            pure_rhs.append(con.rhs)
            pure_sense.append(con.sense)

    relaxed = lp_relaxation(model)
    bin_lo = np.array([model.variables[vid].lower for vid in bin_ids])
    bin_hi = np.array([model.variables[vid].upper for vid in bin_ids])
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


def mip_enumeration_optimum(model: Model) -> tuple[str, float | None, dict | None]:
    """Exhaustive optimum over binary patterns, continuous part LP-completed."""
    best = None
    best_assignment = None
    for pattern, res in enumerate_binary_patterns(model):
        if best is None or res.objective < best - 1e-12:
            best = res.objective
            best_assignment = dict(res.assignment)
            best_assignment.update(pattern)
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

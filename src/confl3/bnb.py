"""Bundled reference MILP solver: LP-based branch and bound.

:func:`solve_mip` takes what :func:`confl3.simplex.solve_prepared` takes: a
prepared matrix (:func:`confl3.simplex.prepare`, possibly with rows
appended), the variable bounds of the problem as two vectors, and
optionally an optimal basis of the same matrix under other bounds.  The
binaries are the prepared matrix's binary ids.  So a caller that solves
many problems over one matrix, such as the fixing heuristic, prepares it
once and changes only the bounds.

Best-bound node selection, branching on the binary whose fractional part is
closest to 0.5 (ties broken by lowest variable id).  Cuts come from an
optional pool of valid rows ``x_a + x_b <= 1``, a (k, 2) array of variable
ids such as :func:`confl3.confl.strengthening_pairs` returns: each node runs
the cut loop :func:`confl3.simplex.separate`, and a row appended at any node
stays for the rest of the tree.  The root relaxation starts from the given
basis, or from the slack basis without one; every other node, and the
re-solve that polishes a near-integral point, starts from the optimal basis
of its parent (a dual simplex warm start, see :mod:`confl3.simplex`, which
extends it over the rows cut since).  Nodes keep that basis, never its
inverse.  An incumbent is one float array indexed by variable id.
Deterministic given its arguments: ties in the node heap fall back to
creation order.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from .milp import Assignment
from . import simplex

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
TIMEOUT_NO_INCUMBENT = "timeout_no_incumbent"

_INT_TOL = 1e-6


@dataclass(frozen=True)
class MipResult:
    status: str
    incumbent: Assignment | None
    objective: float | None
    lower_bound: float
    elapsed: float
    nodes: int

    def has_solution(self) -> bool:
        return self.incumbent is not None


def solve_mip(prep: simplex.PreparedLp, lo: np.ndarray, hi: np.ndarray,
              time_limit: float, node_limit: int | None = None,
              basis: simplex.Basis | None = None, pool: np.ndarray | None = None) -> MipResult:
    """Branch and bound within `time_limit` seconds (checked once per node)
    over `prep` under `lo`/`hi`, the root from `basis`, cuts from `pool`.

    Returns the best incumbent found plus the global lower bound at
    termination; `infeasible` is reported only when the tree proves it.
    """
    if not time_limit > 0:
        raise ValueError("time_limit must be positive")
    start = time.monotonic()
    bin_ids = prep.binaries
    cut = None if pool is None else np.zeros(len(pool), dtype=bool)

    counter = 0
    # (bound, creation order, lower bounds, upper bounds, parent basis)
    heap: list[tuple[float, int, np.ndarray, np.ndarray, simplex.Basis | None]] = [
        (-math.inf, counter, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), basis)
    ]
    incumbent: Assignment | None = None
    incumbent_obj = math.inf
    nodes = 0
    hit_limit = False

    while heap:
        node_bound = heap[0][0]
        if incumbent is not None and node_bound >= incumbent_obj - _gap_eps(incumbent_obj):
            break  # best-bound order: every open node is fathomed
        if time.monotonic() - start > time_limit:
            hit_limit = True
            break
        if node_limit is not None and nodes >= node_limit:
            hit_limit = True
            break
        _, _, node_lo, node_hi, start_basis = heapq.heappop(heap)
        nodes += 1

        res = simplex.solve_prepared(prep, node_lo, node_hi, start_basis)
        if pool is not None:
            prep, res = simplex.separate(prep, node_lo, node_hi, res, pool, cut)
        if res.status == simplex.INFEASIBLE:
            continue
        value = res.objective
        if incumbent is not None and value >= incumbent_obj - _gap_eps(incumbent_obj):
            continue

        frac = res.assignment[bin_ids]
        dist = np.abs(frac - np.round(frac))
        fractional = dist > _INT_TOL
        if not len(bin_ids) or not fractional.any():
            # Near-integral point: pin the binaries to exact 0/1 and re-solve
            # so incumbents carry no integrality drift in their objective.
            pin_lo, pin_hi = node_lo.copy(), node_hi.copy()
            pin_lo[bin_ids] = pin_hi[bin_ids] = np.round(frac)
            polished = simplex.solve_prepared(prep, pin_lo, pin_hi, res.basis)
            if polished.status == simplex.OPTIMAL:
                if polished.objective < incumbent_obj - 0.0:
                    incumbent = polished.assignment
                    incumbent_obj = polished.objective
                continue
            # Rounding is infeasible: some binary is genuinely fractional
            # (within tolerance); branch on it instead.
            fractional = dist > 0
            if not fractional.any():
                # The node point is integral yet its own pinning is rejected:
                # a tolerance-level contradiction. Fathoming the node is safe.
                continue

        # Branch on the fractional binary closest to 0.5, lowest id on ties.
        scores = np.where(fractional, np.abs(frac - np.floor(frac) - 0.5), math.inf)
        j = int(bin_ids[int(np.argmin(scores))])
        down_lo, down_hi = node_lo.copy(), node_hi.copy()
        down_hi[j] = 0.0
        counter += 1
        heapq.heappush(heap, (value, counter, down_lo, down_hi, res.basis))
        up_lo, up_hi = node_lo.copy(), node_hi.copy()
        up_lo[j] = 1.0
        counter += 1
        heapq.heappush(heap, (value, counter, up_lo, up_hi, res.basis))

    elapsed = time.monotonic() - start
    open_bound = heap[0][0] if heap else math.inf
    if incumbent is not None:
        lower = min(incumbent_obj, open_bound)
        if hit_limit and heap:
            return MipResult(FEASIBLE, incumbent, incumbent_obj, lower, elapsed, nodes)
        return MipResult(OPTIMAL, incumbent, incumbent_obj, lower, elapsed, nodes)
    if hit_limit:
        bound = open_bound if heap else -math.inf
        return MipResult(TIMEOUT_NO_INCUMBENT, None, None, bound, elapsed, nodes)
    return MipResult(INFEASIBLE, None, None, math.inf, elapsed, nodes)


def _gap_eps(obj: float) -> float:
    return 1e-9 * max(1.0, abs(obj))

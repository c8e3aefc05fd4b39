"""Bundled reference MILP solver: LP-based branch and bound.

:func:`solve_mip` takes what :func:`confl3.simplex.solve_prepared` takes: a
prepared matrix (:func:`confl3.simplex.prepare`, possibly with rows
appended), the variable bounds of the problem as two vectors, and
optionally an optimal basis of the same matrix under other bounds.  The
binaries are the prepared matrix's binary ids.  So a caller that solves
many problems over one matrix, such as a :class:`Session`, prepares it
once and changes only the bounds.  Time is one absolute
:func:`time.monotonic` deadline that the caller takes once and hands down;
the tree checks it before each node, never inside an LP.

Best-bound node selection, branching on the fractional binary j of highest
score ``|c_j| * min(f_j, 1 - f_j)``, its objective coefficient times the
distance of its fractional part f_j from the nearer integer (ties broken by
lowest variable id).  This is pseudo-cost branching with every pseudo-cost
left at its initial value, the objective coefficient (Linderoth &
Savelsbergh, INFORMS J. Comput. 11, 1999; Achterberg, Koch & Martin, Oper.
Res. Lett. 33, 2005): a binary that moves the objective most is branched on
first, and zero-cost binaries only when no costed binary is fractional.
:func:`ogap` measures a gap with the tolerance the tree prunes by.
Cuts come from an
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

A :class:`Session` is the one way the heuristic, ``exact`` and the scripts
drive the bundled solvers.  It prepares a model's matrix once and solves
under the model's bounds with some variables pinned: :meth:`Session.lp` an
LP, :meth:`Session.cut` the cut loop from an LP's result,
:meth:`Session.mip` branch and bound, with ``<=`` rows appended for that
call only.  :meth:`Session.root` solves the plain root LP from the slack
basis and keeps its optimal basis as the start of every later call; before
it, calls start from the slack basis.  Only the session knows the prepared
matrix and the basis, so it is where another backend would plug in.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from .milp import Assignment, Model
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
    nodes: int

    def has_solution(self) -> bool:
        return self.incumbent is not None


def solve_mip(prep: simplex.PreparedLp, lo: np.ndarray, hi: np.ndarray, *,
              deadline: float = math.inf, node_limit: int | None = None,
              basis: simplex.Basis | None = None, pool: np.ndarray | None = None) -> MipResult:
    """Branch and bound until `deadline`, a :func:`time.monotonic` value
    checked once per node, over `prep` under `lo`/`hi`, the root from
    `basis`, cuts from `pool`.  A deadline already passed solves no LP and
    returns `timeout_no_incumbent` after 0 nodes with lower bound -inf.

    Branches on the fractional binary of highest ``|c_j| * min(f_j, 1 - f_j)``
    (lowest id on ties), where c_j is its objective coefficient in `prep`
    and f_j its fractional part; see the module docstring.  The two
    children of a node share the parent's bound vector that branching
    leaves as it is (the down child its lower bounds, the up child its upper
    bounds) and copy only the other; every node's vectors are read-only
    views, which no solve writes.

    Returns the best incumbent found plus the global lower bound at
    termination; `infeasible` is reported only when the tree proves it.
    """
    bin_ids = prep.binaries
    # Appended cut rows never change the costs, so the weights hold for the tree.
    weight = np.abs(prep.costs[bin_ids])
    cut = None if pool is None else np.zeros(len(pool), dtype=bool)

    counter = 0
    # (bound, creation order, lower bounds, upper bounds, parent basis); the
    # bound vectors are read-only, as siblings share them.
    heap: list[tuple[float, int, np.ndarray, np.ndarray, simplex.Basis | None]] = [
        (-math.inf, counter, _frozen(np.asarray(lo, dtype=float)),
         _frozen(np.asarray(hi, dtype=float)), basis)
    ]
    incumbent: Assignment | None = None
    incumbent_obj = math.inf
    nodes = 0
    hit_limit = False

    while heap:
        node_bound = heap[0][0]
        if incumbent is not None and node_bound >= incumbent_obj - _gap_eps(incumbent_obj):
            break  # best-bound order: every open node is fathomed
        if time.monotonic() >= deadline:
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
                if polished.objective < incumbent_obj:
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

        # Highest |c_j| * min(f_j, 1 - f_j); argmax keeps the lowest id on ties.
        scores = np.where(fractional, weight * dist, -math.inf)
        j = int(bin_ids[int(np.argmax(scores))])
        down_hi = node_hi.copy()
        down_hi[j] = 0.0
        counter += 1
        heapq.heappush(heap, (value, counter, node_lo, _frozen(down_hi), res.basis))
        up_lo = node_lo.copy()
        up_lo[j] = 1.0
        counter += 1
        heapq.heappush(heap, (value, counter, _frozen(up_lo), node_hi, res.basis))

    open_bound = heap[0][0] if heap else math.inf
    if incumbent is not None:
        lower = min(incumbent_obj, open_bound)
        if hit_limit and heap:
            return MipResult(FEASIBLE, incumbent, incumbent_obj, lower, nodes)
        return MipResult(OPTIMAL, incumbent, incumbent_obj, lower, nodes)
    if hit_limit:
        bound = open_bound if heap else -math.inf
        return MipResult(TIMEOUT_NO_INCUMBENT, None, None, bound, nodes)
    return MipResult(INFEASIBLE, None, None, math.inf, nodes)


class Session:
    """The bundled solvers on one model's matrix, prepared once.  `pins`
    maps variable ids to the values they are fixed at, under the model's
    bounds; every call starts from the basis :meth:`root` kept, or from the
    slack basis before it."""

    def __init__(self, model: Model):
        self._prep = simplex.prepare(model)
        self._lo, self._hi = model.variables.lower, model.variables.upper
        self._basis: simplex.Basis | None = None

    def _bounds(self, pins: dict[int, float]) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._lo.copy(), self._hi.copy()
        lo[list(pins)] = hi[list(pins)] = list(pins.values())
        return lo, hi

    def root(self) -> simplex.LpResult:
        """The plain root LP, solved from the slack basis; an optimal
        basis becomes the start of every later call."""
        res = simplex.solve_prepared(self._prep, self._lo, self._hi)
        self._basis = res.basis
        return res

    def lp(self, pins: dict[int, float]) -> simplex.LpResult:
        return simplex.solve_prepared(self._prep, *self._bounds(pins), self._basis)

    def cut(self, pins: dict[int, float], res: simplex.LpResult,
            pool: np.ndarray) -> simplex.LpResult:
        """The cut loop over the pair rows `pool` from `res`, an optimum of
        :meth:`lp` under the same `pins` (see :func:`confl3.simplex.separate`)."""
        return simplex.separate(self._prep, *self._bounds(pins), res, pool)[1]

    def mip(self, pins: dict[int, float], *, deadline: float, rows=None,
            pool: np.ndarray | None = None) -> MipResult:
        """:func:`solve_mip` until `deadline`, cuts from `pool`, with the
        ``<=`` rows `rows`, a ``(cols, coefs, rhs)`` triple as
        :func:`confl3.simplex.append_rows` takes it, appended for this call
        only."""
        prep = self._prep if rows is None else simplex.append_rows(self._prep, *rows)
        return solve_mip(prep, *self._bounds(pins), deadline=deadline, basis=self._basis,
                         pool=pool)


def _frozen(bounds: np.ndarray) -> np.ndarray:
    """A read-only view of `bounds`; the caller's array keeps its flags."""
    view = bounds.view()
    view.flags.writeable = False
    return view


def _gap_eps(obj: float) -> float:
    return 1e-9 * max(1.0, abs(obj))


def ogap(v: float, lower: float) -> float:
    """Optimality gap (v - L) / v of a feasible value against a lower bound;
    0 when they are equal, a zero-cost optimum included, and when the bound
    exceeds the value by at most the tree's pruning tolerance :func:`_gap_eps`
    (1e-9, relative above 1).  A larger excess means the bound or the value
    is wrong, and raises ``ValueError``."""
    if v == lower or 0 < lower - v <= _gap_eps(v):
        return 0.0
    if not v > 0:
        raise ValueError(f"ogap needs a positive feasible value, got {v}")
    if lower > v:
        raise ValueError(f"bound inconsistency: lower bound {lower} exceeds value {v}")
    return (v - lower) / v

"""Bundled reference LP solver: bounded dual simplex over boxed columns.

Sized for desk-scale models (hundreds to a few thousand rows).  A
:class:`PreparedLp` holds the matrix ``A`` of its rows only as their
nonzeros, column by column, and every product reads them: ``y A`` (prices,
pivot rows) and ``A x`` (basics, the certificate) are scatter-adds, an
entering column ``B^-1 a_j`` combines the inverse's columns at column j's
nonzero rows, and a factorization gathers the basic structural columns.
The slack columns ``I`` of ``[A | I]`` are never built.  The basis inverse
is kept explicitly, dense, and updated in product form after each pivot,
only on the entries the pivot changes: the rows where the entering column's
image ``B^-1 a_q`` is nonzero by the columns where the pivot row is
nonzero, in one broadcast product.  Across the pivots of a call the dual
simplex keeps the basics' values in one array, written back into the point
when it returns, and the pivot row ``[y A | y]`` in one buffer.  A
factorization inverts only the kernel of the basis, the rows whose slack is
nonbasic against the basic structural columns, and derives the basic
slacks' rows of the inverse from it (Koberstein, PhD thesis, Paderborn
2005; Bixby, Oper. Res. 50, 2002).
The slack basis of a cold start has an empty kernel and factorizes nothing.

A basic slack's row of the inverse is that kernel view too: row l's slack
has the row ``e_l - A_l,S B^-1_S`` over the basic structurals S.  Most rows
of a strengthened LP keep their slack basic, so its updates mostly write
slacks' rows.  Once one update of a dual simplex round writes more than
``_SLACK_ROWS_CAP`` (8,192) entries into rows whose basic is a slack, the
round stops updating those rows: only the structurals' rows take each
later update, a leaving slack's pivot row is derived as above from the
rows' nonzeros (a by-row view built at that first switch), and row l's
slack takes row l of ``[A | I] (e_q - z)`` as its entry of the entering
column's image ``B^-1 a_q``, z that image's entries at the basic
structurals.  The next round factorizes afresh as every round does.  No
update of the desk-scale LPs comes near the cap, so they never switch.

:func:`prepare` builds the nonzeros once, and refuses with
:class:`ProblemTooLargeError`, before it allocates, a model whose dense
basis inverse, 8 m² bytes for m rows, would pass 2 GiB.  :func:`solve_prepared`
solves it under caller-supplied variable bounds, so that branch and bound
and the heuristic re-solve one matrix under many bound vectors.
:func:`append_rows` adds ``<=`` rows to a prepared matrix, given as
:meth:`Model.add_rows <confl3.milp.Model.add_rows>` takes them: the column
ids and the coefficients of each row.  :func:`separate`, the cut loop of
both, appends the violated rows of a pool of variable pairs
``x_a + x_b <= 1``.  Past :func:`prepare` nothing reads the model: a
:class:`PreparedLp` is arrays, its binary ids included.  An optimal point
is one float array indexed by variable id.

Every variable bound must be finite.  With every structural column boxed,
moving a nonbasic column to its other bound fixes the sign of its reduced
cost, so any basis whose nonbasic slacks price correctly is made dual
feasible by bound flips alone, and the dual simplex needs neither a phase 1
nor a primal phase after it (Koberstein, PhD thesis, Paderborn 2005).

Every solve starts from a basis: the caller's, or else the slack basis, in
which each row's slack is basic.  A basis taken before rows were appended
gets a basic slack in each appended row; the slack basis is the empty basis
extended that way.  A basis with no row appended since is used as it is.
The slack columns' bounds and the costs over ``[A | I]`` are built once
per :class:`PreparedLp`, by :func:`prepare` or :func:`append_rows`.
Every optimal result carries its final :class:`Basis`; handed back to
:func:`solve_prepared` with other bounds or more rows, it is still dual
feasible, because only the bounds changed and each appended row has a
zero dual.  A prepared matrix keeps one slot: the caller's
:class:`Basis` object of its last warm solve and that basis's fresh
factorization.  A solve from the same object (by identity) under other
bounds, as branch and bound's sibling nodes and the heuristic's fixing LPs
make, starts from a copy of it, which is the array a new factorization
would compute, so no result changes.  A solve runs rounds, and the start of
a round is the only place that factorizes.  A round is one fresh
factorization of the basis (in the first round the slot may supply it),
reduced costs recomputed from scratch, a flip of each wrong-signed nonbasic
column to its other bound, and a bounded dual simplex of at most
``_REFACTOR_EVERY`` (150) product-form pivots toward basics within their
bounds (a row it cannot repair proves the bounds infeasible).  A round that
ends on that cap starts the next.  Each pivot's leaving row is the first
of the rows whose bound violation is largest among those above their own
tolerance, ``_DUAL_FEASTOL * max(1, |x|)`` of the basic's value x.  The
pivot loop takes the first argmax of the raw violations and keeps it when
that violation exceeds its own tolerance, as then no row has a larger one;
only when it does not, or is NaN, does it zero every violation within its
tolerance and take the first argmax again (NaN, which no comparison zeroes,
is taken as before).  The entering column has the least ratio of reduced
cost to pivot-row entry, and among ratios within 1e-12 of it the entry of
largest magnitude.  A solve stops after a round whose dual
simplex reaches feasibility with no pivot, which priced a fresh
factorization, or with an updated factorization that passes the
certificate of :func:`_certified`, checked against the raw rows; a round
that fails it is followed by another.  Spending the pivot budget of all
rounds, a nonbasic slack with a wrong-signed reduced cost, or a final point
outside its bounds raises :class:`ArithmeticError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .milp import EQ, GE, SENSES, Assignment, Model, flatten_rows

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2

_DTOL = 1e-9        # reduced-cost tolerance
_PIVTOL = 1e-7      # smallest |alpha| of an entering column; a smaller one is noise
_FEASTOL = 1e-7     # final bound check
_DUAL_FEASTOL = 1e-9  # bound violation (relative) the dual simplex repairs
_REFACTOR_EVERY = 150
# The most entries one product-form update may write into the rows of the
# inverse whose basic is a slack before the round stops updating those rows.
_SLACK_ROWS_CAP = 8192
# The most bytes `prepare` lets the dense basis inverse take: 8 m² bytes
# for m rows.
_MAX_DENSE_BYTES = 2 * 1024**3


class ProblemTooLargeError(ValueError):
    """A model whose dense basis inverse, 8 m² bytes, would pass
    ``_MAX_DENSE_BYTES``; raised by :func:`prepare` before it allocates."""

    def __init__(self, m: int, n: int, size: int):
        super().__init__(f"{m} rows x {n} columns need {size:,} bytes of dense basis inverse "
                         f"(8 m² bytes), past the bundled solver's cap of "
                         f"{_MAX_DENSE_BYTES:,} bytes")
        self.m, self.n, self.size = m, n, size


@dataclass(frozen=True, eq=False)
class Basis:
    """A simplex basis over the columns ``[structural | slack]``: the basic
    column of each row and the state of every column (at lower, at upper or
    basic).  It never holds the inverse, so it is cheap to keep per node.
    Its arrays must not change: a prepared matrix keys the factorization it
    remembers on the object."""

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
    # The nonzeros of the rows, >= rows negated, by column and then by row:
    # column j's are row_ids[starts[j]:starts[j + 1]] and that slice of vals.
    row_ids: np.ndarray  # (nnz,)
    col_ids: np.ndarray  # (nnz,) the column of each nonzero
    vals: np.ndarray     # (nnz,)
    starts: np.ndarray   # (n + 1,)
    rhs: np.ndarray      # (m,)
    is_eq: np.ndarray    # (m,) bool
    costs: np.ndarray    # (n,)
    binaries: np.ndarray  # ids of the binary variables
    # Derived once from the above, read-only: the slack columns' bounds,
    # [0, inf) for <= rows and [0, 0] for = rows, and the costs over
    # [structural | slack], [c | 0].
    slack_lo: np.ndarray = field(init=False, repr=False, compare=False)
    slack_hi: np.ndarray = field(init=False, repr=False, compare=False)
    cost: np.ndarray = field(init=False, repr=False, compare=False)
    # The caller's Basis object of the last warm solve and the inverse of
    # that basis extended over every row, as _invert built it; never handed
    # to _solve itself, which updates its inverse in place.
    warm: tuple[Basis, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        m = len(self.rhs)
        self.slack_lo = np.zeros(m)
        self.slack_hi = np.where(self.is_eq, 0.0, math.inf)
        self.cost = np.concatenate([self.costs, np.zeros(m)])
        for a in (self.slack_lo, self.slack_hi, self.cost):
            a.flags.writeable = False


def _by_column(row_ids, col_ids, vals, n):
    """The first four fields of a :class:`PreparedLp`: the nonzero entries
    of a matrix of `n` columns, stably sorted by column, and column starts."""
    nz = np.flatnonzero(vals)
    order = nz[np.argsort(col_ids[nz], kind="stable")]
    cols = col_ids[order]
    return row_ids[order], cols, vals[order], np.searchsorted(cols, np.arange(n + 1))


def prepare(model: Model) -> PreparedLp:
    """The nonzeros of the rows of `model`; :class:`ProblemTooLargeError`
    when its basis inverse would take more than ``_MAX_DENSE_BYTES``."""
    n = len(model.variables)
    r = model.constraints
    m = len(r.rhs)
    size = 8 * m * m
    if size > _MAX_DENSE_BYTES:
        raise ProblemTooLargeError(m, n, size)
    sign = np.where(r.sense == SENSES.index(GE), -1.0, 1.0)
    entry_rows = r.entry_rows()
    return PreparedLp(*_by_column(entry_rows, r.cols, sign[entry_rows] * r.coefs, n),
                      sign * r.rhs, r.sense == SENSES.index(EQ), model.variables.cost,
                      np.flatnonzero(model.variables.binary))


def append_rows(prep: PreparedLp, cols, coefs, rhs: np.ndarray) -> PreparedLp:
    """`prep` with k ``<=`` rows appended as nonzeros: row i has the
    coefficients ``coefs[i]`` on the columns ``cols[i]``, given as
    :meth:`Model.add_rows <confl3.milp.Model.add_rows>` takes them ((k, L)
    arrays or k sequences), and the right-hand side ``rhs[i]``.  The
    original's arrays are left as they are."""
    cols, lengths = flatten_rows(cols, np.int64)
    coefs, _ = flatten_rows(coefs, float)
    new_rows = len(prep.rhs) + np.repeat(np.arange(len(lengths)), lengths)
    nonzeros = _by_column(np.concatenate([prep.row_ids, new_rows]),
                          np.concatenate([prep.col_ids, cols]),
                          np.concatenate([prep.vals, coefs]), len(prep.costs))
    return PreparedLp(*nonzeros, np.concatenate([prep.rhs, rhs]),
                      np.concatenate([prep.is_eq, np.zeros(len(rhs), dtype=bool)]),
                      prep.costs, prep.binaries)


def separate(prep: PreparedLp, lo: np.ndarray, hi: np.ndarray, res: LpResult, pool: np.ndarray,
             cut: np.ndarray | None = None) -> tuple[PreparedLp, LpResult]:
    """The cut loop (Padberg & Rinaldi, SIAM Review 33, 1991) over `pool`, a
    (k, 2) array of variable ids whose row ``[a, b]`` is the cut
    ``x_a + x_b <= 1``: while `res`, an optimum of `prep` under `lo`/`hi`,
    violates some by over 1e-7 that the mask `cut` (one flag per pool row;
    fresh if None) leaves unmarked, append and mark them and re-solve from
    its basis.  Returns the last matrix and result; no row is appended
    twice, so the loop ends."""
    cut = np.zeros(len(pool), dtype=bool) if cut is None else cut
    while res.status == OPTIMAL:
        x = res.assignment
        # The float test that evaluate in tests/oracles.py makes of a row, so the
        # rows it finds violated are the rows cut.
        new = np.flatnonzero((x[pool[:, 0]] + x[pool[:, 1]] - 1.0 > 1e-7) & ~cut)
        if not len(new):
            break
        cut[new] = True
        pairs = pool[new]
        prep = append_rows(prep, pairs, np.ones(pairs.shape), np.ones(len(new)))
        res = solve_prepared(prep, lo, hi, res.basis)
    return prep, res


def solve_lp(model: Model) -> LpResult:
    """Solve a pure-LP model. Binary variables are a contract violation:
    callers relax first."""
    cols = model.variables
    if cols.binary.any():
        raise ValueError("solve_lp called on model with binary variable "
                         f"{cols.names[cols.binary][0]!r}")
    return solve_prepared(prepare(model), cols.lower, cols.upper)


def solve_prepared(prep: PreparedLp, lo: np.ndarray, hi: np.ndarray,
                   basis: Basis | None = None) -> LpResult:
    """Solve the prepared matrix under the finite variable bounds `lo`/`hi`.

    The solve starts from `basis`, an optimal basis as returned in
    :attr:`LpResult.basis` for this matrix and costs under other bounds,
    possibly before rows were appended (:func:`append_rows`): each row past
    the basis gets a basic slack.  None is the empty basis, so each row's
    slack is basic (see the module docstring).  Another basis may leave a
    ``<=`` row's slack nonbasic with a wrong-signed reduced cost, which no
    bound flip can fix; that raises :class:`ArithmeticError`.  An infinite
    or NaN bound, or a basis with more rows than the matrix, raises
    :class:`ValueError`.  The optimal point is the array of the variables'
    values, clipped to `lo`/`hi`.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("the bundled simplex needs finite variable bounds")
    cold = basis is None
    if cold:
        basis = Basis(np.empty(0, dtype=int), np.full(len(prep.costs), _AT_LOWER, dtype=np.int8))
    k = len(prep.rhs) - len(basis.basic)
    if k < 0:
        raise ValueError(f"basis of {len(basis.basic)} rows for a matrix of {len(prep.rhs)}")
    if np.any(lo > hi + 1e-12):
        return LpResult(INFEASIBLE)
    start = basis
    if k:
        new = np.arange(len(basis.state), len(basis.state) + k)
        start = Basis(np.concatenate([basis.basic, new]),
                      np.concatenate([basis.state, np.full(k, _BASIC, dtype=np.int8)]))
    if cold:
        binv = _invert(prep, start.basic)
    else:
        if prep.warm is None or prep.warm[0] is not basis:
            prep.warm = (basis, _invert(prep, start.basic))
        binv = prep.warm[1].copy()
    status, x, end = _solve(prep, lo, hi, start, binv)
    if status != OPTIMAL:
        return LpResult(status)
    x = np.clip(x, lo, hi)
    return LpResult(OPTIMAL, float(prep.costs @ x), x, end)


def _max_iter(prep: PreparedLp) -> int:
    """The number of dual simplex pivots one solve may make in all: 60 per
    row and column of ``[A | I]``, plus a constant."""
    return 50_000 + 60 * (2 * len(prep.rhs) + len(prep.costs))


def _solve(prep: PreparedLp, lo_s: np.ndarray, hi_s: np.ndarray, start: Basis,
           binv: np.ndarray):
    """Rounds from `start`, whose inverse `binv` the first round updates in
    place: each a fresh factorization, bound flips and at most
    ``_REFACTOR_EVERY`` dual simplex pivots, until a round reaches
    feasibility with no pivot or on a certified point."""
    n = len(prep.costs)
    lo = np.concatenate([lo_s, prep.slack_lo])
    hi = np.concatenate([hi_s, prep.slack_hi])
    basis = start.basic.copy()
    state = start.state.copy()
    x = np.where(state == _AT_UPPER, hi, lo)
    budget = _max_iter(prep)
    while True:
        d = _reduced_costs(prep, basis, binv)
        wrong = _wrong_signed(d, state, lo, hi)
        if wrong.any():
            # Only the [0, inf) slack of a <= row has no other bound.
            if np.any(wrong & (hi == math.inf)):
                raise ArithmeticError("start basis is not dual feasible: "
                                      "a nonbasic slack has a negative reduced cost")
            upper = state[wrong] == _AT_UPPER
            state[wrong] = np.where(upper, _AT_LOWER, _AT_UPPER)
            x[wrong] = np.where(upper, lo[wrong], hi[wrong])
        _recompute_basics(prep, basis, state, x, binv)
        status, pivots = _dual_simplex(prep, lo, hi, basis, state, x, binv, d,
                                       min(budget, _REFACTOR_EVERY))
        if status == INFEASIBLE:
            return INFEASIBLE, None, None
        if status == OPTIMAL and (not pivots
                                  or _certified(prep, lo, hi, basis, state, x, binv)):
            break
        budget -= pivots
        if status is None and not budget:
            raise ArithmeticError("dual simplex iteration limit exceeded")
        binv = _invert(prep, basis)
    tol = _FEASTOL * np.maximum(1.0, np.abs(x))
    if np.any(x < lo - tol) or np.any(x > hi + tol):
        raise ArithmeticError("simplex final point violates its bounds")
    return OPTIMAL, x[:n].copy(), Basis(basis, state)


def _dual_simplex(prep, lo, hi, basis, state, x, binv, d, max_iter):
    """Bounded dual simplex on the matrix `prep` from a dual feasible basis
    with inverse `binv` and reduced costs `d`, all updated in place, making
    at most `max_iter` pivots.  Once an update writes more than
    ``_SLACK_ROWS_CAP`` entries into basic slacks' rows, those rows of
    `binv` are left stale (see the module docstring); the duals, which give
    slacks zero cost, and the basic structurals' rows stay exact.

    Returns (OPTIMAL, pivots) once every basic lies within its bounds,
    (INFEASIBLE, pivots) when a violated row has no entering column, and
    (None, max_iter) when the pivots run out first.
    """
    if not len(basis):
        return OPTIMAL, 0
    n = len(prep.costs)
    fixed = lo == hi
    # The way each column may move off its bound: +1 up from its lower, -1
    # down from its upper, 0 for basic and fixed columns.
    move = np.where(state == _AT_LOWER, 1.0, -1.0)
    move[(state == _BASIC) | fixed] = 0.0
    lo_b, hi_b = lo[basis], hi[basis]
    bx = x[basis]              # the basics' values, written back to x on return
    alpha = np.empty(n + len(basis))  # the pivot row [y A | y] of y = binv[r]
    # The rows of A by their nonzeros, built once an update writes more than
    # _SLACK_ROWS_CAP entries into the basic slacks' rows of binv; from then
    # on this round leaves those rows stale and derives what it reads of them.
    by_row = None
    try:
        for it in range(max_iter + 1):
            viol = np.maximum(lo_b - bx, bx - hi_b)
            r = int(viol.argmax())
            if not viol[r] > _DUAL_FEASTOL * max(1.0, abs(bx[r])):
                # The largest violation lies within its own tolerance, or is
                # NaN: zero every violation within its tolerance, so that
                # each entry is 0, a violation above its tolerance, or NaN.
                viol[viol <= _DUAL_FEASTOL * np.maximum(1.0, np.abs(bx))] = 0.0
                r = int(viol.argmax())
                if viol[r] == 0.0:
                    return OPTIMAL, it
            if it == max_iter:
                return None, it
            leave = int(basis[r])
            increase = lo_b[r] - bx[r] > 0
            target = lo[leave] if increase else hi[leave]
            if by_row is not None:
                slack = basis >= n
                if leave >= n:
                    pos = np.full(n, -1)   # each structural's basis position, -1 if nonbasic
                    pos[basis[~slack]] = np.flatnonzero(~slack)
                    binv[r] = _slack_row(by_row, binv, pos, leave - n)

            # Entering columns move the leaving basic toward its violated
            # bound and keep every reduced cost on its side of zero.
            np.concatenate([_row_times(prep, binv[r]), binv[r]], out=alpha)
            m_alpha = move * alpha
            cand = (m_alpha < -_PIVTOL if increase else m_alpha > _PIVTOL).nonzero()[0]
            if not len(cand):
                return INFEASIBLE, it
            size = np.abs(alpha[cand])
            ratios = np.maximum(move[cand] * d[cand], 0.0) / size
            near = ratios <= ratios.min() + 1e-12
            q = int(cand[near][size[near].argmax()])

            if q < n:
                nz = slice(prep.starts[q], prep.starts[q + 1])
                w = binv[:, prep.row_ids[nz]] @ prep.vals[nz]
            else:
                w = binv[:, q - n].copy()
            if by_row is not None:
                _slack_entries(prep, w, basis, slack, q)
            step = (bx[r] - target) / w[r]
            bx -= step * w
            bx[r] = x[q] + step
            x[leave] = target
            d -= (d[q] / alpha[q]) * alpha
            d[q] = 0.0
            state[leave] = _AT_LOWER if increase else _AT_UPPER
            move[leave] = 0.0 if fixed[leave] else 1.0 if increase else -1.0
            basis[r] = q
            state[q] = _BASIC
            move[q] = 0.0
            lo_b[r], hi_b[r] = lo[q], hi[q]
            if by_row is not None:
                slack[r] = False
                w[slack] = 0.0     # the stale rows take no update
            if (_replace_column(binv, w, r) > _SLACK_ROWS_CAP and by_row is None
                    and np.count_nonzero(basis[w.nonzero()[0]] >= n)
                    * np.count_nonzero(binv[r]) > _SLACK_ROWS_CAP):
                by_row = _by_row(prep)
    finally:
        x[basis] = bx


def _row_times(prep: PreparedLp, y: np.ndarray) -> np.ndarray:
    """``y A``, a scatter-add over the nonzeros of the rows."""
    return np.bincount(prep.col_ids, y[prep.row_ids] * prep.vals, minlength=len(prep.costs))


def _times_point(prep: PreparedLp, x: np.ndarray) -> np.ndarray:
    """``A x`` for the structural values `x`, a scatter-add over the nonzeros."""
    return np.bincount(prep.row_ids, prep.vals * x[prep.col_ids], minlength=len(prep.rhs))


def _invert(prep: PreparedLp, basis: np.ndarray) -> np.ndarray:
    """The inverse of the basis `basis` over ``[A | I]``, from the inverse
    of its structural kernel alone.

    Each row whose slack is basic is solved by that slack.  The k other rows
    and the k basic structural columns form the kernel K.  A basic
    structural's row of B^-1 is its row of K^-1 on the kernel rows and zero
    elsewhere; a basic slack's row is its unit vector minus its row's
    structural coefficients times K^-1.  The slack basis has k = 0 and
    inverts nothing.  A singular kernel raises
    :class:`numpy.linalg.LinAlgError`.
    """
    m, n = len(prep.rhs), len(prep.costs)
    is_slack = basis >= n
    at_l = np.flatnonzero(is_slack)     # basis positions of the slacks
    l_rows = basis[at_l] - n
    binv = np.zeros((m, m))
    binv[at_l, l_rows] = 1.0
    if len(at_l) < m:
        k_rows = np.ones(m, dtype=bool)
        k_rows[l_rows] = False
        pos = np.full(n, -1)    # each basic structural's place in `cols`
        pos[basis[~is_slack]] = np.arange(m - len(at_l))
        on = pos[prep.col_ids] >= 0
        cols = np.zeros((m, m - len(at_l)))   # the basic structural columns
        cols[prep.row_ids[on], pos[prep.col_ids[on]]] = prep.vals[on]
        kinv = np.linalg.inv(cols[k_rows])
        block = np.empty((m, len(kinv)))     # B^-1 on the kernel rows
        block[~is_slack] = kinv
        block[at_l] = -cols[l_rows] @ kinv
        binv[:, k_rows] = block
    return binv


def _replace_column(binv, w, r) -> int:
    """Update `binv` in place to the inverse after row r's basic column was
    replaced by the column whose image under the old inverse is `w`: a
    product-form update.  The pivot ``w[r]`` is the entering column's
    ``alpha``, which the ratio test admits only above ``_PIVTOL``.  Returns
    the number of entries the update rewrote: the nonzero rows of `w` times
    the nonzero columns of the new row r."""
    row = binv[r] / w[r]
    # Only the entries in the nonzero rows of w and nonzero columns of row
    # change; slack-heavy bases leave both sparse.
    rw, cr = w.nonzero()[0], row.nonzero()[0]
    binv[rw[:, None], cr] -= w[rw, None] * row[cr]
    binv[r] = row
    return len(rw) * len(cr)


def _by_row(prep: PreparedLp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros of the rows, row by row and in column order within a
    row: row l's are the column ids and values at ``starts[l]:starts[l + 1]``
    of the returned ``(starts, col_ids, vals)``."""
    order = np.argsort(prep.row_ids, kind="stable")
    starts = np.searchsorted(prep.row_ids[order], np.arange(len(prep.rhs) + 1))
    return starts, prep.col_ids[order], prep.vals[order]


def _slack_row(by_row, binv, pos, l) -> np.ndarray:
    """Row l's slack's row of the basis inverse, from the basic structurals'
    rows alone: ``e_l - sum_j A_lj B^-1[pos[j]]`` over the basic structurals
    j of row l, where `pos` maps each structural to its basis position (-1
    when nonbasic) and `by_row` is :func:`_by_row`."""
    starts, cols, vals = by_row
    span = slice(starts[l], starts[l + 1])
    at = pos[cols[span]]
    on = at >= 0
    y = -(vals[span][on, None] * binv[at[on]]).sum(axis=0)
    y[l] += 1.0
    return y


def _slack_entries(prep, w, basis, slack, q) -> None:
    """Set the entries of `w`, the entering column q's image ``B^-1 a_q``,
    in the rows whose basic is a slack (the mask `slack`) from its entries
    in the basic structurals' rows: row l's slack takes row l of
    ``[A | I] (e_q - z)``, z those entries placed at their columns."""
    n = len(prep.costs)
    v = np.zeros(n + len(w))
    v[q] = 1.0
    v[basis[~slack]] = -w[~slack]
    w[slack] = (_times_point(prep, v[:n]) + v[n:])[basis[slack] - n]


def _reduced_costs(prep, basis, binv) -> np.ndarray:
    """``c - y [A | I]`` for the costs ``c`` over ``[A | I]`` and the duals
    ``y = c_B B^-1``."""
    c = prep.cost
    y = c[basis] @ binv
    return c - np.concatenate([_row_times(prep, y), y])


def _wrong_signed(d, state, lo, hi) -> np.ndarray:
    """The nonbasic columns that can move and whose reduced cost `d` has the
    wrong sign for the bound they sit at."""
    return ((state != _BASIC) & (lo < hi)
            & np.where(state == _AT_UPPER, d > _DTOL, d < -_DTOL))


def _certified(prep, lo, hi, basis, state, x, binv) -> bool:
    """Whether the factorization `binv` and the point `x`, whose basics the
    dual simplex has put within their bounds, prove the basis optimal when
    checked against the raw rows: ``A x_s + x_slack = b`` holds to 1e-9
    relative, the duals ``c_B B^-1`` price every basic column to zero and
    every nonbasic column that can move has the right sign."""
    n, b = len(prep.costs), prep.rhs
    residual = np.abs(_times_point(prep, x[:n]) + x[n:] - b).max(initial=0.0)
    if residual > 1e-9 * max(1.0, np.abs(b).max(initial=0.0)):
        return False
    d = _reduced_costs(prep, basis, binv)
    return bool(np.all(np.abs(d[basis]) <= _DTOL)) and not _wrong_signed(d, state, lo, hi).any()


def _recompute_basics(prep, basis, state, x, binv) -> None:
    """The basics from the nonbasic structurals; nonbasic slacks are 0."""
    n = len(prep.costs)
    x_n = np.where(state[:n] == _BASIC, 0.0, x[:n])
    x[basis] = binv @ (prep.rhs - _times_point(prep, x_n))

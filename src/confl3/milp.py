"""Solver-agnostic MILP intermediate representation.

A :class:`Model` minimizes the total cost of a block of variables (binary
or continuous, with bounds) under a block of linear rows.  Both blocks are
immutable values of read-only arrays.  The variables are one
:class:`Columns` value: a name, a binary flag, two bounds and a cost per
variable id, each set when the variable is added.  A row is its column ids
and its coefficients, nothing else: the rows are one :class:`Rows` value
of CSR-style row starts, column ids and coefficients, plus a sense and a
right-hand side for each row.  :meth:`Model.add_variables` appends a
family of variables of one kind and one pair of bounds, with their costs;
:meth:`Model.add_rows` appends rows given as (k, L) arrays, as k sequences
(:func:`flatten_rows` reads both) or flat with their lengths.  The checks
of either call run over the whole family, a failed check appends nothing,
and an append replaces the model's value by a new one.
:attr:`Model.variables` and :attr:`Model.constraints` hand the values to
the consumers (``simplex.prepare``, and :func:`export_lp_text`, whose
objective line lists the nonzero costs in id order).

Models are treated as immutable once built: every transformation
(:func:`lp_relaxation`, :func:`apply_fixings`) returns a fresh copy.
Copies share both values, so a copy may append (as the strengthening does)
without changing the original.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import TextIO

import numpy as np

BINARY = "binary"
CONTINUOUS = "continuous"

LE = "<="
EQ = "="
GE = ">="
SENSES = (LE, EQ, GE)   # a row's sense code is its index here

_SENSE_CODE = {s: k for k, s in enumerate(SENSES)}


# A point: one float per variable id, indexed by id, as the solvers return it.
Assignment = np.ndarray


@dataclass(frozen=True)
class Rows:
    """The rows of a model as read-only arrays.  Row ``i`` has the entries
    ``starts[i]:starts[i + 1]`` of `cols` and `coefs`, the sense
    ``SENSES[sense[i]]`` and the right-hand side ``rhs[i]``."""

    starts: np.ndarray   # (m + 1,) int64
    cols: np.ndarray     # (nnz,) int64 variable ids
    coefs: np.ndarray    # (nnz,)
    sense: np.ndarray    # (m,) int8 sense codes
    rhs: np.ndarray      # (m,)

    def __post_init__(self):
        for a in (self.starts, self.cols, self.coefs, self.sense, self.rhs):
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.rhs)

    def entry_rows(self) -> np.ndarray:
        """The row of each entry of `cols` and `coefs`."""
        return np.repeat(np.arange(len(self.rhs)), np.diff(self.starts))


@dataclass(frozen=True)
class Columns:
    """The variables of a model as read-only arrays.  Variable ``i`` is
    named ``names[i]``, is binary when ``binary[i]``, has the bounds
    ``lower[i]`` and ``upper[i]`` and the objective coefficient
    ``cost[i]``."""

    names: np.ndarray    # (n,) object, str
    binary: np.ndarray   # (n,) bool
    lower: np.ndarray    # (n,)
    upper: np.ndarray    # (n,)
    cost: np.ndarray     # (n,)

    def __post_init__(self):
        for a in (self.names, self.binary, self.lower, self.upper, self.cost):
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.names)


_NO_COLUMNS = Columns(np.empty(0, dtype=object), np.empty(0, dtype=bool), np.empty(0),
                      np.empty(0), np.empty(0))
_NO_ROWS = Rows(np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0),
                np.empty(0, dtype=np.int8), np.empty(0))


def flatten_rows(rows, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The entries of k rows, given as a (k, L) array or as k sequences of
    any length, row after row as one `dtype` array, and each row's length."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        return np.asarray(rows, dtype=dtype).ravel(), np.full(len(rows), rows.shape[1])
    lengths = np.array([len(row) for row in rows], dtype=np.int64)
    entries = np.fromiter(itertools.chain.from_iterable(rows), dtype=dtype,
                          count=int(lengths.sum()))
    return entries, lengths


class Model:
    def __init__(self):
        self._names: set[str] = set()
        self._columns = _NO_COLUMNS
        self._rows = _NO_ROWS

    @property
    def variables(self) -> Columns:
        """This model's variables as read-only arrays."""
        return self._columns

    @property
    def constraints(self) -> Rows:
        """This model's rows as read-only arrays."""
        return self._rows

    def add_variables(self, names, kind: str, lower: float, upper: float,
                      cost=0.0) -> range:
        """Append one variable of `kind` with bounds [lower, upper] per name,
        in order, and return their ids.  `cost` is the objective coefficient
        of every new variable or a sequence of one per name; each is added
        to 0.0, so a cost of -0.0 reads 0.0.  The checks run before any is
        added: an unknown kind, a cost count other than the name count, a
        non-finite cost, then for each name in turn a name already taken and
        bounds that are NaN, inverted or, for a binary, not in {0, 1}; the
        error names the first variable that fails."""
        names = list(names)
        if kind not in (BINARY, CONTINUOUS):
            raise ValueError(f"unknown variable kind {kind!r}")
        cost = 0.0 + np.asarray(cost, dtype=float)
        if cost.ndim == 0:
            cost = np.full(len(names), cost)
        elif cost.shape != (len(names),):
            raise ValueError("add_variables needs one cost or one cost per name")
        bad = np.flatnonzero(~np.isfinite(cost))
        if len(bad):
            raise ValueError(f"non-finite cost {cost[bad[0]]} for {names[bad[0]]!r}")
        if math.isnan(lower) or math.isnan(upper):
            fault = "NaN bound for {!r}"
        elif lower > upper:
            fault = f"inverted bounds for {{!r}}: [{lower}, {upper}]"
        elif kind == BINARY and not (lower in (0.0, 1.0) and upper in (0.0, 1.0)):
            fault = "binary variable {!r} must have bounds in {{0,1}}"
        else:
            fault = None
        fresh: set[str] = set()
        for name in names:
            if name in self._names or name in fresh:
                raise ValueError(f"duplicate variable name {name!r}")
            if fault:
                raise ValueError(fault.format(name))
            fresh.add(name)
        old, k = self._columns, len(names)
        self._columns = Columns(np.concatenate([old.names, np.array(names, dtype=object)]),
                                np.concatenate([old.binary, np.full(k, kind == BINARY)]),
                                np.concatenate([old.lower, np.full(k, float(lower))]),
                                np.concatenate([old.upper, np.full(k, float(upper))]),
                                np.concatenate([old.cost, cost]))
        self._names |= fresh
        return range(len(old), len(old) + k)

    def add_rows(self, cols, coefs, sense, rhs, lengths=None) -> range:
        """Append k rows: row i is
        ``sum_j coefs[i][j] * x[cols[i][j]]  sense[i]  rhs[i]``.

        `cols` and `coefs` hold the terms of the rows, as (k, L) arrays or as
        k sequences of any length, or, given the k row `lengths`, flat: the
        terms of every row, row after row.  `sense` is one sense for every
        row or k of them, and `rhs` one value or k.  The checks of
        :meth:`_check_rows` run once over all rows; when one fails, nothing
        is appended and the error names the first offending row by the id
        it would have had.  The new rows and the old ones go into fresh
        arrays, so copies of this model keep their rows.  Returns the ids of
        the new rows.
        """
        if lengths is None:
            cols, lengths = flatten_rows(cols, np.int64)
            coefs, coef_lengths = flatten_rows(coefs, float)
        else:
            cols, coefs = np.asarray(cols, dtype=np.int64), np.asarray(coefs, dtype=float)
            lengths = np.asarray(lengths, dtype=np.int64)
            coef_lengths = lengths if (cols.shape == coefs.shape == (lengths.sum(),)
                                       and np.all(lengths >= 0)) else None
        k = len(lengths)
        if isinstance(sense, str):
            senses = [sense] * k
            codes = np.full(k, _SENSE_CODE.get(sense, -1), dtype=np.int8)
        else:
            senses = list(sense)
            codes = np.array([_SENSE_CODE.get(s, -1) for s in senses], dtype=np.int8)
        rhs = np.asarray(rhs, dtype=float)
        rhs = np.full(k, rhs) if rhs.ndim == 0 else rhs
        if not np.array_equal(lengths, coef_lengths) or len(senses) != k or rhs.shape != (k,):
            raise ValueError("add_rows needs coefs, a sense and a right-hand side "
                             "for each row of cols")
        self._check_rows(cols, coefs, lengths, codes, senses, rhs)
        old = self._rows
        m = len(old.rhs)
        self._rows = Rows(np.concatenate([old.starts, old.starts[-1] + np.cumsum(lengths)]),
                          np.concatenate([old.cols, cols]),
                          np.concatenate([old.coefs, coefs]),
                          np.concatenate([old.sense, codes]),
                          np.concatenate([old.rhs, rhs]))
        return range(m, m + k)

    def _check_rows(self, cols, coefs, lengths, codes, senses, rhs) -> None:
        """Raise ValueError for the first of these faults, naming the first
        row that has it: an unknown sense, an empty row, a non-finite
        right-hand side, an unknown variable id, a variable repeated within
        a row, a non-finite coefficient."""
        n, names = len(self._columns), self._columns.names
        row_of = np.repeat(np.arange(len(lengths)), lengths)
        # Sorted (row, variable) keys; equal neighbours repeat a variable.
        keys = np.sort(row_of * n + cols)
        faults = [
            (np.flatnonzero(codes < 0),
             lambda i: (i, f"unknown constraint sense {senses[i]!r}")),
            (np.flatnonzero(lengths == 0),
             lambda i: (i, "constraint must have at least one term")),
            (np.flatnonzero(~np.isfinite(rhs)),
             lambda i: (i, f"non-finite right-hand side {float(rhs[i])}")),
            (np.flatnonzero((cols < 0) | (cols >= n)),
             lambda e: (row_of[e], f"constraint references unknown variable id {cols[e]}")),
            (keys[1:][keys[1:] == keys[:-1]],
             lambda key: (key // n,
                          f"duplicate variable {names[key % n]!r} in constraint terms")),
            (np.flatnonzero(~np.isfinite(coefs)),
             lambda e: (row_of[e], f"non-finite coefficient on {names[cols[e]]!r}")),
        ]
        for hits, locate in faults:
            if len(hits):
                i, message = locate(hits[0])
                raise ValueError(f"{message} (row {len(self._rows.rhs) + int(i)})")

    def copy(self) -> "Model":
        m = Model()
        m._names = set(self._names)
        m._columns = self._columns
        m._rows = self._rows
        return m


def lp_relaxation(model: Model) -> Model:
    """Copy of `model` with every binary variable turned continuous.

    Binary bounds are already within [0, 1], and bounds collapsed by
    :func:`apply_fixings` survive the relaxation.
    """
    relaxed = model.copy()
    cols = model.variables
    relaxed._columns = replace(cols, binary=np.zeros(len(cols), dtype=bool))
    return relaxed


def apply_fixings(model: Model, fixings: dict[int, float]) -> Model:
    """Copy of `model` with each fixed variable's bounds collapsed to the value.

    Binary variables may only be fixed to 0 or 1 (within 1e-6).
    """
    fixed, cols = model.copy(), model.variables
    lower, upper = cols.lower.copy(), cols.upper.copy()
    for vid, value in fixings.items():
        if not 0 <= vid < len(cols):
            raise ValueError(f"fixing references unknown variable id {vid}")
        name, lo, hi = cols.names[vid], float(cols.lower[vid]), float(cols.upper[vid])
        if value < lo - 1e-9 or value > hi + 1e-9:
            raise ValueError(f"fixing {name!r} = {value} outside bounds [{lo}, {hi}]")
        if cols.binary[vid] and min(abs(value), abs(value - 1.0)) > 1e-6:
            raise ValueError(f"fixing binary {name!r} to fractional value {value}")
        lower[vid] = upper[vid] = float(value)
    fixed._columns = replace(cols, lower=lower, upper=upper)
    return fixed


def _fmt(x: float) -> str:
    return repr(float(x))


def _texts(values: np.ndarray, *formats) -> np.ndarray:
    """The text of each entry of `values` under each of `formats`, as a
    (len(values), len(formats)) object array.  Each distinct value is
    formatted once; values are told apart by their bits, so 0.0 and -0.0
    keep their own texts."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    table = np.array([[f(x) for f in formats] for x in bits.view(np.float64).tolist()],
                     dtype=object).reshape(len(bits), len(formats))
    return table[inverse]


def _lines(names: np.ndarray, starts, cols, coefs, head, tails=()) -> list[str]:
    """One line per row of the CSR arrays `starts`, `cols`, `coefs`: the
    columns `head(ids)` of rows `ids`, the row's terms (``coef name``, then
    ``+ coef name`` or ``- |coef| name`` for each further term), and the
    row's entry of each object array in `tails`.  Rows of one length are
    written together, with one `str.join` per row."""
    lead, rest = _texts(coefs, lambda c: f"{_fmt(c)} ",
                        lambda c: f" - {_fmt(-c)} " if c < 0 else f" + {_fmt(c)} ").T
    # The first term of a row carries no sign of its own.
    rest[starts[:-1]] = lead[starts[:-1]]
    lengths = np.diff(starts)
    lines = np.empty(len(lengths), dtype=object)
    for width in np.unique(lengths).tolist():
        ids = np.flatnonzero(lengths == width)
        entries = starts[ids] + np.arange(width)[:, None]
        columns = head(ids)
        # Per term position j: the coefficient texts, then the names.
        columns += itertools.chain.from_iterable(
            zip(rest[entries].tolist(), names[cols[entries]].tolist()))
        columns += [tail[ids].tolist() for tail in tails]
        lines[ids] = list(map("".join, zip(*columns)))
    return lines.tolist()


# Rows rendered and written at a time by export_lp_text, which holds the
# text of one block, not of the file.  On the 12x8 strong export, blocks of
# 1,024 rows were slower and blocks of 65,536 slower and larger.
_EXPORT_BLOCK_ROWS = 8192

_SENSE_TEXTS = np.array([f" {s} " for s in SENSES], dtype=object)


def _row_lines(names: np.ndarray, rows: Rows, a: int, b: int) -> list[str]:
    """The lines ``c<i>: terms sense rhs`` of rows ``a:b`` of `rows`."""
    starts = rows.starts[a:b + 1]
    entries = slice(starts[0], starts[-1])
    return _lines(names, starts - starts[0], rows.cols[entries], rows.coefs[entries],
                  lambda ids: [itertools.repeat(" c"), map(str, (ids + a).tolist()),
                               itertools.repeat(": ")],
                  (_SENSE_TEXTS[rows.sense[a:b]], _texts(rows.rhs[a:b], _fmt)[:, 0]))


def _pair_text(names: np.ndarray, pairs: np.ndarray, a: int) -> str:
    """The lines ``c<a + i>: 1.0 <name> + 1.0 <name> <= 1.0``, each ended by a
    newline, of the rows ``x_p + x_q <= 1`` given as the (k, 2) id array
    `pairs`.  Each run of rows with one first id p is one line template with
    p's name written in (a ``%`` in it doubled), repeated; one ``%`` fills
    all of them with the row numbers and the names of the second ids."""
    first = pairs[:, 0]
    runs = np.flatnonzero(np.concatenate([[True], first[1:] != first[:-1]]))
    template = "".join(
        (" c%d: 1.0 " + name.replace("%", "%%") + " + 1.0 %s <= 1.0\n") * count
        for name, count in zip(names[first[runs]].tolist(),
                               np.diff(runs, append=len(first)).tolist()))
    args: list = [None] * (2 * len(pairs))
    args[0::2] = range(a, a + len(pairs))
    args[1::2] = names[pairs[:, 1]].tolist()
    return template % tuple(args)


def export_lp_text(model: Model, out: TextIO, pairs: np.ndarray | None = None) -> None:
    """Write `model` to the text stream `out` in the de-facto LP text format
    (Minimize / Subject To / Bounds / Binaries).

    Deterministic: variables appear in id order, the objective line with
    the variables of nonzero cost only (``obj: 0`` when there are none),
    constraints are named ``c0, c1, ...`` in insertion order, coefficients
    use shortest exact reprs.
    `pairs`, an int64 (k, 2) array of variable ids such as
    ``confl.strengthening_pairs`` returns, adds the rows ``x_a + x_b <= 1``
    after the model's m rows, named ``c<m>`` on: the bytes are those of the
    model with the pairs appended by :meth:`Model.add_rows`, without that
    model.  The rows are written in blocks of ``_EXPORT_BLOCK_ROWS``, so the
    export never holds the text of the whole file; in a block of pairs, each
    run of rows that share their first id is one template, and one ``%``
    fills them all (:func:`_pair_text`).  `pairs` that are not a 2-D integer
    array of two columns of distinct ids of the model raise ValueError first.
    """
    cols = model.variables
    names = cols.names
    if pairs is not None and not (isinstance(pairs, np.ndarray) and pairs.ndim == 2
                                  and pairs.shape[1] == 2 and pairs.dtype.kind in "iu"):
        raise ValueError("pairs must be a 2-D integer array with two columns")
    if pairs is not None and pairs.size and not (
            0 <= pairs.min() and pairs.max() < len(names)
            and np.all(pairs[:, 0] != pairs[:, 1])):
        raise ValueError("pairs must hold two distinct variable ids per row")
    lines = ["Minimize"]
    costed = np.flatnonzero(cols.cost)
    if len(costed):
        lines += _lines(names, np.array([0, len(costed)]), costed, cols.cost[costed],
                        lambda ids: [[" obj: "]])
    else:
        lines.append(" obj: 0")
    lines.append("Subject To")
    out.write("\n".join(lines) + "\n")
    rows = model.constraints
    m = len(rows.rhs)
    for a in range(0, m, _EXPORT_BLOCK_ROWS):
        out.write("\n".join(_row_lines(names, rows, a, min(a + _EXPORT_BLOCK_ROWS, m))) + "\n")
    for a in range(0, 0 if pairs is None else len(pairs), _EXPORT_BLOCK_ROWS):
        out.write(_pair_text(names, pairs[a:a + _EXPORT_BLOCK_ROWS], m + a))
    lower = _texts(cols.lower, _fmt)[:, 0].tolist()
    upper = _texts(cols.upper, lambda x: "+inf" if x == math.inf else _fmt(x))[:, 0].tolist()
    lines = ["Bounds", *map(" {} <= {} <= {}".format, lower, names.tolist(), upper)]
    if cols.binary.any():
        lines += ["Binaries", *(" " + name for name in names[cols.binary].tolist())]
    lines.append("End")
    out.write("\n".join(lines) + "\n")

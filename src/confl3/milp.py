"""Solver-agnostic MILP intermediate representation.

A :class:`Model` is a flat list of variables (binary or continuous, with
bounds), a block of linear rows and a minimization objective.  A row is its
column ids and its coefficients, nothing else: the rows are one immutable
:class:`Rows` value of CSR-style row starts, column ids and coefficients,
plus a sense and a right-hand side for each row, all read-only arrays.
:meth:`Model.add_rows` appends rows given in that form, as (k, L) arrays
or as k sequences (:func:`flatten_rows` reads both); its checks run over
all of them, a failed check appends nothing, and an append replaces the
model's `Rows` value by a new one.  :attr:`Model.constraints` hands that
value to the consumers (:func:`export_lp_text`, ``simplex.prepare``).

Models are built through :meth:`Model.add_variable` and :meth:`Model.add_rows`
and treated as immutable afterwards: every transformation
(:func:`lp_relaxation`, :func:`apply_fixings`) returns a fresh copy.  Copies
share the `Rows` value, so a copy may append (as the strengthening does)
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


@dataclass(frozen=True)
class Variable:
    id: int
    name: str
    kind: str
    lower: float
    upper: float


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
        self.variables: list[Variable] = []
        self.objective: dict[int, float] = {}
        self._names: set[str] = set()
        self._rows = _NO_ROWS

    @property
    def constraints(self) -> Rows:
        """This model's rows as read-only arrays."""
        return self._rows

    def add_variable(self, name: str, kind: str, lower: float, upper: float) -> int:
        if kind not in (BINARY, CONTINUOUS):
            raise ValueError(f"unknown variable kind {kind!r}")
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        if math.isnan(lower) or math.isnan(upper):
            raise ValueError(f"NaN bound for {name!r}")
        if lower > upper:
            raise ValueError(f"inverted bounds for {name!r}: [{lower}, {upper}]")
        if kind == BINARY and not (lower in (0.0, 1.0) and upper in (0.0, 1.0)):
            raise ValueError(f"binary variable {name!r} must have bounds in {{0,1}}")
        vid = len(self.variables)
        self.variables.append(Variable(vid, name, kind, float(lower), float(upper)))
        self._names.add(name)
        return vid

    def add_rows(self, cols, coefs, sense, rhs) -> range:
        """Append k rows: row i is
        ``sum_j coefs[i][j] * x[cols[i][j]]  sense[i]  rhs[i]``.

        `cols` and `coefs` hold the terms of the rows, as (k, L) arrays or as
        k sequences of any length; `sense` is one sense for every row or k of
        them, and `rhs` one value or k.  The checks of :meth:`_check_rows`
        run once over all rows; when one fails, nothing is appended and the
        error names the first offending row by the id it would have had.
        The new rows and the old ones go into fresh arrays, so copies of
        this model keep their rows.  Returns the ids of the new rows.
        """
        cols, lengths = flatten_rows(cols, np.int64)
        coefs, coef_lengths = flatten_rows(coefs, float)
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
        n = len(self.variables)
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
                          f"duplicate variable {self.variables[key % n].name!r} in constraint terms")),
            (np.flatnonzero(~np.isfinite(coefs)),
             lambda e: (row_of[e], f"non-finite coefficient on {self.variables[cols[e]].name!r}")),
        ]
        for hits, locate in faults:
            if len(hits):
                i, message = locate(hits[0])
                raise ValueError(f"{message} (row {len(self._rows.rhs) + int(i)})")

    def set_objective_coef(self, vid: int, cost: float) -> None:
        if not 0 <= vid < len(self.variables):
            raise ValueError(f"objective references unknown variable id {vid}")
        self.objective[vid] = self.objective.get(vid, 0.0) + float(cost)

    def binary_ids(self) -> list[int]:
        return [v.id for v in self.variables if v.kind == BINARY]

    def copy(self) -> "Model":
        m = Model()
        m.variables = list(self.variables)
        m.objective = dict(self.objective)
        m._names = set(self._names)
        m._rows = self._rows
        return m


def lp_relaxation(model: Model) -> Model:
    """Copy of `model` with every binary variable turned continuous.

    Binary bounds are already within [0, 1], and bounds collapsed by
    :func:`apply_fixings` survive the relaxation.
    """
    relaxed = model.copy()
    relaxed.variables = [
        replace(v, kind=CONTINUOUS) if v.kind == BINARY else v for v in model.variables
    ]
    return relaxed


def apply_fixings(model: Model, fixings: dict[int, float]) -> Model:
    """Copy of `model` with each fixed variable's bounds collapsed to the value.

    Binary variables may only be fixed to 0 or 1 (within 1e-6).
    """
    fixed = model.copy()
    variables = list(model.variables)
    for vid, value in fixings.items():
        if not 0 <= vid < len(variables):
            raise ValueError(f"fixing references unknown variable id {vid}")
        var = variables[vid]
        if value < var.lower - 1e-9 or value > var.upper + 1e-9:
            raise ValueError(
                f"fixing {var.name!r} = {value} outside bounds [{var.lower}, {var.upper}]"
            )
        if var.kind == BINARY and min(abs(value), abs(value - 1.0)) > 1e-6:
            raise ValueError(f"fixing binary {var.name!r} to fractional value {value}")
        variables[vid] = replace(var, lower=float(value), upper=float(value))
    fixed.variables = variables
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
    `pairs`: one line template repeated k times and filled by one ``%``."""
    args: list = [None] * (3 * len(pairs))
    args[0::3] = range(a, a + len(pairs))
    args[1::3] = names[pairs[:, 0]].tolist()
    args[2::3] = names[pairs[:, 1]].tolist()
    return (" c%d: 1.0 %s + 1.0 %s <= 1.0\n" * len(pairs)) % tuple(args)


def export_lp_text(model: Model, out: TextIO, pairs: np.ndarray | None = None) -> None:
    """Write `model` to the text stream `out` in the de-facto LP text format
    (Minimize / Subject To / Bounds / Binaries).

    Deterministic: variables appear in insertion order, constraints are named
    ``c0, c1, ...`` in insertion order, coefficients use shortest exact reprs.
    `pairs`, an int64 (k, 2) array of variable ids such as
    ``confl.strengthening_pairs`` returns, adds the rows ``x_a + x_b <= 1``
    after the model's m rows, named ``c<m>`` on: the bytes are those of the
    model with the pairs appended by :meth:`Model.add_rows`, without that
    model.  The rows are written in blocks of ``_EXPORT_BLOCK_ROWS``, so the
    export never holds the text of the whole file; a block of pairs is one
    filled template (:func:`_pair_text`).  `pairs` that are not a 2-D integer
    array of two columns of distinct ids of the model raise ValueError first.
    """
    names = np.array([v.name for v in model.variables], dtype=object)
    if pairs is not None and not (isinstance(pairs, np.ndarray) and pairs.ndim == 2
                                  and pairs.shape[1] == 2 and pairs.dtype.kind in "iu"):
        raise ValueError("pairs must be a 2-D integer array with two columns")
    if pairs is not None and pairs.size and not (
            0 <= pairs.min() and pairs.max() < len(names)
            and np.all(pairs[:, 0] != pairs[:, 1])):
        raise ValueError("pairs must hold two distinct variable ids per row")
    lines = ["Minimize"]
    if model.objective:
        objective = np.fromiter(model.objective.values(), dtype=float)
        lines += _lines(names, np.array([0, len(objective)]),
                        np.fromiter(model.objective, dtype=np.int64), objective,
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
    lines = ["Bounds"]
    for var in model.variables:
        lo = "-inf" if var.lower == -math.inf else _fmt(var.lower)
        hi = "+inf" if var.upper == math.inf else _fmt(var.upper)
        lines.append(f" {lo} <= {var.name} <= {hi}")
    binaries = [v.name for v in model.variables if v.kind == BINARY]
    if binaries:
        lines.append("Binaries")
        for name in binaries:
            lines.append(f" {name}")
    lines.append("End")
    out.write("\n".join(lines) + "\n")

"""Row and column helpers for tests.  A row of a model is its column ids
and its coefficients (plus a sense and a right-hand side), stored in the
model's :class:`confl3.milp.Rows` arrays; these helpers append one row and
read rows back in that form, and read variables back from the model's
:class:`confl3.milp.Columns` arrays."""

from __future__ import annotations

from confl3.milp import SENSES, Columns, Model, Rows


def add_row(model: Model, terms, sense: str, rhs: float) -> int:
    """Append ``sum(coef * x[vid] for vid, coef in terms) sense rhs`` to
    `model` through :meth:`Model.add_rows`; the new row's id."""
    return model.add_rows([[vid for vid, _ in terms]], [[coef for _, coef in terms]],
                          sense, rhs)[0]


def row(rows: Rows, i: int) -> tuple[tuple[tuple[int, float], ...], str, float]:
    """Row `i` of `rows` as ``(terms, sense, rhs)``: its (column id,
    coefficient) pairs in insertion order, its sense and right-hand side."""
    a, b = rows.starts[i], rows.starts[i + 1]
    terms = tuple(zip(rows.cols[a:b].tolist(), rows.coefs[a:b].tolist()))
    return terms, SENSES[rows.sense[i]], float(rows.rhs[i])


def row_list(rows: Rows) -> list:
    """Every row of `rows`, each as :func:`row` reads it."""
    return [row(rows, i) for i in range(len(rows))]



def column_list(cols: Columns) -> list[tuple[str, bool, float, float]]:
    """Every variable of `cols` as ``(name, binary, lower, upper)``, by id."""
    return list(zip(cols.names.tolist(), cols.binary.tolist(), cols.lower.tolist(),
                    cols.upper.tolist()))

"""Solver-agnostic MILP intermediate representation.

A :class:`Model` is a flat list of variables (binary or continuous, with
bounds), a list of linear constraints and a minimization objective.  Models
are built through :meth:`Model.add_variable` / :meth:`Model.add_constraint`
and treated as immutable afterwards: every transformation
(:func:`lp_relaxation`, :func:`apply_fixings`) returns a fresh copy that
shares the untouched constraint rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

BINARY = "binary"
CONTINUOUS = "continuous"

LE = "<="
EQ = "="
GE = ">="
SENSES = (LE, EQ, GE)


@dataclass(frozen=True)
class Variable:
    id: int
    name: str
    kind: str
    lower: float
    upper: float


@dataclass(frozen=True)
class LinearConstraint:
    """`sum(coef * var) sense rhs`; tag records which model family the row
    came from (e.g. ``"SIR(f0,u3)"``) for diagnostics."""

    terms: tuple[tuple[int, float], ...]
    sense: str
    rhs: float
    tag: str = ""


# Total map variable id -> value, as returned by the solvers.
Assignment = dict[int, float]


@dataclass
class Model:
    variables: list[Variable] = field(default_factory=list)
    constraints: list[LinearConstraint] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)
    _names: set[str] = field(default_factory=set, repr=False)

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

    def add_constraint(
        self,
        terms: list[tuple[int, float]] | tuple[tuple[int, float], ...],
        sense: str,
        rhs: float,
        tag: str = "",
    ) -> int:
        if sense not in SENSES:
            raise ValueError(f"unknown constraint sense {sense!r}")
        if not terms:
            raise ValueError("constraint must have at least one term")
        if not math.isfinite(rhs):
            raise ValueError(f"non-finite right-hand side {rhs}")
        seen: set[int] = set()
        for vid, coef in terms:
            if not 0 <= vid < len(self.variables):
                raise ValueError(f"constraint references unknown variable id {vid}")
            if vid in seen:
                raise ValueError(
                    f"duplicate variable {self.variables[vid].name!r} in constraint terms"
                )
            if not math.isfinite(coef):
                raise ValueError(f"non-finite coefficient on {self.variables[vid].name!r}")
            seen.add(vid)
        cid = len(self.constraints)
        self.constraints.append(
            LinearConstraint(tuple((v, float(c)) for v, c in terms), sense, float(rhs), tag)
        )
        return cid

    def set_objective_coef(self, vid: int, cost: float) -> None:
        if not 0 <= vid < len(self.variables):
            raise ValueError(f"objective references unknown variable id {vid}")
        self.objective[vid] = self.objective.get(vid, 0.0) + float(cost)

    def binary_ids(self) -> list[int]:
        return [v.id for v in self.variables if v.kind == BINARY]

    def copy(self) -> "Model":
        m = Model()
        m.variables = list(self.variables)
        m.constraints = list(self.constraints)
        m.objective = dict(self.objective)
        m._names = set(self._names)
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


def evaluate(
    model: Model, assignment: Assignment, tol: float = 1e-6
) -> tuple[float, list[tuple[int, float]]]:
    """Exact objective plus every constraint violated by more than `tol`.

    Returns ``(objective, [(constraint id, violation amount), ...])``.
    The assignment must be total.
    """
    missing = [v.name for v in model.variables if v.id not in assignment]
    if missing:
        raise ValueError(f"partial assignment, missing {len(missing)} values (e.g. {missing[0]!r})")
    objective = sum(cost * assignment[vid] for vid, cost in model.objective.items())
    violations: list[tuple[int, float]] = []
    for cid, con in enumerate(model.constraints):
        lhs = sum(coef * assignment[vid] for vid, coef in con.terms)
        if con.sense == LE:
            excess = lhs - con.rhs
        elif con.sense == GE:
            excess = con.rhs - lhs
        else:
            excess = abs(lhs - con.rhs)
        if excess > tol:
            violations.append((cid, excess))
    return objective, violations


def _fmt(x: float) -> str:
    return repr(float(x))


def _terms_text(terms) -> str:
    parts: list[str] = []
    for i, (name, coef) in enumerate(terms):
        if i == 0:
            parts.append(f"{_fmt(coef)} {name}")
        elif coef < 0:
            parts.append(f"- {_fmt(-coef)} {name}")
        else:
            parts.append(f"+ {_fmt(coef)} {name}")
    return " ".join(parts)


def export_lp_text(model: Model) -> str:
    """Emit the de-facto LP text format (Minimize / Subject To / Bounds / Binaries).

    Deterministic: variables appear in insertion order, constraints are named
    ``c0, c1, ...`` in insertion order, coefficients use shortest exact reprs.
    """
    lines = ["Minimize"]
    obj_terms = [(model.variables[vid].name, cost) for vid, cost in model.objective.items()]
    lines.append(" obj: " + (_terms_text(obj_terms) if obj_terms else "0"))
    lines.append("Subject To")
    for cid, con in enumerate(model.constraints):
        named = [(model.variables[vid].name, coef) for vid, coef in con.terms]
        lines.append(f" c{cid}: {_terms_text(named)} {con.sense} {_fmt(con.rhs)}")
    lines.append("Bounds")
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
    return "\n".join(lines) + "\n"

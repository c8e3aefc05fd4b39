"""Testpoint-grid instance generation, JSON serialization and gap reports.

The generator discretizes a rectangular service area into pixels, puts
users at pixel centers and network nodes at lattice points, wires the core
with a k-nearest proximity graph plus office-facility arcs, and derives
wireless fading from a capped power-law path-loss model.

An instance document holds `meta` (the format tag and the name) and then
one key per other field of :class:`~confl3.confl.Instance`; each record in
it is an object of its :mod:`confl3.confl` dataclass's fields, in field
order.  :func:`write_instance` and :func:`read_instance` walk those fields,
so the dataclasses are the schema's one statement: a field's annotation
says how its value is written and checked.  Only `meta` is laid out by
hand.
"""

from __future__ import annotations

import csv as csvlib
import functools
import io
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .confl import (
    AssignmentArc,
    CentralOffice,
    CoreArc,
    Facility,
    Instance,
    SteinerNode,
    TECHNOLOGIES,
    UnattainableCoverageError,
    User,
    WirelessParams,
    check_attainable,
    validate_instance,
)
from .bnb import ogap

FORMAT_TAG = "confl3-instance/1"

# Cost model of generated instances: opening cost ranges per technology,
# the central-office cost range, and arc costs per pixel of length.
FACILITY_COST_RANGES = {1: (8.0, 16.0), 2: (5.0, 10.0), 3: (3.0, 8.0)}
OFFICE_COST_RANGE = (10.0, 20.0)
CORE_COST_PER_PX = 1.0
ASSIGN_COST_PER_PX = {1: 1.0, 2: 0.7, 3: 0.4}


class SchemaError(ValueError):
    """Instance document violates the schema; message names the field path."""


@dataclass
class GeneratorParams:
    grid_width: int = 25
    grid_height: int = 18
    n_facilities: int = 30
    n_central_offices: int = 5
    n_steiner: int = 8
    users_per_pixel: float = 1.0   # probability that a pixel hosts a user
    radii: dict[int, float] = field(default_factory=lambda: {1: 4.0, 2: 6.0, 3: 8.0})
    knn: int = 4
    coverage_fractions: dict[int, float] = field(
        default_factory=lambda: {1: 0.2, 2: 0.5, 3: 0.8}
    )
    p_min: float = 0.1
    p_max: float = 1.0
    delta: float = 2.0
    eta_noise: float = 0.05
    pathloss_exponent: float = 3.0
    max_retries: int = 20

    def validate(self) -> None:
        if min(self.grid_width, self.grid_height) < 1:
            raise ValueError("grid must be at least 1x1")
        if min(self.n_facilities, self.n_central_offices) < 1:
            raise ValueError("need at least one facility and one central office")
        if self.n_steiner < 0:
            raise ValueError("n_steiner must be >= 0")
        if not 0 < self.users_per_pixel <= 1:
            raise ValueError("users_per_pixel must be in (0, 1]")
        for name in ("radii", "coverage_fractions"):
            if set(getattr(self, name)) != set(TECHNOLOGIES):
                raise ValueError(f"{name}: technologies 1, 2 and 3 required, got "
                                 f"{sorted(getattr(self, name))}")
        fr = self.coverage_fractions
        for t, f in fr.items():
            if not 0 <= f <= 1:
                raise ValueError(f"coverage_fractions[{t}] must be in [0, 1]")
        if fr[1] > fr[2]:
            raise ValueError("coverage_fractions: fraction_1 <= fraction_2 required")
        for t, r in self.radii.items():
            if not (math.isfinite(r) and r > 0):
                raise ValueError(f"radii[{t}] must be a finite positive number, got {r}")
        if self.pathloss_exponent <= 0:
            raise ValueError("pathloss_exponent must be > 0")
        if self.knn < 1:
            raise ValueError("knn must be >= 1")


def generate(params: GeneratorParams, seed: int) -> Instance:
    """Deterministic instance for (params, seed); draws again, up to
    `max_retries` draws in all, while :func:`confl3.confl.check_attainable`
    finds a coverage threshold that every opening at once does not reach,
    counting openings on better technologies as the coverage rows do."""
    params.validate()
    rng = np.random.default_rng(seed)
    last_error = None
    for _ in range(params.max_retries):
        instance = _generate_once(params, rng, seed)
        try:
            check_attainable(instance)
        except UnattainableCoverageError as exc:
            last_error = exc
            continue
        validate_instance(instance)
        return instance
    raise ValueError(
        f"could not generate an attainable instance after {params.max_retries} tries; "
        f"the last: {last_error}"
    )


def _generate_once(params: GeneratorParams, rng: np.random.Generator, seed: int) -> Instance:
    users = []
    k = 0
    for py in range(params.grid_height):
        for px in range(params.grid_width):
            if rng.random() < params.users_per_pixel:
                users.append(User(f"u{k}", 1.0, (px + 0.5, py + 0.5)))
                k += 1

    lattice = [
        (float(ix), float(iy))
        for iy in range(params.grid_height + 1)
        for ix in range(params.grid_width + 1)
    ]
    n_nodes = params.n_facilities + params.n_central_offices + params.n_steiner
    if n_nodes > len(lattice):
        raise ValueError("grid too small for the requested node counts")
    picks = rng.choice(len(lattice), size=n_nodes, replace=False)
    positions = [lattice[i] for i in picks]
    facilities = []
    for i in range(params.n_facilities):
        costs = {
            t: float(rng.uniform(lo, hi))
            for t, (lo, hi) in sorted(FACILITY_COST_RANGES.items())
        }
        facilities.append(Facility(f"f{i}", positions[i], costs))
    offices = [
        CentralOffice(
            f"g{i}", float(rng.uniform(*OFFICE_COST_RANGE))
        )
        for i in range(params.n_central_offices)
    ]
    office_pos = positions[params.n_facilities : params.n_facilities + params.n_central_offices]
    steiner = [SteinerNode(f"s{i}") for i in range(params.n_steiner)]
    steiner_pos = positions[params.n_facilities + params.n_central_offices :]

    core_ids = [f.id for f in facilities] + [o.id for o in offices] + [s.id for s in steiner]
    core_pos = [f.position for f in facilities] + office_pos + steiner_pos
    edges: set[tuple[str, str]] = set()
    pts = np.array(core_pos)
    for i in range(len(core_ids)):
        dists = np.linalg.norm(pts - pts[i], axis=1)
        dists[i] = math.inf  # sorts last, so the cap below excludes self
        order = np.argsort(dists, kind="stable")
        for j in order[: min(params.knn, len(core_ids) - 1)]:
            edges.add((core_ids[i], core_ids[int(j)]))
            edges.add((core_ids[int(j)], core_ids[i]))
    for oi, office in enumerate(offices):
        for f in facilities:
            edges.add((office.id, f.id))
            edges.add((f.id, office.id))
    pos_by_id = dict(zip(core_ids, core_pos))
    core_arcs = [
        CoreArc(tail, head, CORE_COST_PER_PX * _dist(pos_by_id[tail], pos_by_id[head]))
        for tail, head in sorted(edges)
    ]

    assignment_arcs: dict[int, list[AssignmentArc]] = {}
    for t, radius in sorted(params.radii.items()):
        arcs = []
        for f in facilities:
            for u in users:
                d = _dist(f.position, u.position)
                if d <= radius:
                    arcs.append(AssignmentArc(f.id, u.id, ASSIGN_COST_PER_PX[t] * d))
        assignment_arcs[t] = arcs

    total = sum(u.weight for u in users)
    thresholds = {
        t: frac * total for t, frac in sorted(params.coverage_fractions.items())
    }

    fading = {}
    for f in facilities:
        for u in users:
            d = _dist(f.position, u.position)
            fading[f.id, u.id] = min(1.0, (1.0 / d) ** params.pathloss_exponent)
    wireless = WirelessParams(
        p_min=params.p_min,
        p_max=params.p_max,
        delta=params.delta,
        eta_noise=params.eta_noise,
        fading=fading,
    )
    return Instance(
        users=users,
        facilities=facilities,
        central_offices=offices,
        steiner_nodes=steiner,
        core_arcs=core_arcs,
        assignment_arcs=assignment_arcs,
        coverage_thresholds=thresholds,
        wireless=wireless,
        name=f"grid{params.grid_width}x{params.grid_height}-seed{seed}",
    )


def _dist(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


# --- serialization ---------------------------------------------------------
#
# An annotation is a str, a finite float, a position (a list of two
# numbers), a list of records, a map keyed by technology, a record, or the
# fading map, an object per facility of an entry per user.


@functools.cache
def _fields(cls) -> tuple[tuple[str, object], ...]:
    """(name, annotation) of each field of record type `cls`, in field order."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def _write(value, hint, instance: Instance):
    """The JSON form of `value`, annotated `hint`; the fading map follows
    the order of `instance`'s facilities and users."""
    if hint is float or hint is str:
        return value
    if is_dataclass(hint):
        return {name: _write(getattr(value, name), h, instance) for name, h in _fields(hint)}
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:
        return list(value)
    if origin is list:
        return [_write(item, args[0], instance) for item in value]
    if origin is dict and args[0] is int:
        return {str(t): _write(item, args[1], instance) for t, item in sorted(value.items())}
    # The fading map, by facility then user in the instance's order.
    return {f.id: {u.id: value[f.id, u.id] for u in instance.users}
            for f in instance.facilities}


def write_instance(instance: Instance) -> str:
    doc = _write(instance, Instance, instance)
    meta = {"format": FORMAT_TAG, "name": doc.pop("name")}
    return json.dumps({"meta": meta, **doc}, indent=1)


def _number(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaError(f"{path}: expected a number")
    try:
        number = float(value)
    except OverflowError:   # a JSON integer beyond the float range
        raise SchemaError(f"{path}: expected a finite number, "
                          "got an integer too large for a float") from None
    if not math.isfinite(number):
        raise SchemaError(f"{path}: expected a finite number, got {value}")
    return number


def _by_technology(doc: dict, path: str, read) -> dict:
    """``read(value, key)`` for each entry of `doc`, keyed by technology.
    Each key must be an integer that names no technology named before."""
    out = {}
    for key, value in doc.items():
        try:
            t = int(key)
        except ValueError:
            raise SchemaError(f"{path}: technology key {key!r} is not an integer") from None
        if t in out:
            raise SchemaError(f"{path}: technology key {key!r} repeats technology {t}")
        out[t] = read(value, key)
    return out


def _read(value, hint, path: str):
    """`value` read as annotated `hint`: its JSON type is checked, then
    its content.  A record in a list is found not to be an object by
    :func:`_need`, as it reads the record's first field."""
    if hint is float:
        return _number(value, path)
    if hint is str:
        if not isinstance(value, str):
            raise SchemaError(f"{path}: expected str")
        return value
    origin, args = get_origin(hint), get_args(hint)
    record = is_dataclass(hint)
    kind = list if origin is tuple else dict if record else origin or hint
    if not isinstance(value, kind):
        raise SchemaError(f"{path}: expected {kind.__name__}")
    if origin is tuple:
        if len(value) != 2:
            raise SchemaError(f"{path}: expected two numbers, got {len(value)} entries")
        return tuple(_number(p, f"{path}[{k}]") for k, p in enumerate(value))
    if origin is list:
        return [_record(item, args[0], f"{path}[{i}]") for i, item in enumerate(value)]
    if origin is dict and args[0] is int:
        return _by_technology(value, path, lambda item, t: _read(item, args[1], f"{path}.{t}"))
    if origin is dict:   # the fading map: facility -> user -> coefficient
        fading = {}
        for fid, row in value.items():
            if not isinstance(row, dict):
                raise SchemaError(f"{path}.{fid}: expected object")
            for uid, number in row.items():
                fading[fid, uid] = _number(number, f"{path}.{fid}.{uid}")
        return fading
    if record:
        return _record(value, hint, path)
    return value


def _record(doc, cls, path: str):
    return cls(*[_need(doc, name, hint, path) for name, hint in _fields(cls)])


def _need(doc: dict, key: str, kind, path: str):
    if not isinstance(doc, dict):
        raise SchemaError(f"{path or 'top level'}: expected an object")
    if key not in doc:
        raise SchemaError(f"missing field {path}.{key}" if path else f"missing field {key}")
    return _read(doc[key], kind, f"{path}.{key}" if path else key)


def read_instance(text: str) -> Instance:
    """The instance of a document, checked against the schema only: types,
    finite numbers and technology keys (:class:`SchemaError` names the
    field).  :func:`confl3.confl.build_3confl` checks the instance's shape."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    meta = _need(doc, "meta", dict, "")
    if meta.get("format", FORMAT_TAG) != FORMAT_TAG:
        raise SchemaError(f"meta.format: expected {FORMAT_TAG!r}, got {meta['format']!r}")
    name = meta.get("name", "instance")
    if not isinstance(name, str):
        raise SchemaError("meta.name: expected str")
    return Instance(name=name, **{key: _need(doc, key, hint, "")
                                  for key, hint in _fields(Instance) if key != "name"})


# --- gap report -------------------------------------------------------------


@dataclass(frozen=True)
class ResultRow:
    instance_id: str
    gap_reference: float   # percent
    gap_heuristic: float   # percent

    @property
    def delta_gap(self) -> float | None:
        """The relative gap change in percent; None when the reference gap
        is 0, which no relative change is defined against."""
        if self.gap_reference == 0:
            return None
        return 100.0 * (self.gap_heuristic - self.gap_reference) / self.gap_reference


def gap_row(instance_id: str, reference: float, heuristic: float,
            *lower_bounds: float) -> ResultRow:
    """The row of one instance: the reference and the heuristic objective's
    gaps, each by :func:`ogap` in percent, against the largest of
    `lower_bounds`.  Each is a valid bound on the same optimum, so the
    largest is too, and it is the tightest.  A bound above an objective by
    more than :func:`ogap` forgives means one of the documents is wrong,
    and raises ``ValueError``."""
    lower = max(lower_bounds)
    return ResultRow(instance_id, 100.0 * ogap(reference, lower),
                     100.0 * ogap(heuristic, lower))


def report(rows: list[ResultRow], csv: bool = False) -> str:
    """Aligned text table (or CSV) of reference vs heuristic gaps with the
    relative gap change per row and its average in the footer.  The rows
    come from :func:`gap_row`, so both gaps of a row are measured against
    the larger of the two documents' lower bounds.  A row
    without a relative change shows ``n/a`` (an empty CSV field) and is
    left out of the average.  The CSV is the stdlib writer's, so a name
    holding a comma or a quote stays one quoted field."""
    for row in rows:
        if row.gap_reference < 0 or row.gap_heuristic < 0:
            raise ValueError(
                f"row {row.instance_id!r}: gaps must be nonnegative, got "
                f"{row.gap_reference} and {row.gap_heuristic}"
            )

    def delta(row: ResultRow, missing: str) -> str:
        return missing if row.delta_gap is None else f"{row.delta_gap:.2f}"

    if csv:
        out = io.StringIO()
        writer = csvlib.writer(out, lineterminator="\n")
        writer.writerow(["id", "gap_reference", "gap_heuristic", "delta_gap"])
        writer.writerows([row.instance_id, f"{row.gap_reference:.2f}",
                          f"{row.gap_heuristic:.2f}", delta(row, "")] for row in rows)
        return out.getvalue()

    header = ("ID", "Gap-Ref%", "Gap-Heu%", "ΔGap%")
    body = [
        (
            row.instance_id,
            f"{row.gap_reference:.2f}",
            f"{row.gap_heuristic:.2f}",
            delta(row, "n/a"),
        )
        for row in rows
    ]
    deltas = [r.delta_gap for r in rows if r.delta_gap is not None]
    footer = ("avg", "", "", f"{np.mean(deltas):.2f}" if deltas else "n/a")
    widths = [
        max(len(col[i]) for col in [header, footer] + body) for i in range(4)
    ]
    def fmt(cells):
        return "  ".join(c.rjust(w) if i else c.ljust(w) for i, (c, w) in enumerate(zip(cells, widths)))

    lines = [fmt(header)]
    lines.append("-" * len(lines[0]))
    lines += [fmt(cells) for cells in body]
    lines.append("-" * len(lines[0]))
    lines.append(fmt(footer))
    return "\n".join(lines) + "\n"

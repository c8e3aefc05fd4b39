"""Testpoint-grid instance generation, JSON serialization and gap reports.

The generator discretizes a rectangular service area into pixels, puts
users at pixel centers and network nodes at lattice points, wires the core
with a k-nearest proximity graph plus office-facility arcs, and derives
wireless fading from a capped power-law path-loss model.
"""

from __future__ import annotations

import csv as csvlib
import io
import json
import math
from dataclasses import dataclass, field

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


def write_instance(instance: Instance) -> str:
    doc = {
        "meta": {"format": FORMAT_TAG, "name": instance.name},
        "users": [
            {"id": u.id, "weight": u.weight, "position": list(u.position)}
            for u in instance.users
        ],
        "facilities": [
            {
                "id": f.id,
                "position": list(f.position),
                "open_cost": {str(t): c for t, c in sorted(f.open_cost.items())},
            }
            for f in instance.facilities
        ],
        "central_offices": [
            {"id": c.id, "open_cost": c.open_cost} for c in instance.central_offices
        ],
        "steiner_nodes": [{"id": s.id} for s in instance.steiner_nodes],
        "core_arcs": [
            {"tail": a.tail, "head": a.head, "cost": a.cost} for a in instance.core_arcs
        ],
        "assignment_arcs": {
            str(t): [
                {"facility": a.facility, "user": a.user, "cost": a.cost} for a in arcs
            ]
            for t, arcs in sorted(instance.assignment_arcs.items())
        },
        "coverage_thresholds": {
            str(t): w for t, w in sorted(instance.coverage_thresholds.items())
        },
        "wireless": {
            "p_min": instance.wireless.p_min,
            "p_max": instance.wireless.p_max,
            "delta": instance.wireless.delta,
            "eta_noise": instance.wireless.eta_noise,
            "fading": _fading_doc(instance),
        },
    }
    return json.dumps(doc, indent=1)


def _fading_doc(instance: Instance) -> dict:
    out: dict[str, dict[str, float]] = {}
    for f in instance.facilities:
        out[f.id] = {u.id: instance.wireless.fading[f.id, u.id] for u in instance.users}
    return out


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


def _position(doc: dict, path: str) -> tuple[float, float]:
    pos = _need(doc, "position", list, path)
    if len(pos) != 2:
        raise SchemaError(f"{path}.position: expected two numbers, got {len(pos)} entries")
    return tuple(_number(p, f"{path}.position[{k}]") for k, p in enumerate(pos))


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


def _need(doc: dict, key: str, kind, path: str):
    if not isinstance(doc, dict):
        raise SchemaError(f"{path or 'top level'}: expected an object")
    if key not in doc:
        raise SchemaError(f"missing field {path}.{key}" if path else f"missing field {key}")
    value = doc[key]
    if kind is float:
        return _number(value, f"{path + '.' if path else ''}{key}")
    if not isinstance(value, kind):
        raise SchemaError(f"{path + '.' if path else ''}{key}: expected {kind.__name__}")
    return value


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

    users = []
    for i, u in enumerate(_need(doc, "users", list, "")):
        path = f"users[{i}]"
        users.append(
            User(
                _need(u, "id", str, path),
                _need(u, "weight", float, path),
                _position(u, path),
            )
        )
    facilities = []
    for i, f in enumerate(_need(doc, "facilities", list, "")):
        path = f"facilities[{i}]"
        costs = _by_technology(_need(f, "open_cost", dict, path), f"{path}.open_cost",
                               lambda c, t: _number(c, f"{path}.open_cost.{t}"))
        facilities.append(
            Facility(_need(f, "id", str, path), _position(f, path), costs)
        )
    offices = [
        CentralOffice(
            _need(c, "id", str, f"central_offices[{i}]"),
            _need(c, "open_cost", float, f"central_offices[{i}]"),
        )
        for i, c in enumerate(_need(doc, "central_offices", list, ""))
    ]
    steiner = [
        SteinerNode(_need(s, "id", str, f"steiner_nodes[{i}]"))
        for i, s in enumerate(_need(doc, "steiner_nodes", list, ""))
    ]
    core_arcs = [
        CoreArc(
            _need(a, "tail", str, f"core_arcs[{i}]"),
            _need(a, "head", str, f"core_arcs[{i}]"),
            _need(a, "cost", float, f"core_arcs[{i}]"),
        )
        for i, a in enumerate(_need(doc, "core_arcs", list, ""))
    ]

    def read_arcs(arcs, t):
        if not isinstance(arcs, list):
            raise SchemaError(f"assignment_arcs.{t}: expected list")
        return [
            AssignmentArc(
                _need(a, "facility", str, f"assignment_arcs.{t}[{i}]"),
                _need(a, "user", str, f"assignment_arcs.{t}[{i}]"),
                _need(a, "cost", float, f"assignment_arcs.{t}[{i}]"),
            )
            for i, a in enumerate(arcs)
        ]

    assignment_arcs = _by_technology(_need(doc, "assignment_arcs", dict, ""),
                                     "assignment_arcs", read_arcs)
    thresholds = _by_technology(_need(doc, "coverage_thresholds", dict, ""),
                                "coverage_thresholds",
                                lambda w, t: _number(w, f"coverage_thresholds.{t}"))

    raw = _need(doc, "wireless", dict, "")
    fading = {}
    for fid, row in _need(raw, "fading", dict, "wireless").items():
        if not isinstance(row, dict):
            raise SchemaError(f"wireless.fading.{fid}: expected object")
        for uid, value in row.items():
            fading[fid, uid] = _number(value, f"wireless.fading.{fid}.{uid}")
    wireless = WirelessParams(
        p_min=_need(raw, "p_min", float, "wireless"),
        p_max=_need(raw, "p_max", float, "wireless"),
        delta=_need(raw, "delta", float, "wireless"),
        eta_noise=_need(raw, "eta_noise", float, "wireless"),
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
        name=name,
    )


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

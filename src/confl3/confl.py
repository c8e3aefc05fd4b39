"""The 3-architecture connected facility location model.

An :class:`Instance` has exactly the three technologies of
:data:`TECHNOLOGIES`, fiber, copper and wireless, and the wireless
parameters; :func:`validate_instance` refuses any other shape.  This module
builds the flow-based MILP of an instance, including the big-M
signal-to-interference rows and the semi-continuous power bounds for the
wireless tier, detects the two families of strengthening inequalities
(lone-blocker and pairwise-conflict rows), and re-verifies full solutions
directly against the raw instance data.  Rows are written as
:class:`~confl3.milp.Model` takes them, column ids and coefficients: the
builder adds each variable family with one :meth:`Model.add_variables`
call and appends all row families with one :meth:`Model.add_rows` call.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .milp import BINARY, CONTINUOUS, EQ, GE, LE, Assignment, Model, flatten_rows

TECH_FIBER = 1
TECH_COPPER = 2
TECH_WIRELESS = 3
TECHNOLOGIES = (TECH_FIBER, TECH_COPPER, TECH_WIRELESS)

ROOT_ID = "r"

_ID_RE = re.compile(r"[A-Za-z0-9]+\Z")


@dataclass
class User:
    id: str
    weight: float
    position: tuple[float, float]


@dataclass
class Facility:
    id: str
    position: tuple[float, float]
    open_cost: dict[int, float]  # technology -> cost


@dataclass
class CentralOffice:
    id: str
    open_cost: float


@dataclass
class SteinerNode:
    id: str


@dataclass
class CoreArc:
    tail: str
    head: str
    cost: float


@dataclass
class AssignmentArc:
    facility: str
    user: str
    cost: float


@dataclass
class WirelessParams:
    p_min: float
    p_max: float
    delta: float          # SIR threshold (linear)
    eta_noise: float      # system noise (power units)
    fading: dict[tuple[str, str], float]  # (facility, user) -> coefficient


@dataclass
class Instance:
    users: list[User]
    facilities: list[Facility]
    central_offices: list[CentralOffice]
    steiner_nodes: list[SteinerNode]
    core_arcs: list[CoreArc]
    assignment_arcs: dict[int, list[AssignmentArc]]  # technology -> arcs
    coverage_thresholds: dict[int, float]            # technology -> W_t
    wireless: WirelessParams
    name: str = "instance"

    def total_weight(self) -> float:
        return sum(u.weight for u in self.users)


class UnattainableCoverageError(ValueError):
    """No solution meets the coverage thresholds; the message says why."""


def opening_reach(instance: Instance) -> dict[tuple[str, int], float]:
    """Weight each (facility, technology) opening reaches: the summed
    weight of the users its assignment arcs on that technology serve."""
    weights = {u.id: u.weight for u in instance.users}
    reach = {(f.id, t): 0.0 for f in instance.facilities for t in TECHNOLOGIES}
    for t in TECHNOLOGIES:
        for a in instance.assignment_arcs.get(t, []):
            reach[a.facility, t] += weights[a.user]
    return reach


def reached_weight(reach: dict[tuple[str, int], float], openings, tech: int) -> float:
    """Weight `openings`, (facility, technology) pairs, reach toward the
    threshold of `tech`: openings on every technology ``t <= tech`` count,
    as in the model's coverage rows, and a user once per opening that
    reaches it, so this is an optimistic potential, not a service plan."""
    return sum(reach[f, t] for f, t in openings if t <= tech)


def covers(instance: Instance, reach: dict[tuple[str, int], float], openings,
           tech: int) -> bool:
    """Whether `openings` reach the coverage threshold of `tech`."""
    return reached_weight(reach, openings, tech) >= instance.coverage_thresholds[tech] - 1e-9


def check_attainable(instance: Instance) -> dict[tuple[str, int], float]:
    """The :func:`opening_reach` of `instance`, once it has checked it:
    raise :class:`UnattainableCoverageError` naming the first technology
    whose threshold every opening at once does not reach.

    A screen, not a feasibility test: it ignores that a facility opens on
    one technology only and that a user is served once, so an instance it
    passes can be infeasible.  One it refuses has no solution."""
    reach = opening_reach(instance)
    for t in TECHNOLOGIES:
        if not covers(instance, reach, reach, t):
            raise UnattainableCoverageError(
                f"coverage threshold for technology {t} is unattainable: needs "
                f"{instance.coverage_thresholds[t]}, every opening on technologies "
                f"<= {t} reaches weight {reached_weight(reach, reach, t)}")
    return reach


def _finite(value: float, path: str) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{path}: expected a finite number, got {value}")


def validate_instance(instance: Instance) -> None:
    """Raise ValueError naming the offending field when an invariant fails;
    first that the instance has the one shape the model has: thresholds for
    exactly the technologies 1, 2 and 3, and wireless parameters."""
    if set(instance.coverage_thresholds) != set(TECHNOLOGIES):
        raise ValueError(f"coverage_thresholds: technologies 1, 2 and 3 required, got "
                         f"{sorted(instance.coverage_thresholds)}")
    if instance.wireless is None:
        raise ValueError("wireless: parameters required")
    ids: list[str] = []
    for kind, items in (
        ("users", instance.users),
        ("facilities", instance.facilities),
        ("central_offices", instance.central_offices),
        ("steiner_nodes", instance.steiner_nodes),
    ):
        for item in items:
            if not _ID_RE.match(item.id):
                raise ValueError(f"{kind}: id {item.id!r} must match [A-Za-z0-9]+")
            if item.id == ROOT_ID:
                raise ValueError(f"{kind}: id {ROOT_ID!r} is reserved for the artificial root")
            ids.append(item.id)
    if len(set(ids)) != len(ids):
        dup = next(i for i in ids if ids.count(i) > 1)
        raise ValueError(f"duplicate node id {dup!r}")

    for u in instance.users:
        _finite(u.weight, f"users[{u.id}].weight")
        if u.weight < 0:
            raise ValueError(f"users[{u.id}].weight must be >= 0")
    for f in instance.facilities:
        if set(f.open_cost) != set(TECHNOLOGIES):
            raise ValueError(f"facilities[{f.id}].open_cost: technologies 1, 2 and 3 "
                             f"required, got {sorted(f.open_cost)}")
        for t in TECHNOLOGIES:
            _finite(f.open_cost[t], f"facilities[{f.id}].open_cost[{t}]")
            if f.open_cost[t] < 0:
                raise ValueError(f"facilities[{f.id}].open_cost[{t}] must be >= 0")
    for co in instance.central_offices:
        _finite(co.open_cost, f"central_offices[{co.id}].open_cost")
        if co.open_cost < 0:
            raise ValueError(f"central_offices[{co.id}].open_cost must be >= 0")

    core_ids = {f.id for f in instance.facilities}
    core_ids |= {c.id for c in instance.central_offices}
    core_ids |= {s.id for s in instance.steiner_nodes}
    seen_arcs: set[tuple[str, str]] = set()
    for a in instance.core_arcs:
        if a.tail not in core_ids or a.head not in core_ids:
            raise ValueError(f"core_arcs: ({a.tail!r}, {a.head!r}) must join core nodes")
        if a.tail == a.head:
            raise ValueError(f"core_arcs: ({a.tail!r}, {a.head!r}) is a loop")
        _finite(a.cost, f"core_arcs[{a.tail}->{a.head}].cost")
        if a.cost < 0:
            raise ValueError(f"core_arcs[{a.tail}->{a.head}].cost must be >= 0")
        if (a.tail, a.head) in seen_arcs:
            raise ValueError(f"core_arcs: duplicate arc ({a.tail!r}, {a.head!r})")
        seen_arcs.add((a.tail, a.head))

    user_ids = {u.id for u in instance.users}
    fac_ids = {f.id for f in instance.facilities}
    for t, arcs in instance.assignment_arcs.items():
        if t not in TECHNOLOGIES:
            raise ValueError(f"assignment_arcs: unknown technology {t}")
        seen: set[tuple[str, str]] = set()
        for a in arcs:
            if a.facility not in fac_ids:
                raise ValueError(f"assignment_arcs[{t}]: unknown facility {a.facility!r}")
            if a.user not in user_ids:
                raise ValueError(f"assignment_arcs[{t}]: unknown user {a.user!r}")
            _finite(a.cost, f"assignment_arcs[{t}][{a.facility}->{a.user}].cost")
            if a.cost < 0:
                raise ValueError(f"assignment_arcs[{t}][{a.facility}->{a.user}].cost must be >= 0")
            if (a.facility, a.user) in seen:
                raise ValueError(
                    f"assignment_arcs[{t}]: duplicate arc ({a.facility!r}, {a.user!r})"
                )
            seen.add((a.facility, a.user))

    total = instance.total_weight()
    for t, w_t in instance.coverage_thresholds.items():
        if not 0 <= w_t <= total + 1e-9:
            raise ValueError(f"coverage_thresholds[{t}]={w_t} outside [0, W={total}]")
    if instance.coverage_thresholds[TECH_FIBER] > instance.coverage_thresholds[TECH_COPPER]:
        raise ValueError("coverage_thresholds: W_1 <= W_2 required")

    w = instance.wireless
    for key in ("p_min", "p_max", "delta", "eta_noise"):
        _finite(getattr(w, key), f"wireless.{key}")
    if not 0 <= w.p_min <= w.p_max:
        raise ValueError("wireless: 0 <= p_min <= p_max required")
    if w.delta <= 0:
        raise ValueError("wireless.delta must be > 0")
    if w.eta_noise <= 0:
        raise ValueError("wireless.eta_noise must be > 0")
    for f in instance.facilities:
        for u in instance.users:
            a = w.fading.get((f.id, u.id))
            if a is None:
                raise ValueError(f"wireless.fading missing ({f.id!r}, {u.id!r})")
            if not 0.0 <= a <= 1.0:
                raise ValueError(f"wireless.fading[({f.id!r}, {u.id!r})]={a} outside [0, 1]")


@dataclass
class ConflModel:
    model: Model
    arcs: list[tuple[str, str, float]]              # root arcs first, then core arcs
    z: dict[tuple[str, int], int]
    x: dict[tuple[str, str], int]
    y: dict[tuple[str, str, int], int]
    v: dict[tuple[str, int], int]
    flow: dict[tuple[str, str, str], int]
    power: dict[str, int]
    strengthening_rows: int = 0


def build_3confl(instance: Instance) -> ConflModel:
    """The model over technologies {1, 2, 3}: wired tiers plus wireless with
    per-(facility, user) big-M SIR rows and semi-continuous power bounds.
    The one gate of an instance, read or built by hand: :func:`validate_instance`
    runs first, so an instance of another shape raises before a model exists.
    Each variable family is added with its costs by one call, and all
    row families are appended by one :meth:`Model.add_rows` call."""
    validate_instance(instance)
    w = instance.wireless
    m = Model()
    arcs = [(ROOT_ID, co.id, co.open_cost) for co in instance.central_offices]
    arcs += [(a.tail, a.head, a.cost) for a in instance.core_arcs]

    keys = [(f.id, t) for f in instance.facilities for t in TECHNOLOGIES]
    z = dict(zip(keys, m.add_variables([f"z_{f}_t{t}" for f, t in keys], BINARY, 0, 1,
                                       [f.open_cost[t] for f in instance.facilities
                                        for t in TECHNOLOGIES])))

    x = dict(zip([(tail, head) for tail, head, _ in arcs],
                 m.add_variables([f"x_{tail}_{head}" for tail, head, _ in arcs], BINARY, 0, 1,
                                 [cost for _, _, cost in arcs])))

    assigned = [(a, t) for t in TECHNOLOGIES for a in instance.assignment_arcs.get(t, [])]
    y = dict(zip([(a.facility, a.user, t) for a, t in assigned],
                 m.add_variables([f"y_{a.facility}_{a.user}_t{t}" for a, t in assigned],
                                 BINARY, 0, 1, [a.cost for a, _ in assigned])))

    keys = [(u.id, t) for u in instance.users for t in TECHNOLOGIES]
    v = dict(zip(keys, m.add_variables([f"v_{u}_t{t}" for u, t in keys], BINARY, 0, 1)))

    keys = [(tail, head, f.id) for tail, head, _ in arcs for f in instance.facilities]
    flow = dict(zip(keys, m.add_variables([f"phi_{tail}_{head}_{f}" for tail, head, f in keys],
                                          CONTINUOUS, 0.0, 1.0)))

    power = dict(zip([f.id for f in instance.facilities],
                     m.add_variables([f"p_{f.id}" for f in instance.facilities],
                                     CONTINUOUS, 0.0, w.p_max)))

    # Every row family in the flat form of Model.add_rows (terms, senses,
    # right-hand sides, row lengths), appended by one call at the end.
    families = []

    def add_family(cols, coefs, sense, rhs, lengths=None):
        if lengths is None:
            cols, lengths = flatten_rows(cols, np.int64)
            coefs = flatten_rows(coefs, float)[0]
        k = len(lengths)
        families.append((cols, coefs, [sense] * k if isinstance(sense, str) else sense,
                         np.broadcast_to(np.asarray(rhs, dtype=float), k), lengths))

    # Facility opens on at most one technology.
    single = np.array([[z[f.id, t] for t in TECHNOLOGIES] for f in instance.facilities])
    add_family(single, np.ones(single.shape), LE, 1.0)

    # A served user has exactly one active assignment arc on its technology.
    arcs_of: dict[tuple[str, int], list[int]] = {}
    for (fid, uid, t), yid in y.items():
        arcs_of.setdefault((uid, t), []).append(yid)
    served = [(arcs_of.get((u.id, t), []), v[u.id, t])
              for u in instance.users for t in TECHNOLOGIES]
    add_family([yids + [vid] for yids, vid in served],
               [[1.0] * len(yids) + [-1.0] for yids, _ in served], EQ, 0.0)

    # Assignment arcs only out of facilities opened on that technology.
    linking = np.array([(yid, z[fid, t]) for (fid, uid, t), yid in y.items()])
    add_family(linking, np.tile([1.0, -1.0], (len(linking), 1)), LE, 0.0)

    # Coverage requirement; users on a better technology tau <= t count too.
    if instance.users:
        add_family([[v[u.id, tau] for u in instance.users for tau in TECHNOLOGIES if tau <= t]
                    for t in TECHNOLOGIES],
                   [[u.weight for u in instance.users for tau in TECHNOLOGIES if tau <= t]
                    for t in TECHNOLOGIES],
                   GE, [instance.coverage_thresholds[t] for t in TECHNOLOGIES])

    # Unit of flow from the artificial root to each opened facility,
    # one commodity per facility.  A node with no arcs and no demand, such
    # as an isolated Steiner node, has an empty row (0 = 0) and gets none.
    core_nodes = [ROOT_ID]
    core_nodes += [c.id for c in instance.central_offices]
    core_nodes += [f.id for f in instance.facilities]
    core_nodes += [s.id for s in instance.steiner_nodes]
    in_arcs: dict[str, list[tuple[str, str]]] = {n: [] for n in core_nodes}
    out_arcs: dict[str, list[tuple[str, str]]] = {n: [] for n in core_nodes}
    for tail, head, _ in arcs:
        out_arcs[tail].append((tail, head))
        in_arcs[head].append((tail, head))
    balance_cols, balance_coefs = [], []
    for f in instance.facilities:
        for node in core_nodes:
            cols = [flow[t_, h_, f.id] for t_, h_ in in_arcs[node] + out_arcs[node]]
            coefs = [1.0] * len(in_arcs[node]) + [-1.0] * len(out_arcs[node])
            if node in (ROOT_ID, f.id):
                cols += [z[f.id, t] for t in TECHNOLOGIES]
                coefs += [1.0 if node == ROOT_ID else -1.0] * len(TECHNOLOGIES)
            if cols:
                balance_cols.append(cols)
                balance_coefs.append(coefs)
    add_family(balance_cols, balance_coefs, EQ, 0.0)

    # Flow only on installed arcs.
    capacity = np.array([(flow[tail, head, f.id], x[tail, head])
                         for tail, head, _ in arcs for f in instance.facilities])
    add_family(capacity, np.tile([1.0, -1.0], (len(capacity), 1)), LE, 0.0)

    # SIR rows, deactivated through big-M when the assignment is off.  The
    # row of wireless arc j, serving u from f, is
    #     a_fu p_f - delta sum_k a_ku p_k - M_j y_j >= delta eta - M_j
    # over the other facilities k with a_ku != 0, in facility order, where
    # M_j = delta eta + delta sum_{k != f} a_ku p_max is the tightest
    # constant that silences the row when y_j = 0 (server silent, every
    # interferer at full power), summed one facility after another in
    # instance order.  All of it comes from `gains`, the fading of each
    # facility (down) to the user of each wireless arc (across).
    wireless = instance.assignment_arcs.get(TECH_WIRELESS, [])
    user_at = {u.id: j for j, u in enumerate(instance.users)}
    fac_at = {f.id: k for k, f in enumerate(instance.facilities)}
    nf = len(instance.facilities)
    fading = np.array([[w.fading[f.id, u.id] for u in instance.users]
                       for f in instance.facilities], dtype=float).reshape(nf, len(user_at))
    gains = fading[:, [user_at[a.user] for a in wireless]]
    server = np.array([fac_at[a.facility] for a in wireless], dtype=np.int64)
    other = server != np.arange(nf)[:, None]
    interference = np.zeros(len(wireless))
    for k in range(nf):
        interference += np.where(other[k], gains[k] * w.p_max, 0.0)
    big_m = w.delta * w.eta_noise + w.delta * interference
    # Each arc's candidate terms: its server's power, every facility's
    # power, its y; `keep` drops the server and the silent ones from the
    # middle.
    power_ids = np.array([power[f.id] for f in instance.facilities], dtype=np.int64)
    cols = np.empty((len(wireless), nf + 2), dtype=np.int64)
    cols[:, 0] = power_ids[server]
    cols[:, 1:-1] = power_ids
    cols[:, -1] = [y[a.facility, a.user, TECH_WIRELESS] for a in wireless]
    coefs = np.column_stack([gains[server, np.arange(len(wireless))], (-w.delta * gains).T,
                             -big_m])
    keep = np.ones(cols.shape, dtype=bool)
    keep[:, 1:-1] = (other & (gains != 0.0)).T
    add_family(cols[keep], coefs[keep], GE, w.delta * w.eta_noise - big_m, keep.sum(axis=1))

    # Semi-continuous power: p_min z <= p <= p_max z, each facility's two
    # rows in turn.
    pz = np.array([(power[f.id], z[f.id, TECH_WIRELESS]) for f in instance.facilities])
    add_family(np.repeat(pz, 2, axis=0),
               np.tile([[1.0, -w.p_max], [1.0, -w.p_min]], (len(pz), 1)), [LE, GE] * len(pz), 0.0)

    cols, coefs, senses, rhs, lengths = zip(*families)
    m.add_rows(np.concatenate(cols), np.concatenate(coefs), list(itertools.chain(*senses)),
               np.concatenate(rhs), np.concatenate(lengths))
    return ConflModel(m, arcs, z, x, y, v, flow, power)


def _wireless_ranks(instance: Instance) -> tuple[list[str], np.ndarray, np.ndarray,
                                                 np.ndarray]:
    """The sorted facility ids; the ranks of each wireless arc's facility and
    user among the sorted facility and user ids; and the (facilities x
    users) fading array over those ranks."""
    w = instance.wireless
    arcs = instance.assignment_arcs.get(TECH_WIRELESS, [])
    fac_ids = sorted(f.id for f in instance.facilities)
    user_ids = sorted(u.id for u in instance.users)
    fac_rank = {f: k for k, f in enumerate(fac_ids)}
    user_rank = {u: k for k, u in enumerate(user_ids)}
    frank = np.array([fac_rank[a.facility] for a in arcs], dtype=np.int64)
    urank = np.array([user_rank[a.user] for a in arcs], dtype=np.int64)
    fading = np.array([[w.fading[f, u] for u in user_ids] for f in fac_ids],
                      dtype=float).reshape(len(fac_ids), len(user_ids))
    return fac_ids, frank, urank, fading


_PAIR_TOL = 1e-9  # the pair tests' slack on every bound and requirement


def _one_step_conflicts(a1, b1, a2, b2, w: WirelessParams) -> np.ndarray:
    """The pairs, given as to :func:`_pair_block_feasible`, that one step of
    the interference iteration (Yates, IEEE JSAC 13, 1995) proves to
    conflict.  Fading is at least 0 and delta above 0, so every point that
    test accepts has ``a_i (p_max + tol) >= a_i p_i >= delta eta - tol +
    delta b_i (p_min - tol)``; a pair where the right side exceeds ``a_i
    (p_max + 2 tol)`` for i = 1 or 2 has none.  Compared multiplied by a_i,
    not divided by it, the bound needs no care for fadings of 0."""
    floor, low = w.delta * w.eta_noise - _PAIR_TOL, w.delta * (w.p_min - _PAIR_TOL)
    cap = w.p_max + 2 * _PAIR_TOL
    return (floor + low * b1 > cap * a1) | (floor + low * b2 > cap * a2)


def _pair_block_feasible(a1, b1, a2, b2, w: WirelessParams) -> np.ndarray:
    """Exact feasibility of the 2-facility power systems of many pairs of
    wireless services.

    a1, b1 are the serving/interfering fadings of the first service of each
    pair, a2, b2 those of the second; the four arrays broadcast together to
    the shape of the returned mask.  Each pair's candidate vertices of its
    power polygon are evaluated in closed form, 13 of them.
    :func:`_conflict_masks` passes it only the pairs that
    :func:`_one_step_conflicts` leaves open.
    """
    rhs = w.delta * w.eta_noise
    tol = _PAIR_TOL
    lo, hi = w.p_min, w.p_max

    def in_box(p):
        return (p >= lo - tol) & (p <= hi + tol)

    def ok(p1, p2):
        c1 = a1 * p1 - w.delta * b1 * p2 >= rhs - tol
        c2 = a2 * p2 - w.delta * b2 * p1 >= rhs - tol
        return in_box(p1) & in_box(p2) & c1 & c2

    with np.errstate(divide="ignore", invalid="ignore"):
        # both requirement lines
        det = a1 * a2 - w.delta**2 * b1 * b2
        p1 = rhs * (a2 + w.delta * b1) / det
        p2 = rhs * (a1 + w.delta * b2) / det
        feasible = np.where(np.abs(det) > 1e-14, ok(p1, p2), False)
        for c in (lo, hi):
            # first line against the box edges
            feasible |= ok(c, (a1 * c - rhs) / (w.delta * b1))
            feasible |= ok((rhs + w.delta * b1 * c) / a1, c)
            # second line against the box edges
            feasible |= ok(c, (rhs + w.delta * b2 * c) / a2)
            feasible |= ok((a2 * c - rhs) / (w.delta * b2), c)
        for c1 in (lo, hi):
            for c2 in (lo, hi):
                feasible |= ok(c1, c2)
    return feasible


def _conflict_masks(w: WirelessParams, frank: np.ndarray, urank: np.ndarray,
                    fading: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Conflict detection over the wireless arcs of :func:`_wireless_ranks`:
    the arcs' positions in (facility, user) id order, each facility's first
    place in that order (and the arc count last), and one mask per
    facility, True where a pair conflicts, of its arcs down the rows against
    every arc of the later facilities across the columns.  The pairs that
    :func:`_one_step_conflicts` leaves open (2 % on the 12x8 export preset)
    go to the vertex test :func:`_pair_block_feasible`, so the masks are
    those of that test alone; a block with no open pair skips the test."""
    order = np.lexsort((urank, frank))
    f, u = frank[order], urank[order]
    bounds = np.searchsorted(f, np.arange(len(fading) + 1))
    masks = []
    for k in range(len(fading)):
        first, later = bounds[k], bounds[k + 1]
        u1, f2, u2 = u[first:later], f[later:], u[later:]
        a1, b1 = fading[k, u1][:, None], fading[f2, u1[:, None]]
        a2, b2 = fading[f2, u2][None], fading[k, u2][None]
        mask = _one_step_conflicts(a1, b1, a2, b2, w)
        i, j = np.nonzero(~mask)
        if len(i):
            mask[i, j] = ~_pair_block_feasible(a1[i, 0], b1[i, j], a2[0, j], b2[0, j], w)
        masks.append(mask)
    return order, bounds, masks


def _pair_rows(head: np.ndarray, ids: np.ndarray, bounds: np.ndarray,
               masks: list[np.ndarray]) -> np.ndarray:
    """The int64 rows `head`, then one row ``[ids[a], ids[b]]`` per True
    entry of the masks of :func:`_conflict_masks`, where a and b are the two
    arcs' places in id order, block by block in row-major order: one
    (k, 2) array, allocated once k is known."""
    per_row = [np.count_nonzero(mask, axis=1) for mask in masks]
    out = np.empty((len(head) + sum(int(c.sum()) for c in per_row), 2), dtype=np.int64)
    out[:len(head)] = head
    row = len(head)
    for first, later, mask, count in zip(bounds, bounds[1:], masks, per_row):
        end = row + int(count.sum())
        out[row:end, 0] = np.repeat(ids[first:later], count)
        out[row:end, 1] = np.broadcast_to(ids[later:], mask.shape)[mask]
        row = end
    return out


def conflict_pairs(instance: Instance) -> np.ndarray:
    """Pairs of wireless service requirements that no in-bounds power vector
    satisfies together, as an int64 (k, 2) array of positions in
    ``instance.assignment_arcs[TECH_WIRELESS]``.

    Each pair puts the arc of the smaller facility id first, and the pairs
    are sorted by the ids (f1, u1, f2, u2) as strings: the order of sorting
    the id tuples, in which "u10" comes before "u2".  With the arcs ordered
    by their (facility, user) ids, one block per facility decides its arcs
    against every arc of the later facilities, and the block's row-major
    nonzeros already come in that order, so no sort runs over the pairs.  A
    one-step power bound decides most pairs, the vertex test the rest.
    """
    _, frank, urank, fading = _wireless_ranks(instance)
    order, bounds, masks = _conflict_masks(instance.wireless, frank, urank, fading)
    return _pair_rows(np.empty((0, 2), dtype=np.int64), order, bounds, masks)


def strengthening_pairs(confl: ConflModel, instance: Instance) -> np.ndarray:
    """The strengthening inequalities of the model as an int64 (k, 2) array
    of variable ids, row ``[a, b]`` for ``x_a + x_b <= 1``: first the
    lone-blocker rows ``y_fu3 + z_k3 <= 1``, for each wireless arc in turn
    and its blockers k in id order, then the conflict rows
    ``y_f1u1 + y_f2u2 <= 1`` in the order of :func:`conflict_pairs`.  Both
    are edges of a conflict graph (Atamtürk, Nemhauser & Savelsbergh,
    EJOR 121, 2000).  Both kinds are written into one array, allocated
    once the conflicts are known.

    A facility k != f is a lone blocker of the service of u by f when it
    alone denies that service even at its minimum power against the
    server's maximum power."""
    w = instance.wireless
    fac_ids, frank, urank, fading = _wireless_ranks(instance)
    a_fu, a_ku = fading[frank, urank][:, None], fading.T[urank]
    blocked = ((a_fu * w.p_max - w.delta * a_ku * w.p_min < w.delta * w.eta_noise)
               & (frank[:, None] != np.arange(len(fac_ids))))
    arc, k = np.nonzero(blocked)
    arcs = instance.assignment_arcs.get(TECH_WIRELESS, [])
    y_of_arc = np.array([confl.y[a.facility, a.user, TECH_WIRELESS] for a in arcs],
                        dtype=np.int64)
    z_of_fac = np.array([confl.z[f, TECH_WIRELESS] for f in fac_ids], dtype=np.int64)
    order, bounds, masks = _conflict_masks(w, frank, urank, fading)
    return _pair_rows(np.column_stack([y_of_arc[arc], z_of_fac[k]]), y_of_arc[order],
                      bounds, masks)


def strengthen(confl: ConflModel, instance: Instance) -> ConflModel:
    """Copy of the model with its :func:`strengthening_pairs` appended as
    rows ``x_a + x_b <= 1`` by one bulk append.  No command builds this
    model: ``export-lp --strong`` writes the pair array itself
    (``milp.export_lp_text(model, out, pairs)``).  Tests and the benchmark's
    root LP and export check still call it."""
    pairs = strengthening_pairs(confl, instance)
    m = confl.model.copy()
    m.add_rows(pairs, np.ones(pairs.shape), LE, 1.0)
    return replace(confl, model=m, strengthening_rows=len(pairs))


@dataclass
class VerificationReport:
    feasible: bool
    single_tech: list
    assignment: list
    linking: list
    coverage: list
    flow: list
    capacity: list
    sir: list
    power_bounds: list
    objective: float


# The tolerances of verify_solution: SIR ratios, flow balance and capacity,
# and every other family.
_SIR_TOL = 1e-6
_FLOW_TOL = 1e-9
_TOL = 1e-6


def verify_solution(instance: Instance, confl: ConflModel,
                    assignment: Assignment) -> VerificationReport:
    """Re-check every constraint family straight from the instance data.

    Deliberately independent of the Model rows: coverage, flow balance and
    SIR ratios are recomputed from users, arcs and fading coefficients.
    `assignment` is an array of one value per variable id.
    """
    n = len(confl.model.variables)
    if not isinstance(assignment, np.ndarray) or assignment.shape != (n,):
        raise ValueError(f"partial assignment: expected {n} variable values, got shape "
                         f"{np.shape(assignment)}")

    values = assignment.tolist()
    zval = {key: values[vid] for key, vid in confl.z.items()}
    xval = {key: values[vid] for key, vid in confl.x.items()}
    yval = {key: values[vid] for key, vid in confl.y.items()}
    vval = {key: values[vid] for key, vid in confl.v.items()}
    fval = {key: values[vid] for key, vid in confl.flow.items()}
    pval = {key: values[vid] for key, vid in confl.power.items()}

    single_tech = []
    for f in instance.facilities:
        total = sum(zval[f.id, t] for t in TECHNOLOGIES)
        if total > 1.0 + _TOL:
            single_tech.append((f.id, total - 1.0))

    assignment_viol = []
    for u in instance.users:
        for t in TECHNOLOGIES:
            lhs = sum(
                yval[a.facility, u.id, t]
                for a in instance.assignment_arcs.get(t, [])
                if a.user == u.id
            )
            residual = lhs - vval[u.id, t]
            if abs(residual) > _TOL:
                assignment_viol.append(((u.id, t), residual))

    linking = []
    for (fid, uid, t), value in yval.items():
        if value > zval[fid, t] + _TOL:
            linking.append(((fid, uid, t), value - zval[fid, t]))

    coverage = []
    for t in TECHNOLOGIES:
        got = sum(
            u.weight * vval[u.id, tau] for u in instance.users for tau in TECHNOLOGIES if tau <= t
        )
        if got < instance.coverage_thresholds[t] - _TOL:
            coverage.append((t, instance.coverage_thresholds[t] - got))

    flow_viol = []
    nodes = [ROOT_ID]
    nodes += [c.id for c in instance.central_offices]
    nodes += [f.id for f in instance.facilities]
    nodes += [s.id for s in instance.steiner_nodes]
    for f in instance.facilities:
        demand = sum(zval[f.id, t] for t in TECHNOLOGIES)
        for node in nodes:
            balance = 0.0
            for tail, head, _ in confl.arcs:
                if head == node:
                    balance += fval[tail, head, f.id]
                if tail == node:
                    balance -= fval[tail, head, f.id]
            if node == ROOT_ID:
                target = -demand
            elif node == f.id:
                target = demand
            else:
                target = 0.0
            if abs(balance - target) > _FLOW_TOL:
                flow_viol.append(((f.id, node), balance - target))

    capacity = []
    for (tail, head, fid), value in fval.items():
        if value > xval[tail, head] + _FLOW_TOL:
            capacity.append(((tail, head, fid), value - xval[tail, head]))
        if value < -_FLOW_TOL:
            capacity.append(((tail, head, fid), value))

    sir = []
    w = instance.wireless
    for (fid, uid, t), value in yval.items():
        if t != TECH_WIRELESS or value < 0.5:
            continue
        interference = w.eta_noise + sum(
            w.fading[k.id, uid] * pval[k.id]
            for k in instance.facilities
            if k.id != fid
        )
        ratio = w.fading[fid, uid] * pval[fid] / interference
        if ratio < w.delta - _SIR_TOL:
            sir.append(((fid, uid), w.delta - ratio))
    power_bounds = []
    for f in instance.facilities:
        z3 = zval[f.id, TECH_WIRELESS]
        p = pval[f.id]
        if p < w.p_min * z3 - _TOL:
            power_bounds.append((f.id, w.p_min * z3 - p))
        if p > w.p_max * z3 + _TOL:
            power_bounds.append((f.id, p - w.p_max * z3))

    objective = 0.0
    for (tail, head, cost) in confl.arcs:
        objective += cost * xval[tail, head]
    for f in instance.facilities:
        for t in TECHNOLOGIES:
            objective += f.open_cost[t] * zval[f.id, t]
    for t in TECHNOLOGIES:
        for a in instance.assignment_arcs.get(t, []):
            objective += a.cost * yval[a.facility, a.user, t]

    families = [
        single_tech,
        assignment_viol,
        linking,
        coverage,
        flow_viol,
        capacity,
        sir,
        power_bounds,
    ]
    return VerificationReport(
        feasible=all(not fam for fam in families),
        single_tech=single_tech,
        assignment=assignment_viol,
        linking=linking,
        coverage=coverage,
        flow=flow_viol,
        capacity=capacity,
        sir=sir,
        power_bounds=power_bounds,
        objective=objective,
    )

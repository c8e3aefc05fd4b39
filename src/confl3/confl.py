"""Connected facility location models for 2- and 3-architecture networks.

Builds the flow-based MILP for wired-only (technologies 1-2) and
wired+wireless (technologies 1-2-3) network design from an
:class:`Instance`, including the big-M signal-to-interference rows and the
semi-continuous power bounds for the wireless tier, detects the two
families of strengthening inequalities (lone-blocker and pairwise-conflict
rows), and re-verifies full solutions directly against the raw instance
data.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .milp import BINARY, CONTINUOUS, EQ, GE, LE, Assignment, Model

TECH_FIBER = 1
TECH_COPPER = 2
TECH_WIRELESS = 3

ROOT_ID = "r"

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")


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
    wireless: WirelessParams | None = None
    name: str = "instance"

    @property
    def technologies(self) -> tuple[int, ...]:
        return tuple(sorted(self.coverage_thresholds))

    def total_weight(self) -> float:
        return sum(u.weight for u in self.users)


class UnattainableCoverageError(ValueError):
    def __init__(self, technology: int, needed: float, available: float):
        self.technology = technology
        super().__init__(
            f"coverage threshold for technology {technology} is unattainable: "
            f"needs {needed}, reachable weight {available}"
        )


def check_attainable(instance: Instance) -> None:
    """Raise when some coverage threshold exceeds the total reachable weight
    of its technology, double counting users reachable from several
    facilities as the heuristic's completeness measure does (which can then
    never be met)."""
    weights = {u.id: u.weight for u in instance.users}
    for t in instance.technologies:
        available = sum(
            weights[a.user] for a in instance.assignment_arcs.get(t, [])
        )
        needed = instance.coverage_thresholds[t]
        if available < needed - 1e-9:
            raise UnattainableCoverageError(t, needed, available)


def validate_instance(instance: Instance) -> None:
    """Raise ValueError naming the offending field when an invariant fails."""
    ids: list[str] = []
    for kind, items in (
        ("users", instance.users),
        ("facilities", instance.facilities),
        ("central_offices", instance.central_offices),
        ("steiner_nodes", instance.steiner_nodes),
    ):
        for item in items:
            if not _ID_RE.match(item.id):
                raise ValueError(f"{kind}: id {item.id!r} must match [A-Za-z0-9_]+")
            if item.id == ROOT_ID:
                raise ValueError(f"{kind}: id {ROOT_ID!r} is reserved for the artificial root")
            ids.append(item.id)
    if len(set(ids)) != len(ids):
        dup = next(i for i in ids if ids.count(i) > 1)
        raise ValueError(f"duplicate node id {dup!r}")

    for u in instance.users:
        if u.weight < 0:
            raise ValueError(f"users[{u.id}].weight must be >= 0")
    techs = instance.technologies
    if not techs:
        raise ValueError("coverage_thresholds: at least one technology required")
    for f in instance.facilities:
        for t in techs:
            if t not in f.open_cost:
                raise ValueError(f"facilities[{f.id}].open_cost missing technology {t}")
            if f.open_cost[t] < 0:
                raise ValueError(f"facilities[{f.id}].open_cost[{t}] must be >= 0")
    for co in instance.central_offices:
        if co.open_cost < 0:
            raise ValueError(f"central_offices[{co.id}].open_cost must be >= 0")

    core_ids = {f.id for f in instance.facilities}
    core_ids |= {c.id for c in instance.central_offices}
    core_ids |= {s.id for s in instance.steiner_nodes}
    seen_arcs: set[tuple[str, str]] = set()
    for a in instance.core_arcs:
        if a.tail not in core_ids or a.head not in core_ids:
            raise ValueError(f"core_arcs: ({a.tail!r}, {a.head!r}) must join core nodes")
        if a.cost < 0:
            raise ValueError(f"core_arcs[{a.tail}->{a.head}].cost must be >= 0")
        if (a.tail, a.head) in seen_arcs:
            raise ValueError(f"core_arcs: duplicate arc ({a.tail!r}, {a.head!r})")
        seen_arcs.add((a.tail, a.head))

    user_ids = {u.id for u in instance.users}
    fac_ids = {f.id for f in instance.facilities}
    for t, arcs in instance.assignment_arcs.items():
        if t not in techs:
            raise ValueError(f"assignment_arcs: unknown technology {t}")
        seen: set[tuple[str, str]] = set()
        for a in arcs:
            if a.facility not in fac_ids:
                raise ValueError(f"assignment_arcs[{t}]: unknown facility {a.facility!r}")
            if a.user not in user_ids:
                raise ValueError(f"assignment_arcs[{t}]: unknown user {a.user!r}")
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
    if TECH_FIBER in techs and TECH_COPPER in techs:
        if instance.coverage_thresholds[TECH_FIBER] > instance.coverage_thresholds[TECH_COPPER]:
            raise ValueError("coverage_thresholds: W_1 <= W_2 required")

    if TECH_WIRELESS in techs:
        w = instance.wireless
        if w is None:
            raise ValueError("wireless: parameters required when technology 3 is present")
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
    instance: Instance
    technologies: tuple[int, ...]
    model: Model
    arcs: list[tuple[str, str, float]]              # root arcs first, then core arcs
    z: dict[tuple[str, int], int]
    x: dict[tuple[str, str], int]
    y: dict[tuple[str, str, int], int]
    v: dict[tuple[str, int], int]
    flow: dict[tuple[str, str, str], int]
    power: dict[str, int] = field(default_factory=dict)
    strengthening_rows: int = 0


class _RowBatch:
    """Rows collected one by one and appended to a model with one
    :meth:`Model.add_rows` call, which checks them all at once."""

    def __init__(self):
        self.cols: list[list[int]] = []
        self.coefs: list[list[float]] = []
        self.senses: list[str] = []
        self.rhs: list[float] = []

    def add(self, terms: list[tuple[int, float]], sense: str, rhs: float) -> None:
        self.cols.append([vid for vid, _ in terms])
        self.coefs.append([coef for _, coef in terms])
        self.senses.append(sense)
        self.rhs.append(rhs)

    def append_to(self, model: Model) -> None:
        model.add_rows(self.cols, self.coefs, self.senses, self.rhs)


def _build(instance: Instance, technologies: tuple[int, ...]) -> ConflModel:
    validate_instance(instance)
    m = Model()
    arcs = [(ROOT_ID, co.id, co.open_cost) for co in instance.central_offices]
    arcs += [(a.tail, a.head, a.cost) for a in instance.core_arcs]

    z: dict[tuple[str, int], int] = {}
    for f in instance.facilities:
        for t in technologies:
            z[f.id, t] = m.add_variable(f"z_{f.id}_t{t}", BINARY, 0, 1)
            m.set_objective_coef(z[f.id, t], f.open_cost[t])

    x: dict[tuple[str, str], int] = {}
    for tail, head, cost in arcs:
        x[tail, head] = m.add_variable(f"x_{tail}_{head}", BINARY, 0, 1)
        m.set_objective_coef(x[tail, head], cost)

    y: dict[tuple[str, str, int], int] = {}
    for t in technologies:
        for a in instance.assignment_arcs.get(t, []):
            y[a.facility, a.user, t] = m.add_variable(
                f"y_{a.facility}_{a.user}_t{t}", BINARY, 0, 1
            )
            m.set_objective_coef(y[a.facility, a.user, t], a.cost)

    v: dict[tuple[str, int], int] = {}
    for u in instance.users:
        for t in technologies:
            v[u.id, t] = m.add_variable(f"v_{u.id}_t{t}", BINARY, 0, 1)

    flow: dict[tuple[str, str, str], int] = {}
    for tail, head, _ in arcs:
        for f in instance.facilities:
            flow[tail, head, f.id] = m.add_variable(
                f"phi_{tail}_{head}_{f.id}", CONTINUOUS, 0.0, 1.0
            )

    rows = _RowBatch()
    # Facility opens on at most one technology.
    for f in instance.facilities:
        rows.add([(z[f.id, t], 1.0) for t in technologies], LE, 1.0)

    # A served user has exactly one active assignment arc on its technology.
    for u in instance.users:
        for t in technologies:
            terms = [
                (y[a.facility, u.id, t], 1.0)
                for a in instance.assignment_arcs.get(t, [])
                if a.user == u.id
            ]
            terms.append((v[u.id, t], -1.0))
            rows.add(terms, EQ, 0.0)

    # Assignment arcs only out of facilities opened on that technology.
    for (fid, uid, t), yid in y.items():
        rows.add([(yid, 1.0), (z[fid, t], -1.0)], LE, 0.0)

    # Coverage requirement; users on a better technology tau <= t count too.
    for t in technologies:
        terms = [
            (v[u.id, tau], u.weight)
            for u in instance.users
            for tau in technologies
            if tau <= t
        ]
        if terms:
            rows.add(terms, GE, instance.coverage_thresholds[t])

    # Unit of flow from the artificial root to each opened facility,
    # one commodity per facility.
    core_nodes = [ROOT_ID]
    core_nodes += [c.id for c in instance.central_offices]
    core_nodes += [f.id for f in instance.facilities]
    core_nodes += [s.id for s in instance.steiner_nodes]
    in_arcs: dict[str, list[tuple[str, str]]] = {n: [] for n in core_nodes}
    out_arcs: dict[str, list[tuple[str, str]]] = {n: [] for n in core_nodes}
    for tail, head, _ in arcs:
        out_arcs[tail].append((tail, head))
        in_arcs[head].append((tail, head))
    for f in instance.facilities:
        for node in core_nodes:
            terms = [(flow[t_, h_, f.id], 1.0) for (t_, h_) in in_arcs[node]]
            terms += [(flow[t_, h_, f.id], -1.0) for (t_, h_) in out_arcs[node]]
            if node == ROOT_ID:
                terms += [(z[f.id, t], 1.0) for t in technologies]
            elif node == f.id:
                terms += [(z[f.id, t], -1.0) for t in technologies]
            rows.add(terms, EQ, 0.0)

    # Flow only on installed arcs.
    for tail, head, _ in arcs:
        for f in instance.facilities:
            rows.add([(flow[tail, head, f.id], 1.0), (x[tail, head], -1.0)], LE, 0.0)
    rows.append_to(m)

    return ConflModel(instance, technologies, m, arcs, z, x, y, v, flow)


def build_3confl(instance: Instance) -> ConflModel:
    """Full model over technologies {1, 2, 3}: wired tiers plus wireless with
    per-(facility, user) big-M SIR rows and semi-continuous power bounds."""
    if instance.technologies != (TECH_FIBER, TECH_COPPER, TECH_WIRELESS):
        raise ValueError(
            f"build_3confl requires technologies (1, 2, 3), got {instance.technologies}"
        )
    if instance.wireless is None:
        raise ValueError("build_3confl requires wireless parameters")
    confl = _build(instance, (TECH_FIBER, TECH_COPPER, TECH_WIRELESS))
    m = confl.model
    w = instance.wireless

    for f in instance.facilities:
        confl.power[f.id] = m.add_variable(f"p_{f.id}", CONTINUOUS, 0.0, w.p_max)

    rows = _RowBatch()
    # SIR rows, deactivated through big-M when the assignment is off.
    for (fid, uid, t), yid in confl.y.items():
        if t != TECH_WIRELESS:
            continue
        m_fu = big_m(instance, fid, uid)
        terms = [(confl.power[fid], w.fading[fid, uid])]
        for k in instance.facilities:
            if k.id == fid:
                continue
            a_ku = w.fading[k.id, uid]
            if a_ku != 0.0:
                terms.append((confl.power[k.id], -w.delta * a_ku))
        terms.append((yid, -m_fu))
        rows.add(terms, GE, w.delta * w.eta_noise - m_fu)

    # Semi-continuous power: p_min z <= p <= p_max z.
    for f in instance.facilities:
        pid = confl.power[f.id]
        zid = confl.z[f.id, TECH_WIRELESS]
        rows.add([(pid, 1.0), (zid, -w.p_max)], LE, 0.0)
        rows.add([(pid, 1.0), (zid, -w.p_min)], GE, 0.0)
    rows.append_to(m)

    return confl


def big_m(instance: Instance, fid: str, uid: str) -> float:
    """Tightest constant that silences the SIR row of (fid, uid) when the
    assignment variable is 0: worst in-bounds case is the server silent and
    every interferer at full power."""
    w = instance.wireless
    interference = sum(
        w.fading[k.id, uid] * w.p_max for k in instance.facilities if k.id != fid
    )
    return w.delta * w.eta_noise + w.delta * interference


def superinterferers(instance: Instance, uid: str, fid: str) -> set[str]:
    """Facilities that alone deny wireless service of `uid` by `fid` even at
    their minimum power against the server's maximum power."""
    w = instance.wireless
    a_fu = w.fading[fid, uid]
    out = set()
    for k in instance.facilities:
        if k.id == fid:
            continue
        if a_fu * w.p_max - w.delta * w.fading[k.id, uid] * w.p_min < w.delta * w.eta_noise:
            out.add(k.id)
    return out


def _pair_block_feasible(a1, b1, a2, b2, w: WirelessParams) -> np.ndarray:
    """Exact feasibility of the 2-facility power systems of many user pairs.

    a1, b1 are the serving/interfering fadings of the users of the first
    facility (shape n1), a2, b2 those of the second (shape n2); returns an
    (n1, n2) feasibility mask by evaluating the candidate vertices of each
    pair's power polygon in closed form.
    """
    rhs = w.delta * w.eta_noise
    tol = 1e-9
    lo, hi = w.p_min, w.p_max
    a1 = a1[:, None]
    b1 = b1[:, None]
    a2 = a2[None, :]
    b2 = b2[None, :]

    def in_box(p):
        return (p >= lo - tol) & (p <= hi + tol)

    def ok(p1, p2):
        c1 = a1 * p1 - w.delta * b1 * p2 >= rhs - tol
        c2 = a2 * p2 - w.delta * b2 * p1 >= rhs - tol
        return in_box(p1) & in_box(p2) & c1 & c2

    feasible = np.zeros((a1.shape[0], a2.shape[1]), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        # both requirement lines
        det = a1 * a2 - w.delta**2 * b1 * b2
        p1 = rhs * (a2 + w.delta * b1) / det
        p2 = rhs * (a1 + w.delta * b2) / det
        feasible |= np.where(np.abs(det) > 1e-14, ok(p1, p2), False)
        for c in (lo, hi):
            # first line against the box edges
            feasible |= ok(np.broadcast_to(c, p1.shape), (a1 * c - rhs) / (w.delta * b1))
            feasible |= ok((rhs + w.delta * b1 * c) / a1, np.broadcast_to(c, p1.shape))
            # second line against the box edges
            feasible |= ok(np.broadcast_to(c, p1.shape), (rhs + w.delta * b2 * c) / a2)
            feasible |= ok((a2 * c - rhs) / (w.delta * b2), np.broadcast_to(c, p1.shape))
        for c1 in (lo, hi):
            for c2 in (lo, hi):
                feasible |= ok(np.broadcast_to(c1, p1.shape), np.broadcast_to(c2, p1.shape))
    return feasible


def conflict_pairs(instance: Instance) -> np.ndarray:
    """Pairs of wireless service requirements that no in-bounds power vector
    satisfies together, as a (k, 2) array of positions in
    ``instance.assignment_arcs[TECH_WIRELESS]``.

    Each pair puts the arc of the smaller facility id first, and the pairs
    are sorted by the ids (f1, u1, f2, u2) as strings: the order of sorting
    the id tuples, in which "u10" comes before "u2".  One vectorized
    candidate-vertex evaluation per facility pair keeps the preprocessing
    cheap even on full-size testpoint grids.
    """
    w = instance.wireless
    if w is None:
        raise ValueError("conflict_pairs requires wireless parameters")
    arcs = instance.assignment_arcs.get(TECH_WIRELESS, [])
    served: dict[str, list[int]] = {}
    for pos, a in enumerate(arcs):
        served.setdefault(a.facility, []).append(pos)
    fac_ids = sorted(served)
    blocks = [np.empty((0, 2), dtype=np.int64)]
    for f1, f2 in itertools.combinations(fac_ids, 2):
        pos1 = np.array(served[f1])
        pos2 = np.array(served[f2])
        users1 = [arcs[p].user for p in served[f1]]
        users2 = [arcs[p].user for p in served[f2]]
        a1 = np.array([w.fading[f1, u] for u in users1])
        b1 = np.array([w.fading[f2, u] for u in users1])
        a2 = np.array([w.fading[f2, u] for u in users2])
        b2 = np.array([w.fading[f1, u] for u in users2])
        i, j = np.nonzero(~_pair_block_feasible(a1, b1, a2, b2, w))
        # f1 < f2, so each pair is already in canonical order.
        blocks.append(np.column_stack([pos1[i], pos2[j]]))
    pairs = np.concatenate(blocks)
    fac_rank = {f: k for k, f in enumerate(fac_ids)}
    user_rank = {u: k for k, u in enumerate(sorted({a.user for a in arcs}))}
    frank = np.array([fac_rank[a.facility] for a in arcs], dtype=np.int64)
    urank = np.array([user_rank[a.user] for a in arcs], dtype=np.int64)
    first, second = pairs.T
    order = np.lexsort((urank[second], frank[second], urank[first], frank[first]))
    return pairs[order]


def strengthening_pairs(confl: ConflModel, instance: Instance) -> np.ndarray:
    """The strengthening inequalities of the model as an int64 (k, 2) array
    of variable ids, row ``[a, b]`` for ``x_a + x_b <= 1``: first the
    lone-blocker rows ``y_fu3 + z_k3 <= 1``, then the conflict rows
    ``y_f1u1 + y_f2u2 <= 1`` in the order of :func:`conflict_pairs`.  Both
    are edges of a conflict graph (Atamtürk, Nemhauser & Savelsbergh,
    EJOR 121, 2000)."""
    if TECH_WIRELESS not in confl.technologies:
        raise ValueError("strengthening_pairs expects a model built by build_3confl")
    lone = [(yid, confl.z[k, TECH_WIRELESS])
            for (fid, uid, t), yid in confl.y.items() if t == TECH_WIRELESS
            for k in sorted(superinterferers(instance, uid, fid))]
    arcs = instance.assignment_arcs.get(TECH_WIRELESS, [])
    y_of_arc = np.array([confl.y[a.facility, a.user, TECH_WIRELESS] for a in arcs],
                        dtype=np.int64)
    return np.concatenate([np.array(lone, dtype=np.int64).reshape(-1, 2),
                           y_of_arc[conflict_pairs(instance)]])


def strengthen(confl: ConflModel, instance: Instance) -> ConflModel:
    """Copy of the model with its :func:`strengthening_pairs` appended as
    rows ``x_a + x_b <= 1`` by one bulk append."""
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


def verify_solution(
    instance: Instance,
    confl: ConflModel,
    assignment: Assignment,
    sir_tol: float = 1e-6,
    flow_tol: float = 1e-9,
    tol: float = 1e-6,
) -> VerificationReport:
    """Re-check every constraint family straight from the instance data.

    Deliberately independent of the Model rows: coverage, flow balance and
    SIR ratios are recomputed from users, arcs and fading coefficients.
    `assignment` is an array of one value per variable id.
    """
    n = len(confl.model.variables)
    if not isinstance(assignment, np.ndarray) or assignment.shape != (n,):
        raise ValueError(f"partial assignment: expected {n} variable values, got shape "
                         f"{np.shape(assignment)}")

    techs = confl.technologies
    values = assignment.tolist()
    zval = {key: values[vid] for key, vid in confl.z.items()}
    xval = {key: values[vid] for key, vid in confl.x.items()}
    yval = {key: values[vid] for key, vid in confl.y.items()}
    vval = {key: values[vid] for key, vid in confl.v.items()}
    fval = {key: values[vid] for key, vid in confl.flow.items()}
    pval = {key: values[vid] for key, vid in confl.power.items()}

    single_tech = []
    for f in instance.facilities:
        total = sum(zval[f.id, t] for t in techs)
        if total > 1.0 + tol:
            single_tech.append((f.id, total - 1.0))

    assignment_viol = []
    for u in instance.users:
        for t in techs:
            lhs = sum(
                yval[a.facility, u.id, t]
                for a in instance.assignment_arcs.get(t, [])
                if a.user == u.id
            )
            residual = lhs - vval[u.id, t]
            if abs(residual) > tol:
                assignment_viol.append(((u.id, t), residual))

    linking = []
    for (fid, uid, t), value in yval.items():
        if value > zval[fid, t] + tol:
            linking.append(((fid, uid, t), value - zval[fid, t]))

    coverage = []
    for t in techs:
        got = sum(
            u.weight * vval[u.id, tau] for u in instance.users for tau in techs if tau <= t
        )
        if got < instance.coverage_thresholds[t] - tol:
            coverage.append((t, instance.coverage_thresholds[t] - got))

    flow_viol = []
    nodes = [ROOT_ID]
    nodes += [c.id for c in instance.central_offices]
    nodes += [f.id for f in instance.facilities]
    nodes += [s.id for s in instance.steiner_nodes]
    for f in instance.facilities:
        demand = sum(zval[f.id, t] for t in techs)
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
            if abs(balance - target) > flow_tol:
                flow_viol.append(((f.id, node), balance - target))

    capacity = []
    for (tail, head, fid), value in fval.items():
        if value > xval[tail, head] + flow_tol:
            capacity.append(((tail, head, fid), value - xval[tail, head]))
        if value < -flow_tol:
            capacity.append(((tail, head, fid), value))

    sir = []
    power_bounds = []
    if TECH_WIRELESS in techs:
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
            if ratio < w.delta - sir_tol:
                sir.append(((fid, uid), w.delta - ratio))
        for f in instance.facilities:
            z3 = zval[f.id, TECH_WIRELESS]
            p = pval[f.id]
            if p < w.p_min * z3 - tol:
                power_bounds.append((f.id, w.p_min * z3 - p))
            if p > w.p_max * z3 + tol:
                power_bounds.append((f.id, p - w.p_max * z3))

    objective = 0.0
    for (tail, head, cost) in confl.arcs:
        objective += cost * xval[tail, head]
    for f in instance.facilities:
        for t in techs:
            objective += f.open_cost[t] * zval[f.id, t]
    for t in techs:
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

"""Primal heuristic: LP-guided probabilistic fixing plus exact neighborhood search.

The construction phase opens facilities technology by technology (fiber,
copper, wireless), sampling each opening from a distribution that blends an
a-priori score (relaxation of the strengthened model with that opening
forced, computed once up front) with an a-posteriori score (relaxation of
the plain model under the current partial fixing).  Completed opening
states are checked by an exact solve with the openings pinned; infeasible
ones go through a repair pass that re-solves inside a hamming ball around
the fixing.  A final improvement pass runs the same neighborhood search
around the best solution with an objective cutoff.

A :class:`HeuristicContext` is the solve session of a run: the plain
model, its matrix prepared once with its root's optimal basis, and the
strengthening rows as variable pairs, straight from
:func:`confl3.confl.strengthening_pairs`.  Fixing relaxations change only
bounds, start from that basis and are memoized; a strengthened one then
runs the cut loop branch and bound shares
(:func:`confl3.simplex.separate`), appending the violated pairs.  Pinned
checks (bound overlays) and VLNS (appended hamming and cutoff rows) solve
the plain matrix from the root basis, which the solver extends over
appended rows; :func:`run` checks each distinct opening state once, as B&B
is deterministic.  Solutions are the solvers' arrays, one float per
variable id of the plain model.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bnb, simplex
from .confl import (ConflModel, Instance, UnattainableCoverageError, build_3confl,
                    check_attainable, strengthening_pairs)
from .milp import Assignment
# Unused here (checks overlay bounds, the cut pool comes from
# strengthening_pairs), but perfbench/tracing.py wraps these names.
from .confl import strengthen  # noqa: F401
from .milp import apply_fixings  # noqa: F401

EPS_TAU = 1e-9


class NoCompletableFosError(RuntimeError):
    """Construction ran out of admissible openings while still partial.

    Carries the partial opening state built so far: the driver can still
    hand it to the repair search, which accepts incomplete fixings.
    """

    def __init__(self, message: str, partial: "FOS"):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class FOS:
    """Facility opening state: a set of (facility, technology) activations
    where no facility appears on two technologies."""

    entries: frozenset = frozenset()

    def __post_init__(self):
        facilities = [f for f, _ in self.entries]
        if len(set(facilities)) != len(facilities):
            raise ValueError("a facility cannot be opened on two technologies")

    def facilities(self) -> set:
        return {f for f, _ in self.entries}

    def with_entry(self, fid: str, tech: int) -> "FOS":
        return FOS(self.entries | {(fid, tech)})

    def sorted_entries(self) -> list[tuple[str, int]]:
        return sorted(self.entries)


@dataclass
class AttractivenessTable:
    tau: dict[tuple[str, int], float]
    tau0: dict[tuple[str, int], float]


@dataclass
class HeuristicParams:
    alpha: float = 0.5
    sigma_count: int = 5
    vlns_radius: int | None = None        # None: max(2, ceil(0.2 |F|))
    global_time_limit: float = 3600.0
    outer_loop_limit: float = 3000.0
    subproblem_time_limit: float = 60.0
    vlns_time_limit: float = 600.0
    rng_seed: int = 0
    top_k: int = 10                       # candidate pool cap per step; 0 = unlimited
    test_iterations: int | None = None    # outer-loop cap replacing wall clocks

    def validate(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.sigma_count < 1:
            raise ValueError("sigma_count must be >= 1")
        for name in ("global_time_limit", "outer_loop_limit",
                     "subproblem_time_limit", "vlns_time_limit"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.vlns_radius is not None and self.vlns_radius < 0:
            raise ValueError("vlns_radius must be >= 0")
        if self.top_k < 0:
            raise ValueError("top_k must be >= 0")
        if self.test_iterations is not None and self.test_iterations < 1:
            raise ValueError("test_iterations must be >= 1")

    def radius(self, n_facilities: int) -> int:
        if self.vlns_radius is not None:
            return self.vlns_radius
        return max(2, math.ceil(0.2 * n_facilities))

    def sub_limit(self) -> float:
        return math.inf if self.test_iterations is not None else self.subproblem_time_limit

    def vlns_limit(self) -> float:
        return math.inf if self.test_iterations is not None else self.vlns_time_limit


@dataclass
class SolveOutcome:
    status: str                       # a bnb status
    assignment: Assignment | None
    objective: float | None
    repaired: bool = False

    def has_solution(self) -> bool:
        return self.assignment is not None


@dataclass
class RunResult:
    status: str                       # feasible | no_solution
    assignment: Assignment | None
    objective: float | None
    lower_bound: float
    gap: float | None
    trace: list[dict]
    iterations: int
    confl: ConflModel                 # the plain model the assignment's ids refer to


class HeuristicContext:
    """The solve session of one instance: the plain model, its prepared
    matrix with its root's optimal basis (`root_basis`), the strengthening
    pairs (`pool`), the strengthened root bound and a memo of fixing LPs."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.plain = build_3confl(instance)
        self.pool = strengthening_pairs(self.plain, instance)
        self.plain_prep = simplex.prepare(self.plain.model)
        self.base_lo, self.base_hi = simplex.model_bounds(self.plain.model)
        plain_root = simplex.solve_prepared(self.plain_prep, self.base_lo, self.base_hi)
        _, root = simplex.separate(self.plain_prep, self.base_lo, self.base_hi, plain_root,
                                   self.pool)
        if root.status != simplex.OPTIMAL:
            raise ValueError("strengthened relaxation is infeasible; instance unsolvable")
        self.root_value = root.objective
        self.root_basis = plain_root.basis
        weights = {u.id: u.weight for u in instance.users}
        self.potential: dict[tuple[str, int], float] = {}
        for t in instance.technologies:
            reach: dict[str, float] = {}
            for a in instance.assignment_arcs.get(t, []):
                reach[a.facility] = reach.get(a.facility, 0.0) + weights[a.user]
            for f in instance.facilities:
                self.potential[f.id, t] = reach.get(f.id, 0.0)
        self._memo: dict[tuple[bool, frozenset], float | None] = {}

    def relaxation_value(self, strong: bool, ones: frozenset) -> float | None:
        """Optimal value of the (strengthened or plain) relaxation with the
        given (facility, technology) openings forced to 1; None if infeasible."""
        if (strong, ones) not in self._memo:
            lo = self.base_lo.copy()
            lo[[self.plain.z[key] for key in ones]] = 1.0
            res = simplex.solve_prepared(self.plain_prep, lo, self.base_hi, self.root_basis)
            if strong:
                _, res = simplex.separate(self.plain_prep, lo, self.base_hi, res, self.pool)
            self._memo[strong, ones] = res.objective
        return self._memo[strong, ones]

    def score(self, value: float | None) -> float:
        """Invert a relaxation value into an attractiveness in (0, 1]:
        cheap fixings score high, infeasible ones hit the floor."""
        if value is None:
            return EPS_TAU
        if value < 1e-12:
            return 1.0
        return max(EPS_TAU, self.root_value / value)


def ogap(v: float, lower: float) -> float:
    """Optimality gap (v - L) / v of a feasible value against a lower bound;
    0 when they are equal, a zero-cost optimum included."""
    if v == lower:
        return 0.0
    if not v > 0:
        raise ValueError(f"ogap needs a positive feasible value, got {v}")
    if lower > v:
        raise ValueError(f"bound inconsistency: lower bound {lower} exceeds value {v}")
    return (v - lower) / v


def is_complete(fos: FOS, instance: Instance, tech: int,
                ctx: HeuristicContext) -> bool:
    """Whether the opening state reaches the coverage threshold of `tech`.

    Users reachable from several opened facilities count once per facility;
    the measure is an optimistic potential, not a service plan.
    """
    total = sum(ctx.potential[f, t] for f, t in fos.entries if t == tech)
    return total >= instance.coverage_thresholds[tech] - 1e-9


def attractiveness_init(instance: Instance, ctx: HeuristicContext) -> AttractivenessTable:
    """One strengthened-relaxation solve per (facility, technology) opening;
    scores are the root value over the fixed value, floored when infeasible."""
    tau: dict[tuple[str, int], float] = {}
    for f in instance.facilities:
        for t in instance.technologies:
            value = ctx.relaxation_value(True, frozenset([(f.id, t)]))
            tau[f.id, t] = ctx.score(value)
    return AttractivenessTable(tau=dict(tau), tau0=dict(tau))


def posterior_attractiveness(instance: Instance, current_fos: FOS,
                             candidate: tuple[str, int], ctx: HeuristicContext) -> float:
    """Plain-relaxation score of extending the opening state by `candidate`."""
    fid, tech = candidate
    if fid in current_fos.facilities() and (fid, tech) not in current_fos.entries:
        raise ValueError(f"candidate {candidate} clashes with the opening state")
    value = ctx.relaxation_value(False, current_fos.entries | {candidate})
    return ctx.score(value)


def fixing_probabilities(candidates: list, tau: np.ndarray | list,
                         eta: np.ndarray | list, alpha: float) -> np.ndarray:
    """Convex blend of the a-priori and a-posteriori scores, normalized."""
    if not len(candidates):
        raise ValueError("no candidates to choose from")
    tau = np.asarray(tau, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if tau.shape != (len(candidates),) or eta.shape != (len(candidates),):
        raise ValueError("tau/eta must align with candidates")
    if np.any(tau <= 0) or np.any(eta <= 0):
        raise ValueError("attractiveness scores must be positive")
    scores = alpha * tau + (1.0 - alpha) * eta
    return scores / scores.sum()


def build_fos(instance: Instance, tau: AttractivenessTable, params: HeuristicParams,
              rng: np.random.Generator, ctx: HeuristicContext) -> FOS:
    """Sample a fully complete opening state, fiber first, wireless last."""
    fos = FOS()
    for tech in instance.technologies:
        while not is_complete(fos, instance, tech, ctx):
            used = fos.facilities()
            # Admissible: not clashing with the state and actually able to
            # move the completeness measure for this technology.
            candidates = [
                (f.id, tech)
                for f in instance.facilities
                if f.id not in used and ctx.potential[f.id, tech] > 0
            ]
            if not candidates:
                raise NoCompletableFosError(
                    f"no admissible opening left for technology {tech}", fos
                )
            if params.top_k and len(candidates) > params.top_k:
                candidates.sort(key=lambda c: (-tau.tau[c], c[0]))
                candidates = candidates[: params.top_k]
            tau_vals = [tau.tau[c] for c in candidates]
            eta_vals = [
                posterior_attractiveness(instance, fos, c, ctx) for c in candidates
            ]
            probs = fixing_probabilities(candidates, tau_vals, eta_vals, params.alpha)
            pick = int(rng.choice(len(candidates), p=probs))
            fos = fos.with_entry(*candidates[pick])
    return fos


def check_and_repair(instance: Instance, ctx: HeuristicContext, fos: FOS,
                     params: HeuristicParams) -> SolveOutcome:
    """Solve the plain model with the opening state pinned (opened couples
    to 1, the other technologies of their facilities to 0); on proved
    infeasibility or a bound-out with no incumbent, retry inside a hamming
    ball around the same pins.  `instance` is the context's instance."""
    center = {(fid, t): 1.0 if (fid, t) in fos.entries else 0.0
              for fid in fos.facilities() for t in ctx.plain.technologies}
    lo, hi = ctx.base_lo.copy(), ctx.base_hi.copy()
    pinned = [ctx.plain.z[key] for key in center]
    lo[pinned] = hi[pinned] = list(center.values())
    res = bnb.solve_mip(ctx.plain_prep, lo, hi, params.sub_limit(),
                        basis=ctx.root_basis)
    if res.has_solution():
        return SolveOutcome(res.status, res.incumbent, res.objective)
    return vlns(instance, ctx, center, params, mode="repair")


def vlns(instance: Instance, ctx: HeuristicContext, center: dict[tuple[str, int], float],
         params: HeuristicParams, mode: str = "improve",
         incumbent_value: float | None = None,
         radius: int | None = None) -> SolveOutcome:
    """Exact very-large-neighborhood search: re-solve the plain model under
    a hamming-distance cap around `center` on the opening variables.

    `center` maps (facility, technology) to 0/1 over the coordinates it
    pins; other opening variables do not enter the distance.  In improve
    mode an objective cutoff strictly below `incumbent_value` is added, so
    only improving solutions can come back.  Both are ``<=`` rows appended
    to the context's plain matrix; `instance` is the context's instance.
    """
    if mode not in ("repair", "improve"):
        raise ValueError(f"unknown vlns mode {mode!r}")
    if mode == "improve" and incumbent_value is None:
        raise ValueError("improve mode needs the incumbent objective")
    n = params.radius(len(instance.facilities)) if radius is None else radius

    prep = ctx.plain_prep
    rows, rhs = [], []
    if center:
        hamming = np.zeros(len(prep.costs))
        ones = 0
        for key, value in center.items():
            hamming[ctx.plain.z[key]] = -1.0 if value >= 0.5 else 1.0
            ones += value >= 0.5
        rows.append(hamming)
        rhs.append(float(n - ones))
    if mode == "improve":
        # Margin well above the LP feasibility tolerance, or the solver can
        # tolerance-accept points sitting on the cutoff plane.
        rows.append(prep.costs)
        rhs.append(incumbent_value - 1e-4 * max(1.0, abs(incumbent_value)))
    res = bnb.solve_mip(
        simplex.append_rows(prep, np.reshape(rows, (len(rows), len(prep.costs))),
                            np.array(rhs)),
        ctx.base_lo, ctx.base_hi, params.vlns_limit(),
        basis=ctx.root_basis,
    )
    return SolveOutcome(res.status, res.incumbent, res.objective, mode == "repair")


def tau_update(tau: AttractivenessTable, sigma_solutions: list[tuple[FOS, float]],
               v_bar: float, lower: float) -> AttractivenessTable:
    """Reward openings used by better-than-average solutions, penalize the
    rest, always relative to the initial score; floored at EPS_TAU.

    Each solution contributes only to the couples of the opening state it
    was built from.  Degenerate baseline (zero average gap) skips the
    update.
    """
    base_gap = ogap(v_bar, min(lower, v_bar))
    if base_gap <= 1e-15:
        return tau
    new_tau = dict(tau.tau)
    for fos, value in sigma_solutions:
        rel = (base_gap - ogap(value, min(lower, value))) / base_gap
        for key in fos.entries:
            new_tau[key] = max(EPS_TAU, new_tau[key] + tau.tau0[key] * rel)
    return AttractivenessTable(tau=new_tau, tau0=dict(tau.tau0))


def run(instance: Instance, params: HeuristicParams) -> RunResult:
    """Full two-loop driver; see the module docstring for the shape.

    Wall-clock limits govern the outer loop and the final improvement pass
    unless `params.test_iterations` is set, which swaps every clock for
    deterministic iteration caps.  Each distinct opening state is checked
    once; repeats reuse its outcome, a timed-out one included.
    """
    params.validate()
    check_attainable(instance)
    ctx = HeuristicContext(instance)
    lower = ctx.root_value
    tau = attractiveness_init(instance, ctx)
    rng = np.random.default_rng(params.rng_seed)

    best: SolveOutcome | None = None
    checked: dict[FOS, SolveOutcome] = {}
    trace: list[dict] = []
    prev_values: list[float] = []
    start = time.monotonic()
    outer = 0

    while True:
        if params.test_iterations is not None:
            if outer >= params.test_iterations:
                break
        else:
            elapsed = time.monotonic() - start
            if elapsed >= min(params.outer_loop_limit, params.global_time_limit):
                break
        outer += 1

        inner_best: SolveOutcome | None = None
        solutions: list[tuple[FOS, float]] = []
        for sigma in range(1, params.sigma_count + 1):
            entry = {"outer": outer, "sigma": sigma, "fos": None, "partial": False,
                     "repaired": False, "objective": None, "best": None}
            try:
                fos = build_fos(instance, tau, params, rng, ctx)
            except NoCompletableFosError as exc:
                # Coverage already satisfiable through better technologies can
                # deadlock the per-technology completeness measure; fall back
                # to repairing the partial fixing built so far.
                fos = exc.partial
                entry["partial"] = True
            entry["fos"] = [list(e) for e in fos.sorted_entries()]
            if fos not in checked:
                checked[fos] = check_and_repair(instance, ctx, fos, params)
            outcome = checked[fos]
            entry["repaired"] = outcome.repaired
            if outcome.has_solution():
                solutions.append((fos, outcome.objective))
                entry["objective"] = outcome.objective
                if inner_best is None or outcome.objective < inner_best.objective:
                    inner_best = outcome
            entry["best"] = None if inner_best is None else inner_best.objective
            trace.append(entry)

        if prev_values and solutions:
            v_bar = float(np.mean(prev_values))
            if v_bar > lower > 0:
                tau = tau_update(tau, solutions, v_bar, lower)
        if solutions:
            prev_values = [value for _, value in solutions]
        if inner_best is not None and (
            best is None or inner_best.objective < best.objective
        ):
            best = inner_best

    if best is not None:
        center = {
            key: best.assignment[zid] for key, zid in ctx.plain.z.items()
        }
        improved = vlns(instance, ctx, center, params, mode="improve",
                        incumbent_value=best.objective)
        if improved.has_solution() and improved.objective < best.objective:
            best = improved

    if best is None:
        return RunResult("no_solution", None, None, lower, None, trace, outer, ctx.plain)
    objective = best.objective
    lower = min(lower, objective)
    return RunResult("feasible", best.assignment, objective, lower,
                     ogap(objective, lower), trace, outer, ctx.plain)

"""Primal heuristic: LP-guided probabilistic fixing plus exact neighborhood search.

The construction phase opens facilities technology by technology (fiber,
copper, wireless), sampling each opening from a distribution that blends an
a-priori score (relaxation of the strengthened model with that opening
forced, computed once up front) with an a-posteriori score (relaxation of
the plain model under the current partial fixing).  It stops when the
opening state meets every coverage threshold, counted as the model's
coverage rows count it (an opening on technology t also covers every
technology after t), or when the current technology has no admissible
opening left.  Each opening state is checked by an exact solve with the
openings pinned; infeasible ones go through a repair pass that re-solves
inside a hamming ball around the fixing.  A final improvement pass runs
the same neighborhood search around the best solution with an objective
cutoff.  All of it runs under one deadline (see :func:`run`).

A :class:`HeuristicContext` holds what a run shares: the plain model, a
:class:`confl3.bnb.Session` on it whose root LP is solved, and the
strengthening rows as variable pairs, straight from
:func:`confl3.confl.strengthening_pairs`.  Fixing relaxations pin openings
and are memoized; a strengthened one then runs the session's cut loop,
which appends the violated pairs.  Pinned checks pin the opening state and
VLNS passes its hamming and cutoff rows, both to the session's branch and
bound; :func:`run` checks each distinct opening state once, as B&B is
deterministic.  Solutions are the solvers' arrays, one float per variable
id of the plain model.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bnb
from .confl import (TECHNOLOGIES, ConflModel, Instance, UnattainableCoverageError,
                    build_3confl, check_attainable, covers, strengthening_pairs)
from .milp import Assignment
# Unused here (checks overlay bounds, the cut pool comes from
# strengthening_pairs), but perfbench/tracing.py wraps these names.
from .confl import strengthen  # noqa: F401
from .milp import apply_fixings  # noqa: F401

EPS_TAU = 1e-9


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
    global_time_limit: float = 3600.0     # the run's deadline, counted from entry to run
    subproblem_time_limit: float = 60.0   # cap per pinned check
    vlns_time_limit: float = 600.0        # cap per VLNS, and what the outer phase leaves
    rng_seed: int = 0
    top_k: int = 10                       # candidate pool cap per step; 0 = unlimited
    test_iterations: int | None = None    # outer-loop cap replacing wall clocks

    def validate(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.sigma_count < 1:
            raise ValueError("sigma_count must be >= 1")
        for name in ("global_time_limit", "subproblem_time_limit", "vlns_time_limit"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.vlns_time_limit >= self.global_time_limit:
            raise ValueError("vlns_time_limit (--vlns-limit) must be below "
                             "global_time_limit (--time-limit)")
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
    """What one run on an instance shares: the plain model, a solver
    `session` on it with its root LP solved, the strengthening pairs
    (`pool`), the strengthened root bound, the opening reach its screen
    checked (`potential`), a memo of fixing LPs and the `deadline` (a
    :func:`time.monotonic` value) its sub-solves share.

    Raises :class:`UnattainableCoverageError` for an instance with no
    solution: first the :func:`check_attainable` screen, which names the
    technology, then a strengthened root relaxation proved infeasible."""

    def __init__(self, instance: Instance, deadline: float = math.inf):
        self.deadline = deadline
        self.plain = build_3confl(instance)
        self.potential = check_attainable(instance)
        self.pool = strengthening_pairs(self.plain, instance)
        self.session = bnb.Session(self.plain.model)
        root = self.session.cut({}, self.session.root(), self.pool)
        if root.status != bnb.OPTIMAL:
            raise UnattainableCoverageError(
                "coverage thresholds are unattainable: the strengthened relaxation is infeasible")
        self.root_value = root.objective
        self._memo: dict[tuple[bool, frozenset], float | None] = {}

    def relaxation_value(self, strong: bool, ones: frozenset) -> float | None:
        """Optimal value of the (strengthened or plain) relaxation with the
        given (facility, technology) openings forced to 1; None if infeasible.
        A strengthened value starts from the plain one, which is memoized too."""
        if (strong, ones) not in self._memo:
            pins = {self.plain.z[key]: 1.0 for key in ones}
            res = self.session.lp(pins)
            self._memo[False, ones] = res.objective
            if strong:
                self._memo[True, ones] = self.session.cut(pins, res, self.pool).objective
        return self._memo[strong, ones]

    def score(self, value: float | None) -> float:
        """Invert a relaxation value into an attractiveness in (0, 1]:
        cheap fixings score high, infeasible ones hit the floor."""
        if value is None:
            return EPS_TAU
        if value < 1e-12:
            return 1.0
        return max(EPS_TAU, self.root_value / value)


def attractiveness_init(instance: Instance, ctx: HeuristicContext) -> AttractivenessTable:
    """One strengthened-relaxation solve per (facility, technology) opening;
    scores are the root value over the fixed value, floored when infeasible.
    Once the context's deadline has passed, each opening left scores the
    floor ``EPS_TAU`` without a solve."""
    tau: dict[tuple[str, int], float] = {}
    for f in instance.facilities:
        for t in TECHNOLOGIES:
            value = (ctx.relaxation_value(True, frozenset([(f.id, t)]))
                     if time.monotonic() < ctx.deadline else None)
            tau[f.id, t] = ctx.score(value)
    return AttractivenessTable(tau=dict(tau), tau0=dict(tau))


def posterior_attractiveness(current_fos: FOS, candidate: tuple[str, int],
                             ctx: HeuristicContext) -> float:
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
    """Sample an opening state, fiber first, wireless last, until every
    threshold is met; returns the state built so far as soon as the current
    technology has no admissible opening left."""
    fos = FOS()
    for tech in TECHNOLOGIES:
        while not covers(instance, ctx.potential, fos.entries, tech):
            used = fos.facilities()
            # Admissible: not clashing with the state and actually able to
            # move the completeness measure for this technology.
            candidates = [
                (f.id, tech)
                for f in instance.facilities
                if f.id not in used and ctx.potential[f.id, tech] > 0
            ]
            if not candidates:
                return fos
            if params.top_k and len(candidates) > params.top_k:
                candidates.sort(key=lambda c: (-tau.tau[c], c[0]))
                candidates = candidates[: params.top_k]
            tau_vals = [tau.tau[c] for c in candidates]
            eta_vals = [posterior_attractiveness(fos, c, ctx) for c in candidates]
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
              for fid in fos.facilities() for t in TECHNOLOGIES}
    pins = {ctx.plain.z[key]: value for key, value in center.items()}
    res = _sub_mip(ctx, params, params.subproblem_time_limit, pins)
    if res.has_solution():
        return SolveOutcome(res.status, res.incumbent, res.objective)
    return vlns(instance, ctx, center, params)


def vlns(instance: Instance, ctx: HeuristicContext, center: dict[tuple[str, int], float],
         params: HeuristicParams, cutoff: float | None = None) -> SolveOutcome:
    """Exact very-large-neighborhood search: re-solve the plain model under
    a hamming-distance cap around `center` on the opening variables.

    `center` maps (facility, technology) to 0/1 over the coordinates it
    pins; other opening variables do not enter the distance.  With a
    `cutoff` (an incumbent objective) it is an improve search: an objective
    row strictly below the cutoff is added, the plain model's nonzero costs
    on their variables, so only improving solutions can come back.  Without
    one it is a repair.  Both are ``<=`` rows of this sub-MIP alone;
    `instance` is the context's instance.
    """
    n = params.radius(len(instance.facilities))

    cols, coefs, rhs = [], [], []
    if center:
        cols.append([ctx.plain.z[key] for key in center])
        coefs.append([-1.0 if value >= 0.5 else 1.0 for value in center.values()])
        rhs.append(float(n - sum(value >= 0.5 for value in center.values())))
    if cutoff is not None:
        cost = ctx.plain.model.variables.cost
        costed = np.flatnonzero(cost)
        cols.append(costed)
        coefs.append(cost[costed])
        # Margin well above the LP feasibility tolerance, or the solver can
        # tolerance-accept points sitting on the cutoff plane.
        rhs.append(cutoff - 1e-4 * max(1.0, abs(cutoff)))
    res = _sub_mip(ctx, params, params.vlns_time_limit, {}, (cols, coefs, np.array(rhs)))
    return SolveOutcome(res.status, res.incumbent, res.objective, cutoff is None)


def _sub_mip(ctx: HeuristicContext, params: HeuristicParams, cap: float,
             pins: dict[int, float], rows=None) -> bnb.MipResult:
    """The session's branch and bound under `pins` and `rows` until `cap`
    seconds from now or the context's deadline, whichever comes first (the
    deadline alone in test mode, where it is infinite)."""
    deadline = ctx.deadline
    if not params.test_iterations:
        deadline = min(time.monotonic() + cap, deadline)
    return ctx.session.mip(pins, deadline=deadline, rows=rows)


def tau_update(tau: AttractivenessTable, sigma_solutions: list[tuple[FOS, float]],
               v_bar: float, lower: float) -> AttractivenessTable:
    """Reward openings used by better-than-average solutions, penalize the
    rest, always relative to the initial score; floored at EPS_TAU.

    Each solution contributes only to the couples of the opening state it
    was built from.  Degenerate baseline (zero average gap) skips the
    update.
    """
    base_gap = bnb.ogap(v_bar, min(lower, v_bar))
    if base_gap <= 1e-15:
        return tau
    new_tau = dict(tau.tau)
    for fos, value in sigma_solutions:
        rel = (base_gap - bnb.ogap(value, min(lower, value))) / base_gap
        for key in fos.entries:
            new_tau[key] = max(EPS_TAU, new_tau[key] + tau.tau0[key] * rel)
    return AttractivenessTable(tau=new_tau, tau0=dict(tau.tau0))


def run(instance: Instance, params: HeuristicParams) -> RunResult:
    """Full two-loop driver; see the module docstring for the shape.

    The deadline, `params.global_time_limit` seconds from entry, covers the
    context and the a-priori scores too, and each sub-solve gets its cap or
    the time left (with none left it solves no LP); `params.test_iterations`
    swaps the clock for an iteration cap and an infinite deadline.  Each
    distinct opening state is checked once; repeats reuse its outcome, timed
    out or not.  Under the clock the outer phase also ends after an outer
    iteration that built no opening state it had not checked before.
    """
    params.validate()
    deadline = math.inf if params.test_iterations else time.monotonic() + params.global_time_limit
    ctx = HeuristicContext(instance, deadline)
    lower = ctx.root_value
    tau = attractiveness_init(instance, ctx)
    rng = np.random.default_rng(params.rng_seed)

    best: SolveOutcome | None = None
    checked: dict[FOS, SolveOutcome] = {}
    trace: list[dict] = []
    prev_values: list[float] = []
    outer = 0
    # The outer phase leaves a final VLNS its cap; test mode counts instead.
    outer_end = ctx.deadline - params.vlns_time_limit

    while ((params.test_iterations is None or outer < params.test_iterations)
           and time.monotonic() < outer_end):
        outer += 1

        inner_best: SolveOutcome | None = None
        solutions: list[tuple[FOS, float]] = []
        built_new = False
        for sigma in range(1, params.sigma_count + 1):
            if time.monotonic() >= outer_end:
                break
            fos = build_fos(instance, tau, params, rng, ctx)
            entry = {"outer": outer, "sigma": sigma,
                     "fos": [list(e) for e in fos.sorted_entries()],
                     "partial": not all(covers(instance, ctx.potential, fos.entries, t)
                                        for t in TECHNOLOGIES),
                     "repaired": False, "objective": None, "best": None}
            if fos not in checked:
                built_new = True
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
        if params.test_iterations is None and not built_new:
            break

    if best is not None:
        center = {
            key: best.assignment[zid] for key, zid in ctx.plain.z.items()
        }
        improved = vlns(instance, ctx, center, params, best.objective)
        if improved.has_solution() and improved.objective < best.objective:
            best = improved

    if best is None:
        return RunResult("no_solution", None, None, lower, None, trace, outer, ctx.plain)
    objective = best.objective
    lower = min(lower, objective)
    return RunResult("feasible", best.assignment, objective, lower,
                     bnb.ogap(objective, lower), trace, outer, ctx.plain)

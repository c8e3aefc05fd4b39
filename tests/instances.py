"""Hand-crafted instances with independently derived optima and structure.

Each builder documents the arithmetic that pins its expected values so the
tests can freeze them without consulting the code under test.
"""

from __future__ import annotations

import importlib.util
import pathlib

# Published benchmark rows: (id, reference gap %, heuristic gap %, printed
# delta %).  Rows I6, I7, I10 and I14 are internally inconsistent in the
# source table (the printed delta does not match the two gap columns, I7 by
# a wide margin), so only the self-consistent rows pin the printed value.
REFERENCE_GAP_ROWS = [
    ("I1", 148.57, 131.23, -11.67),
    ("I2", 136.74, 106.16, -22.36),
    ("I3", 99.46, 72.96, -26.64),
    ("I4", 156.47, 123.73, -20.92),
    ("I5", 78.86, 49.98, -36.62),
    ("I6", 93.42, 64.04, -31.44),
    ("I7", 117.00, 82.05, -29.48),
    ("I8", 95.21, 59.73, -37.26),
    ("I9", 178.94, 119.62, -33.15),
    ("I10", 98.80, 77.66, -21.39),
    ("I11", 89.13, 66.17, -25.76),
    ("I12", 104.11, 71.23, -31.58),
    ("I13", 95.20, 52.08, -45.29),
    ("I14", 112.44, 82.48, -26.64),
    ("I15", 103.00, 74.30, -27.86),
]

from confl3.confl import (
    AssignmentArc,
    CentralOffice,
    CoreArc,
    Facility,
    Instance,
    User,
    WirelessParams,
)
from confl3.instance_io import GeneratorParams


def full_fading(pairs: dict[tuple[str, str], float], facilities, users) -> dict:
    """Complete a sparse fading spec with zeros for unnamed pairs."""
    out = {}
    for f in facilities:
        for u in users:
            out[f, u] = pairs.get((f, u), 0.0)
    return out


def pair_instance(a_fu, a_ku, p_min, p_max, delta, eta) -> Instance:
    """Two facilities, one user served wirelessly by f0 with f1 interfering."""
    return Instance(
        users=[User("u0", 1.0, (0.0, 0.0))],
        facilities=[
            Facility("f0", (1.0, 0.0), {1: 10.0, 2: 10.0, 3: 1.0}),
            Facility("f1", (2.0, 0.0), {1: 10.0, 2: 10.0, 3: 1.0}),
        ],
        central_offices=[CentralOffice("g0", 1.0)],
        steiner_nodes=[],
        core_arcs=[CoreArc("g0", "f0", 1.0), CoreArc("g0", "f1", 1.0)],
        assignment_arcs={1: [], 2: [], 3: [AssignmentArc("f0", "u0", 1.0)]},
        coverage_thresholds={1: 0.0, 2: 0.0, 3: 0.0},
        wireless=WirelessParams(
            p_min=p_min,
            p_max=p_max,
            delta=delta,
            eta_noise=eta,
            fading=full_fading({("f0", "u0"): a_fu, ("f1", "u0"): a_ku}, ["f0", "f1"], ["u0"]),
        ),
        name="pair-craft",
    )


def wired_tiny() -> tuple[Instance, float]:
    """One facility, one central office, one user with one fiber arc, and no
    copper or wireless arcs.

    W_1 = W_2 = W_3 = 1, and a fiber user counts toward all three.  The only
    solution opens the facility on fiber and the office and routes one flow
    unit root->office->facility, so the optimum is
    c_office + c_open + c_core + c_assign = 3 + 2 + 4 + 1 = 10.
    """
    inst = Instance(
        users=[User("u0", 1.0, (1.0, 0.0))],
        facilities=[Facility("f0", (0.0, 0.0), {1: 2.0, 2: 50.0, 3: 50.0})],
        central_offices=[CentralOffice("g0", 3.0)],
        steiner_nodes=[],
        core_arcs=[CoreArc("g0", "f0", 4.0)],
        assignment_arcs={1: [AssignmentArc("f0", "u0", 1.0)], 2: [], 3: []},
        coverage_thresholds={1: 1.0, 2: 1.0, 3: 1.0},
        wireless=WirelessParams(p_min=0.1, p_max=1.0, delta=2.0, eta_noise=0.1,
                                fading={("f0", "u0"): 0.5}),
        name="wired-tiny",
    )
    return inst, 10.0


def wireless_single() -> Instance:
    """One wireless facility and one user, no interferers.

    a * p_max = 0.5 >= delta * eta = 0.2, so serving at full power
    satisfies the interference requirement.
    """
    return Instance(
        users=[User("u0", 1.0, (1.0, 0.0))],
        facilities=[Facility("f0", (0.0, 0.0), {1: 50.0, 2: 50.0, 3: 1.0})],
        central_offices=[CentralOffice("g0", 1.0)],
        steiner_nodes=[],
        core_arcs=[CoreArc("g0", "f0", 1.0)],
        assignment_arcs={1: [], 2: [], 3: [AssignmentArc("f0", "u0", 1.0)]},
        coverage_thresholds={1: 0.0, 2: 0.0, 3: 1.0},
        wireless=WirelessParams(
            p_min=0.1,
            p_max=1.0,
            delta=2.0,
            eta_noise=0.1,
            fading={("f0", "u0"): 0.5},
        ),
        name="wireless-single",
    )


def conflict_instance() -> tuple[Instance, float, float]:
    """Two wireless facilities whose service requirements conflict.

    Fadings are all 0.5 with delta=2, eta=0.1, p in [0.1, 1]: serving u0
    from f0 and u1 from f1 together needs 0.5 p0 - p1 >= 0.2 and
    0.5 p1 - p0 >= 0.2, whose sum is impossible, so
    {(f0,u0),(f1,u1)} is a conflict pair.

    Weights (1, 2) with W_3 = 1.4 make the plain relaxation serve
    (v0, v1) = (1, 0.2) at cost 2.95, while the conflict row forces
    (0.6, 0.4) at cost 3.1:
      plain  = [y] 1*1 + 0.2*4 + [z] 0.5*1.2 + [x] 0.25*(1 + 1 + 0.2) = 2.95
      strong = [y] 0.6 + 1.6   + [z] 0.5     + [x] 0.25*(0.6+0.6+0.4) = 3.1
    """
    users = [User("u0", 1.0, (0.0, 1.0)), User("u1", 2.0, (2.0, 1.0))]
    facilities = [
        Facility("f0", (0.0, 0.0), {1: 100.0, 2: 100.0, 3: 0.5}),
        Facility("f1", (2.0, 0.0), {1: 100.0, 2: 100.0, 3: 0.5}),
    ]
    inst = Instance(
        users=users,
        facilities=facilities,
        central_offices=[CentralOffice("g0", 0.25)],
        steiner_nodes=[],
        core_arcs=[CoreArc("g0", "f0", 0.25), CoreArc("g0", "f1", 0.25)],
        assignment_arcs={
            1: [],
            2: [],
            3: [AssignmentArc("f0", "u0", 1.0), AssignmentArc("f1", "u1", 4.0)],
        },
        coverage_thresholds={1: 0.0, 2: 0.0, 3: 1.4},
        wireless=WirelessParams(
            p_min=0.1,
            p_max=1.0,
            delta=2.0,
            eta_noise=0.1,
            fading=full_fading(
                {
                    ("f0", "u0"): 0.5,
                    ("f0", "u1"): 0.5,
                    ("f1", "u0"): 0.5,
                    ("f1", "u1"): 0.5,
                },
                ["f0", "f1"],
                ["u0", "u1"],
            ),
        ),
        name="conflict-craft",
    )
    return inst, 2.95, 3.1


def attractiveness_instance() -> Instance:
    """The relaxation optimum is 4 (open f0 on t1: z 1 + core 2 + assign 1,
    root arc free); f0's user also covers the t2 requirement cumulatively.
    Fixing z_f0_t1 = 1 leaves it at 4, while fixing the remote f1 on t1
    adds opening (2) plus routing (2) and doubles it to 8.
    """
    return Instance(
        users=[User("u0", 1.0, (1.0, 0.0))],
        facilities=[
            Facility("f0", (0.0, 0.0), {1: 1.0, 2: 100.0, 3: 100.0}),
            Facility("f1", (5.0, 0.0), {1: 2.0, 2: 2.0, 3: 100.0}),
        ],
        central_offices=[CentralOffice("g0", 0.0)],
        steiner_nodes=[],
        core_arcs=[CoreArc("g0", "f0", 2.0), CoreArc("g0", "f1", 2.0)],
        assignment_arcs={
            1: [AssignmentArc("f0", "u0", 1.0)],
            2: [AssignmentArc("f1", "u0", 1.0)],
            3: [],
        },
        coverage_thresholds={1: 1.0, 2: 1.0, 3: 0.0},
        wireless=WirelessParams(
            p_min=0.1,
            p_max=1.0,
            delta=2.0,
            eta_noise=0.1,
            fading=full_fading({}, ["f0", "f1"], ["u0"]),
        ),
        name="attractiveness-craft",
    )


def super_instance() -> Instance:
    """u0 is wireless-servable only by f0, and f1 is a lone blocker for it:
    0.6 * 1 - 2 * 0.9 * 0.5 = -0.3 < 0.2 = delta * eta.  Fixing f1 open on
    the wireless tier therefore makes the strengthened relaxation (and the
    plain one, since coverage forces y = 1 exactly) infeasible."""
    return Instance(
        users=[User("u0", 1.0, (1.0, 0.0))],
        facilities=[
            Facility("f0", (0.0, 0.0), {1: 100.0, 2: 100.0, 3: 1.0}),
            Facility("f1", (2.0, 0.0), {1: 100.0, 2: 100.0, 3: 1.0}),
        ],
        central_offices=[CentralOffice("g0", 1.0)],
        steiner_nodes=[],
        core_arcs=[CoreArc("g0", "f0", 1.0), CoreArc("g0", "f1", 1.0)],
        assignment_arcs={1: [], 2: [], 3: [AssignmentArc("f0", "u0", 1.0)]},
        coverage_thresholds={1: 0.0, 2: 0.0, 3: 1.0},
        wireless=WirelessParams(
            p_min=0.5,
            p_max=1.0,
            delta=2.0,
            eta_noise=0.1,
            fading=full_fading(
                {("f0", "u0"): 0.6, ("f1", "u0"): 0.9}, ["f0", "f1"], ["u0"]
            ),
        ),
        name="super-craft",
    )


def repair_instance() -> Instance:
    """Opening f1 on wireless poisons u0 (it is a lone blocker thanks to
    p_min = 0.4 and fading 1.0), so the facility-opening state
    {(f0,3), (f1,3)} checks infeasible; closing f1 and opening the free f2
    instead serves u1 and repairs it."""
    users = [User("u0", 1.0, (0.0, 1.0)), User("u1", 1.0, (4.0, 1.0))]
    facilities = [
        Facility("f0", (0.0, 0.0), {1: 100.0, 2: 100.0, 3: 1.0}),
        Facility("f1", (2.0, 0.0), {1: 100.0, 2: 100.0, 3: 1.0}),
        Facility("f2", (4.0, 0.0), {1: 100.0, 2: 100.0, 3: 2.0}),
    ]
    return Instance(
        users=users,
        facilities=facilities,
        central_offices=[CentralOffice("g0", 1.0)],
        steiner_nodes=[],
        core_arcs=[
            CoreArc("g0", "f0", 1.0),
            CoreArc("g0", "f1", 1.0),
            CoreArc("g0", "f2", 1.0),
        ],
        assignment_arcs={
            1: [],
            2: [],
            3: [
                AssignmentArc("f0", "u0", 1.0),
                AssignmentArc("f1", "u1", 1.0),
                AssignmentArc("f2", "u1", 2.0),
            ],
        },
        coverage_thresholds={1: 0.0, 2: 0.0, 3: 2.0},
        wireless=WirelessParams(
            p_min=0.4,
            p_max=1.0,
            delta=2.0,
            eta_noise=0.1,
            fading=full_fading(
                {
                    ("f0", "u0"): 0.5,
                    ("f1", "u0"): 1.0,
                    ("f1", "u1"): 0.5,
                    ("f2", "u1"): 0.5,
                },
                ["f0", "f1", "f2"],
                ["u0", "u1"],
            ),
        ),
        name="repair-craft",
    )


def zero_fading_instance() -> Instance:
    """Three facilities and two users, four wireless arcs.  f1 reaches no
    user (fading 0), so it is no interferer in any SIR row; it serves u1
    all the same, so that SIR row keeps a zero coefficient on f1's power.
    The generator never writes a zero fading."""
    fading = {("f0", "u0"): 0.7, ("f1", "u0"): 0.0, ("f2", "u0"): 0.3,
              ("f0", "u1"): 0.2, ("f1", "u1"): 0.0, ("f2", "u1"): 0.55}
    facilities = ["f0", "f1", "f2"]
    return Instance(
        users=[User("u0", 1.0, (0.0, 0.0)), User("u1", 1.0, (1.0, 0.0))],
        facilities=[Facility(f, (float(k), 1.0), {1: 10.0, 2: 10.0, 3: 1.0})
                    for k, f in enumerate(facilities)],
        central_offices=[CentralOffice("g0", 1.0)],
        steiner_nodes=[],
        core_arcs=[CoreArc("g0", f, 1.0) for f in facilities],
        assignment_arcs={1: [], 2: [], 3: [
            AssignmentArc("f0", "u0", 1.0), AssignmentArc("f2", "u0", 1.0),
            AssignmentArc("f1", "u1", 1.0), AssignmentArc("f0", "u1", 1.0)]},
        coverage_thresholds={1: 0.0, 2: 0.0, 3: 0.0},
        wireless=WirelessParams(p_min=0.1, p_max=1.3, delta=1.8, eta_noise=0.05,
                                fading=fading),
        name="zero-fading",
    )


def calm_wireless_instance() -> Instance:
    """Wireless tier with no lone blockers and no conflicts: p_min = 0 lets
    interferers fall silent and the cross fadings are zero."""
    return Instance(
        users=[User("u0", 1.0, (0.0, 1.0)), User("u1", 1.0, (4.0, 1.0))],
        facilities=[
            Facility("f0", (0.0, 0.0), {1: 100.0, 2: 100.0, 3: 1.0}),
            Facility("f1", (4.0, 0.0), {1: 100.0, 2: 100.0, 3: 1.0}),
        ],
        central_offices=[CentralOffice("g0", 1.0)],
        steiner_nodes=[],
        core_arcs=[CoreArc("g0", "f0", 1.0), CoreArc("g0", "f1", 1.0)],
        assignment_arcs={
            1: [],
            2: [],
            3: [AssignmentArc("f0", "u0", 1.0), AssignmentArc("f1", "u1", 1.0)],
        },
        coverage_thresholds={1: 0.0, 2: 0.0, 3: 2.0},
        wireless=WirelessParams(
            p_min=0.0,
            p_max=1.0,
            delta=1.5,
            eta_noise=0.1,
            fading=full_fading(
                {("f0", "u0"): 1.0, ("f1", "u1"): 1.0}, ["f0", "f1"], ["u0", "u1"]
            ),
        ),
        name="calm-wireless",
    )


# The desk-scale generator preset of scripts/benchmark_small.py.
DESK = GeneratorParams(
    grid_width=4, grid_height=3, n_facilities=3, n_central_offices=1, n_steiner=0,
    users_per_pixel=0.4, knn=2, radii={1: 1.6, 2: 2.4, 3: 3.2},
    coverage_fractions={1: 0.2, 2: 0.4, 3: 0.5}, delta=1.8, eta_noise=0.05,
    max_retries=1,
)

# The preset of tests/test_cli.py's GEN_ARGS; with --seed 4 they write the
# instance the CLI tests use.
CLI_PARAMS = GeneratorParams(
    grid_width=3, grid_height=2, n_facilities=2, n_central_offices=1, n_steiner=0,
    users_per_pixel=0.5, knn=1, radii={1: 1.5, 2: 2.2, 3: 3.0},
    coverage_fractions={1: 0.2, 2: 0.4, 3: 0.5}, eta_noise=0.05, delta=1.8,
)


def strengthening_preset() -> GeneratorParams:
    """The preset of scripts/strengthening_effect.py, on which the
    strengthening rows bind at the relaxation optimum."""
    path = pathlib.Path(__file__).parents[1] / "scripts" / "strengthening_effect.py"
    spec = importlib.util.spec_from_file_location("strengthening_effect", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PARAMS

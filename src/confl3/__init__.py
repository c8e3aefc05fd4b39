"""Three-architecture connected facility location toolkit.

Wired (fiber, copper-terminated) plus wireless access-network design:
flow-based MILP models with signal-to-interference coverage rows, two
families of strengthening inequalities, bundled simplex and branch-and-bound
reference solvers, and a primal heuristic that combines LP-guided
probabilistic opening of facilities with an exact very-large-neighborhood
search.
"""

from .bnb import MipResult, solve_mip
from .confl import (
    Instance,
    big_m,
    build_3confl,
    conflict_pairs,
    strengthen,
    strengthening_pairs,
    verify_solution,
)
from .heuristic import FOS, HeuristicParams, RunResult, ogap, run
from .instance_io import GeneratorParams, generate, read_instance, report, write_instance
from .milp import (
    Model,
    apply_fixings,
    export_lp_text,
    lp_relaxation,
)
from .simplex import LpResult, solve_lp

__all__ = [
    "FOS",
    "GeneratorParams",
    "HeuristicParams",
    "Instance",
    "LpResult",
    "MipResult",
    "Model",
    "RunResult",
    "apply_fixings",
    "big_m",
    "build_3confl",
    "conflict_pairs",
    "export_lp_text",
    "generate",
    "lp_relaxation",
    "ogap",
    "read_instance",
    "report",
    "run",
    "solve_lp",
    "solve_mip",
    "strengthen",
    "strengthening_pairs",
    "verify_solution",
    "write_instance",
]

__version__ = "0.1.0"

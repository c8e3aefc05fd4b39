"""Three-architecture connected facility location toolkit.

Wired (fiber, copper-terminated) plus wireless access-network design:
flow-based MILP models with signal-to-interference coverage rows, two
families of strengthening inequalities, bundled simplex and branch-and-bound
reference solvers, and a primal heuristic that combines LP-guided
probabilistic opening of facilities with an exact very-large-neighborhood
search.
"""

__version__ = "0.1.0"

"""Branch and bound on a whole model: prepare its matrix, then solve under
the model's own bounds until `time_limit` seconds from the call."""

import time

from confl3 import bnb, simplex


def solve_model(model, time_limit: float, node_limit: int | None = None) -> bnb.MipResult:
    deadline = time.monotonic() + time_limit
    return bnb.solve_mip(simplex.prepare(model), model.variables.lower, model.variables.upper,
                         deadline=deadline, node_limit=node_limit)

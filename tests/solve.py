"""Branch and bound on a whole model: prepare its matrix, then solve under
the model's own bounds."""

from confl3 import bnb, simplex


def solve_model(model, time_limit: float, node_limit: int | None = None) -> bnb.MipResult:
    return bnb.solve_mip(simplex.prepare(model), *simplex.model_bounds(model),
                         time_limit, node_limit)

#!/usr/bin/env python3
"""Small-scale benchmark: exact branch-and-bound vs the fixing heuristic.

Generates a batch of tiny instances, solves each both ways, verifies every
solution independently, and prints the gap table.  Everything is seeded, so
repeated runs print the same numbers.

Usage: python scripts/benchmark_small.py [n_instances] [outer_iterations]
"""

import sys
import time

from confl3 import bnb
from confl3.confl import build_3confl, strengthening_pairs, verify_solution
from confl3.heuristic import HeuristicParams, ogap, run
from confl3.instance_io import GeneratorParams, ResultRow, generate, report
from confl3.simplex import model_bounds, prepare, separate, solve_prepared

PARAMS = GeneratorParams(
    grid_width=4,
    grid_height=3,
    n_facilities=3,
    n_central_offices=1,
    n_steiner=0,
    users_per_pixel=0.4,
    knn=2,
    radii={1: 1.6, 2: 2.4, 3: 3.2},
    coverage_fractions={1: 0.2, 2: 0.4, 3: 0.5},
    delta=1.8,
    eta_noise=0.05,
    max_retries=1,
)


def main() -> int:
    n_instances = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    outer_iterations = int(sys.argv[2]) if len(sys.argv) > 2 else 10

    rows = []
    seed = 0
    done = 0
    t0 = time.time()
    while done < n_instances and seed < 500:
        try:
            instance = generate(PARAMS, seed)
        except ValueError:
            seed += 1
            continue
        confl = build_3confl(instance)
        prep = prepare(confl.model)
        lo, hi = model_bounds(confl.model)
        # The strengthened root: the plain LP, then the cut loop over the pairs.
        _, root = separate(prep, lo, hi, solve_prepared(prep, lo, hi),
                           strengthening_pairs(confl, instance))
        if root.status != "optimal":
            seed += 1
            continue

        exact = bnb.solve_mip(prep, lo, hi, 120.0)
        heur = run(instance, HeuristicParams(test_iterations=outer_iterations, rng_seed=done))
        if exact.status != "optimal" or heur.status != "feasible":
            print(f"seed {seed}: exact={exact.status}, heuristic={heur.status}; skipped")
            seed += 1
            continue

        assert verify_solution(instance, confl, heur.assignment).feasible
        lower = min(root.objective, exact.objective)
        rows.append(
            ResultRow(
                instance_id=f"S{seed}",
                gap_reference=100.0 * ogap(exact.objective, lower),
                gap_heuristic=100.0 * ogap(heur.objective, lower),
            )
        )
        marker = "=" if abs(heur.objective - exact.objective) <= 1e-6 else ">"
        print(
            f"seed {seed}: exact {exact.objective:.4f} {marker} heuristic "
            f"{heur.objective:.4f} (root bound {root.objective:.4f})"
        )
        done += 1
        seed += 1

    print()
    print(report(rows))
    print(f"total {time.time() - t0:.1f}s for {done} instances")
    return 0


if __name__ == "__main__":
    sys.exit(main())

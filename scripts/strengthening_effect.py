#!/usr/bin/env python3
"""Measure how much the lone-blocker and conflict rows lift the LP bound.

Prints, per seeded instance, the plain relaxation value, the strengthened
one, the number of strengthening rows and the relative bound improvement.
The strengthened value comes from the cut loop on the plain matrix, which
appends only the rows the plain optimum violates.

Usage: python scripts/strengthening_effect.py [n_instances]
"""

import sys

from confl3.confl import build_3confl, conflict_pairs, strengthening_pairs
from confl3.instance_io import GeneratorParams, generate
from confl3.simplex import model_bounds, prepare, separate, solve_prepared

# Sparse wireless coverage with a high power floor: users mostly have a
# single candidate server, every open transmitter interferes, so the
# lone-blocker and conflict rows actually bind at the relaxation optimum.
PARAMS = GeneratorParams(
    grid_width=6,
    grid_height=4,
    n_facilities=4,
    n_central_offices=1,
    n_steiner=1,
    users_per_pixel=0.45,
    knn=2,
    radii={1: 1.0, 2: 1.4, 3: 2.2},
    coverage_fractions={1: 0.05, 2: 0.15, 3: 0.7},
    delta=2.0,
    eta_noise=0.05,
    p_min=0.45,
    pathloss_exponent=2.2,
    max_retries=1,
)


def main() -> int:
    n_instances = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    print(f"{'seed':>5} {'plain LP':>10} {'strong LP':>10} {'rows':>5} {'lift%':>7}")
    seed = 0
    done = 0
    while done < n_instances and seed < 500:
        try:
            instance = generate(PARAMS, seed)
        except ValueError:
            seed += 1
            continue
        plain = build_3confl(instance)
        pairs = strengthening_pairs(plain, instance)
        prep = prepare(plain.model)
        lo, hi = model_bounds(plain.model)
        lp_plain = solve_prepared(prep, lo, hi)
        _, lp_strong = separate(prep, lo, hi, lp_plain, pairs)
        if lp_plain.status != "optimal" or lp_strong.status != "optimal":
            seed += 1
            continue
        lift = 100.0 * (lp_strong.objective - lp_plain.objective) / max(lp_plain.objective, 1e-12)
        if abs(lift) < 1e-9:
            lift = 0.0
        print(
            f"{seed:>5} {lp_plain.objective:>10.4f} {lp_strong.objective:>10.4f} "
            f"{len(pairs):>5} {lift:>7.3f}"
        )
        done += 1
        seed += 1
    n_conf = len(conflict_pairs(generate(PARAMS, 0)))
    print(f"\n(first instance has {n_conf} conflict pairs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

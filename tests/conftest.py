"""Shared fixtures: the frozen set of tiny random instances used by the
acceptance suite (two generator presets, first qualifying seeds)."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import pytest

from confl3.confl import build_3confl, strengthen
from confl3.instance_io import GeneratorParams, generate
from confl3.milp import BINARY

from solve import solve_model

# Two facilities with wireless interference, mostly single-user coverage.
PRESET_INTERFERENCE = dict(
    grid_width=3, grid_height=2, n_facilities=2, n_central_offices=1,
    n_steiner=0, users_per_pixel=0.35, knn=1,
    radii={1: 1.3, 2: 2.0, 3: 3.0},
    coverage_fractions={1: 0.0, 2: 0.5, 3: 0.7},
    delta=1.8, eta_noise=0.05, max_retries=1,
)

# One facility, denser users, all tiers requested.
PRESET_DENSE = dict(
    grid_width=3, grid_height=2, n_facilities=1, n_central_offices=1,
    n_steiner=0, users_per_pixel=0.5, knn=1,
    radii={1: 2.0, 2: 2.2, 3: 2.0},
    coverage_fractions={1: 0.3, 2: 0.4, 3: 0.4},
    delta=1.8, eta_noise=0.05, max_retries=1,
)

MAX_BINARIES = 18


def scan_qualifying(preset: dict, count: int, max_seed: int = 600):
    """First `count` seeds whose instance stays within the enumeration caps."""
    found = []
    seed = 0
    while len(found) < count and seed < max_seed:
        try:
            instance = generate(GeneratorParams(**preset), seed)
        except ValueError:
            seed += 1
            continue
        confl = build_3confl(instance)
        n_bin = sum(1 for v in confl.model.variables if v.kind == BINARY)
        if 1 <= len(instance.users) <= 8 and n_bin <= MAX_BINARIES:
            found.append((seed, instance, confl))
        seed += 1
    assert len(found) == count, f"only {len(found)} qualifying seeds below {max_seed}"
    return found


@pytest.fixture(scope="session")
def acceptance_set():
    return scan_qualifying(PRESET_INTERFERENCE, 10) + scan_qualifying(PRESET_DENSE, 10)


@pytest.fixture(scope="session")
def acceptance_exact(acceptance_set):
    """Reference branch-and-bound results, shared across criteria."""
    return [solve_model(confl.model, 120.0) for _, _, confl in acceptance_set]


@pytest.fixture(scope="session")
def acceptance_strong(acceptance_set):
    return [strengthen(confl, inst) for _, inst, confl in acceptance_set]

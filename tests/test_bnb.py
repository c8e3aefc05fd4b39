import numpy as np
import pytest

from confl3 import bnb, simplex
from confl3.confl import build_3confl
from confl3.instance_io import generate
from confl3.milp import (
    BINARY,
    CONTINUOUS,
    GE,
    LE,
    Model,
    apply_fixings,
    evaluate,
    lp_relaxation,
)

from instances import DESK
from oracles import mip_enumeration_optimum
from solve import solve_model


def test_cover_pair():
    m = Model()
    a = m.add_variable("x1", BINARY, 0, 1)
    b = m.add_variable("x2", BINARY, 0, 1)
    m.set_objective_coef(a, 1.0)
    m.set_objective_coef(b, 1.0)
    m.add_constraint([(a, 1.0), (b, 1.0)], GE, 1.0)
    r = solve_model(m, 10.0)
    assert r.status == bnb.OPTIMAL
    assert r.objective == pytest.approx(1.0)
    assert r.lower_bound <= r.objective + 1e-9


def test_contradictory_fixing_proved_infeasible():
    m = Model()
    v = m.add_variable("x1", BINARY, 0, 1)
    m.set_objective_coef(v, 1.0)
    m.add_constraint([(v, 1.0)], GE, 1.0)
    r = solve_model(apply_fixings(m, {v: 0.0}), 10.0)
    assert r.status == bnb.INFEASIBLE
    assert r.incumbent is None


def _random_milp(rng: np.random.Generator, n_bin=8, n_cont=3, n_cons=8) -> Model:
    m = Model()
    bins = [m.add_variable(f"b{i}", BINARY, 0, 1) for i in range(n_bin)]
    conts = [m.add_variable(f"c{i}", CONTINUOUS, 0.0, float(rng.uniform(1, 4))) for i in range(n_cont)]
    for vid in bins + conts:
        m.set_objective_coef(vid, float(rng.normal()))
    everything = bins + conts
    for _ in range(n_cons):
        terms = [(i, float(rng.normal())) for i in everything if rng.random() < 0.6]
        if not terms:
            terms = [(everything[0], 1.0)]
        m.add_constraint(terms, str(rng.choice([LE, GE])), float(rng.normal() * 2))
    return m


@pytest.mark.parametrize("seed", range(25))
def test_random_milps_match_enumeration(seed):
    rng = np.random.default_rng(seed)
    m = _random_milp(rng)
    got = solve_model(m, 60.0)
    want_status, want_obj, _ = mip_enumeration_optimum(m)
    assert got.status == ("optimal" if want_status == "optimal" else "infeasible")
    if want_status == "optimal":
        assert got.objective == pytest.approx(want_obj, abs=1e-6)


@pytest.mark.parametrize("seed", range(8))
def test_incumbent_is_integral_and_feasible(seed):
    rng = np.random.default_rng(300 + seed)
    m = _random_milp(rng, n_bin=6)
    r = solve_model(m, 60.0)
    if r.incumbent is None:
        return
    _, violations = evaluate(m, r.incumbent, tol=1e-6)
    assert violations == []
    for vid in m.binary_ids():
        assert min(abs(r.incumbent[vid]), abs(r.incumbent[vid] - 1.0)) <= 1e-6


@pytest.mark.parametrize("seed", range(8))
def test_lp_relaxation_bounds_mip(seed):
    rng = np.random.default_rng(600 + seed)
    m = _random_milp(rng, n_bin=6)
    mip = solve_model(m, 60.0)
    lp = simplex.solve_lp(lp_relaxation(m))
    if mip.status == bnb.OPTIMAL:
        assert lp.status == simplex.OPTIMAL
        assert lp.objective <= mip.objective + 1e-6
        assert mip.lower_bound <= mip.objective + 1e-9


def test_determinism_across_runs():
    rng = np.random.default_rng(42)
    m = _random_milp(rng, n_bin=9)
    r1 = solve_model(m, 60.0)
    r2 = solve_model(m, 60.0)
    assert r1.status == r2.status
    assert r1.nodes == r2.nodes
    assert r1.objective == r2.objective
    assert r1.incumbent == r2.incumbent
    assert r1.lower_bound == r2.lower_bound


def test_time_limit_respected():
    rng = np.random.default_rng(7)
    m = _random_milp(rng, n_bin=18, n_cont=6, n_cons=24)
    limit = 0.05
    r = solve_model(m, limit)
    assert r.elapsed < limit + 2.0  # within one node's overhead at this scale
    assert r.status in (bnb.OPTIMAL, bnb.FEASIBLE, bnb.INFEASIBLE, bnb.TIMEOUT_NO_INCUMBENT)


def test_node_limit():
    rng = np.random.default_rng(8)
    m = _random_milp(rng, n_bin=12, n_cons=14)
    r = solve_model(m, 60.0, node_limit=1)
    assert r.nodes <= 1


def test_bound_out_without_incumbent_is_distinct_status():
    rng = np.random.default_rng(9)
    m = _random_milp(rng, n_bin=10, n_cons=12)
    r = solve_model(m, 60.0, node_limit=0)
    assert r.status == bnb.TIMEOUT_NO_INCUMBENT
    assert r.incumbent is None


def test_only_the_root_relaxation_is_solved_cold(monkeypatch):
    model = build_3confl(generate(DESK, 1)).model
    cold = []
    two_phase = simplex._two_phase

    def counting_two_phase(*args):
        cold.append(args)
        return two_phase(*args)

    monkeypatch.setattr(simplex, "_two_phase", counting_two_phase)
    r = solve_model(model, 60.0)
    assert r.status == bnb.OPTIMAL
    assert r.nodes > 10
    assert len(cold) == 1

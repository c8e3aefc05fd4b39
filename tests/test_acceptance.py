"""Acceptance suite: one test per primary criterion, each printing a
PASS/FAIL line and enforcing its stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import contextlib
import json
import time

import numpy as np
import pytest

from confl3 import bnb, simplex
from confl3.cli import main as cli_main
from confl3.confl import TECHNOLOGIES, build_3confl, covers, strengthen, verify_solution
from confl3.heuristic import (
    FOS,
    AttractivenessTable,
    HeuristicContext,
    HeuristicParams,
    fixing_probabilities,
    ogap,
    run,
    tau_update,
    vlns,
)
from confl3.instance_io import ResultRow, report
from confl3.milp import lp_relaxation

from instances import (
    REFERENCE_GAP_ROWS,
    calm_wireless_instance,
    conflict_instance,
    pair_instance,
)
from oracles import big_m, enumerate_binary_patterns, mip_enumeration_optimum
from rows import row_list
from solve import solve_model


@contextlib.contextmanager
def criterion(name: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    print(f"[ACCEPTANCE] {name}: PASS ({time.monotonic() - start:.1f}s)")


def test_table1_gap_arithmetic():
    with criterion("table1-gap-arithmetic"):
        start = time.monotonic()
        rows = [ResultRow(rid, ref, heu) for rid, ref, heu, _ in REFERENCE_GAP_ROWS]
        text = report(rows)
        rendered = {}
        for line in text.splitlines()[2:-2]:
            cells = line.split()
            rendered[cells[0]] = float(cells[3])
        assert len(rendered) == 15
        for rid, ref, heu, printed in REFERENCE_GAP_ROWS:
            exact = 100.0 * (heu - ref) / ref
            assert abs(rendered[rid] - exact) <= 0.005, rid
            if abs(exact - printed) <= 0.005:  # self-consistent benchmark rows
                assert rendered[rid] == pytest.approx(printed, abs=1e-9), rid
        # anchor rows spelled out in full
        assert rendered["I1"] == -11.67
        assert rendered["I13"] == -45.29
        assert time.monotonic() - start < 1.0


def test_exact_solver_matches_enumeration(acceptance_set, acceptance_exact):
    with criterion("oracle-equivalence-exact"):
        start = time.monotonic()
        assert len(acceptance_set) >= 20
        for (seed, instance, confl), got in zip(acceptance_set, acceptance_exact):
            assert len(instance.facilities) <= 6
            assert len(instance.users) <= 8
            want_status, want_obj, _ = mip_enumeration_optimum(confl.model)
            if want_status == "optimal":
                assert got.status == bnb.OPTIMAL, (seed, got.status)
                assert got.objective == pytest.approx(want_obj, abs=1e-6), seed
            else:
                assert got.status == bnb.INFEASIBLE, (seed, got.status)
        assert time.monotonic() - start <= 300.0


def test_heuristic_quality(acceptance_set, acceptance_exact):
    with criterion("heuristic-quality"):
        start = time.monotonic()
        params = HeuristicParams(test_iterations=10, rng_seed=12345)
        matched = 0
        feasible_total = 0
        for (seed, instance, confl), exact in zip(acceptance_set, acceptance_exact):
            if exact.status != bnb.OPTIMAL:
                continue
            feasible_total += 1
            result = run(instance, params)
            assert result.status == "feasible", f"seed {seed}: no solution"
            rep = verify_solution(instance, confl, result.assignment)
            assert rep.feasible, f"seed {seed}: verification failed: {rep}"
            if result.objective <= exact.objective + 1e-6:
                matched += 1
        assert feasible_total > 0
        assert matched >= 0.8 * feasible_total, f"{matched}/{feasible_total} matched"
        assert time.monotonic() - start <= 600.0


def test_strengthening_validity_and_effect(acceptance_set, acceptance_strong):
    with criterion("strengthening-validity-and-effect"):
        crafted, plain_lp_want, strong_lp_want = conflict_instance()
        crafted_plain = build_3confl(crafted)
        crafted_strong = strengthen(crafted_plain, crafted)

        cases = [(inst, confl, strong) for (_, inst, confl), strong
                 in zip(acceptance_set, acceptance_strong)]
        cases.append((crafted, crafted_plain, crafted_strong))

        for instance, plain, strong in cases:
            extra = row_list(strong.model.constraints)[len(plain.model.constraints):]
            # (a) every integer-feasible solution satisfies every added row
            for _, res in enumerate_binary_patterns(plain.model):
                for row in extra:
                    terms, _, rhs = row
                    lhs = sum(coef * res.assignment[vid] for vid, coef in terms)
                    assert lhs <= rhs + 1e-8, row
            # (b) the strengthened bound never drops
            lp_plain = simplex.solve_lp(lp_relaxation(plain.model))
            lp_strong = simplex.solve_lp(lp_relaxation(strong.model))
            if lp_plain.status == "optimal" and lp_strong.status == "optimal":
                assert lp_strong.objective >= lp_plain.objective - 1e-8

        got_plain = simplex.solve_lp(lp_relaxation(crafted_plain.model))
        got_strong = simplex.solve_lp(lp_relaxation(crafted_strong.model))
        assert got_plain.objective == pytest.approx(plain_lp_want, abs=1e-6)
        assert got_strong.objective == pytest.approx(strong_lp_want, abs=1e-6)
        assert got_strong.objective > got_plain.objective + 1e-8


def test_big_m_validity_and_tightness(acceptance_set):
    with criterion("big-m-validity-and-tightness"):
        rng = np.random.default_rng(2024)
        checked_pairs = 0
        for seed, instance, confl in acceptance_set[:10]:
            w = instance.wireless
            facs = [f.id for f in instance.facilities]
            for arc in instance.assignment_arcs.get(3, []):
                m = big_m(instance, arc.facility, arc.user)
                powers = rng.uniform(0.0, w.p_max, size=(1000, len(facs)))
                fi = facs.index(arc.facility)
                gains = np.array([w.fading[k, arc.user] for k in facs])
                own = gains[fi] * powers[:, fi]
                interference = powers @ gains - gains[fi] * powers[:, fi]
                lhs = own - w.delta * interference + m
                assert np.all(lhs >= w.delta * w.eta_noise - 1e-9)
                checked_pairs += 1
        assert checked_pairs > 0

        # Tightness witness: with M shaved by 1%, sampled in-bounds vectors
        # violate the deactivated row on the worst-case geometry.
        worst = pair_instance(a_fu=0.0, a_ku=1.0, p_min=0.1, p_max=1.0,
                              delta=2.0, eta=0.05)
        w = worst.wireless
        m_tight = big_m(worst, "f0", "u0")
        m_shaved = 0.99 * m_tight
        powers = np.random.default_rng(77).uniform(0.0, w.p_max, size=(1000, 2))
        lhs = 0.0 * powers[:, 0] - w.delta * 1.0 * powers[:, 1] + m_shaved
        assert np.any(lhs < w.delta * w.eta_noise - 1e-12)


def test_formula_unit_checks():
    with criterion("formula-unit-checks"):
        # optimality gap
        assert ogap(7.0, 7.0) == 0.0
        assert abs(ogap(10.0, 5.0) - 0.5) <= 1e-12
        # completeness double sum
        inst = calm_wireless_instance()
        inst.users[0].weight = 3.0
        from confl3.confl import AssignmentArc

        inst.assignment_arcs[3] = [
            AssignmentArc("f0", "u0", 1.0),
            AssignmentArc("f1", "u0", 1.0),
        ]
        inst.coverage_thresholds = {1: 0.0, 2: 0.0, 3: 3.0}
        ctx = HeuristicContext(inst)  # a threshold above the real weight fails validation
        inst.coverage_thresholds[3] = 5.0
        assert covers(inst, ctx.potential, FOS(frozenset({("f0", 3), ("f1", 3)})).entries, 3)
        assert not covers(inst, ctx.potential, FOS(frozenset({("f0", 3)})).entries, 3)
        # probability blend
        probs = fixing_probabilities(["a", "b"], [0.6, 0.2], [0.2, 0.2], 0.5)
        assert np.allclose(probs, [2 / 3, 1 / 3], atol=1e-12)
        assert abs(probs.sum() - 1.0) <= 1e-12
        scaled = fixing_probabilities(["a", "b"], [6.0, 2.0], [2.0, 2.0], 0.5)
        assert np.allclose(probs, scaled, atol=1e-12)
        # attractiveness update
        table = AttractivenessTable(tau={("f", 1): 0.4}, tau0={("f", 1): 0.4})
        updated = tau_update(
            table, [(FOS(frozenset({("f", 1)})), 25.0 / 3.0)], 10.0, 5.0
        )
        assert abs(updated.tau["f", 1] - 0.48) <= 1e-12


def test_determinism_end_to_end(tmp_path):
    with criterion("determinism-end-to-end"):
        inst_path = tmp_path / "inst.json"
        args = [
            "generate", "--grid-width", "3", "--grid-height", "2",
            "--facilities", "2", "--central-offices", "1", "--steiner", "0",
            "--density", "0.5", "--knn", "1", "--radii", "1.5,2.2,3.0",
            "--fractions", "0.2,0.4,0.5", "--delta", "1.8",
            "--eta-noise", "0.05", "--seed", "11", "-o", str(inst_path),
        ]
        assert cli_main(args) == 0
        inst2 = tmp_path / "inst2.json"
        assert cli_main(args[:-1] + [str(inst2)]) == 0
        assert inst_path.read_bytes() == inst2.read_bytes()

        sols = []
        for name in ("s1.json", "s2.json"):
            out = tmp_path / name
            code = cli_main(
                ["solve", str(inst_path), "--iters", "3", "--seed", "5", "-o", str(out)]
            )
            assert code == 0
            sols.append(out.read_bytes())
        assert sols[0] == sols[1]
        json.loads(sols[0])  # well-formed


def test_vlns_contract(acceptance_set, acceptance_exact):
    with criterion("vlns-contract"):
        params = HeuristicParams(test_iterations=1)

        # radius 0: the neighborhood is exactly the center fixing
        inst = calm_wireless_instance()
        ctx = HeuristicContext(inst)
        exact = solve_model(ctx.plain.model, 60.0)
        center = {key: exact.incumbent[zid] for key, zid in ctx.plain.z.items()}
        pinned = vlns(inst, ctx, center, HeuristicParams(test_iterations=1, vlns_radius=0))
        assert pinned.objective == pytest.approx(exact.objective, abs=1e-6)

        # radius |F| * |T|: the hamming row is vacuous
        crafted, _, _ = conflict_instance()
        cctx = HeuristicContext(crafted)
        free = solve_model(cctx.plain.model, 60.0)
        n_full = len(crafted.facilities) * len(TECHNOLOGIES)
        wide = vlns(crafted, cctx, {k: 0.0 for k in cctx.plain.z},
                    HeuristicParams(test_iterations=1, vlns_radius=n_full))
        assert wide.objective == pytest.approx(free.objective, abs=1e-6)

        # an improve search never returns a non-improving solution
        for (seed, instance, confl), exact in list(zip(acceptance_set, acceptance_exact))[:6]:
            if exact.status != bnb.OPTIMAL:
                continue
            ictx = HeuristicContext(instance)
            center = {key: exact.incumbent[zid] for key, zid in ictx.plain.z.items()}
            none_better = vlns(instance, ictx, center, params, cutoff=exact.objective)
            assert not none_better.has_solution(), seed
            inflated = exact.objective + 5.0
            maybe = vlns(instance, ictx, center, params, cutoff=inflated)
            if maybe.has_solution():
                assert maybe.objective < inflated

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from confl3 import bnb, simplex
from confl3.confl import (
    big_m,
    build_3confl,
    conflict_pairs,
    strengthen,
    strengthening_pairs,
    superinterferers,
    validate_instance,
    verify_solution,
)
from confl3.milp import LE, LinearConstraint, apply_fixings, evaluate, lp_relaxation

from instances import (
    build_2confl,
    calm_wireless_instance,
    conflict_instance,
    pair_instance as _pair_instance,
    repair_instance,
    wired_tiny,
    wireless_single,
)
from oracles import enumerate_binary_patterns, mip_enumeration_optimum
from solve import solve_model


def _is_sir_row(confl, row, fid=None, uid=None) -> bool:
    """Whether `row` is an SIR row, the one of (fid, uid) when they are
    given: a row that holds a wireless assignment column and a power
    column."""
    cols = {vid for vid, _ in row.terms}
    ys = {yid for (f, u, t), yid in confl.y.items()
          if t == 3 and fid in (None, f) and uid in (None, u)}
    return bool(cols & ys) and bool(cols & set(confl.power.values()))


class TestBuildCounts:
    def test_variable_families_have_closed_form_sizes(self):
        inst = repair_instance()
        confl = build_3confl(inst)
        n_f, n_t = len(inst.facilities), 3
        n_arcs = len(inst.central_offices) + len(inst.core_arcs)
        assert len(confl.z) == n_f * n_t
        assert len(confl.x) == n_arcs
        assert len(confl.flow) == n_arcs * n_f
        n_sir = sum(1 for c in confl.model.constraints if _is_sir_row(confl, c))
        assert n_sir == len(inst.assignment_arcs[3])
        assert len(confl.y) == sum(len(a) for a in inst.assignment_arcs.values())

    def test_root_arc_costs_equal_office_costs(self):
        inst, _ = wired_tiny()
        confl = build_2confl(inst)
        root_arcs = [a for a in confl.arcs if a[0] == "r"]
        assert [(h, c) for _, h, c in root_arcs] == [("g0", 3.0)]


class TestBuild2Confl:
    def test_hand_solved_tiny_instance(self):
        inst, want = wired_tiny()
        confl = build_2confl(inst)
        got = solve_model(confl.model, 30.0)
        assert got.status == bnb.OPTIMAL
        assert got.objective == pytest.approx(want, abs=1e-6)
        status, obj, _ = mip_enumeration_optimum(confl.model)
        assert status == "optimal" and obj == pytest.approx(want, abs=1e-6)

    def test_zero_thresholds_mean_zero_cost(self):
        inst, _ = wired_tiny()
        inst.coverage_thresholds = {1: 0.0, 2: 0.0}
        confl = build_2confl(inst)
        got = solve_model(confl.model, 30.0)
        assert got.objective == pytest.approx(0.0, abs=1e-9)

    def test_served_user_has_exactly_one_assignment_arc(self):
        inst, _ = wired_tiny()
        confl = build_2confl(inst)
        for pattern, _ in enumerate_binary_patterns(confl.model):
            v = pattern[confl.v["u0", 1]]
            ys = sum(pattern[yid] for (f, u, t), yid in confl.y.items() if u == "u0" and t == 1)
            assert ys == pytest.approx(v)

    def test_wrong_technology_set_rejected(self):
        with pytest.raises(ValueError, match="technologies"):
            build_2confl(wireless_single())


class TestBuild3Confl:
    def test_closed_wireless_facility_has_zero_power(self):
        inst = wireless_single()
        confl = build_3confl(inst)
        fixed = apply_fixings(confl.model, {confl.z["f0", 3]: 0.0})
        for pattern, res in enumerate_binary_patterns(fixed):
            assert res.assignment[confl.power["f0"]] == pytest.approx(0.0, abs=1e-9)

    def test_single_wireless_facility_serves_at_full_power(self):
        inst = wireless_single()
        w = inst.wireless
        # No interferers: the requirement at p = p_max is a*p_max >= delta*eta.
        assert w.fading["f0", "u0"] * w.p_max >= w.delta * w.eta_noise
        confl = build_3confl(inst)
        got = solve_model(confl.model, 30.0)
        assert got.status == bnb.OPTIMAL
        report = verify_solution(inst, confl, got.incumbent)
        assert report.feasible

    def test_inactive_assignment_silences_sir_row(self):
        inst, _, _ = conflict_instance()
        confl = build_3confl(inst)
        sir_rows = [c for c in confl.model.constraints if _is_sir_row(confl, c, "f0", "u0")]
        assert len(sir_rows) == 1
        row = sir_rows[0]
        rng = np.random.default_rng(0)
        w = inst.wireless
        for _ in range(100):
            values = {confl.power[f.id]: rng.uniform(0, w.p_max) for f in inst.facilities}
            values[confl.y["f0", "u0", 3]] = 0.0
            lhs = sum(coef * values[vid] for vid, coef in row.terms)
            assert lhs >= row.rhs - 1e-12

    def test_missing_wireless_params_rejected(self):
        inst = wireless_single()
        inst.wireless = None
        with pytest.raises(ValueError, match="wireless"):
            build_3confl(inst)


class TestBigM:
    def test_two_facility_hand_value(self):
        inst = _pair_instance(a_fu=0.9, a_ku=0.5, p_min=0.1, p_max=1.0, delta=2.0, eta=0.1)
        assert big_m(inst, "f0", "u0") == pytest.approx(1.2, abs=1e-12)

    def test_no_interferers_reduces_to_noise_term(self):
        inst = wireless_single()
        assert big_m(inst, "f0", "u0") == pytest.approx(
            inst.wireless.delta * inst.wireless.eta_noise, abs=1e-15
        )

    def test_monte_carlo_validity(self):
        inst = _pair_instance(a_fu=0.9, a_ku=0.5, p_min=0.1, p_max=1.0, delta=2.0, eta=0.1)
        w = inst.wireless
        m = big_m(inst, "f0", "u0")
        rng = np.random.default_rng(1)
        for _ in range(1000):
            p0, p1 = rng.uniform(0, w.p_max, size=2)
            lhs = w.fading["f0", "u0"] * p0 - w.delta * w.fading["f1", "u0"] * p1 + m
            assert lhs >= w.delta * w.eta_noise - 1e-12

    def test_one_percent_smaller_m_fails_at_the_corner(self):
        inst = _pair_instance(a_fu=0.0, a_ku=1.0, p_min=0.1, p_max=1.0, delta=2.0, eta=0.05)
        w = inst.wireless
        m = 0.99 * big_m(inst, "f0", "u0")
        lhs = 0.0 - w.delta * 1.0 * w.p_max + m  # server silent, interferer at full power
        assert lhs < w.delta * w.eta_noise


class TestSuperinterferers:
    def test_blocking_case(self):
        inst = _pair_instance(a_fu=0.8, a_ku=0.9, p_min=0.2, p_max=1.0, delta=5.0, eta=0.1)
        assert superinterferers(inst, "u0", "f0") == {"f1"}

    def test_non_blocking_case(self):
        inst = _pair_instance(a_fu=0.8, a_ku=0.9, p_min=0.2, p_max=1.0, delta=2.0, eta=0.1)
        assert superinterferers(inst, "u0", "f0") == set()

    def test_silent_interferer_never_blocks(self):
        inst = _pair_instance(a_fu=0.8, a_ku=1.0, p_min=0.0, p_max=1.0, delta=2.0, eta=0.1)
        assert superinterferers(inst, "u0", "f0") == set()

    @given(
        st.floats(0.05, 1.0), st.floats(0.0, 1.0),
        st.floats(0.0, 0.6), st.floats(0.6, 1.5), st.floats(1.1, 4.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_blocker_verdict_matches_best_case_ratio(self, a_fu, a_ku, p_min, p_max, delta):
        # k blocks (f0, u0) exactly when the best case (server at full
        # power, k at its floor) still misses the ratio threshold.
        eta = 0.05
        margin = a_fu * p_max - delta * (eta + a_ku * p_min)
        assume(abs(margin) > 1e-9)  # stay off the knife edge
        inst = _pair_instance(a_fu, a_ku, p_min, p_max, delta, eta)
        blocked = "f1" in superinterferers(inst, "u0", "f0")
        best_ratio = a_fu * p_max / (eta + a_ku * p_min)
        assert blocked == (best_ratio < delta)


def named_pairs(inst, pairs):
    """The ((f1, u1), (f2, u2)) ids of conflict pairs given as positions in
    the wireless assignment arcs, in the order of `pairs`."""
    from confl3.confl import TECH_WIRELESS

    arcs = inst.assignment_arcs[TECH_WIRELESS]
    return [tuple((arcs[p].facility, arcs[p].user) for p in pair) for pair in pairs.tolist()]


class TestConflictPairs:
    def test_symmetric_conflict_detected(self):
        inst, _, _ = conflict_instance()
        pairs = conflict_pairs(inst)
        assert pairs.shape == (1, 2)
        assert named_pairs(inst, pairs) == [(("f0", "u0"), ("f1", "u1"))]

    @given(
        st.floats(0.05, 1.0), st.floats(0.0, 1.0),
        st.floats(0.05, 1.0), st.floats(0.0, 1.0),
        st.floats(0.0, 0.5), st.floats(0.5, 2.0), st.floats(1.1, 4.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_pair_test_agrees_with_grid_sampling(self, a1, b1, a2, b2, p_min, p_max, delta):
        from confl3.confl import WirelessParams
        from oracles import _two_sir_feasible

        eta = 0.05
        w = WirelessParams(p_min, p_max, delta, eta, {})
        exact = _two_sir_feasible(a1, b1, a2, b2, w)
        grid = np.linspace(p_min, p_max, 41)
        rhs = delta * eta
        sat = (
            (a1 * grid[:, None] - delta * b1 * grid[None, :] >= rhs - 1e-9)
            & (a2 * grid[None, :] - delta * b2 * grid[:, None] >= rhs - 1e-9)
        )
        if sat.any():
            # a sampled joint power pattern satisfies both requirements,
            # so the exact test may not call the pair a conflict
            assert exact
        if not exact:
            # conflict verdicts must survive a strict-margin grid sweep
            strict = (
                (a1 * grid[:, None] - delta * b1 * grid[None, :] >= rhs + 1e-9)
                & (a2 * grid[None, :] - delta * b2 * grid[:, None] >= rhs + 1e-9)
            )
            assert not strict.any()

    def test_decoupled_requirements_do_not_conflict(self):
        assert conflict_pairs(calm_wireless_instance()).shape == (0, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_block_evaluation_matches_scalar_reference(self, seed):
        from confl3.confl import TECH_WIRELESS
        from oracles import _two_sir_feasible
        from confl3.instance_io import GeneratorParams, generate

        inst = generate(
            GeneratorParams(
                grid_width=4, grid_height=3, n_facilities=3, n_central_offices=1,
                n_steiner=0, users_per_pixel=0.6, knn=2,
                radii={1: 1.5, 2: 2.0, 3: 4.0},
                coverage_fractions={1: 0.0, 2: 0.2, 3: 0.4},
                delta=2.0, eta_noise=0.05, p_min=0.3, max_retries=3,
            ),
            seed,
        )
        w = inst.wireless
        served = {}
        for a in inst.assignment_arcs[TECH_WIRELESS]:
            served.setdefault(a.facility, []).append(a.user)
        want = set()
        import itertools as it

        for f1, f2 in it.combinations(sorted(served), 2):
            for u1 in served[f1]:
                for u2 in served[f2]:
                    if (f1, u1) == (f2, u2):
                        continue
                    if not _two_sir_feasible(
                        w.fading[f1, u1], w.fading[f2, u1],
                        w.fading[f2, u2], w.fading[f1, u2], w,
                    ):
                        want.add(tuple(sorted(((f1, u1), (f2, u2)))))
        got = named_pairs(inst, conflict_pairs(inst))
        # Canonical order puts the smaller facility id first, and the pairs
        # come in the order of sorting their id strings.
        assert all(p[0][0] < p[1][0] for p in got)
        assert got == sorted(want)

    @pytest.mark.parametrize("builder", [conflict_instance, None])
    def test_rows_cut_no_integer_solution(self, builder):
        inst = conflict_instance()[0] if builder else calm_wireless_instance()
        plain = build_3confl(inst)
        strong = strengthen(plain, inst)
        extra = strong.model.constraints[len(plain.model.constraints):]
        count = 0
        for pattern, res in enumerate_binary_patterns(plain.model):
            count += 1
            for row in extra:
                lhs = sum(coef * res.assignment[vid] for vid, coef in row.terms)
                assert lhs <= row.rhs + 1e-9, row
        assert count > 0


class TestStrengthen:
    def test_calm_instance_gets_zero_rows(self):
        inst = calm_wireless_instance()
        plain = build_3confl(inst)
        pairs = strengthening_pairs(plain, inst)
        assert pairs.shape == (0, 2) and pairs.dtype == np.int64
        strong = strengthen(plain, inst)
        assert strong.strengthening_rows == 0
        assert len(strong.model.constraints) == len(plain.model.constraints)

    def test_wired_model_rejected(self):
        inst, _ = wired_tiny()
        with pytest.raises(ValueError, match="build_3confl"):
            strengthening_pairs(build_2confl(inst), inst)

    def test_super_rows_added(self):
        inst = repair_instance()
        plain = build_3confl(inst)
        strong = strengthen(plain, inst)
        extra = strong.model.constraints[len(plain.model.constraints):]
        want = {plain.y["f0", "u0", 3], plain.z["f1", 3]}
        assert any({vid for vid, _ in c.terms} == want for c in extra)

    @pytest.mark.parametrize("make_instance", [conflict_instance, repair_instance])
    def test_plain_model_rows_unchanged(self, make_instance):
        inst = make_instance()[0] if make_instance is conflict_instance else make_instance()
        plain = build_3confl(inst)
        before = list(plain.model.constraints)
        pairs = strengthening_pairs(plain, inst)
        assert pairs.dtype == np.int64 and pairs.ndim == 2 and pairs.shape[1] == 2
        strong = strengthen(plain, inst)
        assert strong.strengthening_rows == len(pairs) > 0
        assert len(plain.model.constraints) == len(before)
        assert all(plain.model.constraints[i] == row for i, row in enumerate(before))
        assert list(strong.model.constraints)[:len(before)] == before
        # The appended rows are exactly x_a + x_b <= 1 over the pairs, in order.
        extra = strong.model.constraints[len(before):]
        assert list(extra) == [LinearConstraint(((a, 1.0), (b, 1.0)), LE, 1.0)
                               for a, b in pairs.tolist()]
        # Lone-blocker pairs (the ones with a z column) first, then conflict pairs.
        z3 = {plain.z[f.id, 3] for f in inst.facilities}
        has_z = [bool(z3 & set(pair)) for pair in pairs.tolist()]
        assert has_z == sorted(has_z, reverse=True)

    def test_lp_bound_never_decreases(self):
        for inst in (conflict_instance()[0], calm_wireless_instance(), repair_instance()):
            plain = build_3confl(inst)
            strong = strengthen(plain, inst)
            lp_plain = simplex.solve_lp(lp_relaxation(plain.model))
            lp_strong = simplex.solve_lp(lp_relaxation(strong.model))
            if lp_plain.status == lp_strong.status == simplex.OPTIMAL:
                assert lp_strong.objective >= lp_plain.objective - 1e-8

    def test_strict_improvement_on_crafted_conflict(self):
        inst, plain_lp, strong_lp = conflict_instance()
        plain = build_3confl(inst)
        strong = strengthen(plain, inst)
        got_plain = simplex.solve_lp(lp_relaxation(plain.model))
        got_strong = simplex.solve_lp(lp_relaxation(strong.model))
        assert got_plain.objective == pytest.approx(plain_lp, abs=1e-6)
        assert got_strong.objective == pytest.approx(strong_lp, abs=1e-6)
        assert got_strong.objective > got_plain.objective + 1e-8


class TestSirAlgebra:
    def test_active_row_is_exactly_the_sir_inequality(self):
        inst, _, _ = conflict_instance()
        confl = build_3confl(inst)
        w = inst.wireless
        row = next(c for c in confl.model.constraints if _is_sir_row(confl, c, "f0", "u0"))
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = {f.id: rng.uniform(0, w.p_max) for f in inst.facilities}
            values = {confl.power[fid]: val for fid, val in p.items()}
            values[confl.y["f0", "u0", 3]] = 1.0
            lhs = sum(coef * values[vid] for vid, coef in row.terms)
            direct = w.fading["f0", "u0"] * p["f0"] - w.delta * w.fading["f1", "u0"] * p["f1"]
            # wipe the big-M part: with y = 1 the row must equal the raw inequality
            assert lhs - row.rhs == pytest.approx(direct - w.delta * w.eta_noise, abs=1e-12)


class TestVerifySolution:
    def test_all_zero_fails_coverage(self):
        inst, _ = wired_tiny()
        confl = build_2confl(inst)
        zero = np.zeros(len(confl.model.variables))
        report = verify_solution(inst, confl, zero)
        assert not report.feasible
        assert report.coverage and not report.single_tech

    @pytest.mark.parametrize(
        "builder",
        [lambda: wired_tiny()[0], wireless_single, lambda: conflict_instance()[0], repair_instance],
    )
    def test_incumbents_verify_clean(self, builder):
        inst = builder()
        confl = build_2confl(inst) if 3 not in inst.technologies else build_3confl(inst)
        got = solve_model(confl.model, 60.0)
        assert got.status == bnb.OPTIMAL
        report = verify_solution(inst, confl, got.incumbent)
        assert report.feasible, report
        obj, _ = evaluate(confl.model, got.incumbent)
        assert report.objective == pytest.approx(obj, abs=1e-9)

    def test_flow_decomposes_into_root_paths(self):
        inst, _ = wired_tiny()
        confl = build_2confl(inst)
        got = solve_model(confl.model, 30.0)
        for f in inst.facilities:
            demand = sum(got.incumbent[confl.z[f.id, t]] for t in confl.technologies)
            if demand < 0.5:
                continue
            for (tail, head, fid), vid in confl.flow.items():
                if fid == f.id and got.incumbent[vid] > 1e-6:
                    assert got.incumbent[confl.x[tail, head]] > 0.5
            assert _extractable_flow(confl, got.incumbent, f.id) == pytest.approx(
                demand, abs=1e-6
            )

    def test_partial_assignment_rejected(self):
        inst, _ = wired_tiny()
        confl = build_2confl(inst)
        with pytest.raises(ValueError, match="partial"):
            verify_solution(inst, confl, np.array([1.0]))
        with pytest.raises(ValueError, match="partial"):
            verify_solution(inst, confl, dict(enumerate([0.0] * len(confl.model.variables))))


def _extractable_flow(confl, assignment, fid: str) -> float:
    """Total r->fid flow extractable by greedy path decomposition."""
    residual = {
        (tail, head): assignment[vid]
        for (tail, head, f), vid in confl.flow.items()
        if f == fid
    }
    total = 0.0
    while True:
        # BFS from the root on arcs with positive residual.
        parents: dict[str, tuple[str, str]] = {}
        frontier = ["r"]
        seen = {"r"}
        while frontier:
            node = frontier.pop(0)
            for (tail, head), val in residual.items():
                if tail == node and val > 1e-9 and head not in seen:
                    parents[head] = (tail, head)
                    seen.add(head)
                    frontier.append(head)
        if fid not in seen:
            return total
        path = []
        node = fid
        while node != "r":
            arc = parents[node]
            path.append(arc)
            node = arc[0]
        bottleneck = min(residual[arc] for arc in path)
        for arc in path:
            residual[arc] -= bottleneck
        total += bottleneck


class TestValidation:
    def test_w1_le_w2_enforced(self):
        inst, _ = wired_tiny()
        inst.coverage_thresholds = {1: 1.0, 2: 0.5}
        with pytest.raises(ValueError, match="W_1 <= W_2"):
            validate_instance(inst)

    def test_threshold_above_total_weight_rejected(self):
        inst, _ = wired_tiny()
        inst.coverage_thresholds = {1: 1.0, 2: 5.0}
        with pytest.raises(ValueError, match="outside"):
            validate_instance(inst)

    def test_fading_out_of_range_rejected(self):
        inst = wireless_single()
        inst.wireless.fading["f0", "u0"] = 1.5
        with pytest.raises(ValueError, match="fading"):
            validate_instance(inst)

    def test_reserved_root_id_rejected(self):
        from confl3.confl import SteinerNode

        inst, _ = wired_tiny()
        inst.steiner_nodes = [SteinerNode("r")]
        with pytest.raises(ValueError, match="reserved"):
            validate_instance(inst)

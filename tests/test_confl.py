import hashlib
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from confl3 import bnb, simplex
from confl3.confl import (
    TECHNOLOGIES,
    CoreArc,
    SteinerNode,
    UnattainableCoverageError,
    big_m,
    build_3confl,
    check_attainable,
    conflict_pairs,
    strengthen,
    strengthening_pairs,
    validate_instance,
    verify_solution,
)
from confl3.instance_io import GeneratorParams, generate
from confl3.milp import LE, apply_fixings, lp_relaxation

from instances import (
    CLI_PARAMS,
    calm_wireless_instance,
    conflict_instance,
    pair_instance as _pair_instance,
    repair_instance,
    wired_tiny,
    wireless_single,
)
from oracles import (
    _two_sir_feasible,
    enumerate_binary_patterns,
    evaluate,
    mip_enumeration_optimum,
    superinterferers,
)
from rows import row_list
from solve import solve_model


def _is_sir_row(confl, row, fid=None, uid=None) -> bool:
    """Whether `row`, a (terms, sense, rhs) triple, is an SIR row, the one
    of (fid, uid) when they are given: a row that holds a wireless
    assignment column and a power column."""
    cols = {vid for vid, _ in row[0]}
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
        n_sir = sum(1 for c in row_list(confl.model.constraints) if _is_sir_row(confl, c))
        assert n_sir == len(inst.assignment_arcs[3])
        assert len(confl.y) == sum(len(a) for a in inst.assignment_arcs.values())

    def test_root_arc_costs_equal_office_costs(self):
        inst, _ = wired_tiny()
        confl = build_3confl(inst)
        root_arcs = [a for a in confl.arcs if a[0] == "r"]
        assert [(h, c) for _, h, c in root_arcs] == [("g0", 3.0)]


class TestBuild2Confl:
    """The wired tiers, on an instance without copper or wireless arcs."""

    def test_hand_solved_tiny_instance(self):
        inst, want = wired_tiny()
        confl = build_3confl(inst)
        got = solve_model(confl.model, 30.0)
        assert got.status == bnb.OPTIMAL
        assert got.objective == pytest.approx(want, abs=1e-6)
        status, obj, _ = mip_enumeration_optimum(confl.model)
        assert status == "optimal" and obj == pytest.approx(want, abs=1e-6)

    def test_zero_thresholds_mean_zero_cost(self):
        inst, _ = wired_tiny()
        inst.coverage_thresholds = {1: 0.0, 2: 0.0, 3: 0.0}
        confl = build_3confl(inst)
        got = solve_model(confl.model, 30.0)
        assert got.objective == pytest.approx(0.0, abs=1e-9)

    def test_served_user_has_exactly_one_assignment_arc(self):
        inst, _ = wired_tiny()
        confl = build_3confl(inst)
        for pattern, _ in enumerate_binary_patterns(confl.model):
            v = pattern[confl.v["u0", 1]]
            ys = sum(pattern[yid] for (f, u, t), yid in confl.y.items() if u == "u0" and t == 1)
            assert ys == pytest.approx(v)


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
        sir_rows = [c for c in row_list(confl.model.constraints)
                    if _is_sir_row(confl, c, "f0", "u0")]
        assert len(sir_rows) == 1
        terms, _, rhs = sir_rows[0]
        rng = np.random.default_rng(0)
        w = inst.wireless
        for _ in range(100):
            values = {confl.power[f.id]: rng.uniform(0, w.p_max) for f in inst.facilities}
            values[confl.y["f0", "u0", 3]] = 0.0
            lhs = sum(coef * values[vid] for vid, coef in terms)
            assert lhs >= rhs - 1e-12

    def test_an_isolated_steiner_node_changes_no_optimum(self):
        # Its flow-balance rows have no terms (0 = 0); the builder used to
        # refuse them as empty rows.
        inst = generate(CLI_PARAMS, 4)
        lonely = replace(inst, steiner_nodes=inst.steiner_nodes + [SteinerNode("lonely")])
        plain, confl = build_3confl(inst), build_3confl(lonely)
        assert np.array_equal(confl.model.constraints.cols, plain.model.constraints.cols)
        want, got = solve_model(plain.model, 30.0), solve_model(confl.model, 30.0)
        assert got.status == want.status == bnb.OPTIMAL
        assert got.objective == want.objective
        assert verify_solution(lonely, confl, got.incumbent).feasible

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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("case", ["permuted", "silent-facility"])
    def test_lone_blocker_rows_match_the_scalar_loop(self, case, seed):
        inst = wireless_case(case, seed)
        plain = build_3confl(inst)
        want = [[yid, plain.z[k, 3]]
                for (fid, uid, t), yid in plain.y.items() if t == 3
                for k in sorted(superinterferers(inst, uid, fid))]
        assert len(want) > 0
        pairs = strengthening_pairs(plain, inst)
        assert pairs[:len(want)].tolist() == want
        assert len(pairs) == len(want) + len(conflict_pairs(inst))

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


# Five facilities, more than ten users (so "u10" sorts before "u2"),
# frequent conflicts and, with p_min > 0, lone blockers.
WIRELESS_PARAMS = GeneratorParams(
    grid_width=5, grid_height=4, n_facilities=5, n_central_offices=1, n_steiner=0,
    users_per_pixel=0.6, knn=2, radii={1: 1.5, 2: 2.0, 3: 4.0},
    coverage_fractions={1: 0.0, 2: 0.2, 3: 0.4}, delta=2.0, eta_noise=0.05, p_min=0.3,
    max_retries=3,
)


def wireless_case(case, seed):
    """A `WIRELESS_PARAMS` instance with the ids permuted within users and
    within facilities, so that its lists, and the wireless arcs, are not in
    id order; then, by `case`, the wireless arcs of the second facility in
    id order are dropped, or those of all facilities but one, or all."""
    inst = generate(WIRELESS_PARAMS, seed)
    rng = np.random.default_rng(seed)
    names = {}
    for nodes in (inst.users, inst.facilities):
        ids = [n.id for n in nodes]
        names.update(zip(ids, (ids[k] for k in rng.permutation(len(ids)))))
    arcs = {t: [replace(a, facility=names[a.facility], user=names[a.user]) for a in arcs_t]
            for t, arcs_t in inst.assignment_arcs.items()}
    wireless_ids = sorted({a.facility for a in arcs[3]})
    keep = {
        "permuted": wireless_ids,
        "silent-facility": wireless_ids[:1] + wireless_ids[2:],
        "one-wireless-facility": wireless_ids[:1],
        "no-wireless-arcs": [],
    }[case]
    arcs[3] = [a for a in arcs[3] if a.facility in keep]
    return replace(
        inst,
        users=[replace(u, id=names[u.id]) for u in inst.users],
        facilities=[replace(f, id=names[f.id]) for f in inst.facilities],
        core_arcs=[replace(a, tail=names.get(a.tail, a.tail), head=names.get(a.head, a.head))
                   for a in inst.core_arcs],
        assignment_arcs=arcs,
        wireless=replace(inst.wireless, fading={
            (names[f], names[u]): v for (f, u), v in inst.wireless.fading.items()}),
    )


def sorted_all_pairs(inst):
    """The conflict pairs found the long way: every pair of wireless arcs
    with the smaller facility id first, decided as one flat array, then
    ordered by a 4-key lexsort over the ranks of the ids."""
    from confl3.confl import _pair_block_feasible

    arcs = inst.assignment_arcs[3]
    w = inst.wireless
    pairs = np.array([(p, q) for p, a in enumerate(arcs) for q, b in enumerate(arcs)
                      if a.facility < b.facility], dtype=np.int64).reshape(-1, 2)
    first, second = pairs.T

    def fading(fac_of, user_of):
        return np.array([w.fading[arcs[f].facility, arcs[u].user]
                         for f, u in zip(fac_of, user_of)], dtype=float)

    feasible = _pair_block_feasible(fading(first, first), fading(second, first),
                                    fading(second, second), fading(first, second), w)
    pairs = pairs[~feasible]

    def ranks(ids):
        rank = {x: k for k, x in enumerate(sorted(set(ids)))}
        return np.array([rank[x] for x in ids], dtype=np.int64)

    frank = ranks([a.facility for a in arcs])
    urank = ranks([a.user for a in arcs])
    first, second = pairs.T
    return pairs[np.lexsort((urank[second], frank[second], urank[first], frank[first]))]


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

    @given(
        *[st.one_of(st.just(0.0), st.floats(0.0, 1.0))] * 4,
        st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        st.floats(0.5, 2.0), st.floats(1.1, 4.0), st.floats(-6.0, -1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_step_bound_marks_only_infeasible_pairs(self, a1, b1, a2, b2, p_min_share,
                                                        p_max, delta, log_eta):
        # Fadings of 0, p_min = 0 and p_min = p_max, and noise down to 1e-6.
        from confl3.confl import WirelessParams, _one_step_conflicts

        w = WirelessParams(p_min_share * p_max, p_max, delta, 10.0**log_eta, {})
        if _one_step_conflicts(a1, b1, a2, b2, w):
            assert not _two_sir_feasible(a1, b1, a2, b2, w)

    @pytest.mark.parametrize("seed", range(8))
    def test_screened_masks_are_the_vertex_test_masks(self, seed):
        """On random blocks, with fadings of 0, the one-step bound followed by
        the vertex test on what it leaves open gives the vertex test's masks."""
        from confl3.confl import (WirelessParams, _conflict_masks, _one_step_conflicts,
                                  _pair_block_feasible)

        rng = np.random.default_rng(seed)
        n_fac, n_users = 5, 30
        fading = rng.random((n_fac, n_users)) * (rng.random((n_fac, n_users)) > 0.2)
        fac, user = np.nonzero(rng.random((n_fac, n_users)) < 0.6)
        shuffle = rng.permutation(len(fac))
        p_max = rng.uniform(0.5, 2.0)
        w = WirelessParams(p_max * [0.0, 1.0, rng.random()][seed % 3], p_max,
                           rng.uniform(1.1, 4.0), 10.0 ** rng.uniform(-6.0, -1.0), {})
        order, bounds, masks = _conflict_masks(w, fac[shuffle], user[shuffle], fading)
        f, u = fac[shuffle][order], user[shuffle][order]
        marked = checked = 0
        for k, mask in enumerate(masks):
            u1, f2, u2 = u[bounds[k]:bounds[k + 1]], f[bounds[k + 1]:], u[bounds[k + 1]:]
            block = (fading[k, u1][:, None], fading[f2, u1[:, None]],
                     fading[f2, u2][None], fading[k, u2][None])
            np.testing.assert_array_equal(mask, ~_pair_block_feasible(*block, w))
            marked += int(_one_step_conflicts(*block, w).sum())
            checked += mask.size
        # Both stages decide some pairs.
        assert 0 < marked < checked

    def test_vertex_test_sees_few_pairs(self, monkeypatch):
        """On the 12x8 export preset (seed 0) the one-step bound decides all
        but 4,723 of the 236,886 pairs (2.0 %); the vertex test may see 5 %."""
        from confl3 import confl

        vertex_test, seen = confl._pair_block_feasible, []

        def counting(*args):
            feasible = vertex_test(*args)
            seen.append(feasible.size)
            return feasible

        monkeypatch.setattr(confl, "_pair_block_feasible", counting)
        inst = generate(GeneratorParams(grid_width=12, grid_height=8, n_facilities=10,
                                        n_central_offices=3, n_steiner=4), 0)
        _, frank, urank, fading = confl._wireless_ranks(inst)
        _, _, masks = confl._conflict_masks(inst.wireless, frank, urank, fading)
        checked = sum(mask.size for mask in masks)
        assert checked == 236_886
        assert sum(seen) <= 0.05 * checked, sum(seen) / checked

    def test_decoupled_requirements_do_not_conflict(self):
        assert conflict_pairs(calm_wireless_instance()).shape == (0, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_block_evaluation_matches_scalar_reference(self, seed):
        from confl3.confl import TECH_WIRELESS

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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("case", ["permuted", "silent-facility"])
    def test_canonical_order_when_arcs_are_not_in_id_order(self, case, seed):
        inst = wireless_case(case, seed)
        arcs = inst.assignment_arcs[3]
        keys = [(a.facility, a.user) for a in arcs]
        assert keys != sorted(keys)
        assert {"u2", "u10"} <= {u.id for u in inst.users}
        assert len({a.facility for a in arcs}) >= 4
        got = conflict_pairs(inst)
        assert got.dtype == np.int64 and len(got) > 0
        np.testing.assert_array_equal(got, sorted_all_pairs(inst))
        w = inst.wireless
        want = sorted(
            ((a.facility, a.user), (b.facility, b.user))
            for a in arcs for b in arcs
            if a.facility < b.facility and not _two_sir_feasible(
                w.fading[a.facility, a.user], w.fading[b.facility, a.user],
                w.fading[b.facility, b.user], w.fading[a.facility, b.user], w)
        )
        assert named_pairs(inst, got) == want

    @pytest.mark.parametrize("case", ["one-wireless-facility", "no-wireless-arcs"])
    def test_no_pairs_without_two_wireless_facilities(self, case):
        got = conflict_pairs(wireless_case(case, 1))
        assert got.shape == (0, 2) and got.dtype == np.int64

    def test_peak_memory_stays_below_three_outputs(self):
        import tracemalloc

        inst = generate(GeneratorParams(grid_width=12, grid_height=8, n_facilities=10,
                                        n_central_offices=3, n_steiner=4), 0)
        tracemalloc.start()
        try:
            pairs = conflict_pairs(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * pairs.nbytes, (peak, pairs.nbytes)

    @pytest.mark.parametrize("builder", [conflict_instance, None])
    def test_rows_cut_no_integer_solution(self, builder):
        inst = conflict_instance()[0] if builder else calm_wireless_instance()
        plain = build_3confl(inst)
        strong = strengthen(plain, inst)
        extra = row_list(strong.model.constraints)[len(plain.model.constraints):]
        count = 0
        for pattern, res in enumerate_binary_patterns(plain.model):
            count += 1
            for row in extra:
                terms, _, rhs = row
                lhs = sum(coef * res.assignment[vid] for vid, coef in terms)
                assert lhs <= rhs + 1e-9, row
        assert count > 0


class TestStrengthen:
    def test_pairs_are_written_into_one_array(self):
        # On the 12x8 export preset (seed 0) the pairs take 3.8 MB.  Lone
        # blockers and conflicts go into one array allocated once their
        # count is known, so building them peaks below 1.3 times that (2.05
        # with a concatenated copy of each kind).  The bytes are pinned.
        inst = generate(GeneratorParams(grid_width=12, grid_height=8, n_facilities=10,
                                        n_central_offices=3, n_steiner=4), 0)
        plain = build_3confl(inst)
        tracemalloc.start()
        try:
            pairs = strengthening_pairs(plain, inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pairs.shape == (238_410, 2) and pairs.dtype == np.int64
        assert peak <= 1.3 * pairs.nbytes, peak / pairs.nbytes
        assert hashlib.sha256(pairs.tobytes()).hexdigest() == (
            "2579fbd0c7b9f9eba58bc12048ed13911e09ae5feb93e0ca980b7880fc5e6c2a")

    def test_calm_instance_gets_zero_rows(self):
        inst = calm_wireless_instance()
        plain = build_3confl(inst)
        pairs = strengthening_pairs(plain, inst)
        assert pairs.shape == (0, 2) and pairs.dtype == np.int64
        strong = strengthen(plain, inst)
        assert strong.strengthening_rows == 0
        assert len(strong.model.constraints) == len(plain.model.constraints)

    def test_super_rows_added(self):
        inst = repair_instance()
        plain = build_3confl(inst)
        strong = strengthen(plain, inst)
        extra = row_list(strong.model.constraints)[len(plain.model.constraints):]
        want = {plain.y["f0", "u0", 3], plain.z["f1", 3]}
        assert any({vid for vid, _ in terms} == want for terms, _, _ in extra)

    @pytest.mark.parametrize("make_instance", [conflict_instance, repair_instance])
    def test_plain_model_rows_unchanged(self, make_instance):
        inst = make_instance()[0] if make_instance is conflict_instance else make_instance()
        plain = build_3confl(inst)
        before = row_list(plain.model.constraints)
        pairs = strengthening_pairs(plain, inst)
        assert pairs.dtype == np.int64 and pairs.ndim == 2 and pairs.shape[1] == 2
        strong = strengthen(plain, inst)
        assert strong.strengthening_rows == len(pairs) > 0
        assert len(plain.model.constraints) == len(before)
        assert row_list(plain.model.constraints) == before
        assert row_list(strong.model.constraints)[:len(before)] == before
        # The appended rows are exactly x_a + x_b <= 1 over the pairs, in order.
        extra = row_list(strong.model.constraints)[len(before):]
        assert extra == [(((a, 1.0), (b, 1.0)), LE, 1.0) for a, b in pairs.tolist()]
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
        terms, _, rhs = next(c for c in row_list(confl.model.constraints)
                             if _is_sir_row(confl, c, "f0", "u0"))
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = {f.id: rng.uniform(0, w.p_max) for f in inst.facilities}
            values = {confl.power[fid]: val for fid, val in p.items()}
            values[confl.y["f0", "u0", 3]] = 1.0
            lhs = sum(coef * values[vid] for vid, coef in terms)
            direct = w.fading["f0", "u0"] * p["f0"] - w.delta * w.fading["f1", "u0"] * p["f1"]
            # wipe the big-M part: with y = 1 the row must equal the raw inequality
            assert lhs - rhs == pytest.approx(direct - w.delta * w.eta_noise, abs=1e-12)


class TestVerifySolution:
    def test_all_zero_fails_coverage(self):
        inst, _ = wired_tiny()
        confl = build_3confl(inst)
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
        confl = build_3confl(inst)
        got = solve_model(confl.model, 60.0)
        assert got.status == bnb.OPTIMAL
        report = verify_solution(inst, confl, got.incumbent)
        assert report.feasible, report
        obj, _ = evaluate(confl.model, got.incumbent)
        assert report.objective == pytest.approx(obj, abs=1e-9)

    def test_flow_decomposes_into_root_paths(self):
        inst, _ = wired_tiny()
        confl = build_3confl(inst)
        got = solve_model(confl.model, 30.0)
        for f in inst.facilities:
            demand = sum(got.incumbent[confl.z[f.id, t]] for t in TECHNOLOGIES)
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
        confl = build_3confl(inst)
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


class TestCheckAttainable:
    def test_refuses_only_infeasible_instances(self):
        """The screen counts openings on better technologies as the coverage
        rows do, so each instance it refuses has no solution: over the CLI
        preset with one technology's arcs removed, bnb proves every refused
        one infeasible, and the preset gives both refusals and passes."""
        refused = passed = 0
        for seed in range(20):
            base = generate(CLI_PARAMS, seed)
            for t in TECHNOLOGIES:
                inst = replace(base, assignment_arcs={**base.assignment_arcs, t: []})
                try:
                    check_attainable(inst)
                except UnattainableCoverageError as exc:
                    refused += 1
                    res = solve_model(build_3confl(inst).model, 60.0)
                    assert res.status == bnb.INFEASIBLE, (seed, t, str(exc))
                else:
                    passed += 1
        assert refused and passed


class TestValidation:
    def test_w1_le_w2_enforced(self):
        inst, _ = wired_tiny()
        inst.coverage_thresholds = {1: 1.0, 2: 0.5, 3: 1.0}
        with pytest.raises(ValueError, match="W_1 <= W_2"):
            validate_instance(inst)

    def test_threshold_above_total_weight_rejected(self):
        inst, _ = wired_tiny()
        inst.coverage_thresholds = {1: 1.0, 2: 5.0, 3: 5.0}
        with pytest.raises(ValueError, match="outside"):
            validate_instance(inst)

    @pytest.mark.parametrize("techs", [(1, 2), (1, 2, 3, 4)])
    def test_other_technology_sets_rejected(self, techs):
        inst, _ = wired_tiny()
        inst.coverage_thresholds = {t: 1.0 for t in techs}
        message = f"coverage_thresholds: technologies 1, 2 and 3 required, got {list(techs)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            validate_instance(inst)
        with pytest.raises(ValueError, match=re.escape(message)):
            build_3confl(inst)

    def test_missing_wireless_rejected(self):
        inst = replace(wired_tiny()[0], wireless=None)
        with pytest.raises(ValueError, match="wireless: parameters required"):
            validate_instance(inst)

    @pytest.mark.parametrize("edit", [lambda c: c.pop(3), lambda c: c.update({4: 1.0})],
                             ids=["without-3", "with-4"])
    def test_other_opening_technologies_rejected(self, edit):
        inst, _ = wired_tiny()
        edit(inst.facilities[0].open_cost)
        message = "facilities[f0].open_cost: technologies 1, 2 and 3 required, got "
        with pytest.raises(ValueError, match=re.escape(message)):
            validate_instance(inst)

    def test_fading_out_of_range_rejected(self):
        inst = wireless_single()
        inst.wireless.fading["f0", "u0"] = 1.5
        with pytest.raises(ValueError, match="fading"):
            validate_instance(inst)

    def test_reserved_root_id_rejected(self):
        inst, _ = wired_tiny()
        inst.steiner_nodes = [SteinerNode("r")]
        with pytest.raises(ValueError, match="reserved"):
            validate_instance(inst)

    def test_underscore_id_rejected(self):
        # Variable names join ids with "_", so with "_" in ids the arcs a_b->c
        # and a->b_c would both be named x_a_b_c.
        inst = wireless_single()
        inst.steiner_nodes = [SteinerNode(i) for i in ("a_b", "c", "a", "b_c")]
        inst.core_arcs += [CoreArc("a_b", "c", 1.0), CoreArc("a", "b_c", 1.0)]
        message = "steiner_nodes: id 'a_b' must match [A-Za-z0-9]+"
        with pytest.raises(ValueError, match=re.escape(message)):
            validate_instance(inst)
        with pytest.raises(ValueError, match=re.escape(message)):
            build_3confl(inst)

    def test_loop_core_arc_rejected(self):
        # A loop used to pass validation and fail in the build as a duplicate
        # flow variable in its facility's balance row.
        inst = wireless_single()
        inst.core_arcs.append(CoreArc("f0", "f0", 1.0))
        message = "core_arcs: ('f0', 'f0') is a loop"
        with pytest.raises(ValueError, match=re.escape(message)):
            validate_instance(inst)
        with pytest.raises(ValueError, match=re.escape(message)):
            build_3confl(inst)

    @pytest.mark.parametrize("edit, field", [
        (lambda i: setattr(i.users[0], "weight", np.nan), "users[u0].weight"),
        (lambda i: i.facilities[0].open_cost.update({3: np.nan}), "facilities[f0].open_cost[3]"),
        (lambda i: setattr(i.central_offices[0], "open_cost", np.inf),
         "central_offices[g0].open_cost"),
        (lambda i: setattr(i.core_arcs[0], "cost", np.nan), "core_arcs[g0->f0].cost"),
        (lambda i: setattr(i.assignment_arcs[3][0], "cost", np.inf),
         "assignment_arcs[3][f0->u0].cost"),
        (lambda i: setattr(i.wireless, "p_min", np.nan), "wireless.p_min"),
        (lambda i: setattr(i.wireless, "p_max", np.inf), "wireless.p_max"),
        (lambda i: setattr(i.wireless, "delta", np.nan), "wireless.delta"),
        (lambda i: setattr(i.wireless, "delta", np.inf), "wireless.delta"),
        (lambda i: setattr(i.wireless, "eta_noise", np.nan), "wireless.eta_noise"),
    ], ids=["weight-nan", "open-cost-nan", "office-cost-inf", "core-cost-nan",
            "assign-cost-inf", "p-min-nan", "p-max-inf", "delta-nan", "delta-inf", "eta-nan"])
    def test_non_finite_number_rejected(self, edit, field):
        # Each of these used to pass validation, and a NaN opening cost
        # reached branch and bound before anything failed.
        inst = wireless_single()
        validate_instance(inst)
        edit(inst)
        message = f"{field}: expected a finite number"
        with pytest.raises(ValueError, match=re.escape(message)):
            validate_instance(inst)
        with pytest.raises(ValueError, match=re.escape(message)):
            build_3confl(inst)

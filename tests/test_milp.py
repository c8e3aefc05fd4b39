import io
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from confl3 import milp
from confl3.confl import build_3confl, strengthening_pairs
from confl3.instance_io import GeneratorParams, generate
from confl3.milp import (
    BINARY,
    CONTINUOUS,
    EQ,
    GE,
    LE,
    Model,
    Variable,
    apply_fixings,
    export_lp_text,
    lp_relaxation,
)

from instances import calm_wireless_instance, strengthening_preset
from oracles import evaluate
from rows import add_row, row, row_list


def _export(m) -> str:
    """The LP text of `m`, rendered into a string."""
    out = io.StringIO()
    export_lp_text(m, out)
    return out.getvalue()


def small_model():
    m = Model()
    x1 = m.add_variable("x1", BINARY, 0, 1)
    x2 = m.add_variable("x2", BINARY, 0, 1)
    p = m.add_variable("p", CONTINUOUS, 0.0, 1.0)
    m.set_objective_coef(x1, 2.0)
    m.set_objective_coef(p, 0.5)
    add_row(m, [(x1, 1.0), (x2, 1.0)], LE, 1.0)
    add_row(m, [(p, 1.0), (x1, -1.0)], LE, 0.0)
    return m, (x1, x2, p)


class TestAddVariable:
    def test_fresh_ids_and_growth(self):
        m = Model()
        a = m.add_variable("z_f1_t3", BINARY, 0, 1)
        assert a == 0 and len(m.variables) == 1
        b = m.add_variable("p_f1", CONTINUOUS, 0, 1.0)
        assert b == 1 and len(m.variables) == 2

    def test_duplicate_name_rejected(self):
        m = Model()
        m.add_variable("z_f1_t3", BINARY, 0, 1)
        with pytest.raises(ValueError, match="duplicate"):
            m.add_variable("z_f1_t3", BINARY, 0, 1)

    def test_inverted_bounds_rejected(self):
        m = Model()
        with pytest.raises(ValueError, match="inverted"):
            m.add_variable("x", CONTINUOUS, 2.0, 1.0)

    def test_binary_bounds_must_be_01(self):
        m = Model()
        with pytest.raises(ValueError):
            m.add_variable("x", BINARY, 0.0, 0.5)

    @pytest.mark.parametrize("lower, upper", [(math.nan, 1.0), (0.0, math.nan)])
    def test_nan_bound_rejected(self, lower, upper):
        m = Model()
        with pytest.raises(ValueError, match="NaN"):
            m.add_variable("x", CONTINUOUS, lower, upper)
        assert m.variables == []


    def test_a_family_gets_consecutive_ids_or_nothing(self):
        m = Model()
        m.add_variable("a", BINARY, 0, 1)
        assert m.add_variables(["b", "c"], CONTINUOUS, 0, 2.5) == range(1, 3)
        assert m.variables[1:] == [Variable(1, "b", CONTINUOUS, 0.0, 2.5),
                                   Variable(2, "c", CONTINUOUS, 0.0, 2.5)]
        for names in (["d", "b"], ["d", "d"]):
            with pytest.raises(ValueError, match=f"duplicate variable name '{names[1]}'"):
                m.add_variables(names, BINARY, 0, 1)
        # The first variable with a fault is named, its name checked first.
        with pytest.raises(ValueError, match="inverted bounds for 'd'"):
            m.add_variables(["d", "a"], CONTINUOUS, 1.0, 0.0)
        with pytest.raises(ValueError, match="duplicate variable name 'a'"):
            m.add_variables(["a", "d"], CONTINUOUS, 1.0, 0.0)
        assert len(m.variables) == 3
        assert m.add_variable("d", BINARY, 0, 1) == 3

    def test_family_costs_add_from_zero_or_not_at_all(self):
        m = Model()
        ids = m.add_variables(["a", "b"], CONTINUOUS, 0.0, 1.0)
        m.set_objective_coefs(ids, [-0.0, 2.0])
        assert math.copysign(1.0, m.objective[0]) == 1.0
        with pytest.raises(ValueError, match="unknown variable id 2"):
            m.set_objective_coefs([1, 2], [1.0, 1.0])
        with pytest.raises(ValueError, match="one cost per variable id"):
            m.set_objective_coefs([1, 0], [1.0])
        assert m.objective == {0: 0.0, 1: 2.0}
        m.set_objective_coefs([1, 1], [1.0, 0.5])
        assert m.objective == {0: 0.0, 1: 3.5}


class TestAddConstraint:
    def test_sequential_ids(self):
        m, (x1, x2, _) = small_model()
        cid = add_row(m, [(x1, 1.0)], GE, 0.0)
        assert cid == 2

    def test_unknown_variable_rejected(self):
        m = Model()
        m.add_variable("x1", BINARY, 0, 1)
        with pytest.raises(ValueError, match="unknown"):
            add_row(m, [(5, 1.0)], LE, 1.0)

    def test_duplicate_term_rejected(self):
        m = Model()
        x1 = m.add_variable("x1", BINARY, 0, 1)
        with pytest.raises(ValueError, match="duplicate"):
            add_row(m, [(x1, 1.0), (x1, 1.0)], LE, 1.0)

    @pytest.mark.parametrize("sense, rhs", [(GE, math.inf), (LE, -math.inf),
                                            (GE, -math.inf), (EQ, math.nan)])
    def test_non_finite_rhs_rejected(self, sense, rhs):
        m = Model()
        x = m.add_variable("x", CONTINUOUS, 0, 10)
        with pytest.raises(ValueError, match="non-finite right-hand side"):
            add_row(m, [(x, 1.0)], sense, rhs)
        assert len(m.constraints) == 0


# Each rejected row as (terms, sense, rhs) with the message that names its
# fault; `x` stands for the id of variable "x1".
REJECTED_ROWS = [
    pytest.param(lambda x: ([(5, 1.0)], LE, 1.0),
                 "constraint references unknown variable id 5", id="unknown-id"),
    pytest.param(lambda x: ([(x, 1.0), (x, 1.0)], LE, 1.0),
                 "duplicate variable 'x1' in constraint terms", id="repeated-id"),
    pytest.param(lambda x: ([(x, math.nan)], LE, 1.0),
                 "non-finite coefficient on 'x1'", id="non-finite-coef"),
    pytest.param(lambda x: ([(x, 1.0)], GE, math.inf),
                 "non-finite right-hand side inf", id="non-finite-rhs"),
    pytest.param(lambda x: ([], LE, 1.0),
                 "constraint must have at least one term", id="empty-row"),
    pytest.param(lambda x: ([(x, 1.0)], "<", 1.0),
                 "unknown constraint sense '<'", id="unknown-sense"),
]


class TestAddRows:
    @pytest.mark.parametrize("bad_row, message", REJECTED_ROWS)
    def test_add_constraint_names_the_row(self, bad_row, message):
        m, (x1, _, _) = small_model()
        before = row_list(m.constraints)
        terms, sense, rhs = bad_row(x1)
        with pytest.raises(ValueError, match=re.escape(f"{message} (row 2)")):
            add_row(m, terms, sense, rhs)
        assert row_list(m.constraints) == before

    @pytest.mark.parametrize("bad_row, message", REJECTED_ROWS)
    def test_bulk_append_names_the_row_and_appends_nothing(self, bad_row, message):
        m, (x1, x2, p) = small_model()
        before = row_list(m.constraints)
        terms, sense, rhs = bad_row(x1)
        batch = [([(x2, 1.0)], LE, 1.0), ([(p, 2.0), (x2, 1.0)], GE, 0.0),
                 (terms, sense, rhs), ([(x1, 1.0)], EQ, 0.0)]
        with pytest.raises(ValueError, match=re.escape(f"{message} (row 4)")):
            m.add_rows([[vid for vid, _ in t] for t, _, _ in batch],
                       [[coef for _, coef in t] for t, _, _ in batch],
                       [sense for _, sense, _ in batch], [rhs for _, _, rhs in batch])
        assert len(m.constraints) == len(before)
        assert row_list(m.constraints) == before

    def test_bulk_rows_equal_single_rows(self):
        bulk, (x1, x2, p) = small_model()
        single, _ = small_model()
        cols = np.array([[x1, p], [x2, x1], [p, x2]])
        coefs = np.array([[1.0, -2.5], [0.5, 1.0], [3.0, -1.0]])
        ids = bulk.add_rows(cols, coefs, [LE, GE, EQ], [1.0, 0.0, 2.0])
        assert ids == range(2, 5)
        for i, sense, rhs in zip(range(3), [LE, GE, EQ], [1.0, 0.0, 2.0]):
            add_row(single, list(zip(cols[i].tolist(), coefs[i].tolist())), sense, rhs)
        assert row_list(bulk.constraints) == row_list(single.constraints)
        assert _export(bulk) == _export(single)

    def test_flat_rows_with_lengths_equal_nested_rows(self):
        flat, (x1, x2, p) = small_model()
        nested, _ = small_model()
        nested.add_rows([[x1], [x2, p, x1]], [[1.0], [0.5, -1.0, 2.0]], [LE, GE], [1.0, 0.0])
        ids = flat.add_rows([x1, x2, p, x1], [1.0, 0.5, -1.0, 2.0], [LE, GE], [1.0, 0.0],
                            [1, 3])
        assert ids == range(2, 4)
        assert row_list(flat.constraints) == row_list(nested.constraints)
        for cols, coefs, lengths in [([x1, x2], [1.0, 1.0], [1, 2]),
                                     ([x1, x2], [1.0], [1, 1]),
                                     ([x1, x2], [1.0, 1.0], [3, -1])]:
            with pytest.raises(ValueError, match="add_rows needs"):
                flat.add_rows(cols, coefs, LE, 1.0, lengths)
        assert len(flat.constraints) == 4

    def test_mismatched_shapes_rejected(self):
        m, (x1, x2, _) = small_model()
        with pytest.raises(ValueError, match="add_rows needs"):
            m.add_rows([[x1, x2]], [[1.0]], LE, 1.0)
        with pytest.raises(ValueError, match="add_rows needs"):
            m.add_rows([[x1]], [[1.0]], LE, [1.0, 2.0])
        with pytest.raises(ValueError, match="add_rows needs"):
            m.add_rows([[x1]], [[1.0], [1.0]], LE, 1.0)
        with pytest.raises(ValueError, match="add_rows needs"):
            m.add_rows([[x1]], [[1.0]], [LE, GE], 1.0)
        assert len(m.constraints) == 2

    def test_constraints_are_read_only_rows(self):
        m, (x1, x2, p) = small_model()
        rows = m.constraints
        assert len(rows) == 2
        assert row(rows, 0) == (((x1, 1.0), (x2, 1.0)), LE, 1.0)
        assert [terms for terms, _, _ in row_list(rows)] == [((x1, 1.0), (x2, 1.0)),
                                                             ((p, 1.0), (x1, -1.0))]
        with pytest.raises(ValueError, match="read-only"):
            rows.coefs[0] = 5.0

    def test_copies_append_without_touching_each_other(self):
        m, (x1, x2, p) = small_model()
        original = row_list(m.constraints)
        c = m.copy()
        assert c.constraints is m.constraints
        add_row(c, [(x2, 1.0)], LE, 0.0)
        assert row_list(m.constraints) == original
        add_row(m, [(p, 1.0)], GE, 0.0)
        head = [((x1, 1.0), (x2, 1.0)), ((p, 1.0), (x1, -1.0))]
        assert [terms for terms, _, _ in row_list(c.constraints)] == head + [((x2, 1.0),)]
        assert [terms for terms, _, _ in row_list(m.constraints)] == head + [((p, 1.0),)]
        assert row(c.constraints, 2)[1] == LE and row(m.constraints, 2)[1] == GE
        for rows in (c.constraints, m.constraints):
            for array in (rows.starts, rows.cols, rows.coefs, rows.sense, rows.rhs):
                assert not array.flags.writeable


class TestLpRelaxation:
    def test_binaries_become_continuous(self):
        m, _ = small_model()
        r = lp_relaxation(m)
        assert all(v.kind == CONTINUOUS for v in r.variables)
        assert [(v.lower, v.upper) for v in r.variables[:2]] == [(0.0, 1.0), (0.0, 1.0)]
        # source untouched
        assert m.variables[0].kind == BINARY

    def test_identity_on_continuous_model(self):
        m = Model()
        m.add_variable("x", CONTINUOUS, -1.0, 4.0)
        r = lp_relaxation(m)
        assert r.variables == m.variables
        assert row_list(r.constraints) == row_list(m.constraints)

    def test_fixed_binary_stays_fixed(self):
        m, (x1, _, _) = small_model()
        fixed = apply_fixings(m, {x1: 1.0})
        r = lp_relaxation(fixed)
        assert (r.variables[x1].lower, r.variables[x1].upper) == (1.0, 1.0)


class TestApplyFixings:
    @given(st.booleans(), st.booleans())
    def test_commutes_with_relaxation(self, fix_x1, fix_x2):
        m, (x1, x2, _) = small_model()
        fixings = {}
        if fix_x1:
            fixings[x1] = 1.0
        if fix_x2:
            fixings[x2] = 0.0
        a = lp_relaxation(apply_fixings(m, fixings))
        b = apply_fixings(lp_relaxation(m), fixings)
        assert a.variables == b.variables
        assert row_list(a.constraints) == row_list(b.constraints)

    def test_bounds_collapse(self):
        m, (x1, _, _) = small_model()
        f = apply_fixings(m, {x1: 1.0})
        assert (f.variables[x1].lower, f.variables[x1].upper) == (1.0, 1.0)

    def test_empty_fixing_is_identity(self):
        m, _ = small_model()
        f = apply_fixings(m, {})
        assert f.variables == m.variables
        assert row_list(f.constraints) == row_list(m.constraints)
        assert f.objective == m.objective

    def test_out_of_bounds_rejected(self):
        m, (_, _, p) = small_model()
        with pytest.raises(ValueError, match="outside bounds"):
            apply_fixings(m, {p: 2.0})

    def test_fractional_binary_rejected(self):
        m, (x1, _, _) = small_model()
        with pytest.raises(ValueError, match="fractional"):
            apply_fixings(m, {x1: 0.5})

    def test_unknown_id_rejected(self):
        m, _ = small_model()
        with pytest.raises(ValueError, match="unknown"):
            apply_fixings(m, {99: 0.0})


class TestEvaluate:
    def test_violation_reported_with_slack(self):
        m = Model()
        x = m.add_variable("x1", CONTINUOUS, 0, 10)
        cid = add_row(m, [(x, 1.0)], GE, 1.0)
        obj, violations = evaluate(m, np.array([0.0]))
        assert violations == [(cid, 1.0)]

    def test_zero_cost_objective(self):
        m = Model()
        x = m.add_variable("x1", CONTINUOUS, 0, 10)
        add_row(m, [(x, 1.0)], LE, 10.0)
        obj, violations = evaluate(m, np.array([3.0]))
        assert obj == 0.0 and violations == []

    def test_partial_assignment_rejected(self):
        m, _ = small_model()
        with pytest.raises(ValueError, match="partial"):
            evaluate(m, np.array([1.0]))
        with pytest.raises(ValueError, match="partial"):
            evaluate(m, dict(enumerate([1.0] * len(m.variables))))

    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_equality_violation_is_absolute_residual(self, a, b):
        m = Model()
        x = m.add_variable("x", CONTINUOUS, -10, 10)
        add_row(m, [(x, 1.0)], EQ, a)
        _, violations = evaluate(m, np.array([b]), tol=1e-9)
        if abs(a - b) > 1e-9:
            assert violations and violations[0][1] == pytest.approx(abs(a - b))
        else:
            assert violations == []


class TestExportLpText:
    def test_skeleton_sections(self):
        m = Model()
        x = m.add_variable("x", CONTINUOUS, 0, 2)
        m.set_objective_coef(x, 1.0)
        add_row(m, [(x, 1.0)], GE, 1.0)
        text = _export(m)
        for section in ("Minimize", "Subject To", "Bounds", "End"):
            assert section in text

    def test_empty_model_is_valid(self):
        text = _export(Model())
        assert text.startswith("Minimize")
        assert "End" in text

    def test_deterministic_bytes(self):
        a, _ = small_model()
        b, _ = small_model()
        assert _export(a) == _export(b)

    def test_roundtrip_through_reference_parser(self):
        from lp_text import parse_lp_text

        m, _ = small_model()
        parsed = parse_lp_text(_export(m))
        assert parsed.names == [v.name for v in m.variables]
        assert parsed.binaries == {"x1", "x2"}
        assert parsed.objective == {"x1": 2.0, "p": 0.5}
        assert len(parsed.rows) == len(m.constraints)
        row0 = parsed.rows[0]
        assert row0.coefs == {"x1": 1.0, "x2": 1.0} and row0.sense == "<=" and row0.rhs == 1.0
        assert parsed.bounds["p"] == (0.0, 1.0)

    def test_infinite_bound_rendering(self):
        m = Model()
        m.add_variable("x", CONTINUOUS, 0, math.inf)
        assert "0.0 <= x <= +inf" in _export(m)

    def test_reimported_model_solves_to_same_optimum(self):
        from lp_text import parse_lp_text
        from solve import solve_model
        from confl3.confl import build_3confl
        from instances import conflict_instance

        source = build_3confl(conflict_instance()[0]).model
        parsed = parse_lp_text(_export(source))
        rebuilt = Model()
        ids = {}
        for name, (lo, hi) in parsed.bounds.items():
            kind = BINARY if name in parsed.binaries else CONTINUOUS
            ids[name] = rebuilt.add_variable(name, kind, lo, hi)
        for name, cost in parsed.objective.items():
            rebuilt.set_objective_coef(ids[name], cost)
        for parsed_row in parsed.rows:
            add_row(rebuilt, [(ids[n], c) for n, c in parsed_row.coefs.items()],
                    parsed_row.sense, parsed_row.rhs)
        want = solve_model(source, 60.0)
        got = solve_model(rebuilt, 60.0)
        assert got.status == want.status == "optimal"
        assert got.objective == pytest.approx(want.objective, abs=1e-6)


def _loop_terms_text(terms) -> str:
    parts = []
    for i, (name, coef) in enumerate(terms):
        if i == 0:
            parts.append(f"{coef!r} {name}")
        elif coef < 0:
            parts.append(f"- {-coef!r} {name}")
        else:
            parts.append(f"+ {coef!r} {name}")
    return " ".join(parts)


def _loop_export(m) -> str:
    """The LP text written one row at a time: the reference the
    array export must match byte for byte."""
    lines = ["Minimize"]
    obj = [(m.variables[vid].name, cost) for vid, cost in m.objective.items()]
    lines.append(" obj: " + (_loop_terms_text(obj) if obj else "0"))
    lines.append("Subject To")
    for cid, (terms, sense, rhs) in enumerate(row_list(m.constraints)):
        named = [(m.variables[vid].name, coef) for vid, coef in terms]
        lines.append(f" c{cid}: {_loop_terms_text(named)} {sense} {rhs!r}")
    lines.append("Bounds")
    for var in m.variables:
        lo = "-inf" if var.lower == -math.inf else repr(var.lower)
        hi = "+inf" if var.upper == math.inf else repr(var.upper)
        lines.append(f" {lo} <= {var.name} <= {hi}")
    binaries = [v.name for v in m.variables if v.kind == BINARY]
    if binaries:
        lines += ["Binaries"] + [f" {name}" for name in binaries]
    lines.append("End")
    return "\n".join(lines) + "\n"


def _loop_violations(m, x, tol=1e-6):
    out = []
    for cid, (terms, sense, rhs) in enumerate(row_list(m.constraints)):
        lhs = sum(coef * x[vid] for vid, coef in terms)
        excess = {LE: lhs - rhs, GE: rhs - lhs}.get(sense, abs(lhs - rhs))
        if excess > tol:
            out.append((cid, excess))
    return out


# Row blocks of the export: one row, a few rows, and the default.
BLOCK_SIZES = [1, 3, milp._EXPORT_BLOCK_ROWS]


@pytest.mark.parametrize("seed", range(20))
def test_array_paths_match_row_loops(seed, monkeypatch):
    """Export, evaluate and the nonzeros of the prepared matrix agree
    exactly with loops over the rows, one at a time, on random models with signed
    zeros, repeated values and rows of mixed lengths.  The export does so in
    blocks of any size."""
    from confl3 import simplex

    rng = np.random.default_rng(seed)
    values = [1.0, -1.0, 0.0, -0.0, 2.5, -3.25, 1e-300, 7.0e20]

    def draw():
        return float(rng.choice(values)) if rng.random() < 0.5 else float(rng.normal())

    m = Model()
    n = int(rng.integers(1, 10))
    for j in range(n):
        m.add_variable(f"v{j}", BINARY if j % 3 == 0 else CONTINUOUS, 0, 1)
    for j in rng.permutation(n)[:int(rng.integers(0, n + 1))]:
        m.set_objective_coef(int(j), draw())
    for r in range(int(rng.integers(0, 12))):
        ids = rng.permutation(n)[:int(rng.integers(1, n + 1))]
        add_row(m, [(int(i), draw()) for i in ids], [LE, EQ, GE][r % 3], draw())
    for block in BLOCK_SIZES:
        monkeypatch.setattr(milp, "_EXPORT_BLOCK_ROWS", block)
        assert _export(m) == _loop_export(m)
    x = np.array([rng.random() for _ in m.variables])
    assert evaluate(m, x)[1] == _loop_violations(m, x)
    prep = simplex.prepare(m)
    dense = np.zeros((len(m.constraints), n))
    for i, (terms, sense, _) in enumerate(row_list(m.constraints)):
        for vid, coef in terms:
            dense[i, vid] = coef
        if sense == GE:
            dense[i] *= -1.0
    scattered = np.zeros_like(dense)
    scattered[prep.row_ids, prep.col_ids] = prep.vals
    assert np.array_equal(scattered, dense)
    assert np.all(prep.vals != 0) and len(prep.vals) == np.count_nonzero(dense)
    assert np.array_equal(np.signbit(prep.vals), np.signbit(dense[prep.row_ids, prep.col_ids]))


def _mixed_width_model() -> Model:
    """50 rows of widths 1 to 7, in no order, over 12 variables."""
    rng = np.random.default_rng(7)
    m = Model()
    for j in range(12):
        m.add_variable(f"v{j}", BINARY if j % 2 else CONTINUOUS, 0, 1)
        m.set_objective_coef(j, float(rng.normal()))
    for r in range(50):
        ids = rng.permutation(12)[:int(rng.integers(1, 8))]
        add_row(m, [(int(i), float(rng.normal())) for i in ids],
                [LE, EQ, GE][r % 3], float(rng.integers(-3, 4)))
    return m


def _rowless_model() -> Model:
    m = Model()
    m.add_variable("x", BINARY, 0, 1)
    m.add_variable("y", CONTINUOUS, -math.inf, 2.5)
    return m


@pytest.mark.parametrize("make", [_mixed_width_model, _rowless_model, Model],
                         ids=["mixed-width", "no-rows", "empty"])
def test_export_bytes_do_not_depend_on_the_block_size(make, monkeypatch):
    m = make()
    for block in BLOCK_SIZES:
        monkeypatch.setattr(milp, "_EXPORT_BLOCK_ROWS", block)
        assert _export(m) == _loop_export(m)


class _CountingSink:
    """A text stream that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)


def test_export_streams_its_rows():
    """The export holds one block of text at a time, never the file: its
    traced peak is a small share of what it writes."""
    m = Model()
    n = 3000
    for j in range(n):
        m.add_variable(f"w_u{j // 30}_f{j % 30}_t3", BINARY, 0, 1)
    rng = np.random.default_rng(0)
    k = 300_000
    first = rng.integers(0, n - 1, size=k)
    m.add_rows(np.stack([first, first + rng.integers(1, n - first)], axis=1),
               np.ones((k, 2)), LE, 1.0)
    # The first export imports what numpy loads lazily; that is no text.
    export_lp_text(small_model()[0], _CountingSink())
    sink = _CountingSink()
    tracemalloc.start()
    try:
        export_lp_text(m, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 40 * k
    assert peak < sink.chars / 4, (peak, sink.chars)


@pytest.mark.parametrize("case, block", [
    ("no-pairs", milp._EXPORT_BLOCK_ROWS),
    ("preset", milp._EXPORT_BLOCK_ROWS),
    ("preset", 7),
    *((case, block) for case in ("percent-names", "shuffled")
      for block in (1, 3, milp._EXPORT_BLOCK_ROWS)),
])
def test_pairs_export_as_the_strengthened_model(case, block, monkeypatch):
    """The pair rows written straight from the (k, 2) array give the text of
    the model with the pairs appended as rows by `add_rows`, whether there
    are none, or they end mid-block and their names cross block offsets;
    also when the names hold ``%`` (the line templates hold the first name)
    and when the pairs are shuffled, so that most runs of one first id are
    one row long."""
    inst = calm_wireless_instance() if case == "no-pairs" else generate(strengthening_preset(), 0)
    plain = build_3confl(inst)
    pairs = strengthening_pairs(plain, inst)
    assert (len(pairs) == 0) == (case == "no-pairs")
    model = plain.model
    if case == "percent-names":
        model = plain.model.copy()
        model.variables = [replace(v, name=f"%{v.name}%s%%") for v in model.variables]
    if case == "shuffled":
        pairs = pairs[np.random.default_rng(0).permutation(len(pairs))]
        assert np.count_nonzero(pairs[1:, 0] == pairs[:-1, 0]) < 0.2 * len(pairs)
    if block == 7:
        # Several blocks of pairs, the first and last of them partial.
        assert len(pairs) > 3 * block
        assert len(plain.model.constraints) % block and len(pairs) % block
    strong = model.copy()
    strong.add_rows(pairs, np.ones(pairs.shape), LE, 1.0)
    monkeypatch.setattr(milp, "_EXPORT_BLOCK_ROWS", block)
    got = io.StringIO()
    export_lp_text(model, got, pairs)
    assert got.getvalue() == _export(strong)


@pytest.mark.parametrize("pairs", [[[0, 3]], [[-1, 0]], [[1, 1]]],
                         ids=["unknown-id", "negative-id", "repeated-id"])
def test_pairs_of_unknown_or_repeated_ids_are_refused(pairs):
    m, _ = small_model()
    with pytest.raises(ValueError, match="two distinct variable ids"):
        export_lp_text(m, _CountingSink(), np.array(pairs, dtype=np.int64))


@pytest.mark.parametrize("pairs", [
    np.array([[0.0, 1.0]]),
    np.array([[0, 1, 2]], dtype=np.int64),
    np.array([0, 1], dtype=np.int64),
    np.array([[False, True]]),
    [[0, 1]],
], ids=["float", "three-columns", "one-dimensional", "bool", "list"])
def test_pairs_not_a_two_column_integer_array_are_refused_before_writing(pairs):
    """Malformed pairs are refused before the header is written: unchecked,
    a float array fails mid-stream and a third column is silently dropped."""
    sink = _CountingSink()
    with pytest.raises(ValueError, match="2-D integer array with two columns"):
        export_lp_text(small_model()[0], sink, pairs)
    assert sink.chars == 0


def test_pairs_export_holds_little_beside_the_pairs():
    """On the 12x8 export preset, detecting the pairs and writing them
    with the model peaks below 2.5 times the pairs' own 3.8 MB (8.3 times
    when they were appended to a model and written as its rows)."""
    inst = generate(GeneratorParams(grid_width=12, grid_height=8, n_facilities=10,
                                    n_central_offices=3, n_steiner=4), 0)
    plain = build_3confl(inst)
    # The first export imports what numpy loads lazily; that is no text.
    export_lp_text(small_model()[0], _CountingSink(), np.array([[0, 1]]))
    tracemalloc.start()
    try:
        pairs = strengthening_pairs(plain, inst)
        export_lp_text(plain.model, _CountingSink(), pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == 238_410
    assert peak <= 2.5 * pairs.nbytes, peak / pairs.nbytes

import hashlib
import json

import numpy as np
import pytest

from confl3 import cli, confl, heuristic, simplex
from confl3.cli import main
from confl3.confl import build_3confl, verify_solution
from confl3.instance_io import GeneratorParams, generate, read_instance, write_instance

from instances import strengthening_preset

GEN_ARGS = [
    "generate",
    "--grid-width", "3", "--grid-height", "2",
    "--facilities", "2", "--central-offices", "1", "--steiner", "0",
    "--density", "0.5", "--knn", "1",
    "--radii", "1.5,2.2,3.0",
    "--fractions", "0.2,0.4,0.5",
    "--eta-noise", "0.05", "--delta", "1.8",
]


def _generate(tmp_path, seed=4):
    inst_path = tmp_path / "inst.json"
    assert main(GEN_ARGS + ["--seed", str(seed), "-o", str(inst_path)]) == 0
    return inst_path


def test_generate_solve_roundtrip(tmp_path, capsys):
    inst_path = _generate(tmp_path)
    sol_path = tmp_path / "sol.json"
    code = main(["solve", str(inst_path), "--iters", "3", "--seed", "1", "-o", str(sol_path)])
    assert code == 0
    doc = json.loads(sol_path.read_text())
    assert doc["kind"] == "heuristic"
    assert doc["status"] == "feasible"
    assert doc["verified"] is True

    instance = read_instance(inst_path.read_text())
    confl = build_3confl(instance)
    assignment = np.array([doc["assignment"][v.name] for v in confl.model.variables])
    assert verify_solution(instance, confl, assignment).feasible


def test_solve_is_byte_deterministic_in_test_mode(tmp_path):
    inst_path = _generate(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", str(inst_path), "--iters", "3", "--seed", "2", "-o", str(a)]) == 0
    assert main(["solve", str(inst_path), "--iters", "3", "--seed", "2", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_unattainable_names_technology(tmp_path, capsys):
    inst_path = _generate(tmp_path)
    doc = json.loads(inst_path.read_text())
    doc["assignment_arcs"]["3"] = []
    doc["coverage_thresholds"]["3"] = doc["coverage_thresholds"]["2"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["solve", str(bad), "--iters", "1", "-o", str(tmp_path / "s.json")])
    assert code == 1
    assert "technology 3" in capsys.readouterr().err


def test_exact_and_report_pipeline(tmp_path, capsys):
    inst_path = _generate(tmp_path)
    exact_path = tmp_path / "exact.json"
    heu_path = tmp_path / "heu.json"
    assert main(["exact", str(inst_path), "--strong", "-o", str(exact_path)]) == 0
    assert main(["solve", str(inst_path), "--iters", "2", "-o", str(heu_path)]) == 0
    capsys.readouterr()

    exact_doc = json.loads(exact_path.read_text())
    heu_doc = json.loads(heu_path.read_text())
    assert exact_doc["instance"]["hash"] == heu_doc["instance"]["hash"]

    code = main(["report", str(exact_path), str(heu_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "ΔGap%" in out
    # Both gaps are measured against the smaller of the two lower bounds.
    lower = min(exact_doc["lower_bound"], heu_doc["lower_bound"])
    gap_ref = 100.0 * (exact_doc["objective"] - lower) / exact_doc["objective"]
    gap_heu = 100.0 * (heu_doc["objective"] - lower) / heu_doc["objective"]
    delta = "n/a" if gap_ref == 0 else f"{100.0 * (gap_heu - gap_ref) / gap_ref:.2f}"
    assert out.splitlines()[2].split()[1:] == [f"{gap_ref:.2f}", f"{gap_heu:.2f}", delta]


def test_exact_strong_prepares_only_the_plain_matrix(tmp_path, capsys, monkeypatch):
    """`--strong` passes the strengthening rows as a cut pool: one plain
    matrix is prepared, one LP is solved cold, and the cuts re-solve warm."""
    instance = generate(strengthening_preset(), 0)
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(write_instance(instance), encoding="utf-8")
    prepared, cold, appended = [], [], []
    prepare, solve_prepared, append_rows = (simplex.prepare, simplex.solve_prepared,
                                            simplex.append_rows)

    def counting_prepare(model):
        prepared.append(prepare(model))
        return prepared[-1]

    def counting_solve_prepared(prep, lo, hi, basis=None):
        if basis is None:
            cold.append(prep)
        return solve_prepared(prep, lo, hi, basis)

    def counting_append_rows(prep, rows, rhs):
        appended.append(len(rhs))
        return append_rows(prep, rows, rhs)

    monkeypatch.setattr(simplex, "prepare", counting_prepare)
    monkeypatch.setattr(simplex, "solve_prepared", counting_solve_prepared)
    monkeypatch.setattr(simplex, "append_rows", counting_append_rows)
    out = tmp_path / "exact.json"
    assert main(["exact", str(inst_path), "--strong", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "optimal" and doc["verified"] is True
    assert doc["params"]["strong"] is True
    assert len(prepared) == 1
    assert len(prepared[0].rhs) == len(build_3confl(instance).model.constraints)
    assert len(cold) == 1
    assert appended


def test_zero_cost_pipeline_reports_zero_gaps(tmp_path, capsys):
    """With every coverage threshold at 0 the optimum costs nothing: exact
    and solve record a zero gap, and report reads them back."""
    inst_path = tmp_path / "zero.json"
    # The last --fractions wins.
    assert main(GEN_ARGS + ["--fractions", "0,0,0", "--seed", "4", "-o", str(inst_path)]) == 0
    exact_path, heu_path = tmp_path / "exact.json", tmp_path / "heu.json"
    assert main(["exact", str(inst_path), "-o", str(exact_path)]) == 0
    assert main(["solve", str(inst_path), "--iters", "1", "-o", str(heu_path)]) == 0
    for path in (exact_path, heu_path):
        doc = json.loads(path.read_text())
        assert doc["objective"] == doc["gap"] == 0.0
    capsys.readouterr()
    assert main(["report", str(exact_path), str(heu_path)]) == 0
    assert capsys.readouterr().out.splitlines()[2].split()[1:] == ["0.00", "0.00", "n/a"]


def test_solve_and_exact_strong_never_build_a_strengthened_model(tmp_path, monkeypatch):
    """The cut pool comes straight from `strengthening_pairs`: with
    `strengthen` refusing to run, both commands write the same documents."""
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(write_instance(generate(strengthening_preset(), 0)), encoding="utf-8")
    commands = [["solve", str(inst_path), "--iters", "2"], ["exact", str(inst_path), "--strong"]]

    def documents(tag):
        out = []
        for k, argv in enumerate(commands):
            path = tmp_path / f"{tag}{k}.json"
            assert main(argv + ["-o", str(path)]) == 0
            out.append(path.read_bytes())
        return out

    want = documents("want")

    def refuse(*args, **kwargs):
        raise AssertionError("strengthen was called")

    for owner in (cli, confl, heuristic):
        monkeypatch.setattr(owner, "strengthen", refuse)
    assert documents("got") == want


def test_report_refuses_mixed_instances(tmp_path, capsys):
    a_path = _generate(tmp_path, seed=4)
    b_path = tmp_path / "other.json"
    assert main(GEN_ARGS + ["--seed", "7", "-o", str(b_path)]) == 0
    sa, sb = tmp_path / "sa.json", tmp_path / "sb.json"
    assert main(["exact", str(a_path), "-o", str(sa)]) == 0
    assert main(["solve", str(b_path), "--iters", "1", "-o", str(sb)]) == 0
    code = main(["report", str(sa), str(sb)])
    assert code == 2
    assert "mix" in capsys.readouterr().err


@pytest.mark.parametrize("doc, field", [([], "not a solution document"),
                                        ("drop-instance", "instance"),
                                        ("string-objective", "objective: expected a number"),
                                        ("list-bound", "lower_bound: expected a number"),
                                        ("list-name", "instance.name: expected str"),
                                        ("list-hash", "instance.hash: expected str")])
def test_report_rejects_malformed_documents(tmp_path, capsys, doc, field):
    inst_path = _generate(tmp_path)
    sol = tmp_path / "sol.json"
    assert main(["solve", str(inst_path), "--iters", "1", "-o", str(sol)]) == 0
    if isinstance(doc, str):
        edit = {"drop-instance": lambda d: d.pop("instance"),
                "string-objective": lambda d: d.update(objective="12"),
                "list-bound": lambda d: d.update(lower_bound=[1]),
                "list-name": lambda d: d["instance"].update(name=["x"]),
                "list-hash": lambda d: d["instance"].update(hash=["x"])}[doc]
        doc = json.loads(sol.read_text())
        edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["report", str(sol), str(bad)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and field in err


def test_solve_rejects_non_object_entries(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"meta": {}, "users": ["id"]}))
    assert main(["solve", str(bad), "-o", str(tmp_path / "s.json")]) == 2
    assert "users[0]: expected an object" in capsys.readouterr().err


def test_negative_top_k_is_usage_error(tmp_path, capsys):
    inst_path = _generate(tmp_path)
    code = main(["solve", str(inst_path), "--iters", "1", "--top-k", "-1",
                 "-o", str(tmp_path / "s.json")])
    assert code == 2
    assert "top_k must be >= 0" in capsys.readouterr().err


def test_export_lp_writes_model(tmp_path):
    inst_path = _generate(tmp_path)
    lp_path = tmp_path / "model.lp"
    assert main(["export-lp", str(inst_path), "-o", str(lp_path)]) == 0
    text = lp_path.read_text()
    for section in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
        assert section in text


def test_missing_instance_file_is_usage_error(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "nope.json"), "-o", str(tmp_path / "s.json")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    assert main(["generate", "--does-not-exist", "-o", "x.json"]) == 2


def test_solve_flag_defaults_match_experiment_settings():
    from confl3.cli import _parser

    args = _parser().parse_args(["solve", "x.json", "-o", "y.json"])
    assert args.time_limit == 3600.0
    assert args.outer_limit == 3000.0
    assert args.vlns_limit == 600.0
    assert args.alpha == 0.5
    assert args.sigma == 5


def test_strengthened_export_contains_extra_rows(tmp_path):
    inst_path = _generate(tmp_path)
    plain, strong = tmp_path / "p.lp", tmp_path / "s.lp"
    assert main(["export-lp", str(inst_path), "-o", str(plain)]) == 0
    assert main(["export-lp", str(inst_path), "--strong", "-o", str(strong)]) == 0
    assert len(strong.read_text().splitlines()) >= len(plain.read_text().splitlines())


# The strong exports of two generated grids, pinned byte for byte.  Both have
# ten or more users, so the conflict rows are ordered by id string ("u10"
# before "u2"), not by numeric index.
PINNED_STRONG_EXPORTS = [
    (dict(grid_width=6, grid_height=4, n_facilities=4, n_central_offices=1, n_steiner=1),
     "eec33d9960a93628bb6d6788e447d8e1c3bdbb2dbcb94c8006ad56596319820b"),
    (dict(grid_width=12, grid_height=8, n_facilities=10, n_central_offices=3, n_steiner=4),
     "bca1ef5711340101c75af139ca1f8f0ff5cf5067556b1f0312afd7a0c42b7400"),
]


@pytest.mark.parametrize("params, digest", PINNED_STRONG_EXPORTS,
                         ids=["6x4", "12x8"])
def test_strong_export_bytes_are_pinned(tmp_path, params, digest):
    inst_path, lp_path = tmp_path / "inst.json", tmp_path / "strong.lp"
    instance = generate(GeneratorParams(**params), 0)
    assert len(instance.users) >= 10
    inst_path.write_text(write_instance(instance), encoding="utf-8")
    assert main(["export-lp", str(inst_path), "--strong", "-o", str(lp_path)]) == 0
    assert hashlib.sha256(lp_path.read_bytes()).hexdigest() == digest


def test_numerical_breakdown_has_its_own_exit_code(tmp_path, capsys, monkeypatch):
    def breakdown(*args):
        raise ArithmeticError("simplex iteration limit exceeded")

    monkeypatch.setattr(simplex, "_dual_simplex", breakdown)
    inst_path = _generate(tmp_path)
    code = main(["exact", str(inst_path), "-o", str(tmp_path / "e.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "iteration limit" in err


def test_singular_basis_is_a_numerical_breakdown(tmp_path, capsys, monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(simplex, "_dual_simplex", singular)
    inst_path = _generate(tmp_path)
    code = main(["exact", str(inst_path), "-o", str(tmp_path / "e.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Singular matrix" in err

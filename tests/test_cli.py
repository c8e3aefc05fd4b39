import json

import numpy as np

from confl3 import simplex
from confl3.cli import main
from confl3.confl import build_3confl, verify_solution
from confl3.instance_io import read_instance

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
    assignment = {v.id: doc["assignment"][v.name] for v in confl.model.variables}
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

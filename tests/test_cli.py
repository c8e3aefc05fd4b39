import hashlib
import json
import logging
import math
import os
import pathlib
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from confl3 import bnb, cli, confl, heuristic, instance_io, milp, simplex
from confl3.cli import main
from confl3.confl import UnattainableCoverageError, build_3confl, verify_solution
from confl3.heuristic import HeuristicParams
from confl3.instance_io import GeneratorParams, generate, read_instance, write_instance

from instances import DESK, conflict_instance, strengthening_preset

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


def _stripped(tmp_path, techs, w3_is_w2=False):
    """The GEN_ARGS seed-4 instance with the assignment arcs of `techs`
    removed and, if asked, the wireless threshold lowered to copper's."""
    doc = json.loads(_generate(tmp_path).read_text())
    for t in techs:
        doc["assignment_arcs"][str(t)] = []
    if w3_is_w2:
        doc["coverage_thresholds"]["3"] = doc["coverage_thresholds"]["2"]
    path = tmp_path / "stripped.json"
    path.write_text(json.dumps(doc))
    return path


def test_solve_unattainable_names_technology(tmp_path, capsys):
    bad = _stripped(tmp_path, (1, 2, 3), w3_is_w2=True)
    code = main(["solve", str(bad), "--iters", "1", "-o", str(tmp_path / "s.json")])
    assert code == 1
    assert "technology 1" in capsys.readouterr().err
    assert main(["exact", str(bad), "-o", str(tmp_path / "x.json")]) == 1
    assert json.loads((tmp_path / "x.json").read_text())["status"] == "infeasible"


@pytest.mark.parametrize("tech, w3_is_w2", [(2, False), (3, True)], ids=["copper", "wireless"])
def test_solve_counts_better_technologies_toward_coverage(tmp_path, capsys, tech, w3_is_w2):
    """With copper or wireless arcs gone, users on better technologies
    still meet the later thresholds, so `solve` finds the optimum `exact`
    proves."""
    inst = _stripped(tmp_path, (tech,), w3_is_w2)
    assert main(["exact", str(inst), "-o", str(tmp_path / "x.json")]) == 0
    assert main(["solve", str(inst), "--iters", "2", "-o", str(tmp_path / "s.json")]) == 0
    exact = json.loads((tmp_path / "x.json").read_text())
    heur = json.loads((tmp_path / "s.json").read_text())
    assert exact["status"] == "optimal"
    assert heur["verified"] is True
    assert heur["objective"] == pytest.approx(exact["objective"], abs=1e-9)


def test_strengthened_root_infeasibility_exits_1(tmp_path, capsys):
    """The screen passes the conflict instance when wireless must cover all
    the weight, but its conflict row makes the strengthened root infeasible:
    `solve` refuses it as `exact` does, with exit 1 and the reason."""
    inst, _, _ = conflict_instance()
    inst.coverage_thresholds = {1: 0.0, 2: 0.0, 3: inst.total_weight()}
    confl.check_attainable(inst)
    path = tmp_path / "conflict.json"
    path.write_text(write_instance(inst))
    assert main(["exact", str(path), "-o", str(tmp_path / "x.json")]) == 1
    assert json.loads((tmp_path / "x.json").read_text())["status"] == "infeasible"
    capsys.readouterr()
    assert main(["solve", str(path), "--iters", "1", "-o", str(tmp_path / "s.json")]) == 1
    assert "strengthened relaxation is infeasible" in capsys.readouterr().err


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
    # Both gaps are measured against the larger of the two lower bounds.
    lower = max(exact_doc["lower_bound"], heu_doc["lower_bound"])
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

    def counting_append_rows(prep, cols, coefs, rhs):
        appended.append(len(rhs))
        return append_rows(prep, cols, coefs, rhs)

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


@pytest.mark.parametrize("command", [["exact"], ["solve", "--iters", "1"]])
def test_a_model_past_the_dense_cap_exits_2(tmp_path, capsys, monkeypatch, command):
    inst_path = _generate(tmp_path)
    monkeypatch.setattr(simplex, "_MAX_DENSE_BYTES", 1000)
    out = tmp_path / "out.json"
    assert main([command[0], str(inst_path), *command[1:], "-o", str(out)]) == 2
    assert "bytes of dense basis inverse (8 m² bytes)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("limit", ["0", "-1", "nan"])
def test_exact_refuses_a_time_limit_that_is_not_positive(tmp_path, capsys, limit):
    inst_path = _generate(tmp_path)
    out = tmp_path / "out.json"
    assert main(["exact", str(inst_path), "--time-limit", limit, "-o", str(out)]) == 2
    assert "time_limit must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_the_exact_deadline_covers_the_model_build(tmp_path, capsys, monkeypatch):
    """`exact --time-limit` counts from the read instance on, as for
    `solve`: a build that outlasts the limit leaves branch and bound no node."""
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(write_instance(generate(DESK, 0)), encoding="utf-8")
    build = cli.build_3confl

    def slow_build(instance):
        time.sleep(0.2)
        return build(instance)

    monkeypatch.setattr(cli, "build_3confl", slow_build)
    out = tmp_path / "out.json"
    assert main(["exact", str(inst_path), "--time-limit", "0.1", "-o", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["status"] == "timeout_no_incumbent" and doc["nodes"] == 0
    assert doc["lower_bound"] is None and doc["assignment"] is None
    assert "timeout_no_incumbent after 0 nodes" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["exact"], ["solve", "--iters", "1"]])
def test_a_failed_verification_is_recorded_and_logged(tmp_path, caplog, monkeypatch, command):
    inst_path = _generate(tmp_path)
    monkeypatch.setattr(cli, "verify_solution", lambda *args: SimpleNamespace(feasible=False))
    out = tmp_path / "out.json"
    with caplog.at_level(logging.WARNING, logger="confl3"):
        assert main([command[0], str(inst_path), *command[1:], "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["assignment"] is not None and doc["verified"] is False
    assert "solution failed independent verification" in caplog.text


def test_a_wrong_objective_is_not_verified(tmp_path, caplog):
    """A feasible point whose written objective is not the one the verifier
    recomputes from the instance is not verified."""
    instance = read_instance(_generate(tmp_path).read_text())
    model = build_3confl(instance)
    res = bnb.solve_mip(simplex.prepare(model.model), *simplex.model_bounds(model.model))
    out = tmp_path / "out.json"
    for objective, verified in [(res.objective, True), (res.objective + 1.0, False)]:
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="confl3"):
            cli._write_solution(str(out), "exact", instance, model, res.status, objective,
                                res.lower_bound, res.incumbent)
        assert json.loads(out.read_text())["verified"] is verified
        assert ("solution failed independent verification" in caplog.text) is not verified


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
    """The cut pool and the exported strengthening rows come straight from
    `strengthening_pairs`: with `strengthen` refusing to run, the three
    commands write the same documents and the same LP file."""
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(write_instance(generate(strengthening_preset(), 0)), encoding="utf-8")
    commands = [["solve", str(inst_path), "--iters", "2"], ["exact", str(inst_path), "--strong"],
                ["export-lp", str(inst_path), "--strong"]]

    def documents(tag):
        out = []
        for k, argv in enumerate(commands):
            path = tmp_path / f"{tag}{k}.out"
            assert main(argv + ["-o", str(path)]) == 0
            out.append(path.read_bytes())
        return out

    want = documents("want")

    def refuse(*args, **kwargs):
        raise AssertionError("strengthen was called")

    for owner in (cli, confl, heuristic):
        monkeypatch.setattr(owner, "strengthen", refuse)
    assert documents("got") == want


def test_report_measures_both_gaps_against_the_larger_bound(tmp_path, capsys):
    """A timed-out exact document, whose bound lies between the heuristic's
    root bound and both objectives, sets both gaps.  A bound above the
    heuristic objective by at most 1e-9 relative gives that gap 0; by more,
    one of the documents is wrong, and report exits 2 naming both."""
    inst_path = _generate(tmp_path)
    exact_path, heu_path = tmp_path / "exact.json", tmp_path / "heu.json"
    assert main(["exact", str(inst_path), "-o", str(exact_path)]) == 0
    assert main(["solve", str(inst_path), "--iters", "2", "-o", str(heu_path)]) == 0
    heu = json.loads(heu_path.read_text())
    v, root = heu["objective"], heu["lower_bound"]
    assert root < v

    def report_with(objective, lower_bound):
        doc = json.loads(exact_path.read_text())
        doc.update(objective=objective, lower_bound=lower_bound)
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        capsys.readouterr()
        return main(["report", str(edited), str(heu_path)]), capsys.readouterr(), edited

    timed_out, bound = 1.25 * v, 0.5 * (root + v)
    code, out, _ = report_with(timed_out, bound)
    assert code == 0
    gap_ref, gap_heu = 100.0 * (timed_out - bound) / timed_out, 100.0 * (v - bound) / v
    assert out.out.splitlines()[2].split()[1:] == [
        f"{gap_ref:.2f}", f"{gap_heu:.2f}", f"{100.0 * (gap_heu - gap_ref) / gap_ref:.2f}"]
    code, out, _ = report_with(v, v * (1 + 5e-10))
    assert code == 0 and out.out.splitlines()[2].split()[1:] == ["0.00", "0.00", "n/a"]
    code, out, edited = report_with(timed_out, v + 1e-3)
    assert code == 2
    assert str(edited) in out.err and str(heu_path) in out.err and "bound inconsistency" in out.err


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
                                        ("list-hash", "instance.hash: expected str"),
                                        ("infinite-objective",
                                         "objective: expected a finite number, got inf"),
                                        ("nan-objective",
                                         "objective: expected a finite number, got nan"),
                                        ("huge-objective", "objective: expected a finite number"),
                                        ("exact-minus-infinite-bound",
                                         "lower_bound: expected a finite number, got -inf")])
def test_report_rejects_malformed_documents(tmp_path, capsys, doc, field):
    inst_path = _generate(tmp_path)
    sol = tmp_path / "sol.json"
    assert main(["solve", str(inst_path), "--iters", "1", "-o", str(sol)]) == 0
    if isinstance(doc, str):
        edit = {"drop-instance": lambda d: d.pop("instance"),
                "string-objective": lambda d: d.update(objective="12"),
                "list-bound": lambda d: d.update(lower_bound=[1]),
                "list-name": lambda d: d["instance"].update(name=["x"]),
                "list-hash": lambda d: d["instance"].update(hash=["x"]),
                "infinite-objective": lambda d: d.update(objective=math.inf),
                "nan-objective": lambda d: d.update(objective=math.nan),
                "huge-objective": lambda d: d.update(objective=10 ** 400),
                "exact-minus-infinite-bound": lambda d: d.update(kind="exact",
                                                                 lower_bound=-math.inf)}[doc]
        doc = json.loads(sol.read_text())
        edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["report", str(sol), str(bad)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and field in err


@pytest.mark.parametrize("flag, value, field", [("--delta", "nan", "wireless.delta"),
                                                 ("--delta", "inf", "wireless.delta"),
                                                 ("--eta-noise", "nan", "wireless.eta_noise"),
                                                 ("--p-max", "inf", "wireless.p_max")])
def test_generate_rejects_non_finite_radio_parameters(tmp_path, capsys, flag, value, field):
    out = tmp_path / "inst.json"
    assert main(GEN_ARGS + [flag, value, "--seed", "4", "-o", str(out)]) == 2
    assert f"{field}: expected a finite number, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("radii, name", [("nan,2.2,3.0", "radii[1]"),
                                         ("1.5,inf,3.0", "radii[2]"),
                                         ("1.5,2.2,0", "radii[3]")])
def test_generate_rejects_bad_radii(tmp_path, capsys, radii, name):
    out = tmp_path / "inst.json"
    assert main(GEN_ARGS + ["--radii", radii, "--seed", "4", "-o", str(out)]) == 2
    assert f"{name} must be a finite positive number" in capsys.readouterr().err
    assert not out.exists()


def test_solve_rejects_non_object_entries(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"meta": {}, "users": ["id"]}))
    assert main(["solve", str(bad), "-o", str(tmp_path / "s.json")]) == 2
    assert "users[0]: expected an object" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["solve", "--iters", "1"], ["exact"], ["export-lp"]])
def test_two_technology_instance_refused_when_read(tmp_path, capsys, monkeypatch, command):
    """A document without technology 3's threshold is an input error
    before any model is built: `build_3confl` refuses it first."""
    doc = json.loads(_generate(tmp_path).read_text())
    del doc["coverage_thresholds"]["3"]
    bad = tmp_path / "two.json"
    bad.write_text(json.dumps(doc))

    def refuse(*args):
        raise AssertionError("a model was built")

    monkeypatch.setattr(confl, "Model", refuse)
    argv = [command[0], str(bad), *command[1:], "-o", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "coverage_thresholds: technologies 1, 2 and 3 required" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["solve", "--iters", "1"], ["exact"], ["export-lp"],
                                     ["export-lp", "--strong"]])
def test_each_command_validates_the_instance_once(tmp_path, monkeypatch, command):
    inst_path = tmp_path / "desk.json"
    inst_path.write_text(write_instance(generate(DESK, 0)), encoding="utf-8")
    real, calls = confl.validate_instance, []

    def counting(instance):
        calls.append(instance)
        real(instance)

    for module in (confl, instance_io):
        monkeypatch.setattr(module, "validate_instance", counting)
    argv = [command[0], str(inst_path), *command[1:], "-o", str(tmp_path / "out")]
    assert main(argv) == 0
    assert len(calls) == 1


def test_negative_top_k_is_usage_error(tmp_path, capsys):
    inst_path = _generate(tmp_path)
    code = main(["solve", str(inst_path), "--iters", "1", "--top-k", "-1",
                 "-o", str(tmp_path / "s.json")])
    assert code == 2
    assert "top_k must be >= 0" in capsys.readouterr().err


def test_vlns_limit_must_be_below_time_limit(tmp_path, capsys):
    inst_path = _generate(tmp_path)
    code = main(["solve", str(inst_path), "--time-limit", "60", "--vlns-limit", "60",
                 "-o", str(tmp_path / "s.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "--vlns-limit" in err and "--time-limit" in err
    assert not (tmp_path / "s.json").exists()


def test_export_lp_writes_model(tmp_path):
    inst_path = _generate(tmp_path)
    lp_path = tmp_path / "model.lp"
    assert main(["export-lp", str(inst_path), "-o", str(lp_path)]) == 0
    text = lp_path.read_text()
    for section in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
        assert section in text


def test_export_lp_logs_the_rows_it_wrote(tmp_path, caplog):
    inst_path = _generate(tmp_path)
    lp_path = tmp_path / "model.lp"
    with caplog.at_level("INFO", logger="confl3"):
        assert main(["export-lp", str(inst_path), "--strong", "-o", str(lp_path)]) == 0
    lines = lp_path.read_text().splitlines()
    rows = lines.index("Bounds") - lines.index("Subject To") - 1
    assert f"variables, {rows} rows)" in caplog.text


def test_failed_export_leaves_no_file(tmp_path, capsys, monkeypatch):
    """A write that fails after the first block of rows exits 2 with its
    error, and the partial file is removed."""
    inst_path = _generate(tmp_path)
    lp_path = tmp_path / "model.lp"
    render = milp._row_lines
    calls = []

    def fail_after_first_block(*args):
        calls.append(lp_path.exists())
        if len(calls) > 1:
            raise OSError("no space left on device")
        return render(*args)

    monkeypatch.setattr(milp, "_EXPORT_BLOCK_ROWS", 1)
    monkeypatch.setattr(milp, "_row_lines", fail_after_first_block)
    assert main(["export-lp", str(inst_path), "-o", str(lp_path)]) == 2
    assert "error: no space left on device" in capsys.readouterr().err
    assert calls == [True, True]
    assert not lp_path.exists()


@pytest.mark.parametrize("flags", [[], ["--strong"]], ids=["plain", "strong"])
def test_export_of_an_invalid_instance_creates_no_file(tmp_path, capsys, flags):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"meta": {}, "users": ["id"]}))
    lp_path = tmp_path / "model.lp"
    assert main(["export-lp", str(bad), *flags, "-o", str(lp_path)]) == 2
    assert "users[0]: expected an object" in capsys.readouterr().err
    assert not lp_path.exists()


def test_missing_instance_file_is_usage_error(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "nope.json"), "-o", str(tmp_path / "s.json")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "exact", "generate", "report"])
def test_an_unreadable_input_or_unwritable_output_exits_2(tmp_path, capsys, command):
    """A directory given as an instance or a solution document, or an output
    in a missing directory, is an input error: exit 2 with one error line,
    not exit 1 with a traceback."""
    inst_path = _generate(tmp_path)
    missing = str(tmp_path / "missing-dir" / "x.json")
    argv = {"solve": ["solve", str(tmp_path), "-o", str(tmp_path / "s.json")],
            "exact": ["exact", str(inst_path), "-o", missing],
            "generate": GEN_ARGS + ["--seed", "4", "-o", missing],
            "report": ["report", str(tmp_path)]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("output", ["missing-dir/x.json", "."], ids=["missing-dir", "directory"])
@pytest.mark.parametrize("command", ["solve", "exact"])
def test_a_bad_output_path_fails_before_any_solve(tmp_path, capsys, monkeypatch, command,
                                                   output):
    inst_path = _generate(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("solved before the output path was checked")

    monkeypatch.setattr(bnb, "solve_mip", refuse)
    monkeypatch.setattr(cli, "run", refuse)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main([command, str(inst_path), "-o", output]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output ") and err.count("\n") == 1, err


@pytest.mark.parametrize("output", ["missing-dir/x.lp", "."], ids=["missing-dir", "directory"])
def test_a_bad_export_path_fails_before_any_build(tmp_path, capsys, monkeypatch, output):
    """`export-lp --strong` checks its output path before it builds a model,
    as `solve` and `exact` do: on the full default grid the build and the
    conflict detection take about 0.7 s before the open would fail."""
    inst_path = _generate(tmp_path)

    def refuse(*args):
        raise AssertionError("built a model before the output path was checked")

    monkeypatch.setattr(cli, "build_3confl", refuse)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["export-lp", str(inst_path), "--strong", "-o", output]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output ") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


def test_generate_defaults_are_the_generator_defaults(tmp_path):
    out = tmp_path / "g.json"
    assert main(["generate", "--seed", "3", "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == write_instance(generate(GeneratorParams(), 3))


def test_solve_defaults_are_the_heuristic_defaults(tmp_path, monkeypatch):
    seen = []

    def capture(instance, params):
        seen.append(params)
        raise UnattainableCoverageError("captured")

    monkeypatch.setattr(cli, "run", capture)
    assert main(["solve", str(_generate(tmp_path)), "-o", str(tmp_path / "s.json")]) == 1
    assert seen == [HeuristicParams()]


def test_the_cached_parser_parses_each_call_afresh(tmp_path):
    """`main` builds its parser once per process, and a flag given to one
    call leaves no trace in the next: each second document equals the one
    a single call writes with a freshly built parser."""
    inst = str(_generate(tmp_path))

    def document(name, command, *flags):
        out = tmp_path / name
        assert main([command, inst, *flags, "-o", str(out)]) == 0
        return out.read_bytes()

    assert cli._parser() is cli._parser()
    for command, flag, param, default in (("solve", ["--alpha", "0.3"], "alpha", 0.5),
                                          ("exact", ["--strong"], "strong", False)):
        tail = ["--iters", "1"] if command == "solve" else []
        first = json.loads(document("first.json", command, *flag, *tail))
        second = document("second.json", command, *tail)
        assert first["params"][param] != default
        assert json.loads(second)["params"][param] == default
        cli._parser.cache_clear()
        assert second == document("single.json", command, *tail)


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    assert main(["generate", "--does-not-exist", "-o", "x.json"]) == 2


def test_solve_flag_defaults_match_experiment_settings():
    from confl3.cli import _parser

    args = _parser().parse_args(["solve", "x.json", "-o", "y.json"])
    assert args.time_limit == 3600.0
    assert args.vlns_limit == 600.0
    # Constructions stop once no more than a final VLNS's cap is left.
    assert args.time_limit - args.vlns_limit == 3000.0
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


def test_a_bundled_run_leaves_scipy_unloaded(tmp_path):
    # The tests load scipy as an LP oracle; `exact` on a desk instance, in
    # a process of its own, must not load it, or the memory and start-up of
    # every bundled run would carry it.
    inst_path, out = tmp_path / "desk.json", tmp_path / "e.json"
    inst_path.write_text(write_instance(generate(DESK, 0)), encoding="utf-8")
    script = ("import sys\n"
              "from confl3 import cli\n"
              f"assert cli.main(['exact', {str(inst_path)!r}, '-o', {str(out)!r}]) == 0\n"
              "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n")
    done = _python(script)
    assert done.returncode == 0, done.stderr
    assert json.loads(out.read_text())["status"] == "optimal"


def test_importing_the_package_loads_no_module():
    # Each name is imported from the module that defines it; the package
    # root re-exports nothing, so importing it loads nothing more.
    script = ("import sys, confl3\n"
              "print(sorted(m for m in sys.modules if m.startswith('confl3.')))\n")
    done = _python(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _python(script: str) -> subprocess.CompletedProcess:
    """`script` run by a new interpreter that imports confl3 from this tree."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)

"""Command-line entry point: generate, solve, exact, export-lp, report.

Exit codes: 0 success, 1 infeasible / no solution, 2 usage or input error,
3 numerical breakdown in the bundled solver.
`CONFL3_LOG` selects verbosity (debug, info, quiet).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys

import numpy as np

from . import bnb, simplex
from .confl import build_3confl, strengthen, strengthening_pairs, verify_solution
from .heuristic import HeuristicParams, UnattainableCoverageError, ogap, run
from .instance_io import (
    GeneratorParams,
    ResultRow,
    SchemaError,
    generate,
    read_instance,
    report,
    write_instance,
)
from .milp import export_lp_text

logger = logging.getLogger("confl3")

SOLUTION_FORMAT = "confl3-solution/1"


def _setup_logging() -> None:
    level = {"debug": logging.DEBUG, "info": logging.INFO, "quiet": logging.ERROR}.get(
        os.environ.get("CONFL3_LOG", "info").lower(), logging.INFO
    )
    logging.basicConfig(level=level, format="%(levelname)s %(message)s")


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="confl3", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a generated instance JSON")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--grid-width", type=int, default=25)
    gen.add_argument("--grid-height", type=int, default=18)
    gen.add_argument("--facilities", type=int, default=30)
    gen.add_argument("--central-offices", type=int, default=5)
    gen.add_argument("--steiner", type=int, default=8)
    gen.add_argument("--density", type=float, default=1.0,
                     help="probability that a pixel hosts a user")
    gen.add_argument("--radii", type=str, default="4,6,8",
                     help="assignment radii for technologies 1,2,3 (pixels)")
    gen.add_argument("--fractions", type=str, default="0.2,0.5,0.8",
                     help="coverage thresholds as fractions of total weight")
    gen.add_argument("--knn", type=int, default=4)
    gen.add_argument("--delta", type=float, default=2.0)
    gen.add_argument("--eta-noise", type=float, default=0.05)
    gen.add_argument("--p-min", type=float, default=0.1)
    gen.add_argument("--p-max", type=float, default=1.0)
    gen.add_argument("-o", "--output", required=True)

    def _heuristic_flags(p):
        p.add_argument("--seed", type=int, default=0, help="sampling seed")
        p.add_argument("--alpha", type=float, default=0.5)
        p.add_argument("--sigma", type=int, default=5)
        p.add_argument("--vlns-radius", type=int, default=None)
        p.add_argument("--time-limit", type=float, default=3600.0)
        p.add_argument("--outer-limit", type=float, default=3000.0)
        p.add_argument("--sub-limit", type=float, default=60.0)
        p.add_argument("--vlns-limit", type=float, default=600.0)
        p.add_argument("--top-k", type=int, default=10)
        p.add_argument("--iters", type=int, default=None,
                       help="test mode: outer-loop iteration cap replacing wall clocks")

    solve = sub.add_parser("solve", help="run the fixing heuristic")
    solve.add_argument("instance")
    _heuristic_flags(solve)
    solve.add_argument("-o", "--output", required=True)

    exact = sub.add_parser("exact", help="run branch and bound on the full model")
    exact.add_argument("instance")
    exact.add_argument("--strong", action="store_true",
                       help="add the strengthening inequalities as cuts")
    exact.add_argument("--time-limit", type=float, default=3600.0)
    exact.add_argument("-o", "--output", required=True)

    export = sub.add_parser("export-lp", help="write the model in LP text format")
    export.add_argument("instance")
    export.add_argument("--strong", action="store_true")
    export.add_argument("-o", "--output", required=True)

    rep = sub.add_parser("report", help="tabulate heuristic vs reference gaps")
    rep.add_argument("solutions", nargs="+", help="solution JSONs (exact + heuristic pairs)")
    rep.add_argument("--csv", action="store_true")
    rep.add_argument("-o", "--output", default=None)
    return top


def _load_instance(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return read_instance(fh.read())
    except FileNotFoundError:
        raise SchemaError(f"instance file not found: {path}")


def _instance_ref(instance) -> dict:
    canonical = write_instance(instance).encode("utf-8")
    return {"name": instance.name, "hash": hashlib.sha256(canonical).hexdigest()}


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _named_assignment(model, assignment) -> dict:
    return dict(zip((v.name for v in model.variables), assignment.tolist()))


def _cmd_generate(args) -> int:
    radii = [float(x) for x in args.radii.split(",")]
    fractions = [float(x) for x in args.fractions.split(",")]
    if len(radii) != 3 or len(fractions) != 3:
        raise SchemaError("--radii and --fractions need exactly three comma-separated values")
    params = GeneratorParams(
        grid_width=args.grid_width,
        grid_height=args.grid_height,
        n_facilities=args.facilities,
        n_central_offices=args.central_offices,
        n_steiner=args.steiner,
        users_per_pixel=args.density,
        radii={1: radii[0], 2: radii[1], 3: radii[2]},
        coverage_fractions={1: fractions[0], 2: fractions[1], 3: fractions[2]},
        knn=args.knn,
        delta=args.delta,
        eta_noise=args.eta_noise,
        p_min=args.p_min,
        p_max=args.p_max,
    )
    instance = generate(params, args.seed)
    _write(args.output, write_instance(instance))
    logger.info(
        "wrote %s: %d users, %d facilities, %d offices",
        args.output, len(instance.users), len(instance.facilities),
        len(instance.central_offices),
    )
    return 0


def _cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    params = HeuristicParams(
        alpha=args.alpha,
        sigma_count=args.sigma,
        vlns_radius=args.vlns_radius,
        global_time_limit=args.time_limit,
        outer_loop_limit=args.outer_limit,
        subproblem_time_limit=args.sub_limit,
        vlns_time_limit=args.vlns_limit,
        rng_seed=args.seed,
        top_k=args.top_k,
        test_iterations=args.iters,
    )
    try:
        result = run(instance, params)
    except UnattainableCoverageError as exc:
        print(f"no solution possible: {exc}", file=sys.stderr)
        return 1

    doc = {
        "format": SOLUTION_FORMAT,
        "kind": "heuristic",
        "instance": _instance_ref(instance),
        "status": result.status,
        "objective": result.objective,
        "lower_bound": result.lower_bound,
        "gap": result.gap,
        "assignment": None,
        "verified": False,
        "iterations": result.iterations,
        "trace": result.trace,
        "params": {
            "alpha": params.alpha,
            "sigma": params.sigma_count,
            "vlns_radius": params.radius(len(instance.facilities)),
            "rng_seed": params.rng_seed,
            "top_k": params.top_k,
            "test_iterations": params.test_iterations,
        },
    }
    if result.status == "feasible":
        doc["assignment"] = _named_assignment(result.confl.model, result.assignment)
        doc["verified"] = verify_solution(instance, result.confl, result.assignment).feasible
        if not doc["verified"]:
            logger.warning("solution failed independent verification")
    _write(args.output, json.dumps(doc, indent=1, sort_keys=True))
    if result.status != "feasible":
        print(f"no feasible solution found; lower bound {result.lower_bound:.6g}")
        return 1
    print(
        f"objective {result.objective:.6g}  lower bound {result.lower_bound:.6g}  "
        f"gap {100 * result.gap:.2f}%  ({result.iterations} outer iterations)"
    )
    return 0


def _cmd_exact(args) -> int:
    instance = _load_instance(args.instance)
    confl = build_3confl(instance)
    pool = strengthening_pairs(confl, instance) if args.strong else None
    res = bnb.solve_mip(simplex.prepare(confl.model), *simplex.model_bounds(confl.model),
                        args.time_limit, pool=pool)
    gap = None
    if res.has_solution():
        gap = ogap(res.objective, min(res.lower_bound, res.objective))
    doc = {
        "format": SOLUTION_FORMAT,
        "kind": "exact",
        "instance": _instance_ref(instance),
        "status": res.status,
        "objective": res.objective,
        "lower_bound": None if math.isinf(res.lower_bound) else res.lower_bound,
        "gap": gap,
        "assignment": None,
        "verified": False,
        "nodes": res.nodes,
        "params": {"strong": args.strong, "time_limit": args.time_limit},
    }
    if res.has_solution():
        doc["assignment"] = _named_assignment(confl.model, res.incumbent)
        doc["verified"] = verify_solution(instance, confl, res.incumbent).feasible
    _write(args.output, json.dumps(doc, indent=1, sort_keys=True))
    if not res.has_solution():
        print(f"exact solve: {res.status} after {res.nodes} nodes")
        return 1
    print(
        f"exact solve: {res.status}, objective {res.objective:.6g}, "
        f"bound {res.lower_bound:.6g}, {res.nodes} nodes"
    )
    return 0


def _cmd_export_lp(args) -> int:
    instance = _load_instance(args.instance)
    confl = build_3confl(instance)
    if args.strong:
        confl = strengthen(confl, instance)
    _write(args.output, export_lp_text(confl.model))
    logger.info("wrote %s (%d variables, %d rows)", args.output,
                len(confl.model.variables), len(confl.model.constraints))
    return 0


def _cmd_report(args) -> int:
    groups: dict[str, dict[str, dict]] = {}
    for path in args.solutions:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise SchemaError(f"solution file not found: {path}")
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})")
        if not isinstance(doc, dict) or doc.get("format") != SOLUTION_FORMAT:
            raise SchemaError(f"{path}: not a solution document")
        kind = doc.get("kind")
        if kind not in ("exact", "heuristic"):
            raise SchemaError(f"{path}: unknown solution kind {kind!r}")
        if doc.get("objective") is None or doc.get("lower_bound") is None:
            raise SchemaError(f"{path}: no objective or lower bound recorded (infeasible run?)")
        for field in ("objective", "lower_bound"):
            if not isinstance(doc[field], (int, float)) or isinstance(doc[field], bool):
                raise SchemaError(f"{path}: {field}: expected a number")
        inst = doc.get("instance")
        if not (isinstance(inst, dict) and "hash" in inst and "name" in inst):
            raise SchemaError(f"{path}: instance: expected an object with hash and name")
        for field in ("hash", "name"):
            if not isinstance(inst[field], str):
                raise SchemaError(f"{path}: instance.{field}: expected str")
        slot = groups.setdefault(inst["hash"], {"name": inst["name"]})
        if kind in slot:
            raise SchemaError(f"{path}: duplicate {kind} solution for instance {slot['name']}")
        slot[kind] = doc

    rows = []
    for h, slot in groups.items():
        if "exact" not in slot or "heuristic" not in slot:
            raise SchemaError(
                f"instance {slot['name']} ({h[:12]}...) needs one exact and one "
                "heuristic solution; report refuses to mix instances"
            )
        # Both gaps against one lower bound: the smaller, which neither
        # objective lies below.
        lower = min(slot["exact"]["lower_bound"], slot["heuristic"]["lower_bound"])
        rows.append(
            ResultRow(
                instance_id=slot["name"],
                gap_reference=100.0 * ogap(slot["exact"]["objective"], lower),
                gap_heuristic=100.0 * ogap(slot["heuristic"]["objective"], lower),
            )
        )
    text = report(rows, csv=args.csv)
    if args.output:
        _write(args.output, text)
    else:
        print(text, end="")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "exact": _cmd_exact,
    "export-lp": _cmd_export_lp,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    _setup_logging()
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    # A singular basis raises LinAlgError, a ValueError; it is a breakdown too.
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical breakdown: {exc}", file=sys.stderr)
        return 3
    except (SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: generate, solve, exact, export-lp, report.

Exit codes: 0 success, 1 infeasible / no solution, 2 usage or input error
(a file that cannot be read or written included),
3 numerical breakdown in the bundled solver.
`CONFL3_LOG` selects verbosity (debug, info, quiet).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import bnb
from .confl import (TECHNOLOGIES, UnattainableCoverageError, build_3confl,
                    strengthening_pairs, verify_solution)
from .heuristic import HeuristicParams, run
from .instance_io import (
    GeneratorParams,
    SchemaError,
    _number,
    gap_row,
    generate,
    read_instance,
    report,
    write_instance,
)
from .milp import export_lp_text
# Unused here (`export-lp --strong` writes the strengthening_pairs array),
# but perfbench/tracing.py wraps this name.
from .confl import strengthen  # noqa: F401

logger = logging.getLogger("confl3")

SOLUTION_FORMAT = "confl3-solution/1"


def _setup_logging() -> None:
    level = {"debug": logging.DEBUG, "info": logging.INFO, "quiet": logging.ERROR}.get(
        os.environ.get("CONFL3_LOG", "info").lower(), logging.INFO
    )
    logging.basicConfig(level=level, format="%(levelname)s %(message)s")


# The flags of `generate` after --seed, each with the GeneratorParams field
# it sets and its help; a per-technology field is one comma-separated value
# per technology.
_GENERATOR_FLAGS = [
    ("--grid-width", "grid_width", None),
    ("--grid-height", "grid_height", None),
    ("--facilities", "n_facilities", None),
    ("--central-offices", "n_central_offices", None),
    ("--steiner", "n_steiner", None),
    ("--density", "users_per_pixel", "probability that a pixel hosts a user"),
    ("--radii", "radii", "assignment radii for technologies 1,2,3 (pixels)"),
    ("--fractions", "coverage_fractions", "coverage thresholds as fractions of total weight"),
    ("--knn", "knn", None),
    ("--delta", "delta", None),
    ("--eta-noise", "eta_noise", None),
    ("--p-min", "p_min", None),
    ("--p-max", "p_max", None),
]

# The flags of `solve` after the instance, each with the HeuristicParams
# field it sets, its type (two fields default to None) and its help.
_SOLVE_FLAGS = [
    ("--seed", "rng_seed", int, "sampling seed"),
    ("--alpha", "alpha", float, None),
    ("--sigma", "sigma_count", int, None),
    ("--vlns-radius", "vlns_radius", int, None),
    ("--time-limit", "global_time_limit", float, None),
    ("--sub-limit", "subproblem_time_limit", float, None),
    ("--vlns-limit", "vlns_time_limit", float, None),
    ("--top-k", "top_k", int, None),
    ("--iters", "test_iterations", int,
     "test mode: outer-loop iteration cap replacing wall clocks"),
]


def _flag_values(args, flags) -> dict:
    """The parsed value of each flag in `flags`, keyed by the field it sets."""
    return {field: getattr(args, flag[2:].replace("-", "_")) for flag, field, *_ in flags}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process; each
    :func:`main` call parses into a fresh namespace."""
    top = argparse.ArgumentParser(prog="confl3", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a generated instance JSON")
    gen.add_argument("--seed", type=int, default=0)
    gen_defaults = GeneratorParams()
    for flag, field, text in _GENERATOR_FLAGS:
        default = getattr(gen_defaults, field)
        if isinstance(default, dict):
            default = ",".join(f"{default[t]:g}" for t in TECHNOLOGIES)
        gen.add_argument(flag, type=type(default), default=default, help=text)
    gen.add_argument("-o", "--output", required=True)

    solve = sub.add_parser("solve", help="run the fixing heuristic")
    solve.add_argument("instance")
    solve_defaults = HeuristicParams()
    for flag, field, kind, text in _SOLVE_FLAGS:
        solve.add_argument(flag, type=kind, default=getattr(solve_defaults, field), help=text)
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


def _check_output(path: str) -> None:
    """Raise OSError when `path` cannot be written: it is a directory, or
    its parent directory is missing or not writable.  `generate`, `solve`,
    `exact` and `export-lp` call this before any work, so a bad path costs
    no solve."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise IsADirectoryError(f"output is a directory: {path}")
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise OSError(f"output directory missing or not writable: {parent}")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_solution(path: str, kind: str, instance, confl, status: str,
                    objective: float | None, lower_bound: float, assignment,
                    **fields) -> None:
    """Write the solution document of `solve` or `exact`: the fields both
    share, the assignment named by `confl`'s variables and verified against
    the raw instance (feasible, and the recomputed objective agrees with
    `objective` to a relative 1e-9), then the command's own `fields`."""
    doc = {
        "format": SOLUTION_FORMAT,
        "kind": kind,
        "instance": _instance_ref(instance),
        "status": status,
        "objective": objective,
        "lower_bound": None if math.isinf(lower_bound) else lower_bound,
        "gap": None if objective is None else bnb.ogap(objective, lower_bound),
        "assignment": None,
        "verified": False,
        **fields,
    }
    if assignment is not None:
        doc["assignment"] = dict(zip(confl.model.variables.names.tolist(), assignment.tolist()))
        check = verify_solution(instance, confl, assignment)
        doc["verified"] = (check.feasible and abs(check.objective - objective)
                           <= 1e-9 * max(1.0, abs(objective)))
        if not doc["verified"]:
            logger.warning("solution failed independent verification")
    _write(path, json.dumps(doc, indent=1, sort_keys=True))


def _cmd_generate(args) -> int:
    _check_output(args.output)
    values = _flag_values(args, _GENERATOR_FLAGS)
    for field in ("radii", "coverage_fractions"):
        per_tech = [float(x) for x in values[field].split(",")]
        if len(per_tech) != len(TECHNOLOGIES):
            raise SchemaError("--radii and --fractions need exactly three comma-separated values")
        values[field] = dict(zip(TECHNOLOGIES, per_tech))
    params = GeneratorParams(**values)
    instance = generate(params, args.seed)
    _write(args.output, write_instance(instance))
    logger.info(
        "wrote %s: %d users, %d facilities, %d offices",
        args.output, len(instance.users), len(instance.facilities),
        len(instance.central_offices),
    )
    return 0


def _cmd_solve(args) -> int:
    _check_output(args.output)
    instance = _load_instance(args.instance)
    params = HeuristicParams(**_flag_values(args, _SOLVE_FLAGS))
    try:
        result = run(instance, params)
    except UnattainableCoverageError as exc:
        print(f"no solution possible: {exc}", file=sys.stderr)
        return 1

    _write_solution(
        args.output, "heuristic", instance, result.confl, result.status, result.objective,
        result.lower_bound, result.assignment,
        iterations=result.iterations,
        trace=result.trace,
        params={
            "alpha": params.alpha,
            "sigma": params.sigma_count,
            "vlns_radius": params.radius(len(instance.facilities)),
            "rng_seed": params.rng_seed,
            "top_k": params.top_k,
            "test_iterations": params.test_iterations,
        },
    )
    if result.status != "feasible":
        print(f"no feasible solution found; lower bound {result.lower_bound:.6g}")
        return 1
    print(
        f"objective {result.objective:.6g}  lower bound {result.lower_bound:.6g}  "
        f"gap {100 * result.gap:.2f}%  ({result.iterations} outer iterations)"
    )
    return 0


def _cmd_exact(args) -> int:
    if not args.time_limit > 0:
        raise ValueError("time_limit must be positive")
    _check_output(args.output)
    instance = _load_instance(args.instance)
    # The deadline covers the model build, the pool and the session's prepared matrix too.
    deadline = time.monotonic() + args.time_limit
    confl = build_3confl(instance)
    pool = strengthening_pairs(confl, instance) if args.strong else None
    res = bnb.Session(confl.model).mip({}, deadline=deadline, pool=pool)
    _write_solution(
        args.output, "exact", instance, confl, res.status, res.objective, res.lower_bound,
        res.incumbent,
        nodes=res.nodes,
        params={"strong": args.strong, "time_limit": args.time_limit},
    )
    if not res.has_solution():
        print(f"exact solve: {res.status} after {res.nodes} nodes")
        return 1
    print(
        f"exact solve: {res.status}, objective {res.objective:.6g}, "
        f"bound {res.lower_bound:.6g}, {res.nodes} nodes"
    )
    return 0


def _cmd_export_lp(args) -> int:
    _check_output(args.output)
    instance = _load_instance(args.instance)
    confl = build_3confl(instance)
    pairs = strengthening_pairs(confl, instance) if args.strong else None
    # Opened only now, so that an input error leaves no file; a failed
    # write removes the partial one.
    fh = open(args.output, "w", encoding="utf-8")
    try:
        with fh:
            export_lp_text(confl.model, fh, pairs)
    except BaseException:
        os.remove(args.output)
        raise
    logger.info("wrote %s (%d variables, %d rows)", args.output, len(confl.model.variables),
                len(confl.model.constraints) + (0 if pairs is None else len(pairs)))
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
            # Python's json reads Infinity, -Infinity, NaN and huge integers.
            doc[field] = _number(doc[field], f"{path}: {field}")
        inst = doc.get("instance")
        if not (isinstance(inst, dict) and "hash" in inst and "name" in inst):
            raise SchemaError(f"{path}: instance: expected an object with hash and name")
        for field in ("hash", "name"):
            if not isinstance(inst[field], str):
                raise SchemaError(f"{path}: instance.{field}: expected str")
        slot = groups.setdefault(inst["hash"], {"name": inst["name"]})
        if kind in slot:
            raise SchemaError(f"{path}: duplicate {kind} solution for instance {slot['name']}")
        slot[kind] = path, doc

    rows = []
    for h, slot in groups.items():
        if "exact" not in slot or "heuristic" not in slot:
            raise SchemaError(
                f"instance {slot['name']} ({h[:12]}...) needs one exact and one "
                "heuristic solution; report refuses to mix instances"
            )
        (exact_path, exact), (heur_path, heur) = slot["exact"], slot["heuristic"]
        try:
            rows.append(gap_row(slot["name"], exact["objective"], heur["objective"],
                                exact["lower_bound"], heur["lower_bound"]))
        except ValueError as exc:
            raise ValueError(f"{exact_path} and {heur_path}: {exc}") from None
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
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    # A singular basis raises LinAlgError, a ValueError; it is a breakdown too.
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical breakdown: {exc}", file=sys.stderr)
        return 3
    # An unreadable input or an unwritable output (a directory, a missing
    # parent) is an input error too, not "no solution".
    except (SchemaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

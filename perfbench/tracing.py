"""Spans around the public entry points of each confl3 module (traced runs only).

Each wrapper is installed where the caller looks the name up: `cli.run` is the
heuristic as the command line reaches it, `bnb.solve_mip` is the attribute the
heuristic and the command line both call through, `simplex.solve_prepared` is
looked up by the branch and bound, the heuristic and `solve_lp`.  Untraced
runs never call :func:`patched`, so they measure the package unmodified.

Spans are kept in memory as ``[name, start, end, parent]`` and written out when
the run ends.  A span's self time is its duration minus the durations of its
direct children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from confl3 import bnb, cli, confl, heuristic, instance_io, milp, simplex


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.opening_states: set = set()
        self._stack: list[int] = []

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _on_lp(tracer, args, result):
    tracer.counts["lp_infeasible"] += result.status == simplex.INFEASIBLE


def _on_mip(tracer, args, result):
    tracer.counts["nodes"] += result.nodes


def _on_strengthen(tracer, args, result):
    tracer.counts["rows_added"] += result.strengthening_rows


def _on_check(tracer, args, result):
    instance, _, fos = args[:3]
    tracer.opening_states.add((instance.name, fos.entries))
    tracer.counts["repairs"] += result.repaired


# (owner, attribute, span name, hook)
SITES = [
    (cli, "main", "cli", None),
    (cli, "read_instance", "instance_io.read", None),
    (cli, "write_instance", "instance_io.write", None),
    (cli, "build_3confl", "confl.build", None),
    (cli, "strengthen", "confl.strengthen", _on_strengthen),
    (cli, "verify_solution", "confl.verify", None),
    (cli, "export_lp_text", "milp.export_lp", None),
    (cli, "run", "heuristic.run", None),
    (instance_io, "generate", "instance_io.generate", None),
    (instance_io, "write_instance", "instance_io.write", None),
    (instance_io, "read_instance", "instance_io.read", None),
    (confl, "build_3confl", "confl.build", None),
    (confl, "strengthen", "confl.strengthen", _on_strengthen),
    (confl, "conflict_pairs", "confl.conflict_pairs", None),
    (milp, "lp_relaxation", "milp.lp_relaxation", None),
    (heuristic, "build_3confl", "confl.build", None),
    (heuristic, "strengthen", "confl.strengthen", _on_strengthen),
    (heuristic, "apply_fixings", "milp.apply_fixings", None),
    (heuristic.HeuristicContext, "__init__", "heuristic.context", None),
    (heuristic, "attractiveness_init", "heuristic.init", None),
    (heuristic, "build_fos", "heuristic.construct", None),
    (heuristic, "check_and_repair", "heuristic.check", _on_check),
    (heuristic, "vlns", "heuristic.vlns", None),
    (bnb, "solve_mip", "bnb.solve_mip", _on_mip),
    (simplex, "prepare", "simplex.prepare", None),
    (simplex, "solve_prepared", "simplex.lp", _on_lp),
]


@contextmanager
def patched(tracer: Tracer):
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in SITES]
    try:
        for (owner, attr, name, hook), (_, _, fn) in zip(SITES, originals):
            setattr(owner, attr, tracer.wrap(name, fn, hook))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


# Per-layer metric -> unit.  `_s` metrics are self times summed over the run.
LAYER_METRICS = {
    "simplex.lp_s": "s",
    "simplex.lp_calls": "count",
    "simplex.lp_infeasible_share": "share",
    "simplex.prepare_s": "s",
    "simplex.prepare_calls": "count",
    "bnb.self_s": "s",
    "bnb.mip_calls": "count",
    "bnb.nodes": "count",
    "bnb.lps_per_node": "lp/node",
    "heuristic.context_s": "s",
    "heuristic.init_s": "s",
    "heuristic.construct_s": "s",
    "heuristic.check_self_s": "s",
    "heuristic.vlns_s": "s",
    "heuristic.checks": "count",
    "heuristic.distinct_fos": "count",
    "heuristic.distinct_fos_share": "share",
    "heuristic.lps_per_check": "lp/check",
    "heuristic.repairs": "count",
    "confl.build_s": "s",
    "confl.conflict_pairs_s": "s",
    "confl.strengthen_self_s": "s",
    "confl.rows_added": "count",
    "confl.verify_s": "s",
    "milp.export_lp_s": "s",
    "milp.apply_fixings_s": "s",
    "milp.lp_relaxation_s": "s",
    "instance_io.generate_s": "s",
    "instance_io.write_s": "s",
    "instance_io.read_s": "s",
    "cli.self_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.spans
    self_time = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for (name, *_), t in zip(spans, self_time):
        self_s[name] += t
        calls[name] += 1

    def lps_under(ancestor: str) -> int:
        n = 0
        for name, _, _, parent in spans:
            if name != "simplex.lp":
                continue
            while parent >= 0 and spans[parent][0] != ancestor:
                parent = spans[parent][3]
            n += parent >= 0
        return n

    checks = calls["heuristic.check"]
    distinct = len(tracer.opening_states)
    values = {
        "simplex.lp_calls": calls["simplex.lp"],
        "simplex.lp_infeasible_share": _ratio(tracer.counts["lp_infeasible"], calls["simplex.lp"]),
        "simplex.prepare_calls": calls["simplex.prepare"],
        "bnb.mip_calls": calls["bnb.solve_mip"],
        "bnb.nodes": tracer.counts["nodes"],
        "bnb.lps_per_node": _ratio(lps_under("bnb.solve_mip"), tracer.counts["nodes"]),
        "heuristic.checks": checks,
        "heuristic.distinct_fos": distinct,
        "heuristic.distinct_fos_share": _ratio(distinct, checks),
        "heuristic.lps_per_check": _ratio(lps_under("heuristic.check"), checks),
        "heuristic.repairs": tracer.counts["repairs"],
        "confl.rows_added": tracer.counts["rows_added"],
    }
    for metric, span in (
        ("simplex.lp_s", "simplex.lp"),
        ("simplex.prepare_s", "simplex.prepare"),
        ("bnb.self_s", "bnb.solve_mip"),
        ("heuristic.context_s", "heuristic.context"),
        ("heuristic.init_s", "heuristic.init"),
        ("heuristic.construct_s", "heuristic.construct"),
        ("heuristic.check_self_s", "heuristic.check"),
        ("heuristic.vlns_s", "heuristic.vlns"),
        ("confl.build_s", "confl.build"),
        ("confl.conflict_pairs_s", "confl.conflict_pairs"),
        ("confl.strengthen_self_s", "confl.strengthen"),
        ("confl.verify_s", "confl.verify"),
        ("milp.export_lp_s", "milp.export_lp"),
        ("milp.apply_fixings_s", "milp.apply_fixings"),
        ("milp.lp_relaxation_s", "milp.lp_relaxation"),
        ("instance_io.generate_s", "instance_io.generate"),
        ("instance_io.write_s", "instance_io.write"),
        ("instance_io.read_s", "instance_io.read"),
        ("cli.self_s", "cli"),
    ):
        values[metric] = self_s[span]
    return values

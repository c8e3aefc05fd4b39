"""The benchmark's workloads: instances, operations, correctness checks, timing.

Every operation goes through the calls a user makes: `confl3.cli.main(argv)`
in-process, plus one library call chain for the strengthened root LP.  One
client runs the operations in a closed loop; the next starts when the
previous one has returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from confl3 import cli, confl, instance_io, milp, simplex

# The scripts/benchmark_small.py preset: 4x3 grid, 3 facilities, one office.
DESK = instance_io.GeneratorParams(
    grid_width=4,
    grid_height=3,
    n_facilities=3,
    n_central_offices=1,
    n_steiner=0,
    users_per_pixel=0.4,
    knn=2,
    radii={1: 1.6, 2: 2.4, 3: 3.2},
    coverage_fractions={1: 0.2, 2: 0.4, 3: 0.5},
    delta=1.8,
    eta_noise=0.05,
    max_retries=1,
)
PRESETS = {
    "desk": DESK,
    "root-lp": replace(DESK, grid_width=8, grid_height=6, n_facilities=6),
    # Default radio parameters, as `confl3 generate` writes them.
    "export": instance_io.GeneratorParams(
        grid_width=12, grid_height=8, n_facilities=10, n_central_offices=3, n_steiner=4
    ),
    "export-tiny": instance_io.GeneratorParams(
        grid_width=6, grid_height=4, n_facilities=4, n_central_offices=1, n_steiner=1
    ),
}

# Optimal objectives of the base instances, (preset, generator seed) -> value.
# Bundled branch and bound and scipy's HiGHS `milp` agree on each to 1e-12.
# Relabelling ids leaves them unchanged, so they hold for every workload seed.
OPTIMUM = {
    ("desk", 0): 32.44466609506176,
    ("desk", 1): 35.45398252352517,
    ("desk", 2): 35.190712794268144,
    ("desk", 3): 30.23419157550137,
    ("desk", 4): 32.923684010334455,
    ("desk", 5): 33.2927591457942,
    ("desk", 6): 29.066837943192752,
    ("desk", 7): 32.45877099172833,
}
# Strengthened root LP values, cross-checked the same way.
ROOT_BOUND = {
    ("root-lp", 1): 28.35511917977819,
    ("desk", 0): 24.245085536378983,
}
REL_TOL = 1e-6


@dataclass(frozen=True)
class Op:
    kind: str        # solve | exact | export-lp | root-lp
    preset: str
    gen_seed: int

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.preset}-g{self.gen_seed}"


# Workload -> (full operations, tiny operations for the smoke test).  Each
# operation is short enough to repeat several times in one run, so that the
# per-operation medians absorb short slowdowns of a shared host: heuristic-desk
# leaves out desk seeds 2 and 3 (about 9 s each under `solve --iters 2` on a
# 2-core VM), and scale stops below the grids perfbench/README.md lists.
WORKLOADS = {
    "heuristic-desk": (
        [Op("solve", "desk", g) for g in (0, 1, 4, 6)],
        [Op("solve", "desk", 0)],
    ),
    "exact-desk": (
        [Op("exact", "desk", g) for g in range(8)],
        [Op("exact", "desk", 0), Op("exact", "desk", 6)],
    ),
    "scale": (
        [Op("export-lp", "export", 0), Op("root-lp", "root-lp", 1)],
        [Op("export-lp", "export-tiny", 0), Op("root-lp", "desk", 0)],
    ),
}


def relabel(instance, rng: np.random.Generator):
    """Permute the ids within each kind of node (users, facilities, offices,
    Steiner nodes).  Lists keep their order, so the model has the same
    columns; only names, and what is sorted by name, change."""
    names: dict[str, str] = {}
    for nodes in (instance.users, instance.facilities, instance.central_offices,
                  instance.steiner_nodes):
        ids = [n.id for n in nodes]
        names.update(zip(ids, (ids[int(k)] for k in rng.permutation(len(ids)))))
    w = instance.wireless
    return replace(
        instance,
        users=[replace(u, id=names[u.id]) for u in instance.users],
        facilities=[replace(f, id=names[f.id]) for f in instance.facilities],
        central_offices=[replace(c, id=names[c.id]) for c in instance.central_offices],
        steiner_nodes=[replace(s, id=names[s.id]) for s in instance.steiner_nodes],
        core_arcs=[replace(a, tail=names[a.tail], head=names[a.head])
                   for a in instance.core_arcs],
        assignment_arcs={
            t: [replace(a, facility=names[a.facility], user=names[a.user]) for a in arcs]
            for t, arcs in instance.assignment_arcs.items()
        },
        wireless=None if w is None else replace(
            w, fading={(names[f], names[u]): v for (f, u), v in w.fading.items()}
        ),
    )


def setup(ops: list[Op], seed: int, workdir: Path) -> dict[Op, Path]:
    """Generate, relabel and write each base instance the operations use."""
    files: dict[tuple[str, int], Path] = {}
    for op in ops:
        key = (op.preset, op.gen_seed)
        if key in files:
            continue
        base = instance_io.generate(PRESETS[op.preset], op.gen_seed)
        instance = replace(relabel(base, np.random.default_rng([seed, op.gen_seed])),
                           name=f"{op.preset}-g{op.gen_seed}-s{seed}")
        path = workdir / f"{op.preset}-g{op.gen_seed}.json"
        path.write_text(instance_io.write_instance(instance), encoding="utf-8")
        files[key] = path
    return {op: files[op.preset, op.gen_seed] for op in ops}


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


def _root_lp(path: Path):
    instance = instance_io.read_instance(path.read_text(encoding="utf-8"))
    model = confl.strengthen(confl.build_3confl(instance), instance).model
    return simplex.solve_lp(milp.lp_relaxation(model))


def _execute(op: Op, path: Path, out: Path):
    if op.kind == "solve":
        return _cli(["solve", str(path), "--iters", "2", "--seed", str(op.gen_seed),
                     "-o", str(out)])
    if op.kind == "exact":
        return _cli(["exact", str(path), "-o", str(out)])
    if op.kind == "export-lp":
        return _cli(["export-lp", str(path), "--strong", "-o", str(out)])
    return _root_lp(path)


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= REL_TOL * max(1.0, abs(reference))


class Checker:
    """Checks each operation's output; counts failures by type."""

    def __init__(self):
        self.failures: dict[str, int] = {}
        self.examples: dict[str, str] = {}
        self.gaps: list[float] = []
        self._export_sizes: dict[Path, tuple[int, int]] = {}

    def fail(self, kind: str, detail: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1
        self.examples.setdefault(kind, detail)

    def check(self, op: Op, path: Path, out: Path, result) -> bool:
        before = sum(self.failures.values())
        try:
            if op.kind == "root-lp":
                self._check_root_lp(op, result)
            else:
                code, stderr = result
                if code != 0:
                    self.fail("exit_code", f"{op.label}: exit {code} {stderr}")
                elif op.kind == "export-lp":
                    self._check_export(op, path, out)
                else:
                    self._check_solution(op, json.loads(out.read_text(encoding="utf-8")))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            self.fail("malformed_output", f"{op.label}: {exc!r}")
        return sum(self.failures.values()) == before

    def _check_root_lp(self, op: Op, res) -> None:
        if res.status != simplex.OPTIMAL:
            self.fail("status", f"{op.label}: {res.status}")
        elif not _close(res.objective, ROOT_BOUND[op.preset, op.gen_seed]):
            self.fail("wrong_objective", f"{op.label}: {res.objective!r}")

    def _check_solution(self, op: Op, doc: dict) -> None:
        expected = "feasible" if op.kind == "solve" else "optimal"
        if doc["status"] != expected:
            self.fail("status", f"{op.label}: {doc['status']}")
            return
        if not doc["verified"]:
            self.fail("unverified", op.label)
        objective, lower = doc["objective"], doc["lower_bound"]
        if lower is None or lower > objective + REL_TOL * max(1.0, abs(objective)):
            self.fail("bound_above_objective", f"{op.label}: {lower!r} > {objective!r}")
        optimum = OPTIMUM[op.preset, op.gen_seed]
        if op.kind == "exact" and not _close(objective, optimum):
            self.fail("wrong_objective", f"{op.label}: {objective!r} != {optimum!r}")
        if op.kind == "solve" and objective < optimum - REL_TOL * max(1.0, optimum):
            self.fail("below_optimum", f"{op.label}: {objective!r} < {optimum!r}")
        self.gaps.append(doc["gap"])

    def _check_export(self, op: Op, path: Path, out: Path) -> None:
        text = out.read_text(encoding="utf-8")
        start, bounds = text.index("\nSubject To\n"), text.index("\nBounds\n")
        end = text.find("\nBinaries\n", bounds)
        rows = text.count("\n", start + 1, bounds)
        columns = text.count("\n", bounds + 1, end if end >= 0 else text.index("\nEnd\n"))
        if path not in self._export_sizes:
            # The model built here, outside any timed span, is the reference.
            instance = instance_io.read_instance(path.read_text(encoding="utf-8"))
            model = confl.strengthen(confl.build_3confl(instance), instance).model
            self._export_sizes[path] = (len(model.constraints), len(model.variables))
        if (rows, columns) != self._export_sizes[path]:
            self.fail("export_rows", f"{op.label}: {(rows, columns)} != "
                      f"{self._export_sizes[path]}")


# Mean duration of one speed probe on the reference host (a calm 2-core
# x86-64 VM, Python 3.11, numpy 2.4), and how often the probe runs during a
# timed span.  Timings are scaled to the reference host.
PROBE_REF_S = 1.2e-4
PROBE_EVERY_S = 0.02


class HostSpeed:
    """Estimates how fast the host runs during a timed span.

    A shared host slows a process by up to 2x, in stretches of seconds to
    tens of seconds.  While a span runs, a SIGALRM every PROBE_EVERY_S runs
    a fixed probe (small dense algebra and integer arithmetic that does not
    touch confl3) in the measured thread itself, so the probe sees the same
    slowdowns as the work around it.  The probes take about 1 % of the span,
    the same for every version of the package.
    """

    def __init__(self):
        self._m = np.random.default_rng(12345).random((60, 60))
        self._v = np.ones(60)
        self._times: list[float] = []

    def _kernel(self) -> None:
        v = self._v
        for _ in range(20):
            v = self._m @ v
            v = v / v.sum()
        total = 0
        for i in range(300):
            total += i * i

    def _probe(self, *_) -> None:
        # The first run refills the caches the measured work evicted, so the
        # timed second run sees the host's speed, not the work's footprint.
        self._kernel()
        t0 = time.perf_counter()
        self._kernel()
        self._times.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def sampling(self):
        """Probe before, during and after the block."""
        self._times.clear()
        self._probe()
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._probe()

    def factor(self) -> float:
        """Reference-host seconds per local second over the last block."""
        return PROBE_REF_S / statistics.fmean(self._times)


@dataclass
class Pass:
    wall_s: float     # sum over operations of the median scaled repeat
    cpu_s: float
    raw_wall_s: float  # sum over operations of the fastest unscaled repeat
    attempted: int
    failed: int


def measure(ops: list[Op], files: dict[Op, Path], outdir: Path, seconds: float,
            checker: Checker) -> Pass:
    """Run the operations round robin until a full pass is done and `seconds`
    of timed work have passed.

    Each repeat is scaled by `HostSpeed.factor` over its own span, so that
    the host's drift cancels and the result reads in reference-host seconds.
    The pass estimate sums, over operations, the median scaled repeat."""
    host = HostSpeed()
    samples: list[list[tuple[float, float, float]]] = [[] for _ in ops]
    attempted = failed = 0
    busy = 0.0
    while attempted < len(ops) or busy < seconds:
        k = attempted % len(ops)
        op = ops[k]
        out = outdir / f"{k}-{op.kind}.out"
        t0 = time.perf_counter()
        try:
            with host.sampling():
                c0, t0 = time.process_time(), time.perf_counter()
                result = _execute(op, files[op], out)
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        except Exception as exc:  # an operation that raises is a counted failure
            wall = time.perf_counter() - t0
            checker.fail(f"exception:{type(exc).__name__}", f"{op.label}: {exc}")
            ok = False
        else:
            scale = host.factor()
            samples[k].append((wall * scale, cpu * scale, wall))
            ok = checker.check(op, files[op], out, result)
        busy += wall
        attempted += 1
        failed += not ok
    timed = [s for s in samples if s]
    return Pass(
        wall_s=sum(statistics.median(w for w, _, _ in s) for s in timed),
        cpu_s=sum(statistics.median(c for _, c, _ in s) for s in timed),
        raw_wall_s=sum(min(r for _, _, r in s) for s in timed),
        attempted=attempted,
        failed=failed,
    )


def gap_pct(checker: Checker) -> float:
    """Mean `gap` of the solution documents checked, in percent."""
    return 100.0 * statistics.fmean(checker.gaps) if checker.gaps else 0.0

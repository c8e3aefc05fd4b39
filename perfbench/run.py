#!/usr/bin/env python3
"""confl3 benchmark: end-to-end numbers, or per-layer numbers from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload heuristic-desk --seed 0 --seconds 20 --trace 0

Workloads are listed in BENCHMARK.json; perfbench/README.md says what each
stresses.  The seed relabels the ids of the workload's generated instances.
`--trace 0` prints the end-to-end metrics, with times scaled to a reference
host (workloads.HostSpeed); `--trace 1` runs an untraced warm-up pass, a
traced pass and an untraced pass, and prints the per-layer metrics.  `--tiny` shrinks every
workload for the smoke test.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Exit codes: 0 when the
run completed (failed operations are reported, not hidden), 2 when the
package or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("heuristic-desk", "exact-desk", "scale")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p


def _setup_seconds(argv: list[str], host) -> float:
    """Median over fresh processes that import the package and write the
    workload's instance files, as a user's first command would; each is
    scaled to the reference host like the timed operations."""
    times = []
    for _ in range(SETUP_REPEATS):
        with host.sampling():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv,
                            "--setup-only"], check=True, timeout=120)
            elapsed = time.perf_counter() - t0
        times.append(elapsed * host.factor())
    return statistics.median(times)


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "confl3").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _emit(result: dict, units: dict[str, str]) -> None:
    for name, value in result["metrics"].items():
        print(f"metric {name} = {value} {units[name]}")
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["CONFL3_LOG"] = "quiet"

    if not (ROOT / "src" / "confl3" / "__init__.py").is_file():
        print(f"error: no confl3 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import workloads as wl
    if Path(wl.cli.__file__).resolve().parent != ROOT / "src" / "confl3":
        print(f"error: imported confl3 from {wl.cli.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    full, tiny = wl.WORKLOADS[args.workload]
    ops = tiny if args.tiny else full
    order = [ops[int(k)] for k in np.random.default_rng(args.seed).permutation(len(ops))]
    workdir = BENCH_DIR / "_work" / args.workload
    if args.setup_only:
        workdir.mkdir(parents=True, exist_ok=True)
        wl.setup(order, args.seed, workdir)
        return 0

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print("run " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "commit": _commit(),
        "src_sha256": _source_hash(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "client": "one, closed loop",
    }))

    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    files = wl.setup(order, args.seed, workdir)

    checker = wl.Checker()
    if not args.trace:
        measured = wl.measure(order, files, workdir / "out", args.seconds, checker)
        metrics = {
            "wall_s": measured.wall_s,
            "cpu_s": measured.cpu_s,
            "setup_s": _setup_seconds(argv, wl.HostSpeed()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        attempted, failed = measured.attempted, measured.failed
        print("unscaled " + json.dumps({"wall_s": measured.raw_wall_s}))
    else:
        import tracing

        # The first pass is a warm-up: it ran about 1.5 s slower on scale,
        # where it first grows the process by 200 MB.  The overhead compares
        # the traced pass with the untraced pass after it.
        before = wl.measure(order, files, workdir / "out", 0.0, checker)
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            files = wl.setup(order, args.seed, workdir)
            traced = wl.measure(order, files, workdir / "out", 0.0, checker)
        after = wl.measure(order, files, workdir / "out", 0.0, checker)
        tracer.write(workdir / "spans.jsonl")
        passes = (before, traced, after)
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_s"] = traced.wall_s - after.wall_s
        metrics["gap_pct"] = wl.gap_pct(checker)
        metrics["fail_share"] = failed / attempted
        units = dict(tracing.LAYER_METRICS, **{
            "trace.overhead_s": "s", "gap_pct": "%", "fail_share": "share"})
        metrics = {name: metrics[name] for name in units}

    print("failures " + json.dumps({"by_type": checker.failures,
                                    "examples": checker.examples}))
    _emit({"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": metrics}, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())

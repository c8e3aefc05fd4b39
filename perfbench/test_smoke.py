"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs each workload untraced and traced (twice), checks that every metric
BENCHMARK.json names is printed with its unit, that no operation failed, and
that the traced counts repeat exactly.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    return result["metrics"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_and_repeats_its_counts(workload):
    end_to_end = _run(workload, 0)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: m["unit"] for name, m in end_to_end.items()}
    assert all(m["value"] > 0 for m in end_to_end.values())

    first, second = _run(workload, 1), _run(workload, 1)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: m["unit"] for name, m in first.items()}
    counts = {name: m["value"] for name, m in first.items() if m["unit"] != "s"}
    assert counts == {name: second[name]["value"] for name in counts}

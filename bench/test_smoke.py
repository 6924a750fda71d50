"""Smoke tests of the benchmark itself: tiny inputs, every workload and mode.

    python -m pytest bench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["matrix", "atlas"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = declared()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        name, expected = TRACE_COUNTS[workload]
        assert result["metrics"][name]["value"] == expected
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


# smoke corpora: 4 trees for matrix (6 pairs), 3 for atlas (3 medoid pairs)
TRACE_COUNTS = {
    "matrix": ("registration.register.calls", 6),
    "atlas": ("statistics.karcher.medoid_registrations", 3),
}


def test_declared_per_layer_metrics_match_the_tracer():
    assert [m["name"] for m in declared()["per_layer"]] == tracing.metric_names()


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "matrix", 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout

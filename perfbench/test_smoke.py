"""Smoke test of the benchmark itself: every workload once at a tiny size.

Run from the repository root (about a minute; the compare workload makes a
full grid scan per run):

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
QUALITY = {
    "extract": {"failed_frac": "frac", "du_truth_mean": "1", "du_truth_max": "1"},
    "compare": {"failed_frac": "frac", "domega_grid_max_mean": "rad/s", "grid_fast_ratio": "x"},
    "recover": {"failed_frac": "frac", "du_truth_mean": "1", "du_truth_max": "1",
                "miss_frac": "frac"},
}


# one compare cycle is a full grid scan (~3 s)
TINY = {"extract": 3, "compare": 1, "recover": 2}


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "7",
            "--seconds", "0.2", "--trace", str(trace), "--cycles", str(TINY[workload])]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def _results(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def _units(metrics: dict) -> dict:
    return {name: metric["unit"] for name, metric in metrics.items()}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_emitted_and_exact_counts_repeat(workload):
    report, result = _results(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert _units(report["quality"]) == QUALITY[workload]

    traced = [_results(workload, trace=1) for _ in range(2)]
    for layer_report, layer_result in traced:
        assert layer_result["correct"] is True
        assert _units(layer_result["metrics"]) == {
            m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
        }
        assert _units(layer_report["quality"]) == QUALITY[workload]
        assert {c["name"] for c in layer_report["checks"]} >= {c["name"] for c in report["checks"]}

    (first_report, first), (second_report, second) = traced
    exact = ["search.fast_evals_per_cycle", "search.grid_points_per_cycle", "pipeline.rejected"]
    for name in exact:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["search.fast_evals_per_cycle"]["value"] > 0
    for name in ("miss_frac", "domega_grid_max_mean", "du_truth_mean"):
        if name in report["quality"]:
            values = {r["quality"][name]["value"] for r in (report, first_report, second_report)}
            assert len(values) == 1, name
    assert report["inputs"] == first_report["inputs"] == second_report["inputs"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("recover", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Smoke tests of the benchmark harness itself, cheap enough for every test run."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_quick_mode_reports_every_metric_of_every_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        f"{w['name']}/{m['name']}"
        for w in spec["workloads"]
        for m in spec["end_to_end"] + spec["per_layer"]
    }
    assert set(result["metrics"]) == expected
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"]
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "verify-design",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

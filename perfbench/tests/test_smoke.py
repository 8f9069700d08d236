"""Smoke test of the benchmark: every workload, untraced and traced, at
tiny sizes.  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric_and_passes_its_gates(workload, trace):
    done = _run(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    )
    assert done.returncode == 0, done.stderr
    *_, facts_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    facts = json.loads(facts_line)
    assert facts["gates"] and all(facts["gates"].values()), facts["gates"]
    assert facts["host"]["nproc"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in expected
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_refuses_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"),
         "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""


def test_backend_environment_variables_are_refused():
    env = {**os.environ, "REPRO_KERNEL": "packed"}
    done = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", env=env)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "REPRO_KERNEL" in done.stderr

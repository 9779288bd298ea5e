"""Tests of the benchmark itself, at a tiny size.

Run from the root of the repository::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(workload: str, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    args = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3"]
    args += ["--seconds", "1", "--benchmarks", "2", *extra]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_name_and_unit(workload, trace):
    done = run_bench(workload, "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        if trace == "0":
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_doctored_expected_digest_fails_the_run(workload):
    done = run_bench(workload, "--doctor", "1")
    assert done.returncode == 1
    result = last_json(done.stdout)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["ok_share"]["value"] < 1.0
    assert "digest/dp_work differ from the cold compute" in done.stderr


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    done = run_bench(WORKLOADS[0], cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""

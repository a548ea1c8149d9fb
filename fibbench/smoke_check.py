"""Smoke test of the benchmark: every workload at a tiny scale.

    python3 -m pytest -q fibbench/smoke_check.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "fibbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                     "0.3", "--trace", str(trace), "--scale", "0.002")
    assert done.returncode == 0, done.stdout + done.stderr
    record = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True
    assert record["failed"] == 0 and record["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: value["unit"] for name, value in record["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in wanted
    }
    if not trace:
        assert all(value["value"] > 0 for value in record["metrics"].values())
    for metric in wanted:  # the text lines name every metric too
        if not metric["name"].endswith(".calls"):
            assert f"  {metric['name']} " in done.stdout


def test_oracle_check_counts_wrong_labels():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import bench
        from repro.core.fib import Fib
    finally:
        del sys.path[:2]
    fib = Fib.from_entries([(0, 0, 1), (0b101, 3, 2)])
    addresses = array("q", [0, 0b1010 << 28, 0xFFFFFFFF])
    expected = bench.oracle_labels(fib, addresses)
    assert expected.tolist() == [1, 2, 1]
    tally = bench.Tally()
    tally.check(array("q", [1, 2, 1]).tobytes(), expected, "good")
    tally.check(array("q", [1, 1, 0]).tobytes(), expected, "bad")
    assert (tally.attempted, tally.failed) == (6, 2)
    assert tally.problems == ["bad: 2 labels disagree with the oracle"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "fibbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode not in (0, None)
    assert not done.stdout.strip()

"""Self-test of the benchmark: every workload at a tiny size, and its checks.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's own test run; the runs here
take about a minute.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run          # noqa: E402
import workloads    # noqa: E402


def _bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for m in spec:
        assert any(line.startswith(f"{m['name']} = ") for line in lines[:-1]), m["name"]
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    assert (HERE / "out" / workload / "inputs.json").is_file()


def test_wrong_expectation_counts_as_failure(tmp_path):
    ops = workloads.CliInstances(3, tmp_path).ops()
    op = next(ops)                                   # a small finite certify
    truth = op.info["truth"]
    truth["witness"] = None if truth["witness"] else (0, 1)
    records, _ = run.measure([op], 1, in_process=True)
    summary = run.summarize(records)
    assert summary["failed"] == 1
    assert summary["wrong"] and summary["wrong"][0].startswith("wrong:finite certify")


def test_wrong_fuzz_output_counts_as_failure():
    op = workloads._fuzz_op("fuzz:tiny", [workloads.FuzzConfig(seed=1, trials=20)])
    reports = op.call(True)
    assert op.check(reports) is None
    reports[0].violations.append({"trial": 0, "kind": "planted"})
    assert op.check(reports).startswith("wrong:fuzz report")


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "fuzz-flagship", 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout

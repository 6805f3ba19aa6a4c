"""Smoke test of the benchmark: every workload at toy size emits every
metric BENCHMARK.json names, with its unit.

    python3 -m pytest bench/test_smoke.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
ALL_WORKLOADS = ("wlearn", "study", "wsvm-large", "privgrid", "wlearn-log")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "0",
                             "--seconds", "1", "--trace", str(trace),
                             "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_listed_workloads_are_runnable():
    listed = [w["name"] for w in SPEC["workloads"]]
    assert set(listed) <= set(ALL_WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_every_metric_emitted_with_unit(workload, trace):
    result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert ({m["name"]: m["unit"] for m in named}
            == {k: v["unit"] for k, v in result["metrics"].items()})
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        metrics = _result(_run("study", 1))["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(ALL_WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout

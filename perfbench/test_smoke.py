"""Smoke tests of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench/test_smoke.py

Each test runs perfbench/run.py --smoke from the root of the checkout and
reads what it prints.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("queries", "searches", "verify", "cli")


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(workload: str, trace: int, *extra: str) -> tuple[list[str], dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    report, line = run(workload, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(v["value"] > 0 for v in line["metrics"].values())
    text = "\n".join(report)
    for name in (*want, "failed_ratio", "src_lines", "nproc", "python"):
        assert name in text
    assert ("verify_s" in text) == (workload == "verify")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_printed_with_its_unit(workload):
    _, line = run(workload, 1)
    want = {m["name"]: m["unit"] for m in declared()["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert line["metrics"]["trace.overhead_s"]["value"] != 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_oracle_answer_counts_as_a_failure(workload):
    _, line = run(workload, 0, "--inject-wrong")
    assert not line["correct"]
    assert line["failed"] >= 1


def test_a_checkout_without_sources_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

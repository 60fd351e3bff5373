"""Smoke test of the benchmark harness (collected by the tier-1 command).

Every workload runs for two seconds with ``--smoke`` (small documents,
one set-up).  Nothing here asserts a time: a green run means the
harness still drives the program and the program still agrees with its
oracle, whatever the box was doing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 4242  # not the pinned default: an unseen seed must work


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "2", "--trace", str(trace),
         "--smoke"],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(line: dict, names: list[dict]) -> None:
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True  # oracle parity on every operation
    assert line["failed"] == 0
    assert line["attempted"] >= 1
    assert sorted(line["metrics"]) == sorted(entry["name"]
                                             for entry in names)
    for entry in names:
        assert line["metrics"][entry["name"]]["unit"] == entry["unit"]


@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in SPEC["workloads"]])
def test_workload_smoke(workload: str) -> None:
    check(run(workload, trace=0), SPEC["end_to_end"])
    record = json.loads(
        (HERE / "out" / f"run-{workload}-{SEED}.json").read_text())
    # the exact counts were read before and after the measured phase
    assert record["counts_repeat"] is True
    assert record["pinned"]["counts"]
    assert all(row["n"] >= 1 for row in record["operations"].values())


def test_layer_census_smoke() -> None:
    # one traced run covers the span recorder and every census section;
    # the census's counts are taken twice and a difference fails the run
    check(run("store-write", trace=1), SPEC["per_layer"])
    trace = json.loads((HERE / "out" / "trace-store-write.json").read_text())
    assert any(span[3] < 0 for span in trace["spans"])  # operation spans
    assert any(span[3] >= 0 for span in trace["spans"])  # layer spans

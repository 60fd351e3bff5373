#!/usr/bin/env python3
"""Compare two sets of runs: ``compare.py A.json B.json``.

The inputs come from ``run.py --all --repeat K --out FILE``.  One row
per workload and end-to-end metric: both medians with their quartiles,
the change from A to B in the metric's better direction (positive is
better), the larger of the two run-to-run spreads (interquartile
distance over the median, as the driver takes it), and a verdict from
the bound ``BENCHMARK.json`` fixes for the metric:

``regressed``   B is worse than A by more than the bound and the spread
``improved``    B is better than A by more than the spread
``unresolved``  neither, and the spread is wider than the bound: the
                runs cannot tell, which is never reported as unchanged
``unchanged``   neither, and the spread is within the bound

Exit status 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def verdict(change: float, spread: float, bound: float) -> str:
    if change < -max(bound, spread):
        return "regressed"
    if change > spread:
        return "improved"
    return "unresolved" if spread > bound else "unchanged"


def rows(first: dict, second: dict) -> list[dict]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a_values = first["runs"][workload][metric["name"]]
            b_values = second["runs"][workload][metric["name"]]
            a_q, b_q = quartiles(a_values), quartiles(b_values)
            change = (b_q[1] - a_q[1]) / a_q[1]
            if metric["better"] == "lower":
                change = -change
            spread = max((a_q[2] - a_q[0]) / a_q[1],
                         (b_q[2] - b_q[0]) / b_q[1])
            out.append({"workload": workload, "metric": metric["name"],
                        "unit": metric["unit"], "a": a_q, "b": b_q,
                        "change": change, "spread": spread,
                        "bound": metric["bound"],
                        "verdict": verdict(change, spread,
                                           metric["bound"])})
    return out


def table(result: list[dict]) -> str:
    lines = ["| workload | metric | A median (q1–q3) | B median (q1–q3) "
             "| change | spread | bound | verdict |",
             "|---|---|---|---|---|---|---|---|"]
    for row in result:
        a, b = row["a"], row["b"]
        lines.append(
            f"| {row['workload']} | {row['metric']} ({row['unit']}) "
            f"| {a[1]:.4g} ({a[0]:.4g}–{a[2]:.4g}) "
            f"| {b[1]:.4g} ({b[0]:.4g}–{b[2]:.4g}) "
            f"| {row['change']:+.1%} | {row['spread']:.1%} "
            f"| {row['bound']:.0%} | {row['verdict']} |")
    return "\n".join(lines)


def main_compare(first: dict, second: dict) -> int:
    result = rows(first, second)
    print(table(result))
    return 1 if any(row["verdict"] == "regressed" for row in result) else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (json.loads(Path(path).read_text()) for path in argv)
    return main_compare(first, second)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

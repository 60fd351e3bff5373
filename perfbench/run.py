#!/usr/bin/env python3
"""perfbench: run one workload and print the contract's JSON line.

    python3 perfbench/run.py --workload query-warm --seed 20060627 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer ones (a traced run of the workload's cycle, then the layer
census).  ``--all --repeat K --out FILE`` collects K runs of every
workload for ``compare.py``; ``--aa K`` takes two interleaved sets of K
on this checkout and compares them with each other.  README.md holds
the glossary.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small documents, one set-up: exercises "
                             "every path, measures nothing worth keeping")
    parser.add_argument("--all", action="store_true",
                        help="every workload, --repeat times, into --out")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--aa", type=int, metavar="K",
                        help="two interleaved sets of K runs, compared")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected.json for the default seed")
    return parser.parse_args(argv)


# -- one run -----------------------------------------------------------------


def closed_loop(workload, seconds: float, rng: random.Random,
                recorder=None) -> dict:
    """Whole cycles until ``seconds`` have passed, one caller.

    Every operation is timed around the workload's call, bracketed by
    two readings of the calibration kernel, and checked against its
    oracle outside the timed interval.  With a recorder, odd cycles run
    traced (and are followed by their replays), even ones plain, so
    both see the same stretches of the host.
    """
    from harness import normalised

    calibrator = workload.calibrator
    raw = {name: [] for name in workload.ops}      # plain cycles, seconds
    plain = {name: [] for name in workload.ops}    # the same, normalised
    traced = {name: [] for name in workload.ops}   # traced cycles, normalised
    readings: list[float] = []
    cycle_sums: list[float] = []  # normalised seconds, cycle by cycle
    attempted = 0
    failures: list[str] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not cycle_sums:
        rec = recorder if recorder is not None and len(cycle_sums) % 2 \
            else None
        before = calibrator.read()
        cycle_sums.append(0.0)
        for name in workload.order(rng):
            begin = time.perf_counter()
            output = workload.run(name, rec)
            took = time.perf_counter() - begin
            after = calibrator.read()
            readings.append(after)
            at_reference = normalised(took, before, after)
            cycle_sums[-1] += at_reference
            if rec is None:
                raw[name].append(took)
                plain[name].append(at_reference)
            else:
                traced[name].append(at_reference)
            before = after
            attempted += 1
            if not workload.check(name, output):
                failures.append(f"{name}: {output!r:.120}")
            if rec is not None:
                workload.replay(name, rec)
    return {"raw": raw, "plain": plain, "traced": traced,
            "readings": readings, "cycle_sums": cycle_sums,
            "attempted": attempted, "failures": failures}


def cycle_seconds(samples: dict) -> float:
    """One caller runs the operations one after another, so the cycle
    is the sum of their estimated times."""
    from harness import estimate

    return sum(estimate(values) for values in samples.values() if values)


def pinned_drift(workload, pinned_now: dict) -> tuple[list, list]:
    """Digest and count differences against ``expected.json`` (which
    pins the default seed at full size only)."""
    import inputs

    if workload.seed != inputs.DEFAULT_SEED or workload.smoke:
        return [], []
    try:
        pinned = json.loads((HERE / "expected.json").read_text())
    except OSError:
        return [], ["expected.json is missing"]
    pinned = pinned["workloads"].get(workload.name, {})
    digests, counts = (
        [f"{name}: {value} != pinned {pinned.get(kind, {}).get(name)}"
         for name, value in pinned_now[kind].items()
         if pinned.get(kind, {}).get(name) != value]
        for kind in ("digests", "counts"))
    return digests, counts


def run_workload(args: argparse.Namespace, seed: int,
                 seconds: float) -> int:
    import harness
    from spans import Recorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = harness.Scratch()
    workload = WORKLOADS[args.workload](seed, args.smoke, scratch)
    rng = random.Random(seed)
    try:
        workload.prepare()
        # the oracle's documents stay alive for the whole run: keep the
        # collector from walking them during the program's collections
        gc.collect()
        gc.freeze()

        setups = []
        rounds = 1 if (args.smoke or args.trace) else workload.setups
        for index in range(rounds):
            setups.append(workload.set_up())
            if index < rounds - 1:
                workload.tear_down()
        # part by part, the median over the set-ups (normalised seconds)
        setup_s = sum(statistics.median(parts[name] for parts in setups)
                      for name in setups[0])

        counts = workload.observe()
        recorder = Recorder() if args.trace else None
        loop = closed_loop(workload, seconds / 2 if args.trace else seconds,
                           rng, recorder)
        counts_again = workload.observe()
        faults = workload.faults()
        rss = harness.peak_rss_mb(workload.pids())
    finally:
        workload.tear_down()
        scratch.close()

    pinned_now = workload.pinned(counts)
    digest_drift, count_drift = pinned_drift(workload, pinned_now)
    failures = loop["failures"] + faults + [
        f"digest drift: {line}" for line in digest_drift]
    if counts != counts_again:
        failures.append("exact counts differ between two passes: " + ", ".join(
            name for name in counts if counts[name] != counts_again.get(name)))
    record = {
        "workload": workload.name,
        "why": next(entry["why"] for entry in benchmark_spec()["workloads"]
                    if entry["name"] == workload.name),
        "provenance": harness.provenance(seed), "smoke": args.smoke,
        "trace": args.trace, "seconds": seconds, "callers": 1,
        "attempted": loop["attempted"], "failures": failures[:20],
        "count_drift": count_drift, "pinned": pinned_now,
        "counts_repeat": counts == counts_again,
        "setups": setups, "setup_s": setup_s,
        "operations": {
            name: {**harness.summary(values, 1e3),
                   "estimate":
                       harness.estimate(loop["plain"][name]) * 1e3}
            for name, values in loop["raw"].items()},
        # how disturbed the run was: kernel time over its reference
        "host_slowdown": harness.summary(
            loop["readings"], 1.0 / harness.KERNEL_REFERENCE_S),
        "classes": workload.classes,
        # per plain sample: raw milliseconds and the host's slow-down
        "samples": {name: {
            "raw_ms": [value * 1e3 for value in values],
            "slowdown": [took / at_reference for took, at_reference
                         in zip(values, loop["plain"][name])]}
            for name, values in loop["raw"].items()},
    }
    for line in count_drift:
        print(f"count drift (reported, not failed): {line}",
              file=sys.stderr)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    if args.trace:
        import census

        recorder.dump(harness.OUT / f"trace-{workload.name}.json")
        record["spans"] = recorder.by_name()
        metrics = census.run(seed, args.smoke, failures)
        # plain and traced cycles alternate: each traced cycle over the
        # plain one just before it, so both saw the same host
        sums = loop["cycle_sums"]
        metrics["trace.overhead_share"] = statistics.median(
            traced / plain
            for plain, traced in zip(sums[0::2], sums[1::2])) - 1.0
        metrics["trace.coverage_share"] = recorder.coverage_share()
    else:
        plain = loop["plain"]
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(workload.ops) / cycle_seconds(plain),
            "peak_rss_mb": rss,
        }
        for label, name in workload.classes.items():
            metrics[f"{label}_ms"] = harness.estimate(plain[name]) * 1e3
    correct = not failures
    record["failed"] = len(failures)

    units = metric_units()
    printed = {name: {"value": value, "unit": units[name]}
               for name, value in metrics.items()}
    record["metrics"] = printed
    kind = "trace" if args.trace else "run"
    (harness.OUT / f"{kind}-{workload.name}-{seed}.json").write_text(
        json.dumps(record, indent=1))
    report(record, metrics, units)
    print(json.dumps({"correct": correct, "attempted": loop["attempted"],
                      "failed": len(failures), "metrics": printed}))
    return 0 if correct else 1


def benchmark_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def metric_units() -> dict[str, str]:
    spec = benchmark_spec()
    return {entry["name"]: entry["unit"]
            for entry in spec["end_to_end"] + spec["per_layer"]}


def report(record: dict, metrics: dict, units: dict) -> None:
    """The human report (stderr keeps stdout's last line the JSON)."""
    out = sys.stderr
    print(f"== {record['workload']}  seed {record['provenance']['seed']}"
          f"  {record['seconds']} s  trace {record['trace']}"
          f"{'  SMOKE' if record['smoke'] else ''}", file=out)
    print(f"{'operation':<16}{'n':>5}{'estimate':>12}{'fast3':>10}"
          f"{'p25':>10}{'median':>10}{'high':>14}  (ms)", file=out)
    for name, row in record["operations"].items():
        high = (f"{row['high']:.2f}@{row['high_q']:.2f}"
                if row["high"] is not None else "-")
        print(f"{name:<16}{row['n']:>5}{row['estimate']:>12.2f}"
              f"{row['fast3']:>10.2f}{row['p25']:>10.2f}"
              f"{row['median']:>10.2f}{high:>14}", file=out)
    slow = record["host_slowdown"]
    print(f"host slowdown (kernel / reference): median "
          f"{slow['median']:.2f}, fastest {slow['fast3']:.2f}, "
          f"high {slow['max']:.2f}", file=out)
    for name, value in metrics.items():
        print(f"  {name:<34}{value:>14.4f} {units[name]}", file=out)


# -- many runs -----------------------------------------------------------------


def spawn_run(workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in a process of its own; its metrics."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"]
            for name, entry in line["metrics"].items()}


def collect(repeat: int, seed: int, seconds: float, sets: int = 1
            ) -> list[dict]:
    """``sets`` interleaved sets of ``repeat`` runs of every workload;
    run ``i`` of every set uses seed ``seed + i``."""
    import harness
    from workloads import WORKLOADS

    out = [{"provenance": harness.provenance(seed), "seconds": seconds,
            "runs": {name: {} for name in WORKLOADS}}
           for _ in range(sets)]
    for index in range(repeat):
        for name in WORKLOADS:
            for result in out:
                metrics = spawn_run(name, seed + index, seconds)
                for metric, value in metrics.items():
                    result["runs"][name].setdefault(metric,
                                                    []).append(value)
                print(f"run {index + 1}/{repeat} {name}: " + "  ".join(
                    f"{metric}={value:.4g}"
                    for metric, value in metrics.items()),
                    file=sys.stderr)
    return out


def pin_expected() -> int:
    import harness
    import inputs
    from workloads import WORKLOADS

    pinned = {}
    scratch = harness.Scratch()
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(inputs.DEFAULT_SEED, False, scratch)
            workload.prepare()
            try:
                workload.set_up()
                pinned[name] = workload.pinned(workload.observe())
            finally:
                workload.tear_down()
    finally:
        scratch.close()
    (HERE / "expected.json").write_text(json.dumps(
        {"seed": inputs.DEFAULT_SEED, "workloads": pinned}, indent=1,
        sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"perfbench: no program to measure at {SOURCE}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    # a terminated run still stops its server and pool and removes its
    # scratch directory: turn the signal into an exit the finally sees
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import harness
    import inputs

    seed = inputs.DEFAULT_SEED if args.seed is None else args.seed
    seconds = (args.seconds if args.seconds is not None
               else benchmark_spec()["run_seconds"])
    if args.pin:
        return pin_expected()
    if args.aa:
        import compare

        first, second = collect(args.aa, seed, seconds, sets=2)
        for label, result in (("first", first), ("second", second)):
            (harness.OUT / f"aa-{label}.json").write_text(
                json.dumps(result, indent=1))
        return compare.main_compare(first, second)
    if args.all:
        if args.out is None:
            print("--all needs --out FILE", file=sys.stderr)
            return 2
        args.out.write_text(json.dumps(
            collect(args.repeat, seed, seconds)[0], indent=1))
        return 0
    if not args.workload:
        print("--workload is required", file=sys.stderr)
        return 2
    return run_workload(args, seed, seconds)


if __name__ == "__main__":
    sys.exit(main())

"""Shared harness pieces: the estimator, memory, provenance, scratch.

**The estimator (one rule for every timing).**  The box this benchmark
was sized on slows down by a fifth to a half for stretches that last
from seconds to minutes (README, *Noise*): whole 20 s runs pass without
one undisturbed sample, so no statistic of the raw times — not the
lower quartile, not the minimum — repeats within 10 %.  What does
repeat is a time taken *relative to the host's speed at that moment*.
A fixed calibration kernel (:class:`Calibrator`) is therefore run
between operations, each sample is divided by how much slower than
:data:`KERNEL_REFERENCE_S` the kernel ran just before and just after
it (:func:`normalised`), and every gated time is the **lower quartile
of these normalised samples** (:func:`estimate`): what is left after
the division is noise that only adds time, and the lower quartile
still moves when more than a quarter of the operations get slower.  On
an undisturbed host the kernel takes the reference time and a
normalised sample is plain wall time.  The raw median, lower quartile,
fastest samples and the highest percentile with at least ten samples
beyond it stay beside it in every result file (:func:`summary`).
"""

from __future__ import annotations

import os
import platform
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"


#: the calibration kernel's undisturbed time on the sizing box; a
#: constant of the benchmark, so results taken at different moments (or
#: on other boxes) are all expressed at this one speed
KERNEL_REFERENCE_S = 0.00636


class Calibrator:
    """A fixed piece of work whose duration reads the host's speed.

    A binary search of 50 000 keys in 200 000 and a sort of 50 000
    64-bit integers (about 2 MB touched): of the kernels tried, the one
    whose slow-downs track the program's best (README, *Noise*).
    """

    def __init__(self) -> None:
        import numpy

        self._numpy = numpy
        keys = numpy.random.default_rng(1).integers(0, 1 << 40, 200_000)
        self._unsorted = keys[:50_000].copy()
        self._sorted = numpy.sort(keys)
        self._probes = numpy.random.default_rng(2).integers(
            0, 1 << 40, 50_000)

    def read(self) -> float:
        """Seconds the kernel takes right now."""
        begin = time.perf_counter()
        self._numpy.searchsorted(self._sorted, self._probes).sum()
        self._numpy.sort(self._unsorted).sum()
        return time.perf_counter() - begin

    def timed(self, call):
        """``(result, normalised seconds)`` of one call bracketed by two
        readings."""
        before = self.read()
        begin = time.perf_counter()
        result = call()
        took = time.perf_counter() - begin
        return result, normalised(took, before, self.read())


def normalised(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the kernel readings
    taken just before and just after the sample."""
    return seconds * KERNEL_REFERENCE_S / ((before + after) / 2.0)


def estimate(samples) -> float:
    """The gated statistic: the lower quartile of normalised samples."""
    samples = list(samples)
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=4)[0]


def fast3(samples) -> float:
    """Mean of the three smallest samples (all of them when fewer)."""
    best = sorted(samples)[:3]
    return sum(best) / len(best)


def high_percentile(ordered: list[float]) -> tuple[float | None, float | None]:
    """``(q, value)``: the highest percentile with >= 10 samples beyond
    it; ``(None, None)`` when the run has fewer than 20 samples."""
    count = len(ordered)
    if count < 20:
        return None, None
    index = count - 11  # ten samples lie strictly beyond this one
    return round((index + 1) / count, 4), ordered[index]


def summary(samples, scale: float = 1.0) -> dict:
    """The per-class record kept in the result file (``scale`` converts
    seconds to the reported unit)."""
    ordered = sorted(value * scale for value in samples)
    quantile, high = high_percentile(ordered)
    quartiles = (statistics.quantiles(ordered, n=4)
                 if len(ordered) > 1 else [ordered[0]] * 3)
    return {"n": len(ordered), "fast3": fast3(ordered),
            "min": ordered[0], "p25": quartiles[0],
            "median": quartiles[1], "high_q": quantile, "high": high,
            "max": ordered[-1]}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def vm_hwm_kb(pid: int | str = "self") -> int:
    """Peak resident set of one process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def child_pids(pid: int) -> list[int]:
    """Live direct children of ``pid`` (the pool's worker processes)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def peak_rss_mb(pids) -> float:
    return sum(vm_hwm_kb(pid) for pid in pids) / 1024.0


def provenance(seed: int) -> dict:
    """What every result file records about where it was measured."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a repository
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": nproc(), "seed": seed}


class Scratch:
    """A run's private directory under ``perfbench/out`` (always removed)."""

    def __init__(self) -> None:
        OUT.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="scratch-", dir=OUT))
        self._count = 0

    def fresh(self, label: str) -> Path:
        """A new empty directory: every set-up starts from one."""
        self._count += 1
        path = self.root / f"{label}-{self._count}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

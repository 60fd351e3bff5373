"""S-SHARD — scatter-gather scaling over a sharded corpus (DESIGN.md §13).

The perf claims of ISSUE 7, gated live rather than against checked-in
numbers:

* **Pruning** is work reduction, so it is gated as work: a
  damage-anchored semi-join over a corpus whose damage is confined to
  one shard dispatches — and scans — that one shard only where the
  unpruned run scans all sixteen, for the same answer.  The wall-clock
  ratio is recorded beside it and is no floor: it falls whenever a
  shard scan gets faster (DESIGN.md §13).
* **Parallelism** is only physical with enough cores: the 4-worker
  pool must beat serial in-process dispatch by
  ``REPRO_BENCH_MIN_SHARD_SPEEDUP``× (default 2.5×) on a ≥64k-word
  corpus — skipped below 4 usable CPUs, where the pool can only add
  IPC overhead (``BENCH_shard.json`` records the honest single-core
  number for the regression wall instead).

Both series reuse one session-scoped sharded store; the corpus is the
``emit_bench.bench_shard`` shape — heavily damaged head fused onto a
pristine body — so ``dmg`` cardinality is zero in every body shard.
"""

from __future__ import annotations

import gc
import os
import time

import pytest

import repro.store.catalog as catalog
from repro.store import DocumentStore

from conftest import record
from emit_bench import SHARD_COUNT, _shard_corpus

WORKERS = 4

MIN_SHARD_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_SHARD_SPEEDUP", "2.5"))

#: words in the scaling corpora: the parallel gate wants the ≥64k-word
#: headline corpus, but only multi-core runners pay for it; the
#: pruning corpus is sized so the per-shard scan dwarfs the fixed
#: per-``cquery`` cost (classification + manifest checks) that would
#: otherwise dilute the measured ratio.
PARALLEL_WORDS = 64000
PRUNE_WORDS = 48000
#: the cuts are size-balanced, so the ideal pruning ratio *is* the
#: shard count — 16 ways is the most the damaged head (words/16) allows
#: inside shard 0.  The measured ratio, ``(fixed + head + 15 × body) /
#: (fixed + head)``, reads ≈6.3x: the damaged head is the dearest shard
#: to scan, and the ratio *falls* whenever every shard's scan gets
#: cheaper by the same amount.
PRUNE_SHARDS = 16

PRUNE_QUERY = 'count(collection("c")/descendant::w[overlapping::dmg])'
SCAN_QUERY = 'count(collection("c")/descendant::w[overlapping::line])'


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def median_of(function, repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        gc.collect()
        begin = time.perf_counter()
        function()
        samples.append(time.perf_counter() - begin)
    samples.sort()
    return samples[len(samples) // 2]


def sharded_store(root, n_words: int,
                  shards: int = SHARD_COUNT) -> DocumentStore:
    store = DocumentStore.init(root)
    store.add_corpus("c", _shard_corpus(n_words), shards=shards)
    return store


def test_manifest_pruning_speedup(tmp_path, monkeypatch):
    scans: list = []
    run_shard = catalog.run_shard
    monkeypatch.setattr(
        catalog, "run_shard",
        lambda *args: scans.append(args) or run_shard(*args))
    store = sharded_store(tmp_path / "catalog", PRUNE_WORDS,
                          shards=PRUNE_SHARDS)
    try:
        # one timed call each, first use included (shard loads, the
        # compile): the ratio is recorded, the counts are the gate
        begin = time.perf_counter()
        shape = store.cquery(PRUNE_QUERY)
        pruned = time.perf_counter() - begin
        scanned = [len(scans)]
        begin = time.perf_counter()
        full = store.cquery(PRUNE_QUERY, prune=False)
        unpruned = time.perf_counter() - begin
        scanned.append(len(scans) - scanned[0])
    finally:
        store.close()
    assert [shape.shards_executed, full.shards_executed] == scanned == [
        1, PRUNE_SHARDS], "the damaged head is one shard's worth"
    assert shape.strings() == full.strings()
    record("S-SHARD pruning", "PASS",
           f"n={PRUNE_WORDS}: {shape.shards_pruned}/{shape.shards_total}"
           f" shards pruned, {scanned[1]} -> {scanned[0]} shard scans, "
           f"{unpruned * 1e3:.1f} ms -> {pruned * 1e3:.1f} ms "
           f"({unpruned / pruned:.1f}x, recorded)")


@pytest.mark.skipif(
    usable_cpus() < WORKERS,
    reason=f"parallel speedup needs >= {WORKERS} usable CPUs "
           f"(have {usable_cpus()}); BENCH_shard.json records the "
           "single-core number")
def test_worker_pool_speedup(tmp_path):
    store = sharded_store(tmp_path / "catalog", PARALLEL_WORDS)
    try:
        store.cquery(SCAN_QUERY)  # warm engines in-process...
        store.cquery(SCAN_QUERY, workers=WORKERS)  # ...and in the pool
        serial = median_of(lambda: store.cquery(SCAN_QUERY))
        pooled = median_of(
            lambda: store.cquery(SCAN_QUERY, workers=WORKERS))
    finally:
        store.close()
    speedup = serial / pooled
    record("S-SHARD parallel",
           "PASS" if speedup >= MIN_SHARD_SPEEDUP else "FAIL",
           f"n={PARALLEL_WORDS}, {WORKERS} workers on "
           f"{usable_cpus()} CPUs: {serial * 1e3:.1f} ms -> "
           f"{pooled * 1e3:.1f} ms ({speedup:.1f}x)")
    assert speedup >= MIN_SHARD_SPEEDUP, (
        f"{WORKERS}-worker pool gained only {speedup:.2f}x over "
        f"serial, below the {MIN_SHARD_SPEEDUP}x floor "
        f"(serial {serial:.4f}s, pooled {pooled:.4f}s)")

"""Scatter-gather execution of corpus queries over a worker pool.

The execution protocol (DESIGN.md §13):

* the parent classifies the compiled plan
  (:mod:`repro.core.plan.distribute`), prunes shards against the
  manifest statistics, and dispatches one task per surviving shard;
* each worker process maps its shard's ``.mhxb`` read-only
  (:meth:`Engine.from_mhxb` — fork-safe, no node tables cross the
  pipe — under the store's cold-load verification policy, which the
  task carries), compiles the query once per process through a
  :class:`SharedPlanCache`, and executes with a ``collection``
  resolver that yields the shard root;
* results travel back as primitives only — serialized item strings
  plus packed int64 okeys (scatter), a scalar (aggregate), or strings
  alone (concat) — and the gather side merges as shard results land:
  okey lexsort for node sets, fold for aggregates, shard-order
  concatenation for FLWOR streams.

Workers are a persistent fork-context ``ProcessPoolExecutor``: the
fork inherits the parent's imported modules but **not** its engines —
each worker builds its own engine cache keyed by shard path (and
the file found there), so a shard queried twice is already memmapped
and warm.  A worker dying
mid-query surfaces as ``BrokenProcessPool``; the pool converts that to
a :class:`StoreError` naming the shard and recycles the executor so
the next query gets a fresh pool.  A shard file that does not load
comes back as a tagged payload, not a dead worker: the pool raises
:class:`IntegrityError` naming shard and block, and the store
quarantines the corpus.
"""

from __future__ import annotations

import gc
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from repro.core.goddag.nodes import GNode
from repro.core.goddag.okeys import corpus_sort_order
from repro.core.runtime.serializer import serialize_each
from repro.errors import IntegrityError, ReproError, StoreError
from repro.store.mhxb import file_identity

#: Fold identities per aggregate — what a pruned shard contributes.
AGGREGATE_IDENTITY = {"count": 0, "sum": 0, "exists": False,
                      "empty": True}


@dataclass
class CorpusResult:
    """One corpus query's merged result plus its execution shape.

    ``items`` are the serialized result items in corpus document order
    (aggregates serialize their scalar), comparable one-to-one with
    ``QueryResult.strings()`` from an unsharded oracle engine.
    """

    items: list[str]
    #: "scatter" | "aggregate" | "concat" | "fused"
    mode: str
    #: the raw scalar for aggregate mode
    value: object = None
    shards_total: int = 0
    shards_pruned: int = 0
    shards_executed: int = 0
    workers: int = 1
    #: why the query fell back to the fused engine ("" otherwise)
    reason: str = ""

    def strings(self) -> list[str]:
        return list(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


def run_shard(engine, plans, text: str, mode: str):
    """Execute one corpus query against one shard engine.

    Shared by the in-process serial path and the pool workers (the
    worker wrapper only adds the per-process engine cache), so the
    gather protocol below is exercised by ordinary single-process
    tests.  Returns a picklable payload tagged by kind:

    * ``("agg", value)`` — the shard's scalar for an aggregate plan;
    * ``("nodes", strings, okeys)`` — serialized items plus their
      packed order keys, for the okey merge;
    * ``("items", strings)`` — serialized items in shard-local order,
      for shard-order concatenation.
    """
    compiled, _hit = plans.get(
        text, engine.options,
        stats=engine.plan_stats() if engine.use_cost else None)

    def resolver(frame, _args):
        return [frame.goddag.root]

    items = compiled.execute(engine.goddag, options=engine.options,
                             functions={"collection": resolver})
    if mode == "aggregate":
        if len(items) != 1:
            raise StoreError(
                f"aggregate shard result has {len(items)} items")
        return ("agg", items[0])
    if mode == "scatter":
        goddag = engine.goddag
        okeys = [goddag.order_key(item) for item in items
                 if isinstance(item, GNode)]
        if len(okeys) != len(items):
            raise StoreError(
                "scatter plan produced non-node items; the classifier "
                "should have routed this query to the fused path")
        return ("nodes", serialize_each(items), okeys)
    return ("items", serialize_each(items))


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

#: Per-worker-process state (populated after the fork; the parent's
#: copies stay empty).
_WORKER_ENGINES: dict = {}
_WORKER_PLANS = None


def _worker_engine(path: str, options, verify: bool):
    """The worker's engine over the file now at ``path``: a corpus
    removed and added again under its name puts new files at the old
    paths while the pool lives."""
    from repro.api import Engine

    stamp = file_identity(path)
    cached = _WORKER_ENGINES.get(path)
    if cached is None or cached[0] != stamp:
        cached = _WORKER_ENGINES[path] = (
            stamp, Engine.from_mhxb(path, options=options, verify=verify))
    return cached[1]


def _worker_plans():
    global _WORKER_PLANS
    if _WORKER_PLANS is None:
        from repro.store.plancache import SharedPlanCache

        _WORKER_PLANS = SharedPlanCache()
    return _WORKER_PLANS


def _worker_run(path: str, text: str, mode: str, options,
                verify: bool, crash: bool) -> tuple:
    """Top-level (picklable) task body executed in a worker process."""
    try:
        try:
            engine = _worker_engine(path, options, verify)
        except ReproError as error:  # the file, not the query
            return ("unloadable", str(error))
        if crash:
            # The fault-injection hook: die the way a real worker would
            # (OOM-killed, segfaulted) — no exception propagation, no
            # cleanup, mid-query as far as the parent can tell.
            os._exit(1)
        return run_shard(engine, _worker_plans(), text, mode)
    except Exception as error:  # exceptions may not unpickle; stringify
        return ("error", f"{type(error).__name__}: {error}")


class ShardWorkerPool:
    """A persistent fork-context process pool for shard tasks."""

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise StoreError(
                f"worker count must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._executor: ProcessPoolExecutor | None = None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # A fork puts the parent's whole resident set on every
            # worker's account: collect what dropped engines left
            # behind (node and DOM cycles) before it is multiplied.
            gc.collect()
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=get_context("fork"))
        return self._executor

    def run(self, tasks: list[tuple]) -> list[tuple]:
        """Run ``(path, text, mode, options, verify, crash)`` tasks;
        results in task order.  A dead worker raises
        :class:`StoreError` naming the shard and recycles the executor;
        a shard file that does not load (``verify``: the store's
        cold-load policy, DESIGN.md §12) raises
        :class:`IntegrityError` naming shard and block."""
        executor = self._ensure_executor()
        futures = {}
        try:
            for index, task in enumerate(tasks):
                futures[executor.submit(_worker_run, *task)] = index
        except BrokenProcessPool:
            self._recycle()
            raise StoreError(
                "corpus worker pool died before dispatch completed"
            ) from None
        results: list[tuple | None] = [None] * len(tasks)
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in sorted(done, key=futures.__getitem__):
                index = futures[future]
                shard = os.path.basename(str(tasks[index][0]))
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    # A broken pool fails *every* pending future at
                    # once, so blame the task that carries the crash
                    # flag when fault injection is active; otherwise
                    # name the earliest-submitted casualty.
                    crashed = next((task for task in tasks if task[-1]),
                                   tasks[index])
                    shard = os.path.basename(str(crashed[0]))
                    for other in pending:
                        other.cancel()
                    self._recycle()
                    raise StoreError(
                        f"corpus query worker died while executing "
                        f"shard {shard!r}; the pool has been "
                        f"recycled") from None
                if payload[0] in ("error", "unloadable"):
                    for other in pending:
                        other.cancel()
                    if payload[0] == "unloadable":
                        raise IntegrityError(
                            f"shard {shard}: {payload[1]}",
                            path=tasks[index][0])
                    raise StoreError(
                        f"corpus query failed on shard {shard!r}: "
                        f"{payload[1]}")
                results[index] = payload
        return [payload for payload in results if payload is not None]

    def _recycle(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        self._recycle()


# ---------------------------------------------------------------------------
# gather side
# ---------------------------------------------------------------------------


def gather(mode: str, payloads: list[tuple],
           aggregate: str | None = None) -> list:
    """Merge per-shard payloads into the corpus-ordered item list.

    ``payloads`` arrive in shard order (the dispatch order); the
    scatter merge re-sorts by (hierarchy band, shard, in-shard okey),
    reproducing the unsharded document order exactly
    (:mod:`repro.core.goddag.okeys`).
    """
    if mode == "aggregate":
        values = [payload[1] for payload in payloads]
        return [fold_aggregate(aggregate, values)]
    if mode == "scatter":
        strings: list[str] = []
        okeys: list[np.ndarray] = []
        shards: list[np.ndarray] = []
        for index, payload in enumerate(payloads):
            _kind, shard_strings, shard_okeys = payload
            strings.extend(shard_strings)
            okeys.append(np.asarray(shard_okeys, dtype=np.int64))
            shards.append(np.full(len(shard_okeys), index,
                                  dtype=np.int64))
        if not strings:
            return []
        order = corpus_sort_order(np.concatenate(shards),
                                  np.concatenate(okeys))
        return [strings[position] for position in order]
    merged: list = []
    for payload in payloads:
        merged.extend(payload[1])
    return merged


def fold_aggregate(aggregate: str | None, values: list):
    """Fold per-shard aggregate scalars (empty list → fold identity)."""
    if aggregate == "count" or aggregate == "sum":
        total = AGGREGATE_IDENTITY[aggregate]
        for value in values:
            total = total + value
        return total
    if aggregate == "exists":
        return any(values)
    if aggregate == "empty":
        return all(values)
    raise StoreError(f"no fold for aggregate {aggregate!r}")

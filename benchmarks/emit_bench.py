"""Emit the perf-trajectory files ``BENCH_axes.json`` +
``BENCH_queries.json`` + ``BENCH_updates.json`` + ``BENCH_store.json``
+ ``BENCH_joins.json``.

Times the headline series — S-AXES (axis evaluation), S-ANALYZE
(the ``analyze-string`` temporary-hierarchy lifecycle), S-BUILD
(KyGODDAG + SpanIndex construction) — into ``BENCH_axes.json``, the
end-to-end §4 query workload (S-QUERIES: absolute warm-plan-cache ns
through ``Engine.query``, per query and total) into
``BENCH_queries.json``,
the transactional update workload (S-UPDATE: incremental apply vs
rebuild-per-update, DESIGN.md §9) into ``BENCH_updates.json``, the
store cold-load path (S-STORE: ``.mhxb`` mmap load vs XML re-parse +
index build, DESIGN.md §10) into ``BENCH_store.json``, and the
extended-axis interval-join workload (S-JOINS: batched sorted-array
joins vs per-node span arithmetic, DESIGN.md §11) into
``BENCH_joins.json``, and the sharded-corpus scatter-gather workload
(S-SHARD: serial vs pooled ``collection()`` dispatch and manifest
shard pruning, DESIGN.md §13) into ``BENCH_shard.json``, and the
query-service HTTP workload (S-SERVE: per-request latency percentiles
and fixed-concurrency throughput, DESIGN.md §14) into
``BENCH_serve.json``, and the cost-based-planning
workload (S-PLAN: costed plans vs the mechanical lowering on a skewed
corpus, DESIGN.md §16) into ``BENCH_plan.json``.  The CI
bench-regression wall (``benchmarks/check_regression.py``) diffs fresh
runs against all eight checked-in files.

Usage::

    PYTHONPATH=src python benchmarks/emit_bench.py [--quick] \
        [--out BENCH_axes.json] [--queries-out BENCH_queries.json] \
        [--updates-out BENCH_updates.json] \
        [--store-out BENCH_store.json] \
        [--joins-out BENCH_joins.json] \
        [--shard-out BENCH_shard.json] \
        [--serve-out BENCH_serve.json] \
        [--plan-out BENCH_plan.json] [--size 6400] \
        [--shard-size 64000] [--workers 4] \
        [--plan-size 2000]

``--quick`` cuts the repeat counts for CI smoke runs; the checked-in
files are produced by a full run on a quiet machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))  # tests.updateoracle

from repro.bench import SCALING_SIZES, corpus_at_size, goddag_at_size  # noqa: E402
from repro.bench.workloads import BENCH_SEED  # noqa: E402
from repro.core.goddag import KyGoddag, evaluate_axis  # noqa: E402
from repro.core.runtime import evaluate_query  # noqa: E402


def median_ns(function, repeats: int, collect_between: bool = False) -> int:
    """Median wall time of ``function()`` in nanoseconds.

    ``collect_between`` runs ``gc.collect()`` before each sample
    (outside the timed window) — for workloads that churn enough
    objects that one run's garbage would bill the next.
    """
    import gc

    samples = []
    for _ in range(repeats):
        if collect_between:
            gc.collect()
        begin = time.perf_counter_ns()
        function()
        samples.append(time.perf_counter_ns() - begin)
    return int(statistics.median(samples))


def bench_axes(size: int, repeats: int) -> dict[str, int]:
    goddag = goddag_at_size(size)
    goddag.span_index()
    words = list(goddag.elements("w"))
    mid = words[len(words) // 2]
    out: dict[str, int] = {}
    for axis in ("descendant", "following", "preceding",
                 "xdescendant", "overlapping"):
        out[axis] = median_ns(
            lambda axis=axis: evaluate_axis(goddag, axis, mid), repeats)
    out["descendant-from-root"] = median_ns(
        lambda: evaluate_axis(goddag, "descendant", goddag.root),
        max(repeats // 4, 3))
    return out


def bench_analyze(size: int, repeats: int) -> dict[str, int]:
    goddag = goddag_at_size(size)
    goddag.span_index()
    return {
        "analyze-string-query": median_ns(
            lambda: evaluate_query(goddag, 'analyze-string(/, "si")'),
            repeats),
    }


def bench_build(size: int, repeats: int) -> dict[str, int]:
    corpus = corpus_at_size(size)

    def build() -> None:
        KyGoddag.build(corpus).span_index()

    return {"goddag-and-index": median_ns(build, repeats)}


def bench_queries(size: int, repeats: int) -> dict:
    """End-to-end §4 workload through ``Engine.query``, plan cache
    warm: absolute ns per query."""
    from repro.api import Engine
    from repro.bench.workloads import paper_query_workload

    engine = Engine(corpus_at_size(size))
    engine.goddag.span_index()
    workload = paper_query_workload()
    for _query_id, query in workload:  # warm plan cache + lazy indexes
        engine.query(query)
    per_query = {
        query_id: {"pipeline-warm": median_ns(
            lambda query=query: engine.query(query), repeats)}
        for query_id, query in workload}
    total = {"pipeline-warm": sum(row["pipeline-warm"]
                                  for row in per_query.values())}
    return {"per_query": per_query, "workload_total": total}


def bench_updates(size: int, repeats: int) -> dict:
    """S-UPDATE: incremental engine apply vs rebuild-per-update.

    Both workloads are involutions (they return the document to its
    starting state), so repeated timing runs stay comparable.  Uses the
    same statement lists as ``benchmarks/test_update_throughput.py``.
    """
    from repro.api import Engine
    from repro.cmh import MultihierarchicalDocument
    from tests.updateoracle import RebuildOracle
    from test_update_throughput import MARKUP_STATEMENTS, TEXT_STATEMENTS

    def private_corpus() -> MultihierarchicalDocument:
        # Never mutate the memoized corpus_at_size instance in place.
        shared = corpus_at_size(size)
        return MultihierarchicalDocument.from_xml(
            shared.text, {name: hierarchy.to_xml() for name, hierarchy
                          in shared.hierarchies.items()})

    engine = Engine(private_corpus())
    engine.goddag.span_index()
    oracle = RebuildOracle(private_corpus())

    def run(statements, incremental: bool) -> None:
        if incremental:
            for statement in statements:
                engine.update(statement, check=False)
        else:
            for statement in statements:
                oracle.apply(statement)

    out: dict = {}
    for label, statements in (("markup-ops", MARKUP_STATEMENTS),
                              ("text-ops", TEXT_STATEMENTS)):
        run(statements, True)   # warm lazy state on both sides
        run(statements, False)
        incremental = median_ns(lambda s=statements: run(s, True),
                                repeats)
        rebuild = median_ns(lambda s=statements: run(s, False),
                            max(repeats // 2, 3))
        out[label] = {
            "statements": len(statements),
            "incremental-engine": incremental,
            "rebuild-per-update": rebuild,
            "speedup": round(rebuild / incremental, 2),
        }
    return out


#: The S-JOINS workload: one entry per extended-axis step shape —
#: overlap (the singallice word/line crossings), containment both ways,
#: and the boundary axes — each evaluated over *every* context element
#: of the named kind (the set-at-a-time shape the join engine targets).
JOIN_WORKLOAD = (
    ("overlap-w-line", "w", "overlapping", "line"),
    ("overlap-line-w", "line", "overlapping", "w"),
    ("containment-dmg-w", "dmg", "xdescendant", "w"),
    ("containment-w-vline", "w", "xancestor", "vline"),
    ("boundary-dmg-res", "dmg", "xfollowing", "res"),
    ("boundary-res-w", "res", "xpreceding", "w"),
)


def join_step_contexts(goddag, element: str) -> list:
    """All elements of one name — the step's whole context sequence."""
    return [node for node in goddag.elements(element)]


def bench_joins(size: int, repeats: int) -> dict:
    """S-JOINS: batched interval joins vs the per-node extended axes.

    Both sides evaluate identical steps over identical context sets —
    ``join_axis_batch`` (one sorted-array join per step, DESIGN.md §11)
    against ``evaluate_axis_batch`` (one span-arithmetic call per
    context node plus a Python-object merge, the pre-PR-5 hot path).
    ``benchmarks/test_extended_axis_joins.py`` asserts the two sides
    stay element-for-element identical and gates the speedup.
    """
    from repro.core.goddag import evaluate_axis_batch, join_axis_batch

    goddag = goddag_at_size(size)
    goddag.span_index()
    steps = [(label, join_step_contexts(goddag, element), axis, name)
             for label, element, axis, name in JOIN_WORKLOAD]
    out: dict = {}
    batched_total = 0
    pernode_total = 0
    for label, contexts, axis, name in steps:
        batched = median_ns(
            lambda c=contexts, a=axis, n=name: join_axis_batch(
                goddag, a, c, n, skip_leaves=True), repeats)
        pernode = median_ns(
            lambda c=contexts, a=axis, n=name: evaluate_axis_batch(
                goddag, a, c, n, skip_leaves=True),
            max(repeats // 2, 3))
        batched_total += batched
        pernode_total += pernode
        out[label] = {
            "contexts": len(contexts),
            "batched-join": batched,
            "per-node": pernode,
            "speedup": round(pernode / batched, 2),
        }
    out["workload_total"] = {
        "batched-join": batched_total,
        "per-node": pernode_total,
        "speedup": round(pernode_total / batched_total, 2),
    }
    return out


def bench_store(size: int, repeats: int) -> dict:
    """S-STORE: ``.mhxb`` mmap cold load vs XML re-parse + index build.

    Matches ``benchmarks/test_store_coldload.py``: each sample is a
    full cold start — open the container, reconstruct (or rebuild) the
    engine, answer one probe query.
    """
    import shutil
    import tempfile

    from repro.api import Engine, save_mhx

    probe = "count(/descendant::w)"
    corpus = corpus_at_size(size)
    engine = Engine(corpus)
    engine.goddag.span_index()
    root = Path(tempfile.mkdtemp(prefix="mhxq-bench-store-"))
    mhx = root / "corpus.mhx"
    mhxb = root / "corpus.mhxb"
    save_mhx(corpus, mhx)
    engine.save_mhxb(mhxb)
    try:
        return _bench_store_timed(mhx, mhxb, probe, repeats)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _bench_store_timed(mhx: Path, mhxb: Path, probe: str,
                       repeats: int) -> dict:
    from repro.api import Engine, load_mhx

    def cold_mhxb() -> None:
        Engine.from_mhxb(mhxb).query(probe)

    def cold_xml() -> None:
        fresh = Engine(load_mhx(mhx))
        fresh.goddag.span_index()
        fresh.query(probe)

    cold_mhxb()  # fault the containers into the page cache
    cold_xml()
    # cold loads churn ~10^5 objects: collect between samples so one
    # run's garbage doesn't bill the next, late in a long bench process
    binary = median_ns(cold_mhxb, repeats, collect_between=True)
    xml = median_ns(cold_xml, max(repeats // 2, 3),
                    collect_between=True)
    return {
        "cold-load-first-query": {
            "mhxb-mmap": binary,
            "xml-reparse-rebuild": xml,
            "speedup": round(xml / binary, 2),
        },
    }


def bench_durability(size: int, repeats: int) -> dict:
    """S-STORE durability: per-commit cost of the fsync policies.

    Times a ``compact("doc")`` cycle — serialize, atomic rename,
    manifest commit, plus whatever fsyncs the policy demands — under
    each durability mode: ``off`` (rename atomicity only), ``batch``
    (deferred syncs coalesced by the cycle's trailing ``sync()``, and
    the manifest fast path that skips rewriting an unchanged core),
    and ``full`` (fsync file + directory inline on every write).

    An earlier incarnation timed ``store.update()`` instead, and the
    numbers inverted (off slower than full): ``update`` forks the
    engine before persisting, so every sample was dominated by a DOM
    clone + GODDAG rebuild that dwarfed the I/O under test and left
    the policy deltas inside scheduler noise.  ``compact`` hits
    ``_persist`` with no fork, so the sample *is* the commit path.
    The ``speedup`` leaf is full/batch — what sync coalescing buys
    over fsync-per-write.  Both sides of that ratio are fsync-bound,
    so runner-to-runner fsync variance largely cancels and the leaf
    can ride the regression wall; off/batch would shrink on any
    slow-fsync runner and flake it
    (``benchmarks/test_store_durability.py`` gates the policies
    directly).
    """
    import shutil
    import tempfile

    from repro.store import DocumentStore

    corpus = corpus_at_size(size)
    out: dict = {}
    # commit-path samples are cheap without the fork: double the
    # repeats to pull the median clear of fsync scheduling noise
    commit_repeats = repeats * 2 + 1
    for mode in ("off", "batch", "full"):
        root = Path(tempfile.mkdtemp(prefix=f"mhxq-bench-dur-{mode}-"))
        try:
            store = DocumentStore.init(root, durability=mode)
            store.add("doc", corpus)

            def commit() -> None:
                store.compact("doc")

            commit()  # warm the snapshot + serializer caches
            out[f"{mode}-commit"] = median_ns(commit, commit_repeats)
        finally:
            shutil.rmtree(root, ignore_errors=True)
    out["speedup"] = round(out["full-commit"] / out["batch-commit"], 2)
    return out


#: The S-SHARD pruning corpus fuses a small heavily-damaged head onto a
#: large pristine body: ``dmg`` cardinality is zero outside the head, so
#: a damage-anchored query prunes all body shards from the manifest
#: statistics alone.
SHARD_COUNT = 8


def _shard_corpus(n_words: int):
    """Damaged head + clean body, fused into one corpus document."""
    from repro.corpus.generator import GeneratorConfig, generate_document
    from repro.store import fuse_documents

    head = generate_document(GeneratorConfig(
        n_words=max(n_words // 16, 200), seed=BENCH_SEED,
        damage_rate=0.3, restoration_rate=0.2))
    body = generate_document(GeneratorConfig(
        n_words=n_words, seed=BENCH_SEED + 1,
        damage_rate=0.0, restoration_rate=0.0))
    return fuse_documents([head, body])


def bench_shard(n_words: int, repeats: int, workers: int) -> dict:
    """S-SHARD: scatter-gather ``collection()`` over a sharded corpus.

    Three comparisons on one corpus (DESIGN.md §13):

    * ``count-w-overlap-line`` — a shard-local semi-join over every
      word, serial in-process vs the ``workers``-way pool vs the same
      query on one unsharded engine.  The serial/pool ratio is
      recorded as ``parallel-ratio``, deliberately *not* ``speedup``:
      parallel gain is only physical with ≥ ``workers`` cores, so a
      single-core baseline would set a regression-wall floor that says
      nothing about the code.  The config records ``cpus`` and
      ``benchmarks/test_shard_scaling.py`` gates the ratio CPU-aware.
    * ``scatter-w-in-dmg`` — a node-returning scatter (okey merge +
      serialization in the sample), pruned vs unpruned.
    * ``prune-dmg-semijoin`` — manifest pruning: the damage-anchored
      query only dispatches to shards whose ``dmg`` cardinality is
      non-zero, skipping the full word scan everywhere else.  Its
      ``speedup`` (unpruned/pruned) is work-reduction, measurable on
      any machine.
    """
    import os
    import shutil
    import tempfile

    from repro.api import Engine
    from repro.store import DocumentStore

    corpus = _shard_corpus(n_words)
    root = Path(tempfile.mkdtemp(prefix="mhxq-bench-shard-"))
    out: dict = {"config": {
        "n_words": n_words, "shards": SHARD_COUNT, "workers": workers,
        "cpus": len(os.sched_getaffinity(0)),
    }}
    overlap = 'count(collection("c")/descendant::w[overlapping::line])'
    scatter = 'collection("c")/descendant::dmg/xdescendant::w'
    prune = 'count(collection("c")/descendant::w[overlapping::dmg])'
    try:
        store = DocumentStore.init(root / "catalog")
        stats = store.add_corpus("c", corpus, shards=SHARD_COUNT)
        unsharded = Engine(corpus)
        unsharded.goddag.span_index()
        oracle = "count(/descendant::w[overlapping::line])"
        for text in (overlap, scatter, prune):  # warm engines + plans
            store.cquery(text)
        unsharded.query(oracle)
        pool_warm = store.cquery(overlap, workers=workers)
        serial = median_ns(lambda: store.cquery(overlap), repeats)
        pooled = median_ns(
            lambda: store.cquery(overlap, workers=workers), repeats)
        out["count-w-overlap-line"] = {
            "serial-1worker": serial,
            f"pool-{workers}workers": pooled,
            "unsharded-engine": median_ns(
                lambda: unsharded.query(oracle), repeats),
            "parallel-ratio": round(serial / pooled, 2),
        }
        out["scatter-w-in-dmg"] = {
            "pruned": median_ns(lambda: store.cquery(scatter), repeats),
            "unpruned": median_ns(
                lambda: store.cquery(scatter, prune=False), repeats),
        }
        pruned_result = store.cquery(prune)
        out["prune-dmg-semijoin"] = {
            "shards-pruned": pruned_result.shards_pruned,
            "shards-total": pruned_result.shards_total,
            "pruned": median_ns(lambda: store.cquery(prune), repeats),
            "unpruned": median_ns(
                lambda: store.cquery(prune, prune=False), repeats),
        }
        out["prune-dmg-semijoin"]["speedup"] = round(
            out["prune-dmg-semijoin"]["unpruned"]
            / out["prune-dmg-semijoin"]["pruned"], 2)
        out["config"]["corpus_words"] = stats.words
        assert pool_warm.workers == workers
        store.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out


#: The S-SERVE workload: per-request latency percentiles over the
#: query service's HTTP boundary.  Each probe dominates its own layer —
#: ``point-count`` the admission/dispatch overhead, ``overlap-count``
#: the span-index read path, ``paginated-page`` and ``streamed-page``
#: full-result serialization through the pagination and chunked paths.
SERVE_PROBES = (
    ("point-count", "/query?name=doc&q=count(/descendant::w)"),
    ("overlap-count",
     "/query?name=doc&q=count(/descendant::w[overlapping::line])"),
    ("paginated-page", "/query?name=doc&q=/descendant::w&limit=25"),
    ("streamed-page",
     "/query?name=doc&q=/descendant::w&stream=1&limit=200"),
)


def _percentiles(samples: list[int]) -> dict[str, int]:
    import math

    samples = sorted(samples)

    def at(q: float) -> int:
        index = max(0, math.ceil(q * len(samples)) - 1)
        return samples[index]

    return {"p50": at(0.50), "p95": at(0.95), "p99": at(0.99)}


def bench_serve(size: int, requests: int, concurrency: int) -> dict:
    """S-SERVE: query-service latency + throughput (DESIGN.md §14).

    One embedded server over the bench corpus; a keep-alive client
    per series records per-request wall times for the percentile
    leaves, then ``concurrency`` clients hammer the point query for
    the aggregate-throughput leaf.  Throughput is recorded as
    ``ns-per-request`` (a *time* leaf, lower = better) so the wall's
    time semantics apply directly — raw requests/second would read a
    faster machine as a regression.
    """
    import http.client
    import shutil
    import tempfile
    import threading

    from repro.server import ServerConfig, ServerHandle
    from repro.store import DocumentStore

    corpus = corpus_at_size(size)
    root = Path(tempfile.mkdtemp(prefix="mhxq-bench-serve-"))
    out: dict = {"config": {
        "n_words": size, "requests": requests,
        "concurrency": concurrency,
    }}
    try:
        store = DocumentStore.init(root / "catalog")
        store.add("doc", corpus)
        with ServerHandle(store, ServerConfig()) as handle:
            def series(path: str) -> dict[str, int]:
                connection = http.client.HTTPConnection(
                    handle.host, handle.port, timeout=120)
                samples = []
                for round_index in range(requests + 3):
                    begin = time.perf_counter_ns()
                    connection.request("GET", path)
                    connection.getresponse().read()
                    if round_index >= 3:  # 3 warm-up rounds
                        samples.append(
                            time.perf_counter_ns() - begin)
                connection.close()
                return _percentiles(samples)

            for label, path in SERVE_PROBES:
                out[label] = series(path)

            per_client = max(requests // 2, 10)
            point = SERVE_PROBES[0][1]
            barrier = threading.Barrier(concurrency + 1)

            def client() -> None:
                connection = http.client.HTTPConnection(
                    handle.host, handle.port, timeout=120)
                connection.request("GET", point)  # warm, then sync
                connection.getresponse().read()
                barrier.wait()
                for _request in range(per_client):
                    connection.request("GET", point)
                    connection.getresponse().read()
                connection.close()

            workers = [threading.Thread(target=client)
                       for _client in range(concurrency)]
            for worker in workers:
                worker.start()
            barrier.wait()
            begin = time.perf_counter_ns()
            for worker in workers:
                worker.join()
            elapsed = time.perf_counter_ns() - begin
            out["throughput"] = {"ns-per-request": int(
                elapsed / (concurrency * per_client))}
        store.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out


#: The S-PLAN workload (DESIGN.md §16): chains where the cost pass
#: changes the physical plan — two reversible join pairs whose context
#: side is ~50× the target side (reversal scans the small side and
#: probes back), a commutative semi-join conjunction (most selective
#: probe first), and a control query no transform applies to.
PLAN_WORKLOAD = (
    ("reverse-containment", "/descendant::w/xancestor::dmg"),
    ("reverse-overlap", "/descendant::w/overlapping::dmg"),
    ("predicate-reorder",
     "/descendant::w[overlapping::line][overlapping::dmg]"),
    ("control-count", "count(/descendant::w)"),
)

#: word count of the skewed S-PLAN corpus — identical in quick and
#: full runs (only repeats differ) so the wall never diffs against a
#: missing or rescaled metric
PLAN_WORDS = 2000


def _plan_corpus(n_words: int):
    """Skewed generator config: sparse damage, words crossing
    hierarchy boundaries — the cardinality asymmetry the cost model
    exploits."""
    from repro.corpus.generator import GeneratorConfig, generate_document

    return generate_document(GeneratorConfig(
        n_words=n_words, seed=11, damage_rate=0.02,
        restoration_rate=0.05, hyphenation_rate=0.2,
        boundary_cross_rate=0.5))


def bench_plan(n_words: int, repeats: int) -> dict:
    """S-PLAN: cost-based plans vs the mechanical lowering.

    Two engines over one skewed corpus — ``use_cost=True`` against
    ``use_cost=False`` — evaluate identical queries warm (plans
    compiled, span index built).  ``benchmarks/test_plan_cost.py``
    asserts the two sides stay item-for-item identical and gates the
    speedups; the ``speedup`` leaves ride the regression wall's ratio
    band.
    """
    from repro.api import Engine

    document = _plan_corpus(n_words)
    costed = Engine(document)
    mechanical = Engine(document, use_cost=False)
    costed.goddag.span_index()
    mechanical.goddag.span_index()
    out: dict = {}
    for label, query in PLAN_WORKLOAD:
        costed.query(query)  # warm plan cache + lazy indexes
        mechanical.query(query)
        costed_ns = median_ns(
            lambda q=query: costed.query(q), repeats)
        mechanical_ns = median_ns(
            lambda q=query: mechanical.query(q), repeats)
        out[label] = {
            "costed": costed_ns,
            "mechanical": mechanical_ns,
            "speedup": round(mechanical_ns / costed_ns, 2),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_axes.json"))
    parser.add_argument("--queries-out", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_queries.json"))
    parser.add_argument("--updates-out", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_updates.json"))
    parser.add_argument("--store-out", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_store.json"))
    parser.add_argument("--joins-out", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_joins.json"))
    parser.add_argument("--shard-out", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_shard.json"))
    parser.add_argument("--serve-out", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_serve.json"))
    parser.add_argument("--plan-out", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_plan.json"))
    parser.add_argument("--size", type=int, default=SCALING_SIZES[-1])
    parser.add_argument("--shard-size", type=int, default=None,
                        help="corpus words for the shard series "
                             "(default 64000, or 4000 with --quick)")
    parser.add_argument("--workers", type=int, default=4,
                        help="pool width for the shard series")
    parser.add_argument("--shard-only", action="store_true",
                        help="emit only the S-SHARD series (the "
                             "nightly shard-scale worker sweep)")
    parser.add_argument("--serve-only", action="store_true",
                        help="emit only the S-SERVE series (the "
                             "query-service latency/throughput run)")
    parser.add_argument("--plan-only", action="store_true",
                        help="emit only the S-PLAN series (cost-based "
                             "planning vs mechanical lowering)")
    parser.add_argument("--plan-size", type=int, default=PLAN_WORDS,
                        help="corpus words for the S-PLAN series "
                             "(the nightly plan-scale sweep overrides)")
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats (CI smoke run)")
    args = parser.parse_args(argv)
    repeats = 5 if args.quick else 41
    build_repeats = 3 if args.quick else 11
    query_repeats = 3 if args.quick else 9
    shard_size = args.shard_size or (4000 if args.quick else 64000)
    shard_repeats = 3 if args.quick else 7
    if args.shard_only:
        emit_shard(args, shard_size, shard_repeats)
        return 0
    if args.serve_only:
        emit_serve(args)
        return 0
    if args.plan_only:
        emit_plan(args, query_repeats)
        return 0
    payload = {
        "schema": "repro-bench/1",
        "series": "standard-axes-rewrite",
        "config": {"n_words": args.size, "seed": BENCH_SEED,
                   "repeats": repeats, "python": sys.version.split()[0]},
        "median_ns_per_op": {
            "S-AXES": bench_axes(args.size, repeats),
            "S-ANALYZE": bench_analyze(args.size,
                                       max(repeats // 4, 3)),
            "S-BUILD": bench_build(args.size, build_repeats),
        },
    }
    Path(args.out).write_text(json.dumps(payload, indent=2,
                                         sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    queries_payload = {
        "schema": "repro-bench/1",
        "series": "query-compilation-pipeline",
        "config": {"n_words": args.size, "seed": BENCH_SEED,
                   "repeats": query_repeats,
                   "python": sys.version.split()[0]},
        "median_ns_per_query": bench_queries(args.size, query_repeats),
    }
    Path(args.queries_out).write_text(
        json.dumps(queries_payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(queries_payload, indent=2, sort_keys=True))
    updates_payload = {
        "schema": "repro-bench/1",
        "series": "transactional-updates",
        "config": {"n_words": args.size, "seed": BENCH_SEED,
                   "repeats": query_repeats,
                   "python": sys.version.split()[0]},
        "median_ns_per_workload": bench_updates(args.size, query_repeats),
    }
    Path(args.updates_out).write_text(
        json.dumps(updates_payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(updates_payload, indent=2, sort_keys=True))
    store_payload = {
        "schema": "repro-bench/1",
        "series": "store-coldload",
        "config": {"n_words": args.size, "seed": BENCH_SEED,
                   "repeats": query_repeats,
                   "python": sys.version.split()[0]},
        "median_ns_per_coldload": bench_store(args.size, query_repeats),
        "median_ns_per_commit": {
            "durability": bench_durability(args.size, query_repeats),
        },
    }
    Path(args.store_out).write_text(
        json.dumps(store_payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(store_payload, indent=2, sort_keys=True))
    joins_payload = {
        "schema": "repro-bench/1",
        "series": "extended-axis-joins",
        "config": {"n_words": args.size, "seed": BENCH_SEED,
                   "repeats": repeats,
                   "python": sys.version.split()[0]},
        "median_ns_per_step": bench_joins(args.size, repeats),
    }
    Path(args.joins_out).write_text(
        json.dumps(joins_payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(joins_payload, indent=2, sort_keys=True))
    emit_shard(args, shard_size, shard_repeats)
    emit_serve(args)
    emit_plan(args, query_repeats)
    return 0


def emit_plan(args, repeats: int) -> None:
    plan_payload = {
        "schema": "repro-bench/1",
        "series": "cost-based-planning",
        "config": {"n_words": args.plan_size, "seed": 11,
                   "repeats": repeats,
                   "python": sys.version.split()[0]},
        "median_ns_per_query": bench_plan(args.plan_size, repeats),
    }
    Path(args.plan_out).write_text(
        json.dumps(plan_payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(plan_payload, indent=2, sort_keys=True))


def emit_serve(args) -> None:
    serve_requests = 30 if args.quick else 200
    serve_series = bench_serve(args.size, serve_requests,
                               concurrency=4)
    serve_payload = {
        "schema": "repro-bench/1",
        "series": "query-service-latency",
        "config": {**serve_series.pop("config"), "seed": BENCH_SEED,
                   "python": sys.version.split()[0]},
        "median_ns_per_request": serve_series,
    }
    Path(args.serve_out).write_text(
        json.dumps(serve_payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(serve_payload, indent=2, sort_keys=True))


def emit_shard(args, shard_size: int, shard_repeats: int) -> None:
    shard_series = bench_shard(shard_size, shard_repeats, args.workers)
    shard_payload = {
        "schema": "repro-bench/1",
        "series": "sharded-corpus-scatter-gather",
        "config": {**shard_series.pop("config"), "seed": BENCH_SEED,
                   "repeats": shard_repeats,
                   "python": sys.version.split()[0]},
        "median_ns_per_cquery": shard_series,
    }
    Path(args.shard_out).write_text(
        json.dumps(shard_payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(shard_payload, indent=2, sort_keys=True))


if __name__ == "__main__":
    raise SystemExit(main())

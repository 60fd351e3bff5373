"""The layer census: every per-layer metric, measured from outside.

Each timing is the harness's one estimator — the lower quartile of
samples normalised by the calibration kernel — over repeated calls into one
public function of the layer, on the seed's first document (the pool
section needs prunable shards and uses the corpus-scatter corpus).  A
call is repeated until there are 15 samples, or 5 once half a second
has gone into it: the slow calls (a full parse, a fork, a pooled corpus
query) would otherwise cost more than the run they explain.  Counts are
taken twice and must repeat exactly.

README.md has the glossary: what each name means and which end-to-end
metric it should move.
"""

from __future__ import annotations

import gc
import random
import statistics
import threading
import time

import inputs
from harness import Calibrator, Scratch, estimate, normalised
from workloads import CALLERS, CorpusScatter, ServeRead

#: target samples per call; the floor once BUDGET seconds are spent
SAMPLES, FLOOR, BUDGET = 15, 5, 0.5
#: seconds of the two-connection phase of the server section
PAIR_SECONDS = 3.0


class Census:
    def __init__(self, seed: int, smoke: bool, scratch: Scratch) -> None:
        from repro.api import Engine
        from repro.cmh import MultihierarchicalDocument

        self.seed, self.smoke, self.scratch = seed, smoke, scratch
        self.samples, self.floor = (2, 2) if smoke else (SAMPLES, FLOOR)
        self.text, self.sources = inputs.manuscript(seed, smoke)
        self.document = MultihierarchicalDocument.from_xml(
            self.text, self.sources)
        self.engine = Engine(self.document)
        self.goddag = self.engine.goddag
        self.goddag.span_index()
        self.calibrator = Calibrator()
        self.user_bytes = len(self.text.encode("utf-8")) + sum(
            len(source.encode("utf-8"))
            for source in self.sources.values())
        self.metrics: dict[str, float] = {}

    def times(self, *calls, per: int = 1, before=None) -> list[float]:
        """Estimated seconds (:func:`harness.estimate`) of each call.  The calls are sampled
        turn by turn, one kernel reading between rounds, so that all of
        them see the same stretches of the host: their differences and
        ratios are what the census reports.  ``before`` (one for all, or
        one per call) runs untimed ahead of every sample and hands its
        result to the call."""
        samples: list[list[float]] = [[] for _ in calls]
        befores = (before if isinstance(before, tuple)
                   else (before,) * len(calls))
        spent = 0.0
        reading = self.calibrator.read()
        while len(samples[0]) < self.samples and not (
                len(samples[0]) >= self.floor and spent >= BUDGET):
            taken = []
            for call, prepare in zip(calls, befores):
                if prepare is not None:
                    argument = prepare()
                    begin = time.perf_counter()
                    call(argument)
                else:
                    begin = time.perf_counter()
                    call()
                taken.append(time.perf_counter() - begin)
            spent += sum(taken)
            previous, reading = reading, self.calibrator.read()
            for series, took in zip(samples, taken):
                series.append(normalised(took / per, previous, reading))
        return [estimate(series) for series in samples]

    def time(self, call, before=None, per: int = 1) -> float:
        return self.times(call, per=per, before=before)[0]

    def ms(self, name: str, call, before=None) -> float:
        seconds = self.time(call, before)
        self.metrics[name] = seconds * 1e3
        return seconds

    def us(self, name: str, call, before=None, per: int = 1) -> float:
        def repeated(*argument):
            for _ in range(per):
                call(*argument)

        seconds = self.time(repeated, before, per)
        self.metrics[name] = seconds * 1e6
        return seconds

    # -- markup / cmh ------------------------------------------------------

    def markup(self) -> None:
        from repro.cmh import Hierarchy, MultihierarchicalDocument
        from repro.markup.parser import parse
        from repro.markup.streaming import stream_save

        text, sources = self.text, self.sources
        self.ms("markup.parse_ms", lambda: [
            parse(source) for source in sources.values()])
        parsed = {name: parse(source) for name, source in sources.items()}

        def align() -> None:  # what from_xml does once the parse is done
            document = MultihierarchicalDocument(text)
            for name, encoding in parsed.items():
                document.add_hierarchy(Hierarchy(name, encoding))

        self.ms("cmh.align_ms", align)
        self.ms("cmh.clone_ms", self.document.clone)
        path = self.scratch.fresh("stream") / "doc.mhxb"
        saved = self.ms("markup.stream_save_ms",
                        lambda: stream_save(text, sources, path))
        self.metrics["markup.stream_words_per_s"] = \
            len(text.split()) / saved

    # -- core.goddag ---------------------------------------------------------

    def goddag_layer(self) -> None:
        from repro.core.goddag import (
            KyGoddag,
            evaluate_axis_batch,
            exists_axis_batch,
            join_axis_batch,
        )
        from repro.core.goddag.axes import axis_exists_named
        from repro.core.goddag.stats import collect_plan_stats

        goddag = self.goddag
        self.ms("goddag.build_ms", lambda: KyGoddag.build(self.document))
        self.ms("goddag.span_index_ms",
                lambda fresh: fresh.span_index(),
                before=lambda: KyGoddag.build(self.document))
        self.ms("goddag.stats_collect_ms",
                lambda: collect_plan_stats(goddag))
        words = list(goddag.elements("w"))
        damage = list(goddag.elements("dmg"))
        lines = list(goddag.elements("line"))
        self.us("goddag.axis_descendant_us",
                lambda: evaluate_axis_batch(goddag, "descendant", words))
        middle = [words[len(words) // 2]]  # following:: of all w is n^2
        self.us("goddag.axis_following_us",
                lambda: evaluate_axis_batch(goddag, "following", middle,
                                            "w"))
        for name, axis, contexts, target in (
                ("joins.boundary_us", "xfollowing", damage, "res"),
                ("joins.containment_us", "xdescendant", damage, "w"),
                ("joins.stab_us", "overlapping", words, "line")):
            self.us(name, lambda: join_axis_batch(
                goddag, axis, contexts, target, skip_leaves=True))
        self.us("joins.exists_stab_us", lambda: exists_axis_batch(
            goddag, "overlapping", words, "line"))
        line = lines[len(lines) // 2]
        self.us("axes.exists_named_us", lambda: axis_exists_named(
            goddag, "xdescendant", line, "w"), per=200)

    # -- core.lang / core.plan / core.runtime --------------------------------

    def plan(self) -> None:
        from repro.core.lang.parser import parse_query
        from repro.core.plan import (
            build_plan,
            compile_plan,
            compile_query,
            rewrite,
        )
        from repro.core.plan.cost import apply_cost

        engine = self.engine
        stats = engine.plan_stats()
        queries = inputs.query_warm(self.text)
        text = inputs.Q_I2  # the stages of the largest query text
        parsed = parse_query(text)
        rewritten, notes = rewrite(parsed)

        def costed_plan():
            plan = build_plan(rewritten, list(notes))
            apply_cost(plan, stats, [])
            return plan

        self.us("lang.parse_us", lambda: parse_query(text))
        self.us("plan.rewrite_us", lambda: rewrite(parsed))
        self.us("plan.build_us", lambda: build_plan(rewritten, []))
        self.us("plan.cost_us", lambda plan: apply_cost(plan, stats, []),
                before=lambda: build_plan(rewritten, []))
        self.us("plan.closure_us", compile_plan, before=costed_plan)
        self.ms("plan.compile_cold_ms", lambda: [
            compile_query(query, stats=stats)
            for query in queries.values()])
        engine.compile(text)
        self.us("plan.cache_hit_us", lambda: engine.compile(text), per=50)

        for name, query in {**queries, "point": inputs.POINT}.items():
            compiled = engine.compile(query)
            self.ms(f"plan.execute_ms.{name}",
                    lambda: engine.execute(compiled))
        whole = engine.compile(queries["q-ii1"])
        scan = engine.compile(inputs.Q_II1_SCAN.replace(
            "NEEDLE", inputs.needle(self.text)))
        whole_s, scan_s = self.times(lambda: engine.execute(whole),
                                     lambda: engine.execute(scan))
        self.metrics["runtime.analyze_string_ms"] = \
            (whole_s - scan_s) * 1e3
        page = engine.execute(engine.compile(inputs.PAGE))
        self.ms("runtime.serialize_ms.page", page.strings)
        heavy = engine.execute(engine.compile(inputs.Q_I2))
        self.ms("runtime.serialize_ms.q-i2", heavy.serialize)

    # -- core.update -----------------------------------------------------------

    def update(self) -> None:
        from repro.core.update import compile_update
        from repro.store import fork_engine

        private = fork_engine(self.engine)  # the statements mutate it
        targets = iter(inputs.markable(private.goddag))
        statement = inputs.markup_statement(next(targets))
        self.us("update.compile_us", lambda: compile_update(statement))
        for name, template in (
                ("update.apply_markup_ms", inputs.MARKUP),
                ("update.apply_rename_ms", inputs.RENAME),
                ("update.apply_text_ms", inputs.RETEXT)):
            self.ms(name, lambda text: private.update(text, check=False),
                    before=lambda: template.format(next(targets)))
        self.ms("update.invariants_ms", private.goddag.check_invariants)

    # -- store: mhxb, faultfs, catalog -----------------------------------------

    def store(self) -> None:
        from repro.store import (
            DocumentStore,
            load_engine,
            save_engine,
            verify_blocks,
        )

        folder = self.scratch.fresh("mhxb")
        path = folder / "doc.mhxb"
        self.ms("mhxb.save_ms",
                lambda: save_engine(self.engine, path, durability="off"))
        self.ms("mhxb.save_full_ms",
                lambda: save_engine(self.engine, path, durability="full"))
        self.ms("mhxb.load_ms", lambda: load_engine(path))
        self.ms("mhxb.verify_ms", lambda: verify_blocks(path))

        root = self.scratch.fresh("catalog")
        store = DocumentStore.init(root, durability="full")
        store.add_streaming("doc", self.text, self.sources)
        store.close()
        self.ms("catalog.open_ms",
                lambda: DocumentStore(root, durability="full").close())
        store = DocumentStore(root, durability="full")
        try:
            store.query("doc", inputs.POINT)
            self.us("catalog.pin_us", lambda: store.snapshot("doc"),
                    per=200)
            engine = store.snapshot("doc").engine
            compiled, _hit = store.plans.get(
                inputs.POINT, engine.options, stats=engine.plan_stats())
            through, direct = self.times(
                lambda: store.query("doc", inputs.POINT),
                lambda: engine.execute(compiled))
            self.metrics["catalog.query_overhead_us"] = \
                (through - direct) * 1e6

            targets = iter(inputs.markable(engine.goddag))
            updated, first, warm = self.times(
                lambda: store.update(
                    "doc", inputs.markup_statement(next(targets))),
                lambda: store.query("doc", inputs.MARK_QUERY),  # cold
                lambda: store.query("doc", inputs.MARK_QUERY))
            self.metrics["catalog.update_ms"] = updated * 1e3
            self.metrics["catalog.read_after_write_ms"] = \
                (first - warm) * 1e3
            self.ms("catalog.compact_ms", lambda: store.compact("doc"))

            def spare() -> None:
                store.add_streaming("spare", self.text, self.sources)

            self.ms("catalog.remove_ms",
                    lambda _none: store.remove("spare"), before=spare)
        finally:
            store.close()

    def store_counts(self) -> dict[str, float]:
        """One committed update under a counting OS layer."""
        from repro.store import DocumentStore, faultfs

        class CountingOs(faultfs.FaultyOs):
            written = 0

            def write(self, handle, data: bytes) -> None:
                self.written += len(data)
                super().write(handle, data)

        root = self.scratch.fresh("faultfs")
        store = DocumentStore.init(root, durability="full")
        try:
            store.add_streaming("doc", self.text, self.sources)
            target = inputs.markable(store.snapshot("doc").engine.goddag)[0]
            with faultfs.inject(CountingOs()) as layer:
                store.update("doc", inputs.markup_statement(target))
            size = (root / "doc.mhxb").stat().st_size
        finally:
            store.close()
        kinds = [op for op, _target in layer.log]
        return {
            "faultfs.writes_per_commit": kinds.count("write"),
            "faultfs.fsyncs_per_commit": (kinds.count("fsync")
                                          + kinds.count("fsync_dir")),
            "faultfs.bytes_per_user_byte": layer.written / self.user_bytes,
            "mhxb.bytes_per_user_byte": size / self.user_bytes,
        }

    def plan_counts(self) -> dict[str, float]:
        """QueryStats of the two predicated paper queries, and how often
        Q-I.2 reaches the per-node existence probe."""
        import repro.core.goddag.axes as axes
        import repro.core.plan.physical as physical

        counts: dict[str, float] = {}
        for name, query in (("q-i1", inputs.Q_I1), ("q-i2", inputs.Q_I2)):
            stats = self.engine.query(query).stats
            counts[f"plan.axis_steps.{name}"] = stats.axis_steps
            counts[f"plan.join_steps.{name}"] = stats.join_steps
            counts[f"plan.batched_share.{name}"] = (
                stats.batched_steps / stats.axis_steps
                if stats.axis_steps else 0.0)
        calls = 0
        original = axes.axis_exists_named

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        # both the name the plan operators imported and the one the join
        # kernels look up at call time
        axes.axis_exists_named = physical.axis_exists_named = counting
        try:
            self.engine.query(inputs.Q_I2)
        finally:
            axes.axis_exists_named = physical.axis_exists_named = original
        counts["axes.exists_named_calls.q-i2"] = calls
        return counts

    # -- sharding / pool ---------------------------------------------------------

    def sharding(self) -> None:
        from repro.core.plan.distribute import classify
        from repro.store import DocumentStore, shard_document

        self.ms("sharding.cut_ms",
                lambda: shard_document(self.document, inputs.SHARDS))
        root = self.scratch.fresh("shards")
        store = DocumentStore.init(root)
        try:
            names = iter(f"c{index}" for index in range(self.samples))
            self.ms("sharding.add_corpus_ms",
                    lambda name: store.add_corpus(
                        name, self.document, shards=inputs.SHARDS),
                    before=lambda: next(names))
            stats = store.corpus_stats("c0")
            query = inputs.corpus_query(
                inputs.CORPUS_SCATTER["q-i1-lines"]).replace('"c"', '"c0"')
            compiled, _hit = store.plans.get(query, store.options)
            self.us("distribute.classify_us", lambda: classify(
                compiled.plan, root_name=stats.root_name,
                name_hierarchies=stats.name_hierarchies), per=20)
        finally:
            store.close()

    def pool(self) -> dict[str, float]:
        """The corpus-scatter corpus: pooled against serial, the heaviest
        shard and the gather replayed in this process."""
        from repro.api import Engine
        from repro.cmh import MultihierarchicalDocument
        from repro.store import DocumentStore
        from repro.store.pool import gather, run_shard

        store = DocumentStore.init(self.scratch.fresh("pool"))
        try:
            store.add_corpus("c", MultihierarchicalDocument.from_xml(
                *inputs.corpus(self.seed, self.smoke)),
                shards=inputs.SHARDS)
            light, mid, heavy = (
                inputs.corpus_query(inputs.CORPUS_SCATTER[
                    CorpusScatter.classes[label]])
                for label in ("light", "mid", "heavy"))
            # closing the store stops the workers: the next pooled query
            # forks and warms new ones
            first, second = self.times(
                lambda _closed: store.cquery(light, workers=CALLERS),
                lambda _none: store.cquery(light, workers=CALLERS),
                before=(store.close, lambda: None))
            self.metrics["pool.start_ms"] = (first - second) * 1e3
            pooled, serial = self.times(
                lambda: store.cquery(light, workers=CALLERS),
                lambda: store.cquery(light))
            self.metrics["pool.fixed_ms"] = (pooled - serial) * 1e3
            pooled, serial = self.times(
                lambda: store.cquery(heavy, workers=CALLERS),
                lambda: store.cquery(heavy))
            self.metrics["pool.parallel_ratio"] = serial / pooled

            engines = [Engine.from_mhxb(path) for path in
                       sorted(store.root.glob("c.shard*.mhxb"))]

            def shard_seconds(engine) -> float:
                begin = time.perf_counter()
                run_shard(engine, store.plans, heavy, "scatter")
                return time.perf_counter() - begin

            heaviest = max(engines, key=shard_seconds)
            self.ms("pool.worker_ms", lambda: run_shard(
                heaviest, store.plans, heavy, "scatter"))
            payloads = [run_shard(engine, store.plans, mid, "scatter")
                        for engine in engines]
            self.ms("pool.gather_ms", lambda: gather("scatter", payloads))
            pruned = store.cquery(light, workers=CALLERS)
            return {"pool.shards_pruned_share":
                    pruned.shards_pruned / pruned.shards_total}
        finally:
            store.close()

    # -- server ------------------------------------------------------------------

    def server(self, failures: list[str]) -> None:
        from repro.server import json_bytes

        workload = ServeRead(self.seed, self.smoke, self.scratch)
        workload.prepare()
        starts: list[float] = []
        try:
            for _ in range(1 if self.smoke else 2):
                workload.tear_down()
                starts.append(workload.set_up()["start"])
            self.metrics["server.start_ms"] = min(starts) * 1e3
            self.ms("server.healthz_ms",
                    lambda: workload.fetch("/healthz"))
            for name in ("point", "page", "stream"):
                replayed, round_trip = self.times(
                    workload.replay_job(name), lambda: workload.run(name))
                self.metrics[f"server.job_ms.{name}"] = replayed * 1e3
                self.metrics[f"server.overhead_ms.{name}"] = \
                    (round_trip - replayed) * 1e3
            payload = workload.replay_job("page")().payload
            self.us("http.json_bytes_us", lambda: json_bytes(payload),
                    per=20)
            self.pair(workload, failures)
            statz = workload.statz()
            cache = statz["plan_cache"]
            self.metrics["plancache.hit_share"] = \
                cache["hits"] / (cache["hits"] + cache["misses"])
            self.metrics["server.rejected"] = (
                statz["rejected_queue"] + statz["rejected_quota"])
            self.metrics["server.disconnects"] = statz["disconnects"]
            self.metrics["server.peak_inflight"] = statz["peak_inflight"]
            failures.extend(workload.faults())
        finally:
            workload.tear_down()

    def pair(self, workload: ServeRead, failures: list[str]) -> None:
        """One connection, then as many as there are processors, each
        running the shuffled cycle; only what overlaps counts."""
        seconds = 0.5 if self.smoke else PAIR_SECONDS
        heavy = workload.classes["heavy"]

        def client(seed: int, out: dict) -> None:
            connection = workload.connect()
            rng = random.Random(seed)
            names = list(workload.ops)
            out["begin"] = time.perf_counter()
            deadline = out["begin"] + seconds
            try:
                while time.perf_counter() < deadline:
                    rng.shuffle(names)
                    for name in names:
                        begin = time.perf_counter()
                        body = workload.run(name, connection=connection)
                        end = time.perf_counter()
                        out["ops"].append((name, begin, end))
                        if not workload.check(name, body):
                            failures.append(f"pair {name}: {body!r:.80}")
            finally:
                out["end"] = time.perf_counter()
                connection.close()

        def phase(callers: int) -> tuple[list[tuple], float]:
            outs = [{"ops": []} for _ in range(callers)]
            threads = [threading.Thread(target=client,
                                        args=(self.seed + index, out))
                       for index, out in enumerate(outs)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            begin = max(out["begin"] for out in outs)
            end = min(out["end"] for out in outs)
            kept = [op for out in outs for op in out["ops"]
                    if op[1] >= begin and op[2] <= end]
            return kept, end - begin

        def median_heavy(ops) -> float:
            return statistics.median(end - begin for name, begin, end
                                     in ops if name == heavy)

        solo, _window = phase(1)
        both, window = phase(CALLERS)
        self.metrics["server.pair_slowdown"] = \
            median_heavy(both) / median_heavy(solo)
        self.metrics["server.pair_ops_per_s"] = len(both) / window


def run(seed: int, smoke: bool, failures: list[str]) -> dict[str, float]:
    """Every per-layer metric except the traced run's own two."""
    scratch = Scratch()
    try:
        census = Census(seed, smoke, scratch)
        gc.collect()
        gc.freeze()  # the census's own documents are not the program's
        census.markup()
        census.goddag_layer()
        census.plan()
        census.update()
        census.store()
        census.sharding()
        counts = {**census.plan_counts(), **census.store_counts(),
                  **census.pool()}
        census.server(failures)
        again = {**census.plan_counts(), **census.store_counts()}
        for name, value in again.items():
            if counts[name] != value:
                failures.append(f"count {name} did not repeat: "
                                f"{counts[name]} then {value}")
        return {**census.metrics, **counts}
    finally:
        scratch.close()

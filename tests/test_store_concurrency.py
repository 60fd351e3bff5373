"""Thread-stress tests: snapshot readers racing the store writer.

The acceptance bar of DESIGN.md §10: N reader threads querying pinned
snapshots concurrently with a writer applying update sequences — every
reader must observe a *version-consistent* result set (verified
against a single-threaded replay of the same updates) with zero torn
reads.

Scaled up by the nightly CI profile through ``REPRO_STRESS_READERS`` /
``REPRO_STRESS_BATCHES`` / ``REPRO_STRESS_MIN_READS``.
"""

from __future__ import annotations

import os
import threading
import time
from unittest import mock

import pytest

from repro.api import Engine
from repro.core.lang.parser import parse_query
from repro.core.plan import compile_query
from repro.core.runtime import functions
from repro.corpus import GeneratorConfig, generate_document
from repro.corpus.boethius import boethius_document
from repro.store import DocumentStore, catalog

READERS = int(os.environ.get("REPRO_STRESS_READERS", "4"))
BATCHES = int(os.environ.get("REPRO_STRESS_BATCHES", "16"))
#: every reader must complete at least this many full probe rounds
MIN_READS = int(os.environ.get("REPRO_STRESS_MIN_READS", "8"))

PROBES = [
    "count(/descendant::*)",
    "for $n in /descendant::* return name($n)",
    "/descendant::line[overlapping::w or xdescendant::w]/string(.)",
]

#: four-phase churn cycle: two in-place renames (component patch), one
#: text-bearing insert and its delete (full rebuild path)
_CYCLE = [
    'rename node /descendant::w[1] as "wx"',
    'rename node /descendant::wx[1] as "w"',
    'insert node <note>burst</note> after /descendant::w[2]',
    "delete node /descendant::note[1]",
]


def _batches() -> list[list[str]]:
    return [[_CYCLE[index % len(_CYCLE)]] for index in range(BATCHES)]


def _replay_expected() -> dict[int, dict[str, str]]:
    """Single-threaded replay: version -> probe -> serialized result."""
    engine = Engine(boethius_document(validate=False))
    expected = {engine.version: {probe: engine.query(probe).serialize()
                                 for probe in PROBES}}
    for batch in _batches():
        for statement in batch:
            engine.update(statement)
        expected[engine.version] = {
            probe: engine.query(probe).serialize() for probe in PROBES}
    return expected


class TestSnapshotReadersVsWriter:
    def test_readers_see_version_consistent_results(self, tmp_path):
        expected = _replay_expected()
        store = DocumentStore.init(tmp_path / "catalog")
        store.add("boe", boethius_document(validate=False))

        writer_done = threading.Event()
        errors: list[str] = []
        observations: list[tuple[int, int]] = []  # (reader, version)
        lock = threading.Lock()

        def writer() -> None:
            try:
                for batch in _batches():
                    store.update("boe", batch, persist=False)
                    time.sleep(0.001)  # let readers interleave
            except Exception as error:  # pragma: no cover - fail loud
                with lock:
                    errors.append(f"writer: {error!r}")
            finally:
                writer_done.set()

        def reader(identity: int) -> None:
            rounds = 0
            try:
                while rounds < MIN_READS or not writer_done.is_set():
                    snapshot = store.snapshot("boe")
                    version = snapshot.version
                    reference = expected.get(version)
                    if reference is None:
                        with lock:
                            errors.append(
                                f"reader {identity} saw unpublished "
                                f"version {version}")
                        return
                    for probe in PROBES:
                        observed = snapshot.query(probe).serialize()
                        if observed != reference[probe]:
                            with lock:
                                errors.append(
                                    f"reader {identity} tore at "
                                    f"v{version} on {probe!r}")
                            return
                    # the pinned snapshot never moves underneath us
                    if snapshot.version != version:
                        with lock:
                            errors.append(
                                f"reader {identity}: snapshot version "
                                f"drifted")
                        return
                    with lock:
                        observations.append((identity, version))
                    rounds += 1
            except Exception as error:  # pragma: no cover - fail loud
                with lock:
                    errors.append(f"reader {identity}: {error!r}")

        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader, args=(identity,))
                    for identity in range(READERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert writer_done.is_set()
        # every reader completed its quota, and the final version is
        # the replay's final version
        per_reader = {identity for identity, _version in observations}
        assert per_reader == set(range(READERS))
        final = store.snapshot("boe")
        assert final.version == max(expected)
        for probe in PROBES:
            assert final.query(probe).serialize() == \
                expected[final.version][probe]
        final.engine.goddag.check_invariants()

    def test_analyze_string_readers_share_one_snapshot(self, tmp_path):
        """Definition 4 temporaries live on each evaluation's own shell:
        analyze-string readers and plain readers share the *same*
        snapshot without corrupting either."""
        store = DocumentStore.init(tmp_path / "catalog")
        store.add("boe", boethius_document(validate=False))
        snapshot = store.snapshot("boe")
        plain = "count(/descendant::*)"
        analyze = 'analyze-string(/, "si")'
        expected_plain = snapshot.query(plain).serialize()
        expected_analyze = snapshot.query(analyze).serialize()

        errors: list[str] = []
        lock = threading.Lock()

        def worker(identity: int) -> None:
            try:
                for _round in range(MIN_READS):
                    if identity % 2:
                        observed = snapshot.query(analyze).serialize()
                        reference = expected_analyze
                    else:
                        observed = snapshot.query(plain).serialize()
                        reference = expected_plain
                    if observed != reference:
                        with lock:
                            errors.append(
                                f"worker {identity} diverged")
                        return
            except Exception as error:  # pragma: no cover - fail loud
                with lock:
                    errors.append(f"worker {identity}: {error!r}")

        threads = [threading.Thread(target=worker, args=(identity,))
                   for identity in range(max(READERS, 4))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        snapshot.engine.goddag.check_invariants()

    def test_latch_guards_direct_engine_queries_too(self, tmp_path):
        """``snapshot.engine.query(...)`` bypasses the Snapshot wrapper
        but not the shell — the compiled plan chooses it, so direct
        analyze-string calls racing plain readers write nothing the
        others read."""
        store = DocumentStore.init(tmp_path / "catalog")
        store.add("boe", boethius_document(validate=False))
        engine = store.snapshot("boe").engine
        plain = "count(/descendant::*)"
        analyze = 'analyze-string(/, "si")'
        expected_plain = engine.query(plain).serialize()
        expected_analyze = engine.query(analyze).serialize()

        errors: list[str] = []
        lock = threading.Lock()

        def worker(identity: int) -> None:
            try:
                for _round in range(MIN_READS):
                    text = analyze if identity % 2 else plain
                    reference = (expected_analyze if identity % 2
                                 else expected_plain)
                    if engine.query(text).serialize() != reference:
                        with lock:
                            errors.append(f"worker {identity} diverged")
                        return
            except Exception as error:  # pragma: no cover - fail loud
                with lock:
                    errors.append(f"worker {identity}: {error!r}")

        threads = [threading.Thread(target=worker, args=(identity,))
                   for identity in range(max(READERS, 4))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        engine.goddag.check_invariants()


class TestFusedCorpusReaders:
    """Every fused-path ``cquery`` of a corpus evaluates on one cached,
    unfrozen corpus engine, from whatever thread asks — the server's
    pool among them."""

    QUERIES = (
        # fused: analyze-string is not shard-local
        'count(for $w in collection("c")/descendant::w'
        '[matches(string(.), "e")] '
        'return analyze-string($w, "e")/descendant::m)',
        # fused: following:: reaches across shard cuts
        'count(collection("c")/descendant::w[following::dmg])',
        # aggregate
        'count(collection("c")/descendant::w)',
    )

    def test_analyze_string_cqueries_share_the_fused_engine(self,
                                                            tmp_path):
        store = DocumentStore.init(tmp_path / "catalog")
        store.add_corpus("c", generate_document(
            GeneratorConfig(n_words=1500, seed=3)), shards=4)
        expected = {}
        for text in self.QUERIES:
            expected[text] = store.cquery(text).items
        assert store.cquery(self.QUERIES[0]).mode == "fused"
        goddag = store._fused["c"].engine.goddag
        names, rank = goddag.hierarchy_names, goddag._next_rank

        errors: list[str] = []
        lock = threading.Lock()

        def worker(identity: int) -> None:
            try:
                for turn in range(MIN_READS):
                    text = self.QUERIES[(identity + turn)
                                        % len(self.QUERIES)]
                    if store.cquery(text).items != expected[text]:
                        with lock:
                            errors.append(f"worker {identity} diverged "
                                          f"on {text!r}")
                        return
            except Exception as error:  # pragma: no cover - fail loud
                with lock:
                    errors.append(f"worker {identity}: {error!r}")

        threads = [threading.Thread(target=worker, args=(identity,))
                   for identity in range(max(READERS, 4))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        store.close()
        assert not errors, errors
        assert store._fused["c"].engine.goddag is goddag
        assert goddag.hierarchy_names == names
        assert goddag._next_rank == rank
        goddag.check_invariants()


class TestReadersWriteNothingShared:
    """``analyze-string`` readers of one frozen snapshot overlap, and
    none of them writes the published KyGODDAG (DESIGN.md §8)."""

    @staticmethod
    def published_state(goddag) -> tuple:
        index = goddag.span_index()
        return (goddag._components, dict(goddag._components),
                *goddag.partition.export_arrays(), index, index._s_keys,
                index._e_keys, index.starts, index.ends, index.ranks,
                index.e_ranks, index.preorders, goddag.version,
                goddag._next_rank)

    @pytest.mark.parametrize("direct", (False, True))
    def test_two_analyze_string_readers_overlap(self, tmp_path, direct):
        store = DocumentStore.init(tmp_path / "catalog")
        store.add("boe", boethius_document(validate=False))
        snapshot = store.snapshot("boe")
        reader = snapshot.engine if direct else snapshot
        query = 'count(analyze-string(/, "si")/descendant::m/xancestor::w)'
        expected = reader.query(query).serialize()
        goddag = snapshot.engine.goddag
        before = self.published_state(goddag)

        # both readers must be inside analyze_string at once to pass
        barrier = threading.Barrier(2, timeout=10)
        original = functions.analyze_string

        def meeting(*args, **kwargs):
            barrier.wait()
            return original(*args, **kwargs)

        results: list[str] = []
        errors: list[str] = []
        lock = threading.Lock()

        def worker() -> None:
            try:
                observed = reader.query(query).serialize()
                with lock:
                    results.append(observed)
            except Exception as error:
                with lock:
                    errors.append(repr(error))

        with mock.patch.object(functions, "analyze_string", meeting):
            threads = [threading.Thread(target=worker) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not errors, errors
        assert results == [expected, expected]
        after = self.published_state(goddag)
        assert len(after) == len(before)
        for now, held in zip(after, before):
            assert now is held or (isinstance(held, (int, dict))
                                   and now == held)

    @pytest.mark.parametrize("text", (
        'count(analyze-string(/, "si")/descendant::m)',
        "count(/descendant::w)",
        'count(/descendant::w[string(.) = "analyze-string"])',
    ))
    def test_the_plan_picks_the_shell_not_the_text(self, text):
        """A query compiled from a pre-parsed AST, whose compiled text is
        a placeholder no scan can read, picks the shell exactly as its
        text does; a mention in a string literal is no call."""
        parsed = compile_query(parse_query(text))
        assert "analyze-string" not in parsed.text
        assert parsed.needs_shell is compile_query(text).needs_shell
        assert parsed.needs_shell is text.startswith("count(analyze")


class TestCorpusReAddedDuringALoad:
    """A corpus removed and added again under its name while a reader
    is loading its old shard files.  The new files take the old names,
    so a cache keyed by name alone went on answering from what the
    in-flight load stored after ``remove_corpus`` had cleared it; the
    caches key by the identity of the file an engine came from."""

    SCATTER = 'collection("c")/descendant::w[overlapping::line]'
    FUSED = 'collection("c")/descendant::w[xfollowing::dmg]'

    @pytest.fixture()
    def stores(self, tmp_path):
        old, new = (generate_document(GeneratorConfig(n_words=600,
                                                      seed=seed))
                    for seed in (1, 2))
        racing = DocumentStore.init(tmp_path / "racing")
        racing.add_corpus("c", old, shards=3)
        fresh = DocumentStore.init(tmp_path / "fresh")
        fresh.add_corpus("c", new, shards=3)
        return racing, fresh, new

    @staticmethod
    def re_add_during_first_load(store, new, query: str) -> None:
        """Run ``query`` on a reader whose first shard load, once done,
        waits until the corpus has been removed and added again."""
        loaded, released = threading.Event(), threading.Event()
        original = DocumentStore._load_shard

        def load_shard(self, name, file_name, load):
            result = original(self, name, file_name, load)
            if not loaded.is_set():
                loaded.set()
                released.wait(timeout=30)
            return result

        def reader():
            try:
                store.cquery(query)
            except Exception:  # noqa: BLE001 - the files went under it
                pass

        with mock.patch.object(DocumentStore, "_load_shard", load_shard):
            thread = threading.Thread(target=reader)
            thread.start()
            assert loaded.wait(timeout=30)
            store.remove_corpus("c")
            store.add_corpus("c", new, shards=3)
            released.set()
            thread.join(timeout=60)
        assert not thread.is_alive()

    def test_serial_scatter_reloads_the_new_files(self, stores):
        racing, fresh, new = stores
        assert racing.cquery(self.SCATTER).mode == "scatter"
        racing._shard_engines.clear()
        self.re_add_during_first_load(racing, new, self.SCATTER)
        assert (racing.cquery(self.SCATTER).items
                == fresh.cquery(self.SCATTER).items)

    def test_fused_engine_rebuilds_from_the_new_files(self, stores):
        racing, fresh, new = stores
        assert racing.cquery(self.FUSED).mode == "fused"
        racing._fused.clear()
        self.re_add_during_first_load(racing, new, self.FUSED)
        assert (racing.cquery(self.FUSED).items
                == fresh.cquery(self.FUSED).items)

    def test_concurrent_first_callers_fuse_once(self, stores):
        racing, fresh, _new = stores
        loaded, released = threading.Event(), threading.Event()
        fuses = []
        original = catalog.fuse_documents

        def fuse_documents(parts):
            fuses.append(len(parts))
            loaded.set()
            released.wait(timeout=30)
            return original(parts)

        answers = []
        with mock.patch.object(catalog, "fuse_documents", fuse_documents):
            threads = [threading.Thread(
                target=lambda: answers.append(
                    racing.cquery(self.FUSED).items))
                for _ in range(2)]
            threads[0].start()
            assert loaded.wait(timeout=30)
            threads[1].start()
            time.sleep(0.2)  # the second caller arrives mid-build
            released.set()
            for thread in threads:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert fuses == [3]
        assert answers[0] == answers[1] and answers[0]

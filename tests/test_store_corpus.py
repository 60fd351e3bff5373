"""Tests for sharded corpora in the document store (DESIGN.md §13).

Corpus lifecycle (add/persist/reopen/remove), the ``cquery``
scatter-gather executor in every routing mode — serial in-process and
over the worker pool — shard pruning against the manifest statistics,
the worker fault path (a shard worker dying mid-query surfaces as a
clean :class:`StoreError` naming the shard, pool usable afterwards),
crash-recovery integration (shard files are never adopted as
documents; a missing shard quarantines its corpus), what the fused
fallback builds (counted), the cold-load verification policy on shard
files, and the ``mhxq store shard``/``store cquery`` CLI verbs.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest

from repro.api import Engine
from repro.cli import main
from repro.errors import ReproError, StoreError
from repro.cmh import Hierarchy, MultihierarchicalDocument
from repro.core.runtime.serializer import serialize_item
from repro.corpus.generator import GeneratorConfig, generate_document
from repro.store import DocumentStore
from tests.test_store_recovery import flip_block_byte


@pytest.fixture(scope="module")
def document() -> MultihierarchicalDocument:
    return generate_document(GeneratorConfig(n_words=600, seed=11))


@pytest.fixture()
def store(tmp_path) -> DocumentStore:
    catalog = DocumentStore.init(tmp_path / "catalog")
    yield catalog
    catalog.close()


@pytest.fixture()
def corpus(store, document) -> DocumentStore:
    store.add_corpus("c", document, shards=4)
    return store


def oracle_strings(document, text: str) -> list[str]:
    return [serialize_item(item)
            for item in Engine(document).query(text)]


class TestCorpusLifecycle:
    def test_add_persists_shards_and_stats(self, corpus, document,
                                           tmp_path):
        assert corpus.corpora == ["c"]
        stats = corpus.corpus_stats("c")
        assert stats.words == len(document.text.split())
        root = tmp_path / "catalog"
        files = sorted(root.glob("c.shard*.mhxb"))
        assert len(files) == len(stats.shards) == 4

    def test_reopen_keeps_corpus(self, corpus, document, tmp_path):
        reopened = DocumentStore(tmp_path / "catalog")
        try:
            assert reopened.corpora == ["c"]
            result = reopened.cquery(
                'count(collection("c")/descendant::w)')
            assert result.items == oracle_strings(
                document, "count(/descendant::w)")
        finally:
            reopened.close()

    def test_name_collisions_rejected(self, corpus, document):
        with pytest.raises(ReproError, match="already exists"):
            corpus.add_corpus("c", document, shards=2)
        corpus.add("doc", document)
        with pytest.raises(ReproError, match="already exists"):
            corpus.add_corpus("doc", document, shards=2)

    def test_documents_and_corpora_share_one_namespace(
            self, corpus, document, tmp_path):
        """Every way in refuses a name either section holds (quarantine
        entries are keyed by bare name): the four entry points — and
        ``add``'s three sources — against a corpus and against a
        document, with one message."""
        corpus.add("doc", document)
        sources = {name: document[name].to_xml()
                   for name in document.hierarchy_names}
        exported = tmp_path / "doc.mhxb"
        engine = corpus.snapshot("doc").engine
        engine.save_mhxb(exported)
        manifest = (tmp_path / "catalog" / "store.json").read_bytes()
        files = sorted(path.name for path
                       in (tmp_path / "catalog").iterdir())
        for taken, kind in (("c", "corpus"), ("doc", "document")):
            for enter in (
                    lambda: corpus.add(taken, document),
                    lambda: corpus.add(taken, path=exported),
                    lambda: corpus.add(taken, engine=engine),
                    lambda: corpus.add_streaming(taken, document.text,
                                                 sources),
                    lambda: corpus.add_corpus(taken, document, shards=2),
                    lambda: corpus.add_corpus_streaming(
                        taken, document.text, sources, shards=2)):
                with pytest.raises(ReproError) as caught:
                    enter()
                assert str(caught.value) == \
                    f"{taken!r} already exists in this store ({kind})"
        assert (tmp_path / "catalog" / "store.json").read_bytes() == manifest
        assert sorted(path.name for path
                      in (tmp_path / "catalog").iterdir()) == files
        assert corpus.names == ["doc"] and corpus.corpora == ["c"]

    def test_invalid_name_rejected(self, store, document):
        with pytest.raises(ReproError, match="invalid corpus name"):
            store.add_corpus("no/slash", document, shards=2)

    def test_remove_corpus_deletes_shards(self, corpus, tmp_path):
        corpus.remove_corpus("c")
        assert corpus.corpora == []
        assert not list((tmp_path / "catalog").glob("c.shard*"))
        with pytest.raises(ReproError, match="no corpus named"):
            corpus.corpus_stats("c")

    def test_unknown_corpus(self, store):
        with pytest.raises(ReproError, match="no corpus named"):
            store.cquery('collection("nope")/descendant::w')


class TestCqueryModes:
    @pytest.mark.parametrize("corpus_text,oracle_text,mode", [
        ('collection("c")/descendant::w', "/descendant::w", "scatter"),
        ('collection("c")/descendant::dmg/xdescendant::w',
         "/descendant::dmg/xdescendant::w", "scatter"),
        ('collection("c")/descendant::w[overlapping::line]',
         "/descendant::w[overlapping::line]", "scatter"),
        ('count(collection("c")/descendant::w)',
         "count(/descendant::w)", "aggregate"),
        ('exists(collection("c")/descendant::dmg)',
         "exists(/descendant::dmg)", "aggregate"),
        ('for $w in collection("c")/descendant::w return string($w)',
         "for $w in /descendant::w return string($w)", "concat"),
        ('collection("c")/descendant::w/following::dmg',
         "/descendant::w/following::dmg", "fused"),
        ('collection("c")/descendant::line/xfollowing::w',
         "/descendant::line/xfollowing::w", "fused"),
    ])
    def test_matches_unsharded_oracle(self, corpus, document,
                                      corpus_text, oracle_text, mode):
        result = corpus.cquery(corpus_text)
        assert result.mode == mode, result.reason
        assert result.items == oracle_strings(document, oracle_text)

    def test_aggregate_value_is_raw_scalar(self, corpus, document):
        result = corpus.cquery('count(collection("c")/descendant::w)')
        assert result.value == len(
            oracle_strings(document, "/descendant::w"))

    def test_result_shape(self, corpus):
        result = corpus.cquery('collection("c")/descendant::w')
        assert len(result) == len(result.items)
        assert list(iter(result)) == result.strings()
        assert result.shards_total == 4
        assert result.shards_executed == 4
        assert result.shards_pruned == 0

    def test_plan_cache_shared_across_calls(self, corpus):
        corpus.cquery('collection("c")/descendant::w')
        _compiled, hit = corpus.plans.get(
            'collection("c")/descendant::w', corpus.options)
        assert hit

    def test_needs_collection_reference(self, corpus):
        with pytest.raises(ReproError, match="collection"):
            corpus.cquery("/descendant::w")

    def test_one_corpus_per_query(self, corpus, document):
        corpus.add_corpus("d", document, shards=2)
        with pytest.raises(StoreError, match="one corpus per query"):
            corpus.cquery(
                'for $w in collection("c")/descendant::w '
                'return collection("d")/descendant::line')


class TestParallel:
    def test_pool_matches_serial(self, corpus):
        serial = corpus.cquery('collection("c")/descendant::w')
        pooled = corpus.cquery('collection("c")/descendant::w',
                               workers=2)
        assert pooled.items == serial.items
        assert pooled.workers == 2

    def test_pool_aggregate(self, corpus, document):
        result = corpus.cquery('count(collection("c")/descendant::w)',
                               workers=2)
        assert result.items == oracle_strings(
            document, "count(/descendant::w)")

    def test_pool_reused_across_queries(self, corpus):
        corpus.cquery('collection("c")/descendant::w', workers=2)
        pool = corpus._pools[2]
        corpus.cquery('collection("c")/descendant::vline', workers=2)
        assert corpus._pools[2] is pool
        assert pool._executor is not None

    def test_pool_follows_a_name_to_its_new_files(self, corpus):
        """Workers cache engines by shard path; a corpus removed and
        added again under its name has new files at those paths."""
        count = 'count(collection("c")/descendant::w)'
        assert corpus.cquery(count, workers=2).items == ["600"]
        corpus.remove_corpus("c")
        corpus.add_corpus("c", generate_document(
            GeneratorConfig(n_words=300, seed=12)), shards=4)
        assert corpus.cquery(count, workers=2).items == \
            corpus.cquery(count).items == ["300"]

    def test_invalid_worker_count(self):
        from repro.store import ShardWorkerPool

        with pytest.raises(StoreError, match="worker count"):
            ShardWorkerPool(0)


class TestWorkerFaults:
    def test_dead_worker_names_shard(self, corpus):
        with pytest.raises(StoreError) as excinfo:
            corpus.cquery('collection("c")/descendant::w', workers=2,
                          _crash_shard=2)
        message = str(excinfo.value)
        assert "c.shard0002.mhxb" in message
        assert "died" in message

    def test_pool_usable_after_crash(self, corpus):
        with pytest.raises(StoreError):
            corpus.cquery('collection("c")/descendant::w', workers=2,
                          _crash_shard=0)
        result = corpus.cquery('count(collection("c")/descendant::w)',
                               workers=2)
        assert result.value == 600

    def test_shard_error_serial_names_shard(self, corpus, monkeypatch):
        import repro.store.catalog as catalog_module

        def boom(engine, plans, text, mode):
            raise StoreError("injected")

        monkeypatch.setattr(catalog_module, "run_shard", boom)
        with pytest.raises(StoreError, match=r"c\.shard0000\.mhxb"):
            corpus.cquery('collection("c")/descendant::w')


class TestPruning:
    @pytest.fixture()
    def lopsided(self, store):
        """dmg markup only in the first ~sixth of the corpus."""
        from repro.store import fuse_documents

        damaged = generate_document(GeneratorConfig(
            n_words=100, seed=3, damage_rate=0.3))
        clean = generate_document(GeneratorConfig(
            n_words=500, seed=4, damage_rate=0.0,
            restoration_rate=0.0))
        document = fuse_documents([damaged, clean])
        store.add_corpus("c", document, shards=6)
        return store, document

    def test_pruned_shards_skipped(self, lopsided):
        store, document = lopsided
        result = store.cquery(
            'collection("c")/descendant::dmg/xdescendant::w')
        assert result.shards_pruned > 0
        assert result.shards_executed < result.shards_total
        assert result.items == oracle_strings(
            document, "/descendant::dmg/xdescendant::w")

    def test_pruning_exact_for_aggregates(self, lopsided):
        store, document = lopsided
        pruned = store.cquery(
            'count(collection("c")/descendant::dmg)')
        unpruned = store.cquery(
            'count(collection("c")/descendant::dmg)', prune=False)
        assert pruned.items == unpruned.items == oracle_strings(
            document, "count(/descendant::dmg)")
        assert pruned.shards_pruned > unpruned.shards_pruned == 0

    def test_all_shards_pruned(self, lopsided):
        store, _document = lopsided
        result = store.cquery(
            'collection("c")/descendant::nosuchname')
        assert result.shards_executed == 0
        assert result.items == []
        empty = store.cquery(
            'count(collection("c")/descendant::nosuchname)')
        assert empty.value == 0
        assert empty.items == ["0"]


class TestRecovery:
    def test_shard_files_not_adopted_as_documents(self, corpus,
                                                  tmp_path):
        reopened = DocumentStore(tmp_path / "catalog")
        try:
            assert reopened.names == []
            assert reopened.recovery["adopted"] == []
            assert reopened.corpora == ["c"]
        finally:
            reopened.close()

    def test_missing_shard_quarantines_corpus(self, corpus, tmp_path):
        (tmp_path / "catalog" / "c.shard0001.mhxb").unlink()
        reopened = DocumentStore(tmp_path / "catalog")
        try:
            assert "c" in reopened.recovery["quarantined"]
            assert reopened.corpora == []
            with pytest.raises(StoreError, match="quarantined"):
                reopened.cquery('collection("c")/descendant::w')
            # remaining shard files are not adopted as documents
            assert reopened.names == []
        finally:
            reopened.close()

    def test_corrupt_shard_quarantines_corpus(self, corpus, tmp_path):
        path = tmp_path / "catalog" / "c.shard0000.mhxb"
        payload = bytearray(path.read_bytes())
        payload[5] ^= 0xFF  # flip a header byte
        path.write_bytes(payload)
        reopened = DocumentStore(tmp_path / "catalog")
        try:
            assert "c" in reopened.recovery["quarantined"]
        finally:
            reopened.close()

    def test_quarantined_corpus_removable(self, corpus, tmp_path):
        (tmp_path / "catalog" / "c.shard0001.mhxb").unlink()
        reopened = DocumentStore(tmp_path / "catalog")
        try:
            reopened.remove("c")
            assert not list((tmp_path / "catalog").glob("c.shard*"))
            manifest = json.loads(
                (tmp_path / "catalog" / "store.json").read_text())
            assert manifest["quarantined"] == {}
        finally:
            reopened.close()


#: a ``fused``-mode query and a scatterable one over corpus ``c``
FUSED = 'collection("c")/descendant::w[xfollowing::dmg]'
COUNT_C = 'count(collection("c")/descendant::w)'


def counting(calls: list, function):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)
    return wrapper


class TestFusedPath:
    """What the whole-corpus fallback engine is made of, counted (the
    ``TestPerNodeHoleClosed`` pattern): the shard files' columns,
    concatenated."""

    def test_first_fused_query_builds_columns_only(self, corpus,
                                                   document):
        import repro.core.goddag.goddag as goddag
        import repro.store.catalog as catalog
        import repro.store.mhxb as mhxb
        from repro.markup import dom

        doms: list = []
        walks: list = []
        clones: list = []
        engines: list = []
        fuses: list = []
        build_dom = goddag._HierarchyComponent.build_dom
        with mock.patch.object(goddag._HierarchyComponent, "build_dom",
                               counting(doms, build_dom)), \
                mock.patch.object(
                    goddag, "dom_component",
                    counting(walks, goddag.dom_component)), \
                mock.patch.object(
                    dom.Element, "clone",
                    counting(clones, dom.Element.clone)), \
                mock.patch.object(dom.Text, "clone",
                                  counting(clones, dom.Text.clone)), \
                mock.patch.object(mhxb, "load_engine",
                                  counting(engines, mhxb.load_engine)), \
                mock.patch.object(
                    catalog, "fuse_documents",
                    counting(fuses, catalog.fuse_documents)):
            first = corpus.cquery(FUSED)
            assert first.mode == "fused"
            assert (len(doms), len(walks), len(clones), len(engines),
                    len(fuses)) == (0, 0, 0, 0, 1)
            assert corpus._shard_engines == {}
            fused = corpus._fused["c"].engine
            assert len(fused.document) == 4 and not doms
            second = corpus.cquery(FUSED)
            assert len(fuses) == 1 and corpus._fused["c"].engine is fused
            # the controls: each wrapper does see a call
            files = corpus._manifest["corpora"]["c"]["files"]
            part = Engine.from_mhxb(corpus.root / files[0]).document
            goddag.KyGoddag.build(part)
            exported = part["physical"].document
            MultihierarchicalDocument(
                part.text, [Hierarchy("physical", exported)])
            exported.root.clone()
        assert len(engines) == 1 and len(walks) == 1
        assert len(doms) == 1 and len(clones) > 4
        expected = oracle_strings(document,
                                  "/descendant::w[xfollowing::dmg]")
        assert first.items == second.items == expected and expected

    def test_fused_engine_is_the_unsharded_document(self, corpus,
                                                    document, tmp_path):
        """Byte for byte: the fused engine saves the file the uncut
        document saves."""
        corpus.cquery(FUSED)
        corpus._fused["c"].engine.save_mhxb(tmp_path / "fused.mhxb")
        Engine(document).save_mhxb(tmp_path / "uncut.mhxb")
        assert (tmp_path / "fused.mhxb").read_bytes() == \
            (tmp_path / "uncut.mhxb").read_bytes()


class TestShardVerification:
    """The cold-load policy covers shard files (DESIGN.md §12, §13): a
    flipped block is reported — naming shard and block — and the
    corpus quarantined, by every loader; it is never served."""

    RUNS = {
        "serial": lambda store: store.cquery(COUNT_C),
        "pooled": lambda store: store.cquery(COUNT_C, workers=2),
        "fused": lambda store: store.cquery(FUSED),
    }

    @pytest.fixture()
    def damaged(self, corpus, document, tmp_path):
        corpus.add_corpus("d", document, shards=2)
        # the low bit of the text's first byte: the file still loads,
        # and a query that does not read the text answers as before
        assert flip_block_byte(
            tmp_path / "catalog" / "c.shard0002.mhxb") == "text"
        return corpus

    @pytest.mark.parametrize("run", RUNS.values(), ids=RUNS)
    def test_flipped_block_quarantines_the_corpus(self, damaged, run,
                                                  tmp_path):
        with pytest.raises(StoreError) as caught:
            run(damaged)
        message = str(caught.value)
        assert "c.shard0002.mhxb" in message
        assert "block 'text'" in message and "quarantined" in message
        assert damaged.corpora == ["d"]
        assert damaged.quarantined["c"]["reason"].startswith(
            "shard c.shard0002.mhxb: ")
        assert damaged._shard_engines.keys() <= {"d.shard0000.mhxb",
                                                 "d.shard0001.mhxb"}
        assert "c" not in damaged._fused
        with pytest.raises(StoreError, match="is quarantined"):
            run(damaged)
        # nobody is wedged: the other corpus answers, pooled too
        for workers in (1, 2):
            assert damaged.cquery(COUNT_C.replace('"c"', '"d"'),
                                  workers=workers).items == ["600"]
        assert damaged.verify("c") == {
            "c": "quarantined: " + damaged.quarantined["c"]["reason"]}
        # the quarantine is in the manifest, with the shard files
        reopened = DocumentStore(tmp_path / "catalog")
        try:
            assert reopened.corpora == ["d"]
            assert len(reopened.quarantined["c"]["files"]) == 4
            reopened.remove("c")
            assert not list((tmp_path / "catalog").glob("c.shard*"))
        finally:
            reopened.close()

    @pytest.mark.parametrize("run", RUNS.values(), ids=RUNS)
    def test_without_the_policy_loads_behave_as_before(
            self, damaged, document, run, tmp_path):
        damaged.close()
        trusting = DocumentStore(tmp_path / "catalog",
                                 verify_cold_loads=False)
        try:
            oracle = ("/descendant::w[xfollowing::dmg]"
                      if run is self.RUNS["fused"]
                      else "count(/descendant::w)")
            expected = oracle_strings(document, oracle)
            if run is self.RUNS["fused"]:  # the flipped letter shows
                assert [len(item) for item in run(trusting).items] == \
                    [len(item) for item in expected]
            else:
                assert run(trusting).items == expected
            assert trusting.corpora == ["c", "d"]
            assert trusting.quarantined == {}
        finally:
            trusting.close()

    def test_verify_scans_corpora(self, damaged, document):
        damaged.add("doc", document)
        report = damaged.verify()
        assert list(report) == ["doc", "c", "d"]
        assert report["doc"].startswith("ok (")
        assert report["d"].startswith("ok (") \
            and report["d"].endswith(" blocks in 2 shards)")
        assert report["c"].startswith("corrupt: shard c.shard0002.mhxb: ")
        assert "block 'text'" in report["c"]
        assert damaged.verify("c") == {"c": report["c"]}
        assert damaged.verify("d") == {"d": report["d"]}
        # read-only: a scan quarantines nothing
        assert damaged.corpora == ["c", "d"]
        with pytest.raises(ReproError, match="no document named"):
            damaged.verify("nope")

    def test_cli_verify_lists_corpora(self, damaged, tmp_path, capsys):
        damaged.close()
        assert main(["store", "verify", str(tmp_path / "catalog")]) == 1
        out = capsys.readouterr().out
        assert "corrupt: shard c.shard0002.mhxb" in out
        assert "verified 2 catalog entries, 1 with problems" in out
        assert main(["store", "verify", str(tmp_path / "catalog"),
                     "d"]) == 0


class TestCli:
    def test_shard_and_cquery(self, tmp_path, capsys):
        root = str(tmp_path / "catalog")
        assert main(["store", "init", root]) == 0
        assert main(["store", "shard", root, "corp",
                     "--generate", "400", "--shards", "3"]) == 0
        out = capsys.readouterr().out
        assert "sharded 'corp' into" in out
        assert main(["store", "cquery", root,
                     'count(collection("corp")/descendant::w)',
                     "--workers", "2", "--stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "400"
        assert "mode=aggregate" in captured.err
        assert "workers=2" in captured.err

    def test_cquery_no_prune_and_fused(self, tmp_path, capsys):
        root = str(tmp_path / "catalog")
        main(["store", "init", root])
        main(["store", "shard", root, "corp", "--generate", "200"])
        capsys.readouterr()
        assert main(["store", "cquery", root,
                     'collection("corp")/descendant::w/following::w',
                     "--stats"]) == 0
        assert "mode=fused" in capsys.readouterr().err
        assert main(["store", "cquery", root,
                     'collection("corp")/descendant::nosuch',
                     "--no-prune", "--stats"]) == 0
        assert "pruned 0" in capsys.readouterr().err

    def test_shard_sample_document(self, tmp_path, capsys):
        root = str(tmp_path / "catalog")
        main(["store", "init", root])
        assert main(["store", "shard", root, "boe", "--sample",
                     "--shards", "2"]) == 0
        assert "sharded 'boe'" in capsys.readouterr().out

    def test_cquery_error_paths(self, tmp_path, capsys):
        root = str(tmp_path / "catalog")
        main(["store", "init", root])
        assert main(["store", "cquery", root,
                     'collection("nope")/descendant::w']) == 1
        assert "no corpus named" in capsys.readouterr().err

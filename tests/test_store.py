"""Tests for the concurrent document store (DESIGN.md §10).

Catalog lifecycle, MVCC snapshot semantics (old snapshots keep their
version; batches are all-or-nothing), the cross-document compiled-plan
cache, on-disk persistence across store reopens, and the ``mhxq
store`` CLI verbs.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.api import Engine
from repro.bench.workloads import corpus_at_size
from repro.cli import main
from repro.errors import GoddagError, ReproError
from repro.cmh import MultihierarchicalDocument
from repro.core.goddag.goddag import _ComponentBuilder, _HierarchyComponent
from repro.core.goddag.nodes import GElement
from repro.core.runtime import QueryOptions
from repro.corpus.boethius import boethius_document
from repro.markup import dom
from repro.store import DocumentStore, fork_engine


@pytest.fixture()
def store(tmp_path) -> DocumentStore:
    return DocumentStore.init(tmp_path / "catalog")


@pytest.fixture()
def seeded(store) -> DocumentStore:
    store.add("boe", boethius_document(validate=False))
    return store


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCatalog:
    def test_init_refuses_to_clobber(self, tmp_path):
        DocumentStore.init(tmp_path / "cat")
        with pytest.raises(ReproError, match="already holds"):
            DocumentStore.init(tmp_path / "cat")

    def test_open_requires_manifest(self, tmp_path):
        with pytest.raises(ReproError, match="store init"):
            DocumentStore(tmp_path / "nowhere")

    def test_add_and_query(self, seeded):
        assert "boe" in seeded
        assert seeded.names == ["boe"]
        assert seeded.query(
            "boe", "count(/descendant::w)").serialize() == "6"

    def test_add_validates_names(self, store):
        with pytest.raises(ReproError, match="invalid document name"):
            store.add("../escape", boethius_document(validate=False))

    def test_add_rejects_duplicates(self, seeded):
        with pytest.raises(ReproError, match="already exists"):
            seeded.add("boe", boethius_document(validate=False))

    def test_add_clones_the_caller_document(self, store):
        document = boethius_document(validate=False)
        store.add("boe", document)
        # mutating the caller's document cannot reach the store
        document.text = "clobbered"
        assert store.query(
            "boe", "count(/descendant::w)").serialize() == "6"

    def test_add_from_engine_and_path(self, store, tmp_path):
        engine = Engine(boethius_document(validate=False))
        engine.update('rename node /descendant::w[1] as "word"')
        store.add("from-engine", engine=engine)
        assert store.query(
            "from-engine", "count(//word)").serialize() == "1"
        # the source engine stays mutable (the store forked it)
        engine.update('rename node /descendant::word[1] as "w"')

        mhx = tmp_path / "doc.mhx"
        engine.save_mhx(mhx)
        store.add("from-mhx", path=mhx)
        mhxb = tmp_path / "doc.mhxb"
        engine.save_mhxb(mhxb)
        store.add("from-mhxb", path=mhxb)
        for name in ("from-mhx", "from-mhxb"):
            assert store.query(
                name, "count(/descendant::w)").serialize() == "6"

    def test_remove(self, seeded):
        seeded.remove("boe")
        assert "boe" not in seeded
        with pytest.raises(ReproError, match="no document"):
            seeded.snapshot("boe")
        with pytest.raises(ReproError, match="no document"):
            seeded.remove("boe")


class TestSnapshots:
    def test_snapshot_pins_its_version(self, seeded):
        old = seeded.snapshot("boe")
        seeded.update("boe",
                      'rename node /descendant::w[1] as "word"')
        new = seeded.snapshot("boe")
        assert new.version > old.version
        assert old.query("count(//word)").serialize() == "0"
        assert new.query("count(//word)").serialize() == "1"
        # the old snapshot is stable under repeated reads
        assert old.query("count(//word)").serialize() == "0"

    def test_snapshot_engines_are_frozen(self, seeded):
        snapshot = seeded.snapshot("boe")
        with pytest.raises(GoddagError, match="frozen snapshot"):
            snapshot.engine.update(
                'rename node /descendant::w[1] as "x"')

    def test_batch_is_all_or_nothing(self, seeded):
        seeded.update("boe", 'rename node /descendant::w[1] as "word"')
        version = seeded.snapshot("boe").version
        with pytest.raises(ReproError):
            seeded.update("boe", [
                'rename node /descendant::word[1] as "gone"',
                # one statement with two conflicting renames: rejected
                'rename node /descendant::w[1] as "a", '
                'rename node /descendant::w[1] as "b"',
            ])
        snapshot = seeded.snapshot("boe")
        assert snapshot.version == version
        assert seeded.query("boe", "count(//word)").serialize() == "1"
        assert seeded.query("boe", "count(//gone)").serialize() == "0"
        snapshot.engine.goddag.check_invariants()

    def test_batch_statements_compose_sequentially(self, seeded):
        results = seeded.update("boe", [
            'rename node /descendant::w[1] as "word"',
            'insert node <note>n</note> after /descendant::word[1]',
        ])
        assert len(results) == 2
        assert seeded.query("boe", "//note/string(.)").serialize() == "n"

    def test_empty_batch_rejected(self, seeded):
        with pytest.raises(ReproError, match="at least one"):
            seeded.update("boe", [])

    def test_analyze_string_on_snapshot(self, seeded):
        snapshot = seeded.snapshot("boe")
        expected = Engine(boethius_document(validate=False)).query(
            'analyze-string(/, "si")').serialize()
        assert snapshot.query(
            'analyze-string(/, "si")').serialize() == expected
        snapshot.engine.goddag.check_invariants()

    def test_snapshot_explain(self, seeded):
        report = seeded.snapshot("boe").explain("count(//w)")
        assert "plan:" in report


class TestPlanCache:
    def test_plans_shared_across_documents(self, seeded):
        seeded.add("boe2", boethius_document(validate=False))
        query = "count(/descendant::w[xfollowing::cb])"
        first = seeded.query("boe", query)
        second = seeded.query("boe2", query)
        assert first.stats.plan_cache_hit is False
        assert second.stats.plan_cache_hit is True
        assert first.serialize() == second.serialize()
        assert seeded.plans.hits >= 1
        assert seeded.plans.misses >= 1

    def test_plans_survive_updates(self, seeded):
        query = "count(/descendant::w)"
        seeded.query("boe", query)
        # an update that leaves the statistics fingerprint unchanged
        # (renaming a name that matches nothing) keeps hitting the
        # shared cache across snapshots
        seeded.update("boe", 'rename node /descendant::cb[1] as "cbx"')
        assert seeded.query("boe", query).stats.plan_cache_hit is True

    def test_cardinality_shift_orphans_plans(self, seeded):
        query = "count(/descendant::w)"
        seeded.query("boe", query)
        # a cardinality-shifting update changes the stats fingerprint,
        # so the stale costed plan is never served again (DESIGN.md
        # §16) — the recompile misses, then the new plan is reused
        seeded.update("boe", 'rename node /descendant::dmg[1] as "gap"')
        assert seeded.query("boe", query).stats.plan_cache_hit is False
        assert seeded.query("boe", query).stats.plan_cache_hit is True

    def test_cache_eviction(self, seeded):
        seeded.plans.capacity = 2
        for index in range(4):
            seeded.query("boe", f"count(/descendant::w) + {index}")
        assert len(seeded.plans) <= 2


class TestPersistence:
    def test_reopen_restores_catalog_and_versions(self, tmp_path):
        root = tmp_path / "catalog"
        store = DocumentStore.init(root)
        store.add("boe", boethius_document(validate=False))
        store.update("boe", 'rename node /descendant::w[1] as "word"')
        version = store.snapshot("boe").version

        reopened = DocumentStore(root)
        assert reopened.names == ["boe"]
        snapshot = reopened.snapshot("boe")
        assert snapshot.version == version
        assert reopened.query("boe", "count(//word)").serialize() == "1"
        snapshot.engine.goddag.check_invariants()

    def test_unpersisted_updates_stay_in_memory_until_compact(
            self, tmp_path):
        root = tmp_path / "catalog"
        store = DocumentStore.init(root)
        store.add("boe", boethius_document(validate=False))
        store.update("boe", 'rename node /descendant::w[1] as "word"',
                     persist=False)
        assert store.query("boe", "count(//word)").serialize() == "1"
        # a second store (fresh process, say) sees the old version
        assert DocumentStore(root).query(
            "boe", "count(//word)").serialize() == "0"
        store.compact("boe")
        assert DocumentStore(root).query(
            "boe", "count(//word)").serialize() == "1"

    def test_compact_is_idempotent_and_byte_stable(self, tmp_path):
        root = tmp_path / "catalog"
        store = DocumentStore.init(root)
        store.add("boe", boethius_document(validate=False))
        store.update("boe", 'rename node /descendant::w[1] as "word"')
        path = root / "boe.mhxb"
        first = path.read_bytes()
        store.compact()
        assert path.read_bytes() == first

    def test_fork_engine_carries_options_and_use_cost(self, store):
        """``use_cost`` used to be dropped: ``add(engine=...)`` of an
        uncosted engine silently published a costed one."""
        options = QueryOptions(cost_fallback_factor=3.0)
        engine = Engine(boethius_document(validate=False),
                        options=options, use_cost=False)
        fork = fork_engine(engine)
        assert (fork.options, fork.use_cost) == (options, False)
        store.add("uncosted", engine=engine)
        published = store.snapshot("uncosted").engine
        assert (published.options, published.use_cost) == (options, False)

    def test_fork_engine_preserves_version_and_results(self):
        engine = Engine(boethius_document(validate=False))
        engine.update('rename node /descendant::w[1] as "word"')
        fork = fork_engine(engine)
        assert fork.version == engine.version
        assert fork.query("count(//word)").serialize() == "1"
        fork.update('rename node /descendant::word[1] as "w"')
        # the original is untouched by mutations of the fork
        assert engine.query("count(//word)").serialize() == "1"


class TestUntouchedHierarchiesUntouched:
    """The deterministic stand-in for ``store-write/heavy_ms``: what one
    ``DocumentStore.update`` builds at n=800, counted by wrapping.  An
    ``add markup`` changes one hierarchy, so one hierarchy's DOM and one
    component are built and nothing is cloned or re-sorted; a text
    change shifts every span and is the control."""

    @pytest.fixture()
    def stored(self, tmp_path):
        store = DocumentStore.init(tmp_path / "catalog")
        store.add("doc", corpus_at_size(800))
        store.close()  # reopen: the published engine is a cold load
        store = DocumentStore(tmp_path / "catalog")
        yield store
        store.close()

    @staticmethod
    def free_word(goddag) -> int:
        """1-based index of a word no ``<dmg>`` touches."""
        damage = [(node.start, node.end)
                  for node in goddag.elements("dmg")]
        return next(
            index for index, word in enumerate(goddag.elements("w"), 1)
            if all(end <= word.start or word.end <= start
                   for start, end in damage))

    @staticmethod
    def counted(store, statement):
        """``(DOMs built, elements created, components built, clones)``
        of one update."""
        elements, doms, components, clones = [], [], [], []

        def wrapping(target, attribute, seen, key):
            original = getattr(target, attribute)

            def wrapper(self, *args, **kwargs):
                seen.append(key(self))
                return original(self, *args, **kwargs)

            return mock.patch.object(target, attribute, wrapper)

        with wrapping(dom.Element, "__init__", elements, id), \
                wrapping(_HierarchyComponent, "build_dom", doms,
                         lambda component: component.name), \
                wrapping(_ComponentBuilder, "build_from_dom", components,
                         lambda builder: builder.name), \
                wrapping(dom.Document, "clone", clones, id), \
                wrapping(MultihierarchicalDocument, "clone", clones, id):
            store.update("doc", statement)
        return doms, len(elements), components, clones

    def test_add_markup_builds_one_hierarchy(self, stored):
        before = stored.snapshot("doc").engine
        word = self.free_word(before.goddag)
        in_damage = sum(isinstance(node, GElement)
                        for node in before.goddag.nodes_of("damage"))
        doms, elements, components, clones = self.counted(
            stored, f'add markup mark to "damage" covering '
                    f'(/descendant::w)[{word}]')
        assert doms == ["damage"] and components == ["damage"]
        # the hierarchy's elements, its root element, the new wrapper
        assert elements == in_damage + 2
        assert not clones
        after = stored.snapshot("doc").engine
        assert after.goddag.index_full_builds == 0
        assert before._document is None  # the source built no DOM
        assert [name for name, hierarchy
                in after.document.hierarchies.items()
                if hierarchy.materialized] == ["damage"]
        assert after.query("count(//mark)").serialize() == "1"
        # untouched hierarchies still share the published arrays
        for name in ("structural", "physical", "restoration"):
            assert np.shares_memory(
                after.goddag._components[name].starts,
                before.goddag._components[name].starts)
        assert not np.shares_memory(
            after.goddag._components["damage"].starts,
            before.goddag._components["damage"].starts)

    def test_rename_builds_nothing(self, stored):
        doms, elements, components, clones = self.counted(
            stored, 'rename node (/descendant::w)[3] as "word"')
        assert (doms, elements, components, clones) == ([], 0, [], [])
        after = stored.snapshot("doc").engine
        assert after.goddag.index_full_builds == 0
        assert after.query("count(//word)").serialize() == "1"
        assert after.document.hierarchies["structural"].to_xml().count(
            "<word>") == 1

    def test_failed_statement_discards_a_collectable_fork(self, stored):
        """The fork of a rejected batch is retired like an unpublished
        version: nothing (no object-array cache) keeps it alive."""
        import gc
        import weakref

        from repro.errors import UpdateError
        from repro.store import catalog

        forks = []

        def recording(engine):
            fork = fork_engine(engine)
            forks.append(weakref.ref(fork.goddag))
            return fork

        published = stored.snapshot("doc")
        with mock.patch.object(catalog, "fork_engine", recording), \
                pytest.raises(UpdateError):
            stored.update("doc", [
                'rename node (/descendant::w)[3] as "word"',
                'rename node (/descendant::w)[1] as "x", '
                'rename node (/descendant::w)[1] as "y"'])
        assert stored.snapshot("doc") is published
        gc.collect()
        assert len(forks) == 1 and forks[0]() is None
        assert published.query("count(//word)").serialize() == "0"

    def test_text_change_rebuilds_every_hierarchy(self, stored):
        names = stored.snapshot("doc").engine.goddag.hierarchy_names
        doms, _elements, components, clones = self.counted(
            stored, 'replace value of node (/descendant::w)[3] '
                    'with "eac"')
        assert sorted(doms) == sorted(components) == sorted(names)
        assert not clones
        after = stored.snapshot("doc").engine
        assert after.goddag.index_full_builds == 0
        assert after.query("string((/descendant::w)[3])").serialize() \
            == "eac"


class TestStoreCli:
    def test_full_cli_lifecycle(self, capsys, tmp_path):
        root = str(tmp_path / "catalog")
        code, out, _ = run_cli(capsys, "store", "init", root)
        assert code == 0 and "initialized" in out
        code, out, _ = run_cli(capsys, "store", "add", root, "boe",
                               "--sample")
        assert code == 0 and "version 4" in out
        code, out, _ = run_cli(capsys, "store", "query", root, "boe",
                               "count(/descendant::w)")
        assert code == 0 and out.strip() == "6"
        code, out, _ = run_cli(
            capsys, "store", "update", root, "boe",
            'rename node /descendant::w[1] as "word"')
        assert code == 0 and "applied 1 primitives" in out
        code, out, _ = run_cli(capsys, "store", "query", root, "boe",
                               "count(//word)")
        assert out.strip() == "1"
        code, out, _ = run_cli(capsys, "store", "get", root)
        assert code == 0 and "boe" in out
        code, out, _ = run_cli(capsys, "store", "get", root, "boe")
        assert "version 5" in out and "hierarchies" in out
        export = str(tmp_path / "export.mhxb")
        code, out, _ = run_cli(capsys, "store", "get", root, "boe",
                               "--out", export)
        assert code == 0
        assert Engine.from_mhxb(export).query(
            "count(//word)").serialize() == "1"
        code, out, _ = run_cli(capsys, "store", "compact", root)
        assert code == 0 and "compacted" in out

    def test_cli_errors_are_clean(self, capsys, tmp_path):
        root = str(tmp_path / "catalog")
        code, _, err = run_cli(capsys, "store", "query", root, "x", "1")
        assert code == 1 and "store init" in err
        run_cli(capsys, "store", "init", root)
        code, _, err = run_cli(capsys, "store", "query", root, "x", "1")
        assert code == 1 and "no document" in err
        code, _, err = run_cli(capsys, "store", "add", root, "x")
        assert code == 1 and "--mhx FILE, --sample, or --streaming" in err

    def test_pack_mhxb_and_query_it(self, capsys, tmp_path,
                                    base_text, encodings):
        text_file = tmp_path / "base.txt"
        text_file.write_text(base_text, encoding="utf-8")
        sources = []
        for name, xml in encodings.items():
            xml_file = tmp_path / f"{name}.xml"
            xml_file.write_text(xml, encoding="utf-8")
            sources.append(f"{name}={xml_file}")
        packed = str(tmp_path / "packed.mhxb")
        code, out, _ = run_cli(capsys, "pack", packed, "--text",
                               str(text_file), *sources)
        assert code == 0 and "binary .mhxb" in out
        code, out, _ = run_cli(capsys, "query", "--mhx", packed,
                               "count(/descendant::w)")
        assert code == 0 and out.strip() == "6"

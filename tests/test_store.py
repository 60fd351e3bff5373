"""Tests for the concurrent document store (DESIGN.md §10).

Catalog lifecycle, MVCC snapshot semantics (old snapshots keep their
version; batches are all-or-nothing), the cross-document compiled-plan
cache, on-disk persistence across store reopens, and the ``mhxq
store`` CLI verbs.
"""

from __future__ import annotations

import gc
import threading
import weakref
from unittest import mock

import numpy as np
import pytest

from repro.api import Engine
from repro.bench.workloads import corpus_at_size
from repro.cli import main
from repro.errors import GoddagError, ReproError, UpdateError
from repro.cmh import MultihierarchicalDocument
from repro.core.goddag import invariants
from repro.core.goddag.goddag import _ComponentWriter, _HierarchyComponent
from repro.core.goddag.nodes import GLeaf
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


def wrapping(target, attribute, seen, key):
    """Patch ``target.attribute`` to record ``key(self)`` per call."""
    original = getattr(target, attribute)

    def wrapper(self, *args, **kwargs):
        seen.append(key(self))
        return original(self, *args, **kwargs)

    return mock.patch.object(target, attribute, wrapper)


UNTOUCHED = ("structural", "physical", "restoration")
EVERY = ["structural", "physical", "damage", "restoration"]


class TestUntouchedHierarchiesUntouched:
    """The deterministic stand-in for ``store-write/heavy_ms``: what one
    ``DocumentStore.update`` builds at n=800, counted by wrapping.  An
    ``add markup`` changes one hierarchy, so one component is built —
    by row edits, with no DOM and no row writer — one hierarchy's nodes
    are created and walked by the net, and nothing is cloned, re-sorted
    or copied per node; a text change shifts every span and is the
    control."""

    @pytest.fixture()
    def stored(self, tmp_path):
        store = DocumentStore.init(tmp_path / "catalog")
        store.add("doc", corpus_at_size(800))
        store.close()  # reopen: the published engine is a cold load
        store = DocumentStore(tmp_path / "catalog")
        yield store
        store.close()

    @staticmethod
    def free_words(goddag) -> list[int]:
        """1-based indices of the words no ``<dmg>`` touches."""
        damage = [(node.start, node.end)
                  for node in goddag.elements("dmg")]
        return [
            index for index, word in enumerate(goddag.elements("w"), 1)
            if all(end <= word.start or word.end <= start
                   for start, end in damage)]

    @classmethod
    def free_word(cls, goddag) -> int:
        return cls.free_words(goddag)[0]

    @classmethod
    def churn(cls, goddag, steps: int) -> list[str]:
        """Alternating commits that hand components from version to
        version: a mark on a free word from the front, a rename of the
        last ``w`` (so no earlier index moves)."""
        free = cls.free_words(goddag)
        return ['rename node (/descendant::w)[last()] as "word"'
                if step % 2 else
                f'add markup mark to "damage" covering '
                f'(/descendant::w)[{free[step]}]'
                for step in range(steps)]

    @staticmethod
    def counted(store, statement):
        """``(DOMs built, elements created, components built, clones)``
        of one update."""
        elements, doms, components, clones = [], [], [], []
        with wrapping(dom.Element, "__init__", elements, id), \
                wrapping(_HierarchyComponent, "build_dom", doms,
                         lambda component: component.name), \
                wrapping(_ComponentWriter, "finish", components,
                         lambda writer: writer.name), \
                wrapping(dom.Document, "clone", clones, id), \
                wrapping(MultihierarchicalDocument, "clone", clones, id):
            store.update("doc", statement)
        return doms, len(elements), components, clones

    def test_add_markup_builds_one_hierarchy(self, stored):
        before = stored.snapshot("doc").engine
        word = self.free_word(before.goddag)
        doms, elements, components, clones = self.counted(
            stored, f'add markup mark to "damage" covering '
                    f'(/descendant::w)[{word}]')
        # one hierarchy is rebuilt, as rows: no DOM, no row writer
        assert doms == [] and components == []
        assert elements == 0
        assert not clones
        after = stored.snapshot("doc").engine
        assert after.goddag.changed_components(
            before.goddag.components()) == ["damage"]
        assert after.goddag.index_full_builds == 0
        assert before._document is None  # the source built no DOM
        assert [name for name, hierarchy
                in after.document.hierarchies.items()
                if hierarchy.materialized] == []
        assert after.query("count(//mark)").serialize() == "1"
        # untouched hierarchies still share the published arrays
        for name in UNTOUCHED:
            assert np.shares_memory(
                after.goddag._components[name].starts,
                before.goddag._components[name].starts)
        assert not np.shares_memory(
            after.goddag._components["damage"].starts,
            before.goddag._components["damage"].starts)

    #: one statement per primitive kind (``{free}``: a word no ``<dmg>``
    #: touches), and the hierarchies each one rebuilds
    PRIMITIVES = {
        "rename": ('rename node (/descendant::w)[1] as "word"', []),
        "add markup": ('add markup mark to "damage" covering '
                       '(/descendant::w)[{free}]', ["damage"]),
        "remove markup": ("remove markup (/descendant::dmg)[1]",
                          ["damage"]),
        "replace value of": ('replace value of node (/descendant::w)[3] '
                             'with "eac"', EVERY),
        "delete": ("delete node (/descendant::w)[2]", EVERY),
        "insert": ("insert node <w>eac</w> after (/descendant::w)[4]",
                   EVERY),
    }

    @pytest.mark.parametrize("kind", list(PRIMITIVES))
    def test_no_dom_on_the_write_path(self, stored, kind):
        """Every primitive kind, committed on a cold snapshot: no DOM
        built or walked, no hierarchy materialized, no DOM element but
        what the statement constructs, and the row writer only for an
        ``insert``'s fragment."""
        from repro.core.goddag import goddag as goddag_module
        from repro.core.update import compile_update

        template, rebuilt = self.PRIMITIVES[kind]
        before = stored.snapshot("doc").engine
        statement = template.format(free=self.free_word(before.goddag))
        constructed = []  # what evaluating the statement alone makes
        with wrapping(dom.Element, "__init__", constructed, id):
            compile_update(statement).pending(fork_engine(before).goddag)
        walks = []
        with mock.patch.object(
                goddag_module, "dom_component",
                lambda *args, walk=goddag_module.dom_component:
                (walks.append(1), walk(*args))[1]):
            doms, elements, components, clones = self.counted(
                stored, statement)
        assert doms == [] and walks == [] and not clones
        assert elements == len(constructed)
        assert components == (["structural"] if kind == "insert" else [])
        after = stored.snapshot("doc").engine
        assert before._document is None and after._document is None
        assert not any(hierarchy.materialized for hierarchy
                       in after.document.hierarchies.values())
        assert after.goddag.changed_components(
            before.goddag.components()) == (
                ["structural"] if kind == "rename" else rebuilt)
        after.goddag.check_invariants()

    def test_add_markup_attaches_and_walks_one_hierarchy(self, stored):
        """One ``attach`` (the cold load happened before), no leaf made
        by the net, one hierarchy walked by it; the rest of the new
        version *is* the old one, object for object."""
        before = stored.snapshot("doc").engine
        before.query("/descendant::line/following::w")  # fills caches
        word = self.free_word(before.goddag)
        attached, walked, nets, leaves_in_net = [], [], [], []
        check = invariants.check_invariants
        leaf_init = GLeaf.__init__

        def net(goddag, components=None):
            nets.append(components)
            with mock.patch.object(
                    GLeaf, "__init__",
                    lambda self, *args: (leaves_in_net.append(1),
                                         leaf_init(self, *args))[1]):
                check(goddag, components)

        with wrapping(_HierarchyComponent, "attach", attached,
                      lambda component: component.name), \
                mock.patch.object(invariants, "check_invariants", net), \
                mock.patch.object(
                    invariants, "_check_rows",
                    lambda goddag, component, rows=invariants._check_rows:
                    (walked.append(component.name),
                     rows(goddag, component))[1]):
            stored.update("doc", f'add markup mark to "damage" covering '
                                 f'(/descendant::w)[{word}]')
        assert attached == ["damage"]
        assert nets == [["damage"]] and walked == ["damage"]
        assert not leaves_in_net
        after = stored.snapshot("doc").engine
        for name in UNTOUCHED:
            old = before.goddag._components[name]
            new = after.goddag._components[name]
            assert new is old
            assert all(a is b for a, b in zip(
                after.goddag.nodes_of(name), before.goddag.nodes_of(name)))
            assert new._nodes_arr is old._nodes_arr is not None
            assert new._name_index is old._name_index
        assert "line" in before.goddag._components["physical"]._name_index
        assert after.goddag._components["damage"] \
            is not before.goddag._components["damage"]
        after.goddag.check_invariants()
        before.goddag.check_invariants()

    def test_commit_keeps_the_statistics_it_stamped(self, stored):
        """The first costed query after a commit collects nothing: the
        engine holds the block its save put in the header, and that is
        what a collection off the live index would have said."""
        from repro.core.goddag import stats

        word = self.free_word(stored.snapshot("doc").engine.goddag)
        stored.update("doc", f'add markup mark to "damage" covering '
                             f'(/descendant::w)[{word}]')
        engine = stored.snapshot("doc").engine
        with mock.patch.object(stats, "collect_plan_stats",
                               side_effect=AssertionError("collected")):
            assert stored.query("doc", "count(//mark)").serialize() == "1"
            held = engine.plan_stats()
        assert held.version == engine.version
        assert held.payload() == stats.collect_plan_stats(
            engine.goddag).payload()

    def test_fork_attaches_nothing(self, stored):
        """A fork makes no node and no leaf, and hands over every leaf
        made before it (leaves are made on first use: the cold load
        made none)."""
        engine = stored.snapshot("doc").engine
        made = engine.goddag.leaves()
        attached, leaves = [], []
        with wrapping(_HierarchyComponent, "attach", attached, id), \
                wrapping(GLeaf, "__init__", leaves, id):
            fork = fork_engine(engine)
        assert not attached and not leaves
        assert fork.goddag.root is not engine.goddag.root
        assert all(a is b for a, b in zip(fork.goddag.leaves(), made))
        assert len(fork.goddag.leaves()) == len(made)
        fork.goddag.check_invariants()

    def test_rename_takes_one_private_hierarchy(self, stored):
        """A rename writes nothing another version holds: it attaches a
        private copy of its one hierarchy, and the published version's
        node and name columns stay as they were."""
        published = stored.snapshot("doc")
        before = published.engine.goddag
        target = before.nodes_of("structural")[
            before.elements("w").__next__().preorder]
        component = before._components["structural"]
        index = before.span_index()
        name_ids = component.name_ids.copy()
        names, e_names = index._names.copy(), index._e_names.copy()
        attached = []
        with wrapping(_HierarchyComponent, "attach", attached,
                      lambda component: component.name):
            stored.update("doc", 'rename node (/descendant::w)[1] as "word"')
        assert attached == ["structural"]
        after = stored.snapshot("doc").engine.goddag
        assert target.name == "w"
        assert before._components["structural"] is component
        assert np.array_equal(component.name_ids, name_ids)
        assert index._names.tolist() == names.tolist()
        assert index._e_names.tolist() == e_names.tolist()
        twin = after.nodes_of("structural")[target.preorder]
        assert twin is not target and twin.name == "word"
        for name in ("physical", "damage", "restoration"):
            assert after._components[name] is before._components[name]
        assert published.query("count(//word)").serialize() == "0"
        assert stored.query("doc", "count(//word)").serialize() == "1"
        assert stored.query(
            "doc", "count(/descendant::word/xancestor::line)"
        ).serialize() == published.query(
            "count((/descendant::w)[1]/xancestor::line)").serialize()
        before.check_invariants()
        after.check_invariants()

    def test_top_level_nodes_reach_their_own_versions_root(self, stored):
        """Top-level nodes are shared between versions and store no
        parent: every upward or sideways step from one lands on the
        root of the version that was asked."""
        old = stored.snapshot("doc")
        word = self.free_word(old.engine.goddag)
        stored.update("doc", f'add markup mark to "damage" covering '
                             f'(/descendant::w)[{word}]')
        new = stored.snapshot("doc")
        shared = old.engine.goddag.root.children_in("physical")
        assert new.engine.goddag.root.children_in("physical") is shared
        assert old.engine.goddag.root is not new.engine.goddag.root
        for snapshot in (old, new):
            goddag = snapshot.engine.goddag
            for query in ("/child::*[1]/parent::node()",
                          "(/child::*[1]/ancestor::node())[1]",
                          "/child::line[2]/ancestor-or-self::node()[last()]",
                          "/child::line[2]/preceding-sibling::*[1]/.."):
                assert snapshot.query(query).items == [goddag.root], query
            assert all(goddag.parent_of(node) is goddag.root
                       for node in shared)
            siblings = snapshot.query(
                "/child::line[2]/following-sibling::line").items
            assert siblings == shared[2:]

    def test_pinned_reader_outlives_fifty_collected_versions(self, stored):
        """No retire call anywhere: a version shell nobody holds goes
        with its last reference — the cycle collector is off here — and
        a reader that holds version 0 keeps the whole of version 0."""
        pinned = stored.snapshot("doc")
        words = pinned.query("count(/descendant::w)").serialize()
        lines = pinned.query("/descendant::line/string(.)").serialize()
        shells = []
        gc.disable()
        try:
            for statement in self.churn(pinned.engine.goddag, 50):
                stored.update("doc", statement, persist=False)
                shells.append(
                    weakref.ref(stored.snapshot("doc").engine.goddag))
            freed = [shell() is None for shell in shells]
        finally:
            gc.enable()
        assert freed == [True] * 49 + [False]
        assert stored.query("doc", "count(//mark)").serialize() == "25"
        assert stored.query("doc", "count(//word)").serialize() == "25"
        assert pinned.version == 4
        assert pinned.query("count(//mark | //word)").serialize() == "0"
        assert pinned.query("count(/descendant::w)").serialize() == words
        assert pinned.query(
            "/descendant::line/string(.)").serialize() == lines
        pinned.engine.goddag.check_invariants()
        stored.snapshot("doc").engine.goddag.check_invariants()

    def test_readers_answer_from_the_version_they_pinned(self, stored):
        """Four readers during 20 commits that hand components from
        version to version: whatever a reader pinned answers as the
        single-threaded replay of that version did."""
        probes = ["count(//mark)", "count(//word)",
                  "count(/descendant::w/xancestor::line)",
                  "string((/descendant::line)[3]/preceding-sibling::*[1])"]
        statements = self.churn(stored.snapshot("doc").engine.goddag, 20)

        def answers(snapshot):
            return [snapshot.query(probe).serialize() for probe in probes]

        stored.add("replay", corpus_at_size(800))
        expected = {stored.snapshot("replay").version:
                    answers(stored.snapshot("replay"))}
        for statement in statements:
            stored.update("replay", statement, persist=False)
            expected[stored.snapshot("replay").version] = answers(
                stored.snapshot("replay"))
        assert len(expected) == 21

        done = threading.Event()
        errors, seen = [], set()

        def reader() -> None:
            try:
                while True:
                    finished = done.is_set()
                    snapshot = stored.snapshot("doc")
                    first = answers(snapshot)
                    if first != expected[snapshot.version] \
                            or answers(snapshot) != first:
                        errors.append(f"torn read at v{snapshot.version}")
                        return
                    seen.add(snapshot.version)
                    if finished:
                        return
            except Exception as error:  # pragma: no cover - fail loud
                errors.append(repr(error))

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            for statement in statements:
                stored.update("doc", statement, persist=False)
        finally:
            done.set()
            for thread in readers:
                thread.join(timeout=120)
        assert not errors, errors
        assert not any(thread.is_alive() for thread in readers)
        assert max(seen) == max(expected)

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
        """The fork of a rejected batch goes like an unpublished
        version: nothing keeps it alive."""
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
        before = stored.snapshot("doc").engine.goddag
        doms, _elements, components, clones = self.counted(
            stored, 'replace value of node (/descendant::w)[3] '
                    'with "eac"')
        assert doms == components == []  # rows, not DOMs
        assert not clones
        after = stored.snapshot("doc").engine
        assert after.goddag.changed_components(before.components()) \
            == before.hierarchy_names
        assert after.goddag.index_full_builds == 0
        assert after.query("string((/descendant::w)[3])").serialize() \
            == "eac"


class TestCommitTimeNet:
    """One net per transaction, over what the transaction rebuilt —
    and still a net: whatever is wrong anywhere in the structure, the
    scoped net raises where the whole net does (DESIGN.md §9)."""

    @pytest.fixture()
    def stored(self, tmp_path):
        store = DocumentStore.init(tmp_path / "catalog")
        store.add("doc", corpus_at_size(800))
        yield store
        store.close()

    BATCH = ['rename node (/descendant::w)[2] as "word"',
             'add markup mark to "restoration" covering '
             '(/descendant::line)[1]',
             'rename node (/descendant::line)[3] as "row"']

    def test_three_statements_one_net_over_their_union(self, stored):
        nets = []
        check = invariants.check_invariants

        def net(goddag, components=None):
            nets.append(components)
            check(goddag, components)

        with mock.patch.object(invariants, "check_invariants", net):
            stored.update("doc", self.BATCH)
        assert len(nets) == 1
        assert sorted(nets[0]) == ["physical", "restoration", "structural"]
        with mock.patch.object(invariants, "check_invariants", net):
            stored.update("doc", self.BATCH[1], check=False)
        assert len(nets) == 1

    def test_violation_discards_the_fork_before_anything_lands(
            self, stored):
        """A builder fault: the net raises once, before persist; the
        published version and the file stay as they were."""
        from repro.core.update import apply

        published = stored.snapshot("doc")
        path = stored.root / "doc.mhxb"
        image = path.read_bytes()
        finish = apply._Rows.finish

        def faulty(rows, length):
            component = finish(rows, length)
            component.subtree_ends[1] += 1  # one row lies
            return component

        forks = []

        def recording(engine):
            working = fork_engine(engine)
            forks.append(weakref.ref(working.goddag))
            return working

        from repro.store import catalog
        with mock.patch.object(apply._Rows, "finish", faulty), \
                mock.patch.object(catalog, "fork_engine", recording), \
                pytest.raises(GoddagError, match="invariant violation"):
            stored.update("doc", self.BATCH)
        assert stored.snapshot("doc") is published
        assert path.read_bytes() == image
        gc.collect()  # the traceback held the update's frame
        assert len(forks) == 1 and forks[0]() is None
        published.engine.goddag.check_invariants()
        assert published.query("count(//mark | //word)").serialize() == "0"
        stored.update("doc", self.BATCH)  # the same batch, no fault
        assert stored.query("doc", "count(//mark)").serialize() == "1"

    @staticmethod
    def both_nets_raise(goddag, scope, match: str) -> None:
        with pytest.raises(GoddagError, match=match):
            goddag.check_invariants()
        with pytest.raises(GoddagError, match=match):
            goddag.check_invariants(scope)

    def test_both_nets_catch_what_only_one_walks(self, stored):
        """Corrupt, in turn, a row of the replaced component, a
        partition refcount, and a span-index entry of a hierarchy the
        update never touched; then restore it."""
        source = stored.snapshot("doc").engine
        fork = fork_engine(source)
        fork.update(self.BATCH[1], check=False)
        goddag = fork.goddag
        scope = goddag.changed_components(source.goddag.components())
        assert scope == ["restoration"]
        goddag.check_invariants()
        goddag.check_invariants(scope)

        node = goddag.nodes_of("restoration")[3]
        node.end += 1
        self.both_nets_raise(goddag, scope, "row 3")
        node.end -= 1

        offset = int(goddag._components["physical"].starts[5])
        # the update merged its swap into the published engine's two
        # arrays; the first per-offset splice turns them into a counter
        partition = goddag.partition
        held = offsets, counts = partition._restored
        bumped = counts.copy()
        bumped[np.searchsorted(offsets, offset)] += 1
        partition._restored = offsets, bumped
        self.both_nets_raise(goddag, scope, "refcounts")
        partition._restored = held
        refcounts = partition._counts()
        refcounts[offset] += 1
        self.both_nets_raise(goddag, scope, "refcounts")
        refcounts[offset] -= 1

        index = goddag.span_index()
        rank = goddag.hierarchy_rank("physical")
        entry = int(np.flatnonzero(index.ranks == rank)[7])
        assert goddag._components["physical"] \
            is source.goddag._components["physical"]
        kept = index.nodes[entry]
        index.nodes[entry] = goddag.nodes_of("physical")[0]
        self.both_nets_raise(goddag, scope, "span index start-side")
        index.nodes[entry] = kept
        goddag.check_invariants()
        goddag.check_invariants(scope)
        source.goddag.check_invariants()


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
        assert code == 1 and "--mhx FILE, --sample, or --text FILE" in err

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

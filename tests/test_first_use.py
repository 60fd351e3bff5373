"""Node objects are a fill-once cache over the columns (DESIGN.md §10).

A hierarchy mapped from a ``.mhxb`` file attaches its nodes the first
time somebody asks for them; the leaf list and the span index's node
columns fill the same way, once, under their owner's lock.  A hierarchy
the row writer just built attaches at registration, from the writer's
own lists.  Here: what a cold load, a first query, a fork, a save, a
compact and an ingest make, counted by wrapping (as
``tests/test_mhxb.py::TestRoundTrip::
test_cold_load_maps_once_and_builds_nothing`` does); eight racing first
readers of one cold snapshot; and a differential of lazily loaded
snapshots against eager engines and the tree-walker.
"""

from __future__ import annotations

import mmap
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine
from repro.bench.workloads import corpus_at_size
from repro.cmh import MultihierarchicalDocument
from repro.core.goddag.goddag import _HierarchyComponent
from repro.core.goddag.index import SpanIndex
from repro.core.goddag.nodes import GLeaf, GNode
from repro.core.runtime.serializer import serialize_item
from repro.errors import ReproError
from repro.store import DocumentStore, fork_engine, mhxb, save_engine
from repro.store.mhxb import load_document
from repro.store import catalog

from tests.strategies import (
    ELEMENT_NAMES,
    EXTENDED_AXES,
    TEXT_ALPHABET,
    build_update_statement,
    multihierarchical_documents,
    predicate_trees,
    update_ops,
)
from tests.test_store import wrapping
from tests.treewalk import TreeWalkEngine

#: the light class of the store-write benchmark: one hierarchy's names
MARK_QUERY = "for $m in /descendant::mark return string($m)"


def component_name(component: _HierarchyComponent) -> str:
    return component.name


@pytest.fixture(scope="module")
def document() -> MultihierarchicalDocument:
    return corpus_at_size(800)


@pytest.fixture(scope="module")
def marked(document) -> tuple[Engine, str]:
    """An eager engine over the corpus with one free word marked, and
    the statement that marked it."""
    engine = Engine(document.clone())
    damage = [(node.start, node.end) for node in engine.goddag.elements("dmg")]
    word = next(
        index for index, node in enumerate(engine.goddag.elements("w"), 1)
        if all(end <= node.start or node.end <= start
               for start, end in damage))
    statement = (f'add markup mark to "damage" covering '
                 f"(/descendant::w)[{word}]")
    engine.update(statement)
    return engine, statement


@pytest.fixture()
def store(tmp_path, document, marked):
    """A store holding the marked document, closed and reopened: its
    snapshot is a cold load nobody has asked anything yet."""
    first = DocumentStore.init(tmp_path / "catalog")
    first.add("doc", document)
    first.update("doc", marked[1])
    first.close()
    store = DocumentStore(tmp_path / "catalog")
    yield store
    store.close()


class TestColdLoadMakesNoNode:
    """Count gates of the contract: nothing is attached, gathered or
    made before somebody reads it, and then only what is read."""

    def test_cold_load_and_freeze_make_nothing(self, store):
        attached, leaves = [], []
        with wrapping(_HierarchyComponent, "attach", attached,
                      component_name), \
                wrapping(GLeaf, "__init__", leaves, id):
            snapshot = store.snapshot("doc")  # load, then freeze()
        goddag = snapshot.engine.goddag
        assert goddag.frozen
        assert attached == [] and leaves == []
        assert not any(component.attached
                       for component in goddag.components().values())
        assert goddag._index._nodes is None
        assert goddag.partition._leaves_list is None

    def test_reopen_query_attaches_the_hierarchy_it_reads(self, store,
                                                          marked):
        attached, leaves = [], []
        with wrapping(_HierarchyComponent, "attach", attached,
                      component_name), \
                wrapping(GLeaf, "__init__", leaves, id):
            first = store.query("doc", MARK_QUERY).serialize()
            assert attached == ["damage"]  # where ``mark`` lives
            attached.clear()
            second = store.query("doc", MARK_QUERY).serialize()
        assert attached == [] and leaves == []
        assert first == second == marked[0].query(MARK_QUERY).serialize()
        assert first  # the mark is there
        goddag = store.snapshot("doc").engine.goddag
        assert goddag._index._nodes is None  # nothing gathered

    def test_counting_words_attaches_structural_only(self, store, marked):
        attached = []
        with wrapping(_HierarchyComponent, "attach", attached,
                      component_name):
            counted = store.query("doc", "count(/descendant::w)").items
        assert attached == ["structural"]
        assert counted == marked[0].query("count(/descendant::w)").items

    def test_fork_save_compact_attach_nothing(self, store, tmp_path):
        snapshot = store.snapshot("doc")
        on_disk = store.root / "doc.mhxb"
        expected = on_disk.read_bytes()
        attached, leaves = [], []
        with wrapping(_HierarchyComponent, "attach", attached,
                      component_name), \
                wrapping(GLeaf, "__init__", leaves, id):
            fork = fork_engine(snapshot.engine)
            save_engine(fork, tmp_path / "fork.mhxb")
            save_engine(snapshot.engine, tmp_path / "snapshot.mhxb")
            store.compact("doc")
        assert attached == [] and leaves == []
        assert (tmp_path / "fork.mhxb").read_bytes() == expected
        assert (tmp_path / "snapshot.mhxb").read_bytes() == expected
        assert on_disk.read_bytes() == expected

    def test_ingest_publishes_what_it_wrote(self, tmp_path, document):
        """``add_streaming`` reads no header and maps nothing: the
        engine it publishes is built over the columns in hand, and
        every hierarchy is attached from the writer's lists."""
        store = DocumentStore.init(tmp_path / "catalog")
        sources = {name: hierarchy.to_xml()
                   for name, hierarchy in document.hierarchies.items()}
        calls = {"read_header": 0, "mmap": 0}

        def counting(key, function):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return function(*args, **kwargs)
            return wrapper

        with mock.patch.object(mhxb, "read_header",
                               counting("read_header", mhxb.read_header)), \
                mock.patch.object(catalog, "read_header",
                                  counting("read_header",
                                           catalog.read_header)), \
                mock.patch.object(mmap, "mmap",
                                  counting("mmap", mmap.mmap)):
            published = store.add_streaming("doc", document.text, sources)
        assert calls == {"read_header": 0, "mmap": 0}
        goddag = published.engine.goddag
        assert all(component.attached
                   for component in goddag.components().values())
        eager = Engine(document.clone())
        save_engine(eager, tmp_path / "eager.mhxb")
        assert (store.root / "doc.mhxb").read_bytes() \
            == (tmp_path / "eager.mhxb").read_bytes()
        for query in (MARK_QUERY, "count(//leaf())",
                      "/descendant::line[overlapping::dmg]/string(.)"):
            assert published.query(query).serialize() \
                == eager.query(query).serialize()
        goddag.check_invariants()
        store.close()


class TestRacingFirstReaders:
    """Eight threads ask their first questions of one cold snapshot at
    once: each hierarchy attaches once, the leaves and the span index's
    node columns are made once, and every thread is handed the same
    node objects.  One round per query, each on a fresh cold load, with
    that query asked first by every thread, so each fill is raced by
    all eight at least once."""

    QUERIES = ("/child::*", "/descendant::w[overlapping::dmg]",
               "//leaf()", "/descendant::line/xdescendant::w",
               "/descendant::res/following::dmg", MARK_QUERY,
               "/descendant::vline/preceding-sibling::*[1]")

    @pytest.mark.parametrize("round_", range(len(QUERIES)))
    def test_every_cache_fills_once(self, store, round_):
        snapshot = store.snapshot("doc")
        attached, leaves, gathers = [], [], []
        gather = SpanIndex._gather
        barrier = threading.Barrier(8)
        results: list = [None] * 8

        def counted_gather(index, root_value, column):
            if root_value is index.root:  # the node columns
                gathers.append(id(index))
            return gather(index, root_value, column)

        def reader(slot: int) -> None:
            barrier.wait(timeout=60)
            order = self.QUERIES[round_:] + self.QUERIES[:round_]
            try:
                answers = {query: snapshot.query(query).items
                           for query in order}
            except Exception as error:  # reported below, not lost
                results[slot] = error
                return
            results[slot] = [answers[query] for query in self.QUERIES]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the fills
        try:
            with wrapping(_HierarchyComponent, "attach", attached,
                          component_name), \
                    wrapping(GLeaf, "__init__", leaves, id), \
                    mock.patch.object(SpanIndex, "_gather", counted_gather):
                threads = [threading.Thread(target=reader, args=(slot,))
                           for slot in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not [result for result in results
                    if isinstance(result, Exception)]
        goddag = snapshot.engine.goddag
        assert sorted(attached) == sorted(goddag.hierarchy_names)
        assert len(leaves) == len(goddag.partition) == len(goddag.leaves())
        assert len(gathers) == 1
        first = results[0]
        for other in results[1:]:
            for want, got in zip(first, other):
                assert len(got) == len(want)
                assert all(a is b if isinstance(b, GNode) else a == b
                           for a, b in zip(got, want))
        assert [[serialize_item(item) for item in items]
                for items in first] == [
            [serialize_item(item) for item in items]
            for items in results[-1]]
        goddag.check_invariants()


# ---------------------------------------------------------------------------
# the differential: lazily loaded snapshot vs eager engine vs tree-walker
# ---------------------------------------------------------------------------

SETTINGS = settings(max_examples=30, deadline=None)

NAMES = st.sampled_from(ELEMENT_NAMES + ("*",))
AXES = st.sampled_from(EXTENDED_AXES + (
    "child", "descendant", "following", "preceding", "ancestor",
    "following-sibling", "preceding-sibling", "parent"))


def cold_snapshot(document: MultihierarchicalDocument, path) -> Engine:
    """``document`` saved, loaded back and frozen as the store
    publishes it: nothing attached."""
    save_engine(Engine(document.clone()), path)
    engine = Engine.from_mhxb(path)
    engine.goddag.freeze()
    assert not any(component.attached
                   for component in engine.goddag.components().values())
    return engine


@st.composite
def probe_queries(draw) -> list[str]:
    name, other = draw(NAMES), draw(NAMES)
    axis = draw(AXES)
    literal = draw(st.text(alphabet=TEXT_ALPHABET.replace(" ", ""),
                           min_size=1, max_size=2))
    return [
        "/",  # the root, serialised over every hierarchy
        "/child::node()",
        f"/child::{name}/following-sibling::node()",
        "//leaf()",
        f"/descendant::{name}/descendant::leaf()",
        f"/descendant::{name}/{axis}::{other}",
        f"/descendant::{name}[{draw(predicate_trees(depth=1))}]",
        f"for $l in //leaf() return $l/{axis}::{other}",
        f'analyze-string(/, "{literal}")',
        f'count(analyze-string(/, "{literal}")/descendant::m'
        f"/xancestor::{other})",
    ]


def items_of(engine, query: str) -> list[str]:
    return [serialize_item(item) for item in engine.query(query).items]


@SETTINGS
@given(document=multihierarchical_documents(), queries=probe_queries())
def test_lazy_snapshot_answers_as_eager_engines(tmp_path_factory, document,
                                               queries):
    """A cold snapshot (span index restored, nodes on first use) and an
    engine built over a file's columns (the fused corpus engine's way:
    span index built on first use over unattached hierarchies) answer
    as an engine that built every node, and the tree-walker over the
    snapshot's own structure hands out the very same nodes."""
    path = tmp_path_factory.mktemp("lazy") / "doc.mhxb"
    lazy = cold_snapshot(document, path)
    built = Engine(load_document(path))
    eager = Engine(document.clone())
    walker = TreeWalkEngine(lazy.goddag)  # same goddag: node identity
    for query in queries:
        got = lazy.query(query).items
        want = walker.query(query).items
        assert len(got) == len(want), query
        for a, b in zip(got, want):
            if isinstance(b, GNode):
                assert a is b, query
            else:
                assert serialize_item(a) == serialize_item(b), query
        expected = items_of(eager, query)
        assert [serialize_item(item) for item in got] == expected, query
        assert items_of(built, query) == expected, query
    lazy.goddag.check_invariants()
    built.goddag.check_invariants()


@SETTINGS
@given(document=multihierarchical_documents(),
       ops=st.lists(update_ops(), min_size=1, max_size=3))
def test_update_on_lazy_snapshot_writes_the_eager_bytes(
        tmp_path_factory, document, ops):
    """An update on a fork of a never-asked snapshot: the scoped net of
    a commit, the whole net after it, and the same file bytes as the
    same statements applied to an engine that built every node."""
    folder = tmp_path_factory.mktemp("update")
    published = cold_snapshot(document, folder / "doc.mhxb")
    working = fork_engine(published)
    eager = Engine(document.clone())
    for op in ops:
        statement = build_update_statement(
            op, len(eager.query("/descendant::*").items),
            len(eager.goddag.leaves()), eager.goddag.hierarchy_names)
        if statement is None:
            continue
        try:
            eager.update(statement)
        except ReproError as error:
            with pytest.raises(type(error)):
                working.update(statement, check=False)
            return
        working.update(statement, check=False)
    working.goddag.check_invariants(working.goddag.changed_components(
        published.goddag.components()))
    working.goddag.check_invariants()
    save_engine(eager, folder / "eager.mhxb")
    save_engine(working, folder / "lazy.mhxb")
    assert (folder / "lazy.mhxb").read_bytes() \
        == (folder / "eager.mhxb").read_bytes()
    published.goddag.check_invariants()

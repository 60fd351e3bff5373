"""Node objects are a per-row cache over the columns (DESIGN.md §1, §10).

A component makes the node of a row the first time somebody asks for
that row, whoever wrote its columns (a mapped ``.mhxb`` file, the row
writer of an ingest, an update's row edits); the leaf list and the span
index's node columns fill the same way, once, under their owner's lock.
Here: which rows a cold load, a first query, a fork, a save, a compact,
an ingest, an update and a rename fill, counted by wrapping the fill
(``tests/test_store.py::filling``, as
``tests/test_mhxb.py::TestRoundTrip::
test_cold_load_maps_once_and_builds_nothing`` counts its maps); what a
commit's net compares and its file encodes again for the hierarchies
it did not change; eight racing first readers of one cold snapshot;
and a differential of lazily loaded snapshots against eager engines and
the tree-walker.
"""

from __future__ import annotations

import gc
import mmap
import re
import sys
import threading
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine
from repro.bench.workloads import corpus_at_size
from repro.cmh import MultihierarchicalDocument
from repro.core.goddag import invariants
from repro.core.goddag.goddag import KIND_ELEMENT, _HierarchyComponent
from repro.core.goddag.index import SpanIndex
from repro.core.goddag.nodes import GLeaf, GNode
from repro.core.runtime.serializer import serialize_each, serialize_item
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
from tests.test_store import encoding, filling, hierarchies, wrapping
from tests import nodewalk
from tests.treewalk import TreeWalkEngine

#: the light class of the store-write benchmark: one hierarchy's names
MARK_QUERY = "for $m in /descendant::mark return string($m)"


def unfilled(goddag) -> bool:
    """Has no row of any hierarchy a node object?"""
    return all(component._objects is None
               for component in goddag.components().values())


def named_rows(component: _HierarchyComponent, name: str) -> list[int]:
    """The element rows of ``component`` named ``name``, off the
    columns."""
    return [row for row, (kind, ident) in enumerate(zip(
        component.kinds.tolist(), component.name_ids.tolist()))
        if kind == KIND_ELEMENT and component.names[ident] == name]


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
    """Count gates of the contract: nothing is filled, gathered or made
    before somebody reads it, and then only the rows that are read."""

    def test_cold_load_and_freeze_make_nothing(self, store):
        made, leaves = [], []
        with filling(made), wrapping(GLeaf, "__init__", leaves, id):
            snapshot = store.snapshot("doc")  # load, then freeze()
        goddag = snapshot.engine.goddag
        assert goddag.frozen
        assert made == [] and leaves == []
        assert unfilled(goddag)
        assert goddag._index._nodes is None
        assert goddag.partition._leaves_list is None

    def test_reopen_query_fills_the_one_row_it_reads(self, store, marked):
        made, leaves = [], []
        with filling(made), wrapping(GLeaf, "__init__", leaves, id):
            first = store.query("doc", MARK_QUERY).serialize()
            damage = store.snapshot("doc").engine.goddag._components[
                "damage"]
            # the one ``mark``, where it lives
            assert made == [(damage, row)
                            for row in named_rows(damage, "mark")]
            assert len(made) == 1
            made.clear()
            second = store.query("doc", MARK_QUERY).serialize()
        assert made == [] and leaves == []
        assert first == second == marked[0].query(MARK_QUERY).serialize()
        assert first  # the mark is there
        goddag = store.snapshot("doc").engine.goddag
        assert goddag._index._nodes is None  # nothing gathered

    def test_counting_words_fills_word_rows_only(self, store, marked):
        made = []
        with filling(made):
            counted = store.query("doc", "count(/descendant::w)").items
        structural = store.snapshot("doc").engine.goddag._components[
            "structural"]
        assert hierarchies(made) == ["structural"]
        assert sorted(row for _component, row in made) \
            == named_rows(structural, "w")
        assert counted == marked[0].query("count(/descendant::w)").items

    def test_fork_save_compact_fill_nothing(self, store, tmp_path):
        snapshot = store.snapshot("doc")
        on_disk = store.root / "doc.mhxb"
        expected = on_disk.read_bytes()
        made, leaves = [], []
        with filling(made), wrapping(GLeaf, "__init__", leaves, id):
            fork = fork_engine(snapshot.engine)
            save_engine(fork, tmp_path / "fork.mhxb")
            save_engine(snapshot.engine, tmp_path / "snapshot.mhxb")
            store.compact("doc")
        assert made == [] and leaves == []
        assert (tmp_path / "fork.mhxb").read_bytes() == expected
        assert (tmp_path / "snapshot.mhxb").read_bytes() == expected
        assert on_disk.read_bytes() == expected

    def test_ingest_publishes_what_it_wrote(self, tmp_path, document):
        """``add_streaming`` reads no header, maps nothing and fills no
        row: the engine it publishes is built over the columns in hand,
        and a row's node is made when a query first asks for it."""
        store = DocumentStore.init(tmp_path / "catalog")
        sources = {name: hierarchy.to_xml()
                   for name, hierarchy in document.hierarchies.items()}
        calls = {"read_header": 0, "mmap": 0}

        def counting(key, function):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return function(*args, **kwargs)
            return wrapper

        made = []
        with mock.patch.object(mhxb, "read_header",
                               counting("read_header", mhxb.read_header)), \
                mock.patch.object(catalog, "read_header",
                                  counting("read_header",
                                           catalog.read_header)), \
                mock.patch.object(mmap, "mmap",
                                  counting("mmap", mmap.mmap)), \
                filling(made):
            published = store.add_streaming("doc", document.text, sources)
        assert calls == {"read_header": 0, "mmap": 0}
        assert made == []
        goddag = published.engine.goddag
        assert unfilled(goddag)
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


class TestRowsFilledByAWrite:
    """What the store-write cycle fills at n=800, counted by wrapping
    the fill: the ingest nothing; an update whose target is
    ``(/descendant::w)[k]`` the target's row alone — the pick is made
    among the name's index rows (DESIGN.md §9) — and nothing inside the
    commit's net; a rename no row of the component it seats; an
    out-of-range ``[k]`` nothing."""

    @pytest.fixture()
    def ingested(self, tmp_path, document):
        store = DocumentStore.init(tmp_path / "catalog")
        sources = {name: hierarchy.to_xml()
                   for name, hierarchy in document.hierarchies.items()}
        store.add_streaming("doc", document.text, sources)
        yield store
        store.close()

    def test_update_fills_the_target_row_and_the_net_none(self, ingested,
                                                          marked):
        made, in_net = [], []
        check = invariants.check_invariants

        def net(goddag, components=None):
            count = len(made)
            check(goddag, components)
            in_net.extend(made[count:])

        word = int(re.search(r"\[(\d+)\]$", marked[1]).group(1))
        with filling(made), \
                mock.patch.object(invariants, "check_invariants", net):
            ingested.update("doc", marked[1])
        goddag = ingested.snapshot("doc").engine.goddag
        structural = goddag._components["structural"]
        assert in_net == []
        assert made == [(structural, named_rows(structural, "w")[word - 1])]
        assert ingested.query("doc", MARK_QUERY).serialize() \
            == marked[0].query(MARK_QUERY).serialize()
        goddag.check_invariants()

    def test_replace_value_fills_the_target_row(self, ingested, document):
        published = ingested.snapshot("doc").engine.goddag
        structural = published._components["structural"]
        statement = 'replace value of node (/descendant::w)[3] with "eac"'
        made = []
        with filling(made):
            ingested.update("doc", statement)
        assert made == [(structural, named_rows(structural, "w")[2])]
        eager = Engine(document.clone())
        eager.update(statement)
        for query in ("string((/descendant::w)[3])", "count(//leaf())"):
            assert ingested.query("doc", query).serialize() \
                == eager.query(query).serialize()
        ingested.snapshot("doc").engine.goddag.check_invariants()

    def test_rename_fills_the_published_target_row_only(self, ingested):
        published = ingested.snapshot("doc").engine.goddag
        shared = published._components["structural"]
        made = []
        with filling(made):
            ingested.update("doc",
                            'rename node (/descendant::w)[3] as "word"')
        after = ingested.snapshot("doc").engine.goddag
        copy = after._components["structural"]
        assert copy is not shared
        words = named_rows(shared, "w")
        # the target's row of the published component (the target
        # evaluation), and no row of the copy
        assert made == [(shared, words[2])]
        assert copy.filled().tolist() == []
        assert ingested.query("doc", "count(//word)").serialize() == "1"
        after.check_invariants()
        published.check_invariants()

    @pytest.mark.parametrize("statement", [
        'add markup mark to "damage" covering (/descendant::w)[{}]',
        'rename node (/descendant::w)[{}] as "word"',
        'replace value of node (/descendant::w)[{}] with "eac"',
    ])
    def test_an_out_of_range_target_fills_nothing(self, ingested,
                                                  document, statement):
        words = len(named_rows(
            ingested.snapshot("doc").engine.goddag._components[
                "structural"], "w"))
        statement = statement.format(words + 1)
        made = []
        with filling(made):
            result, = ingested.update("doc", statement)
        assert made == []
        assert result.applied == Engine(document.clone()).update(
            statement).applied == 0
        assert ingested.query("doc", "count(//word)").serialize() == "0"


class TestACommitRecomputesWhatItChanged:
    """What the store-write cycle at n=800 checks and encodes again,
    counted by wrapping: the ingest encodes every hierarchy's header
    fragment; the update's net compares the name column of the one
    hierarchy the update built (DESIGN.md §9) and its file encodes that
    hierarchy's fragment alone; a compact of the unchanged document
    encodes none (DESIGN.md §10)."""

    def test_the_update_checks_and_encodes_one_hierarchy(
            self, tmp_path, document, marked):
        store = DocumentStore.init(tmp_path / "catalog")
        sources = {name: hierarchy.to_xml()
                   for name, hierarchy in document.hierarchies.items()}
        encoded, named, nets, inside = [], [], [], []
        with encoding(encoded):
            store.add_streaming("doc", document.text, sources)
        assert encoded == ["structural", "physical", "damage",
                           "restoration"]
        check = invariants.check_invariants
        row_names = _HierarchyComponent.row_names

        def net(goddag, components=None):
            goddag._index._flush_pending()  # a merge reads names too
            nets.append(components)
            inside.append(True)
            try:
                check(goddag, components)
            finally:
                inside.clear()

        def names_of(component, rows=None):
            if inside:
                named.append(component.name)
            return row_names(component, rows)

        encoded.clear()
        with encoding(encoded), \
                mock.patch.object(invariants, "check_invariants", net), \
                mock.patch.object(_HierarchyComponent, "row_names",
                                  names_of):
            store.update("doc", marked[1])
            # one name comparison per sorted order, of one hierarchy
            assert nets == [["damage"]] and named == ["damage"] * 2
            assert encoded == ["damage"]
            # where the whole net compares every hierarchy's
            named.clear()
            goddag = store.snapshot("doc").engine.goddag
            net(goddag)
            assert sorted(set(named)) == sorted(goddag.hierarchy_names)
            committed = (store.root / "doc.mhxb").read_bytes()
            encoded.clear()
            store.compact("doc")
            assert encoded == []
        assert (store.root / "doc.mhxb").read_bytes() == committed
        store.close()


def test_dropped_hierarchies_are_collected(document):
    """A node names its component and the component's object column
    names its nodes: the cycle collector must see through that column,
    or the hierarchies of a dropped version are never freed."""
    engine = Engine(document.clone())
    engine.query("/descendant::w[overlapping::dmg]").serialize()
    components = engine.goddag.components().values()
    assert all(component._objects is not None for component in components)
    held = [weakref.ref(component) for component in components]
    del engine, components
    gc.collect()
    assert [ref() for ref in held] == [None] * len(held)


class TestRacingFirstReaders:
    """Eight threads ask their first questions of one cold snapshot at
    once: each row is filled once, the leaves and the span index's node
    columns are made once, and every thread is handed the same node
    objects.  One round per query, each on a fresh cold load, with
    that query asked first by every thread, so each fill is raced by
    all eight at least once; each thread then prints its answers, so
    the row writer's tables are raced for too."""

    QUERIES = ("/child::*", "/descendant::w[overlapping::dmg]",
               "//leaf()", "/descendant::line/xdescendant::w",
               "/descendant::res/following::dmg", MARK_QUERY,
               "/descendant::vline/preceding-sibling::*[1]")

    @pytest.mark.parametrize("round_", range(len(QUERIES)))
    def test_every_cache_fills_once(self, store, round_):
        snapshot = store.snapshot("doc")
        made, leaves, gathers = [], [], []
        gather = SpanIndex._gather
        barrier = threading.Barrier(8)
        results: list = [None] * 8
        printed: list = [None] * 8

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
            printed[slot] = [serialize_each(items)
                             for items in results[slot]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the fills
        try:
            with filling(made), \
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
        # every row of every hierarchy (the span index gathered them
        # all), each once
        rows = [(component.name, row) for component, row in made]
        assert len(rows) == len(set(rows)) == sum(
            len(component.kinds)
            for component in goddag.components().values())
        assert len(leaves) == len(goddag.partition) == len(goddag.leaves())
        assert len(gathers) == 1
        first = results[0]
        for other in results[1:]:
            for want, got in zip(first, other):
                assert len(got) == len(want)
                assert all(a is b if isinstance(b, GNode) else a == b
                           for a, b in zip(got, want))
        assert all(strings == printed[0] for strings in printed)
        assert printed[0] == [nodewalk.strings(items) for items in first]
        goddag.check_invariants()


class TestSerializationMakesNoNode:
    """Printing a result makes no node object (DESIGN.md §11,
    *Serialization from rows*): the row writer reads the columns, so
    the rows the query filled are all there are afterwards — where the
    node walk fills every text child."""

    WORDS = "/descendant::w"
    LINES = "/descendant::line[overlapping::w]"

    def test_a_warm_word_result(self, document):
        engine = Engine(document.clone())
        engine.query(self.WORDS)  # the plan cached, the rows filled
        result = engine.query(self.WORDS)
        made: list = []
        with filling(made):
            strings = result.strings()
            whole = result.serialize()
        assert made == []
        assert whole == "".join(strings)
        with filling(made):
            assert nodewalk.strings(result.items) == strings
        # the control: the node walk fills each word's one text child
        assert len(made) == len(result.items)

    def test_lines_through_run_shard(self, document, tmp_path,
                                     monkeypatch):
        """The ``lines`` shape of a corpus scatter, as a worker runs it
        on a cold-loaded shard."""
        from repro.store import pool
        from repro.store.plancache import SharedPlanCache

        path = tmp_path / "shard.mhxb"
        save_engine(Engine(document.clone()), path)
        shard = Engine.from_mhxb(path)
        made: list = []
        serialize = pool.serialize_each

        def watched(items):
            with filling(made):
                return serialize(items)

        monkeypatch.setattr(pool, "serialize_each", watched)
        kind, strings, _okeys = pool.run_shard(
            shard, SharedPlanCache(), f'collection("c"){self.LINES}',
            "scatter")
        assert kind == "nodes" and strings
        assert made == []
        oracle = Engine(document.clone()).query(self.LINES).items
        assert strings == nodewalk.strings(oracle)


# ---------------------------------------------------------------------------
# the differential: lazily loaded snapshot vs eager engine vs tree-walker
# ---------------------------------------------------------------------------

#: 30 examples under the tier-1 profile, a quarter of the nightly
#: profile's count there (the per-row fill is what can break identity)
SETTINGS = settings(max_examples=max(30, settings.default.max_examples // 4),
                    deadline=None)

NAMES = st.sampled_from(ELEMENT_NAMES + ("*",))
AXES = st.sampled_from(EXTENDED_AXES + (
    "child", "descendant", "following", "preceding", "ancestor",
    "following-sibling", "preceding-sibling", "parent"))


def cold_snapshot(document: MultihierarchicalDocument, path) -> Engine:
    """``document`` saved, loaded back and frozen as the store
    publishes it: no row filled."""
    save_engine(Engine(document.clone()), path)
    engine = Engine.from_mhxb(path)
    engine.goddag.freeze()
    assert unfilled(engine.goddag)
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
    return engine.query(query).strings()


@SETTINGS
@given(document=multihierarchical_documents(), queries=probe_queries())
def test_lazy_snapshot_answers_as_eager_engines(tmp_path_factory, document,
                                               queries):
    """A cold snapshot (span index restored, nodes on first use) and an
    engine built over a file's columns (the fused corpus engine's way:
    span index built on first use over unfilled hierarchies) answer
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
                assert serialize_item(a) == nodewalk.serialize_item(b), query
        # the reference side serializes node by node (tests/nodewalk.py)
        expected = nodewalk.strings(eager.query(query).items)
        assert serialize_each(got) == expected, query
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

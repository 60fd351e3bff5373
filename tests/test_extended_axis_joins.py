"""Differential property tests for the vectorized interval joins.

The batched extended-axis kernels (:mod:`repro.core.goddag.joins`) must
be element-for-element identical to the per-node axis functions — the
Definition 1 oracle that PR 1's property suite already ties to the
paper's literal leaf-set semantics — over randomized multi-hierarchy
corpora, including lazily merged *temporary* hierarchies (the
``analyze-string`` membership shape).  The batched EBV existence probes
are likewise pinned to :func:`~repro.core.goddag.axes.axis_exists_named`
per context node, and whole queries run through the join-lowered plan
pipeline are pinned to the reference tree-walking evaluator.

Also hosts the PR-5 emission-order audit regression for
``axis_overlapping`` (see its docstring in ``axes.py``).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine
from repro.cmh import MultihierarchicalDocument
from repro.core.goddag import (
    ColumnarNodeSet,
    KyGoddag,
    TemporaryHierarchyManager,
    evaluate_axis,
    evaluate_axis_batch,
    exists_axis_batch,
    join_axis_batch,
)
from repro.core.goddag.axes import EXTENDED_AXES, axis_exists_named
from repro.core.goddag import joins
from repro.core.goddag.joins import TREE_EXISTS_AXES
from repro.core.goddag.nodes import GAttr, GElement

from tests.strategies import join_scenarios
from tests.treewalk import TreeWalkEngine, evaluate_query

# Scales with the active hypothesis profile so the nightly CI job
# (--hypothesis-profile=nightly, tests/conftest.py) actually fuzzes
# deeper than PR runs.
SETTINGS = settings(max_examples=max(60, settings.default.max_examples),
                    deadline=None)

#: Name pool for the named-kernel draws: hierarchy element names plus a
#: name that never occurs and the shared root's name.
PROBE_NAMES = (None, "w", "dmg", "seg", "nosuch", "r")


def all_nodes(goddag: KyGoddag) -> list:
    """Every context shape an axis step can see: root, hierarchy
    nodes (elements, texts, comments, PIs), attributes (empty-span
    contexts the kernels must drop) and leaves."""
    out = [goddag.root]
    for name in goddag.hierarchy_names:
        for node in goddag.nodes_of(name):
            out.append(node)
            if isinstance(node, GElement):
                out.extend(node.attribute_nodes)
    out.extend(goddag.partition.leaves())
    return out


def pernode_union(goddag: KyGoddag, axis: str, contexts: list,
                  name: str | None) -> list:
    """The oracle: per-node axis evaluation, deduplicated and sorted."""
    seen: dict[int, object] = {}
    for node in contexts:
        for found in evaluate_axis(goddag, axis, node, name):
            seen[id(found)] = found
    return goddag.sort_nodes(list(seen.values()))


def pick_contexts(goddag: KyGoddag, picks: list[int]) -> list:
    pool = all_nodes(goddag)
    return [pool[index % len(pool)] for index in picks]


def assert_among(goddag: KyGoddag, axis: str, contexts: list, name: str,
                 among: np.ndarray) -> None:
    rows = goddag.span_index().name_interval(name).nodes
    subset = {id(node) for node, keep in zip(rows, among) if keep}
    got = exists_axis_batch(goddag, axis, contexts, name, among=among)
    for position, node in enumerate(contexts):
        want = any(id(found) in subset
                   for found in evaluate_axis(goddag, axis, node, name))
        assert bool(got[position]) == want, (axis, name, node, among)


class TestDifferentialJoins:
    @SETTINGS
    @given(scenario=join_scenarios())
    def test_join_matches_pernode_axes(self, scenario):
        document, picks, temporary = scenario
        goddag = KyGoddag.build(document)
        if temporary is not None and temporary.spans:
            goddag = goddag.shell()
            TemporaryHierarchyManager(goddag).create(temporary)
        contexts = pick_contexts(goddag, picks)
        for axis in sorted(EXTENDED_AXES):
            for name in PROBE_NAMES:
                expected = pernode_union(goddag, axis, contexts, name)
                got = join_axis_batch(goddag, axis, contexts, name)
                assert list(got) == expected, (axis, name)

    @SETTINGS
    @given(scenario=join_scenarios())
    def test_exists_matches_pernode_probe(self, scenario):
        document, picks, temporary = scenario
        goddag = KyGoddag.build(document)
        if temporary is not None and temporary.spans:
            goddag = goddag.shell()
            TemporaryHierarchyManager(goddag).create(temporary)
        contexts = pick_contexts(goddag, picks)
        for axis in sorted(EXTENDED_AXES):
            for name in ("w", "dmg", "nosuch", "r"):
                got = exists_axis_batch(goddag, axis, contexts, name)
                for position, node in enumerate(contexts):
                    want = axis_exists_named(goddag, axis, node, name)
                    assert bool(got[position]) == bool(want), \
                        (axis, name, node)

    @SETTINGS
    @given(scenario=join_scenarios())
    def test_tree_exists_matches_pernode_axes(self, scenario):
        """The standard-axis probes (``ancestor::`` / ``descendant::``
        / ``self::name``) against the per-node axes, with the root and
        an attribute the root owns always among the contexts: both top
        every chain, so neither has a named ancestor."""
        document, picks, temporary = scenario
        goddag = KyGoddag.build(document)
        if temporary is not None and temporary.spans:
            goddag = goddag.shell()
            TemporaryHierarchyManager(goddag).create(temporary)
        root = goddag.root
        contexts = [root, GAttr(root, "a", "1")]
        contexts += pick_contexts(goddag, picks)
        for axis in sorted(TREE_EXISTS_AXES):
            for name in ("w", "dmg", "nosuch", "r"):
                got = exists_axis_batch(goddag, axis, contexts, name)
                for position, node in enumerate(contexts):
                    want = any(
                        isinstance(found, (GElement, type(root)))
                        and found.name == name
                        for found in evaluate_axis(goddag, axis, node))
                    assert bool(got[position]) == want, \
                        (axis, name, node)

    @SETTINGS
    @given(scenario=join_scenarios(),
           bits=st.lists(st.booleans(), min_size=1, max_size=8))
    def test_exists_among_matches_pernode_subset(self, scenario, bits):
        """``among=`` restricts the witnesses to a row subset of the
        name column: per context, the per-node axis result intersected
        with the subset is non-empty.  The context pool holds the root,
        leaves and empty-span nodes; ``r`` is the root's name (the root
        is no row, so never a witness under ``among``)."""
        document, picks, temporary = scenario
        goddag = KyGoddag.build(document)
        if temporary is not None and temporary.spans:
            goddag = goddag.shell()
            TemporaryHierarchyManager(goddag).create(temporary)
        contexts = pick_contexts(goddag, picks)
        for name in ("w", "dmg", "nosuch", "r"):
            rows = goddag.span_index().name_interval(name).nodes
            drawn = np.array([bits[row % len(bits)]
                              for row in range(len(rows))], dtype=bool)
            for among in (drawn, np.zeros(len(rows), dtype=bool),
                          np.ones(len(rows), dtype=bool)):
                for axis in sorted(EXTENDED_AXES):
                    assert_among(goddag, axis, contexts, name, among)

    @SETTINGS
    @given(scenario=join_scenarios())
    def test_pipeline_joins_match_legacy_evaluator(self, scenario):
        document, _picks, _temporary = scenario
        pipeline = Engine(document)
        queries = [
            "/descendant::*/overlapping::node()",
            "/descendant::w/xdescendant::node()",
            "/descendant::*[overlapping::w]",
            "count(/descendant::node()/xfollowing::leaf())",
            "/descendant::*/xpreceding::node()/xancestor::*",
        ]
        for query in queries:
            expected = evaluate_query(pipeline.goddag, query)
            got = pipeline.query(query)
            assert len(got.items) == len(expected), query
            for want, have in zip(expected, got.items):
                assert want is have, query


class TestExistsAmongEdges:
    """The ``among=`` cases a random draw rarely lands on."""

    def every_subset(self, goddag, name):
        contexts = all_nodes(goddag)
        count = len(goddag.span_index().name_interval(name))
        for pattern in range(1 << count):
            among = np.array([bool(pattern >> row & 1)
                              for row in range(count)], dtype=bool)
            for axis in sorted(EXTENDED_AXES):
                assert_among(goddag, axis, contexts, name, among)

    def test_span_equal_same_hierarchy_witnesses(self):
        # h0 nests three span-equal w's (each on the others' ancestor
        # chain); h1 holds a fourth with the same span off that chain
        document = MultihierarchicalDocument.from_xml("abcde", {
            "h0": "<r>a<w><w><w>bcd</w></w></w>e</r>",
            "h1": "<r>a<w>bcd</w>e</r>",
        })
        self.every_subset(KyGoddag.build(document), "w")

    def test_root_carrying_the_probed_name(self):
        # elements share the root's name: they are rows, the root not
        document = MultihierarchicalDocument.from_xml("abcde", {
            "h0": "<r>a<r>bcd</r>e</r>",
            "h1": "<r><r>ab</r><x>cd</x>e</r>",
        })
        goddag = KyGoddag.build(document)
        assert goddag.root.name == "r"
        self.every_subset(goddag, "r")

    def test_empty_spans_and_leaf_contexts(self):
        document = MultihierarchicalDocument.from_xml("abcd", {
            "h0": '<r><w k="v">ab</w><w/><w>cd</w></r>',
            "h1": "<r>a<w>bc</w>d</r>",
        })
        goddag = KyGoddag.build(document)
        # the empty <w/> is no row; attribute and leaf contexts are in
        # the pool and must answer as the per-node axes do
        assert len(goddag.span_index().name_interval("w")) == 3
        self.every_subset(goddag, "w")

    def test_subset_of_missing_name_is_empty(self, goddag):
        contexts = all_nodes(goddag)
        for axis in sorted(EXTENDED_AXES):
            got = exists_axis_batch(goddag, axis, contexts, "nosuch",
                                    among=np.zeros(0, dtype=bool))
            assert not got.any()


class TestAbsentNameReadsNoSpan:
    """A name with no row answers all-false before any context's span
    is extracted; only ``xancestor`` of the root's own name, which the
    root answers, still reads them."""

    @pytest.fixture()
    def extractions(self):
        calls = []
        original = joins.span_columns_of

        def counting(nodes):
            calls.append(len(nodes))
            return original(nodes)

        with mock.patch.object(joins, "span_columns_of", counting):
            yield calls

    def test_absent_name_extracts_no_span(self, goddag, extractions):
        contexts = all_nodes(goddag)
        for axis in sorted(EXTENDED_AXES):
            for among in (None, np.zeros(0, dtype=bool)):
                got = exists_axis_batch(goddag, axis, contexts, "nosuch",
                                        among=among)
                assert not got.any()
        assert extractions == []

    def test_root_name_xancestor_still_right(self, goddag, extractions):
        contexts = all_nodes(goddag)
        name = goddag.root.name
        assert not len(goddag.span_index().name_interval(name))
        got = exists_axis_batch(goddag, "xancestor", contexts, name)
        assert extractions == [len(contexts)]
        for position, node in enumerate(contexts):
            want = axis_exists_named(goddag, "xancestor", node, name)
            assert bool(got[position]) == bool(want), node
        assert got.any()
        # under ``among`` the root is no witness: nothing to read
        extractions.clear()
        got = exists_axis_batch(goddag, "xancestor", contexts, name,
                                among=np.zeros(0, dtype=bool))
        assert not got.any() and extractions == []


class TestColumnarFlow:
    """The struct-of-arrays node-set plumbing between join steps."""

    @pytest.fixture()
    def goddag(self, boethius_doc) -> KyGoddag:
        return KyGoddag.build(boethius_doc)

    def test_join_returns_columnar_node_set(self, goddag):
        words = [n for n in goddag.nodes_of(goddag.hierarchy_names[0])][:8]
        out = join_axis_batch(goddag, "overlapping", words)
        assert isinstance(out, ColumnarNodeSet)
        starts, ends = out.span_columns()
        assert starts.tolist() == [n.start for n in out]
        assert ends.tolist() == [n.end for n in out]

    def test_columns_survive_chained_steps(self, goddag):
        words = list(goddag.nodes_of(goddag.hierarchy_names[0]))[:6]
        first = join_axis_batch(goddag, "xfollowing", words,
                                skip_leaves=True)
        # The chained step consumes the carried columns (no per-node
        # attribute extraction): results still match the oracle.
        second = join_axis_batch(goddag, "xancestor", first)
        assert list(second) == pernode_union(goddag, "xancestor",
                                             list(first), None)

    def test_stats_count_join_steps(self, boethius_doc):
        # use_cost=False pins the mechanical lowering: the cost pass
        # may legally reverse this chain into a scan + semi-join probe
        # (DESIGN.md §16), which runs no extended-axis batch kernel
        engine = Engine(boethius_doc, use_cost=False)
        result = engine.query("/descendant::w/overlapping::line")
        assert result.stats.join_steps == 1
        assert result.stats.batched_extended_steps == 1
        probed = engine.query("/descendant::line[overlapping::w]")
        assert probed.stats.join_steps == 1
        assert probed.stats.batched_extended_steps == 0
        # the costed plan must agree item-for-item with the oracle
        costed = Engine(boethius_doc).query(
            "/descendant::w/overlapping::line")
        assert costed.strings() == result.strings()

    def test_predicated_join_falls_back_to_pernode(self, boethius_doc):
        engine = Engine(boethius_doc)
        legacy = TreeWalkEngine(engine.goddag)
        query = '/descendant::line/xdescendant::w[position() = 1]'
        got = engine.query(query)
        assert got.stats.batched_extended_steps == 0
        assert got.strings() == legacy.query(query).strings()


class TestOverlappingEmissionOrder:
    """PR-5 audit: ``axis_overlapping`` concatenates its two span-sorted
    sublists, which is *not* global document order; every consumer
    sorts by order key.  This pins both facts."""

    @pytest.fixture()
    def crossing(self) -> KyGoddag:
        # n = [1,4) in h0; f = [2,5) in h1 follows-overlaps n;
        # p = [0,3) in h2 precedes-overlaps n.  Document order puts f
        # (rank 1) before p (rank 2); the raw concatenation emits the
        # preceding-overlapping sublist first.
        text = "abcde"
        document = MultihierarchicalDocument.from_xml(text, {
            "h0": "<r>a<n>bcd</n>e</r>",
            "h1": "<r>ab<f>cde</f></r>",
            "h2": "<r><p>abc</p>de</r>",
        })
        return KyGoddag.build(document)

    def _context(self, goddag):
        (node,) = [n for n in goddag.nodes_of("h0")
                   if getattr(n, "name", None) == "n"]
        return node

    def test_raw_emission_is_not_document_order(self, crossing):
        node = self._context(crossing)
        raw = evaluate_axis(crossing, "overlapping", node)
        elements = [n for n in raw if n.name]
        # Span order: the preceding-overlapping sublist first — the
        # audited emission...
        assert [n.name for n in elements] == ["p", "f"]
        keys = [crossing.order_key(n) for n in elements]
        assert keys != sorted(keys)  # ...which is not document order

    def test_every_consumer_emits_document_order(self, crossing):
        node = self._context(crossing)
        expected = ["f", "p"]  # rank order (Definition 3)
        batched = evaluate_axis_batch(crossing, "overlapping", [node])
        assert [n.name for n in batched if n.name] == expected
        joined = join_axis_batch(crossing, "overlapping", [node])
        assert [n.name for n in joined if n.name] == expected
        engine = Engine.from_parts(crossing)
        result = engine.query("/descendant::n/overlapping::*")
        assert [n.name for n in result.items] == expected
        legacy = evaluate_query(crossing, "/descendant::n/overlapping::*")
        assert [n.name for n in legacy] == expected


class TestRestoredIndexJoins:
    """Joins over a ``.mhxb`` cold-loaded engine: the end-sorted
    preorder column is not persisted; the restore gathers it through
    each hierarchy's end permutation."""

    def test_joins_after_cold_load(self, tmp_path, boethius_doc):
        warm = Engine(boethius_doc)
        warm.goddag.span_index()
        path = tmp_path / "doc.mhxb"
        warm.save_mhxb(path)
        cold = Engine.from_mhxb(path)
        index = cold.goddag.span_index()
        assert index.e_preorders.tolist() == [
            getattr(node, "preorder", -1) for node in index.e_nodes]
        queries = [
            "/descendant::w/overlapping::line",
            "/descendant::line/xpreceding::w",
            "/descendant::line[overlapping::w]",
            # Unnamed step: forces the *global* end-sorted okey column,
            # packed from the gathered preorders (named steps gather
            # per-name columns and never need it).
            "count(/descendant::line/xpreceding::node())",
        ]
        for query in queries:
            assert cold.query(query).strings() == \
                warm.query(query).strings(), query
        okeys, e_okeys = index.okey_columns()
        assert np.array_equal(np.sort(okeys), np.sort(e_okeys))

"""Tests for KyGODDAG construction, the leaf partition, and node order."""

from __future__ import annotations

import pytest

from repro.api import Engine
from repro.errors import GoddagError
from repro.cmh.spans import Span, SpanSet
from repro.core.goddag import KyGoddag
from repro.core.goddag.nodes import GElement, GLeaf, GText
from repro.corpus.boethius import boethius_document

#: The 16 leaves of the paper's Figure 2 (hand-derived from Figure 1).
FIGURE_2_LEAVES = [
    "gesceaftum", " ", "una", "w", "endendne", " ", "s", "in",
    "gallice", " ", "sibbe", " ", "gecyn", "de", " ", "ϸa",
]


class TestBuild:
    def test_leaf_partition_matches_figure_2(self, goddag):
        assert [leaf.text for leaf in goddag.leaves()] == FIGURE_2_LEAVES

    def test_leaves_concatenate_to_base_text(self, goddag):
        assert "".join(l.text for l in goddag.leaves()) == goddag.text

    def test_hierarchy_names_in_order(self, goddag):
        assert goddag.hierarchy_names == [
            "physical", "structural", "restoration", "damage"]

    def test_element_spans(self, goddag):
        lines = [n for n in goddag.elements("line")]
        assert [(n.start, n.end) for n in lines] == [(0, 27), (27, 51)]
        dmg = [n for n in goddag.elements("dmg")]
        assert [(n.start, n.end) for n in dmg] == [(14, 15), (46, 51)]

    def test_root_spans_whole_text(self, goddag):
        assert (goddag.root.start, goddag.root.end) == (0, 51)

    def test_root_children_per_hierarchy(self, goddag):
        physical = goddag.root.children_in("physical")
        assert [n.name for n in physical] == ["line", "line"]
        assert len(goddag.root_children()) > 4

    def test_text_nodes_have_parents(self, goddag):
        for name in goddag.hierarchy_names:
            for node in goddag.nodes_of(name):
                assert goddag.parent_of(node) is not None

    def test_preorder_subtree_invariant(self, goddag):
        for name in goddag.hierarchy_names:
            for node in goddag.nodes_of(name):
                assert node.preorder <= node.subtree_end
                if isinstance(node, GElement):
                    for child in node.children:
                        assert node.preorder < child.preorder
                        assert child.subtree_end <= node.subtree_end

    def test_duplicate_hierarchy_rejected(self, boethius_doc):
        goddag = KyGoddag.build(boethius_doc)
        with pytest.raises(GoddagError, match="duplicate"):
            goddag.add_hierarchy_from_spans(
                "physical", SpanSet(goddag.text))

    def test_wrong_root_rejected(self, boethius_doc):
        from repro.cmh import Hierarchy
        from repro.errors import CMHError
        from repro.markup import parse

        wrong = parse(f"<other>{boethius_doc.text}</other>")
        with pytest.raises(CMHError, match="has root 'other'"):
            boethius_doc.clone().add_hierarchy(Hierarchy("extra", wrong))

    def test_string_values(self, goddag):
        word = next(goddag.elements("w"))
        assert word.string_value() == "gesceaftum"
        assert goddag.string_value(goddag.root) == goddag.text


class TestLeafAccess:
    def test_leaf_at(self, goddag):
        assert goddag.partition.leaf_at(0).text == "gesceaftum"
        assert goddag.partition.leaf_at(14).text == "w"
        assert goddag.partition.leaf_at(50).text == "ϸa"

    def test_leaf_at_out_of_range(self, goddag):
        with pytest.raises(GoddagError):
            goddag.partition.leaf_at(51)
        with pytest.raises(GoddagError):
            goddag.partition.leaf_at(-1)

    def test_leaf_identity_is_canonical(self, goddag):
        assert goddag.partition.leaf_at(0) is goddag.partition.leaf_at(5)

    def test_leaves_of_element(self, goddag):
        word = [w for w in goddag.elements("w")
                if w.string_value() == "unawendendne"][0]
        assert [l.text for l in goddag.leaves_of(word)] == [
            "una", "w", "endendne"]

    def test_leaves_of_leaf_is_itself(self, goddag):
        leaf = goddag.partition.leaf_at(0)
        assert goddag.leaves_of(leaf) == [leaf]

    def test_text_parents_of_leaf(self, goddag):
        leaf = goddag.partition.leaf_at(14)  # "w" — inside dmg1
        parents = goddag.text_parents_of_leaf(leaf)
        assert len(parents) == 4  # one text node per hierarchy
        assert all(isinstance(p, GText) for p in parents)
        assert all(p.start <= 14 < p.end for p in parents)

    def test_leaves_in_subrange(self, goddag):
        leaves = goddag.partition.leaves_in(11, 23)  # unawendendne
        assert [l.text for l in leaves] == ["una", "w", "endendne"]


class TestNodeOrder:
    def test_root_first(self, goddag):
        keys = [goddag.order_key(n) for n in goddag.iter_nodes()]
        assert keys[0] == goddag.order_key(goddag.root)
        assert keys == sorted(keys)

    def test_order_total_and_unique(self, goddag):
        nodes = list(goddag.iter_nodes(include_attributes=True))
        keys = [goddag.order_key(n) for n in nodes]
        assert len(set(keys)) == len(keys)

    def test_same_hierarchy_follows_dom_order(self, goddag):
        words = list(goddag.elements("w"))
        keys = [goddag.order_key(w) for w in words]
        assert keys == sorted(keys)

    def test_hierarchies_ordered_by_rank(self, goddag):
        line = next(goddag.elements("line"))
        word = next(goddag.elements("w"))
        assert goddag.order_key(line) < goddag.order_key(word)

    def test_leaves_after_hierarchy_nodes(self, goddag):
        leaf = goddag.partition.leaf_at(0)
        last_element = list(goddag.elements())[-1]
        assert goddag.order_key(leaf) > goddag.order_key(last_element)

    def test_sort_nodes_dedupes(self, goddag):
        word = next(goddag.elements("w"))
        assert goddag.sort_nodes([word, word, goddag.root]) == [
            goddag.root, word]


class TestTemporaryHierarchies:
    def test_shell_temporary_splits_only_the_shells_leaves(self, goddag):
        before = [l.text for l in goddag.leaves()]
        spans = SpanSet(goddag.text, [Span(11, 16, "m")])  # "unawe"
        shell = goddag.shell()
        shell.add_hierarchy_from_spans("tmp", spans, temporary=True)
        after = [l.text for l in shell.leaves()]
        assert "e" in after and after != before  # "endendne" split
        assert shell.is_temporary("tmp")
        assert [l.text for l in goddag.leaves()] == before
        assert not goddag.has_hierarchy("tmp")

    def test_temporary_boundaries_are_the_shells(self, goddag):
        spans = SpanSet(goddag.text, [Span(0, 5, "x")])
        assert not goddag.partition.is_boundary(5)
        shell = goddag.shell()
        shell.add_hierarchy_from_spans("tmp", spans, temporary=True)
        assert shell.partition.is_boundary(5)
        assert not goddag.partition.is_boundary(5)

    def test_shell_and_version_each_take_their_own_kind(self, goddag):
        spans = SpanSet(goddag.text, [Span(0, 5, "x")])
        with pytest.raises(GoddagError, match="shell"):
            goddag.add_hierarchy_from_spans("tmp", spans, temporary=True)
        with pytest.raises(GoddagError, match="shell"):
            goddag.shell().add_hierarchy_from_spans("tmp", spans)
        goddag.freeze()
        with pytest.raises(GoddagError, match="frozen"):
            goddag.add_hierarchy_from_spans("tmp", spans)
        assert not goddag.has_hierarchy("tmp")

    def test_mismatched_span_text_rejected(self, goddag):
        spans = SpanSet("different text")
        with pytest.raises(GoddagError, match="differs"):
            goddag.add_hierarchy_from_spans("tmp", spans)

    def test_persistent_names_exclude_temporaries(self, goddag):
        spans = SpanSet(goddag.text, [Span(0, 5, "x")])
        shell = goddag.shell()
        shell.add_hierarchy_from_spans("tmp", spans, temporary=True)
        assert "tmp" not in shell.persistent_hierarchy_names
        assert "tmp" in shell.hierarchy_names


def name_index_by_node_loop(component) -> dict[str, list]:
    """The per-name element index as one ``isinstance`` loop over every
    node builds it: the reference for the column-built entries."""
    grouped: dict[str, list] = {}
    for node in component.nodes:
        if isinstance(node, GElement):
            grouped.setdefault(node.name, []).append(node)
    return grouped


def skewed_engine() -> Engine:
    from tests.test_plan_cost import skewed_document

    return Engine(skewed_document())


class TestNameEntryFromColumns:
    """``name_entry`` reads the columns; the node loop is the oracle."""

    @staticmethod
    def assert_entries_match(goddag) -> None:
        for component in goddag._components.values():
            grouped = name_index_by_node_loop(component)
            for name in {*grouped, *component.names, "no-such-name"}:
                entry = component.name_entry(name)
                members = grouped.get(name)
                if members is None:
                    assert entry is None, (component.name, name)
                    continue
                assert len(entry.nodes) == len(members)
                assert all(found is member for found, member
                           in zip(entry.nodes, members))
                assert entry.preorders.tolist() == [
                    node.preorder for node in members]
                assert entry.subtree_ends.tolist() == [
                    node.subtree_end for node in members]

    @pytest.mark.parametrize("build", [
        lambda: Engine(boethius_document(validate=False)), skewed_engine],
        ids=["boethius", "skewed"])
    def test_entries_are_the_loops_members_in_order(self, build):
        engine = build()
        self.assert_entries_match(engine.goddag)
        assert engine.goddag._components["structural"].name_entry("w")

    def test_absent_name_builds_nothing(self, goddag):
        component = goddag._components["structural"]
        assert component.name_entry("line") is None  # another hierarchy's
        assert component._name_index == {}
        assert component._objects is None

    @pytest.mark.parametrize("build", [
        lambda: Engine(boethius_document(validate=False)), skewed_engine],
        ids=["boethius", "skewed"])
    def test_after_in_place_renames(self, build, tmp_path):
        """Renaming every ``w`` leaves ``w`` behind in ``names`` with no
        row: the entry must be ``None``, not an empty one."""
        engine = build()
        words = engine.goddag._components["structural"].name_entry("w")
        engine.update('for $w in /descendant::w return '
                      'rename node $w as "word"')
        engine.update('rename node (/descendant::line)[1] as "row"')
        component = engine.goddag._components["structural"]
        assert "w" in component.names
        assert component.name_entry("w") is None
        assert len(component.name_entry("word").nodes) == len(words.nodes)
        self.assert_entries_match(engine.goddag)
        # cold-loaded components share the file's one name table:
        # most of its names select no row in any given hierarchy
        engine.save_mhxb(tmp_path / "renamed.mhxb")
        self.assert_entries_match(
            Engine.from_mhxb(tmp_path / "renamed.mhxb").goddag)


class TestIteration:
    def test_iter_nodes_counts(self, goddag):
        nodes = list(goddag.iter_nodes())
        # 1 root + 55-node inventory (see stats tests) includes leaves.
        leaves = [n for n in nodes if isinstance(n, GLeaf)]
        assert len(leaves) == 16
        assert nodes[0] is goddag.root

    def test_elements_filter(self, goddag):
        assert len(list(goddag.elements("w"))) == 6
        assert len(list(goddag.elements())) == 16  # 2+3+6+3+2 elements

    def test_leaves_not_duplicated_across_hierarchies(self, goddag):
        nodes = list(goddag.iter_nodes())
        leaf_ids = [id(n) for n in nodes if isinstance(n, GLeaf)]
        assert len(leaf_ids) == len(set(leaf_ids))

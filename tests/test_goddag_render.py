"""Tests for KyGODDAG rendering: XML per hierarchy, DOT, outline."""

from __future__ import annotations

import pytest

from repro.core.goddag import describe, serialize_node, to_dot
from repro.core.goddag.nodes import GElement
from repro.corpus.boethius import ENCODINGS


class TestSerializeNode:
    def test_hierarchy_round_trip(self, goddag):
        for name, source in ENCODINGS.items():
            assert serialize_node(goddag.root, name) == source

    def test_element_subtree(self, goddag):
        dmg = next(goddag.elements("dmg"))
        assert serialize_node(dmg) == "<dmg>w</dmg>"

    def test_text_node_escaped(self, goddag):
        text = next(n for n in goddag.nodes_of("physical")
                    if n.kind == "text")
        assert serialize_node(text) == "gesceaftum unawendendne sin"

    def test_leaf(self, goddag):
        assert serialize_node(goddag.partition.leaf_at(14)) == "w"

    def test_root_requires_hierarchy(self, goddag):
        with pytest.raises(ValueError, match="hierarchy"):
            serialize_node(goddag.root)

    def test_attributes_rendered(self):
        from repro.cmh import MultihierarchicalDocument
        from repro.core.goddag import KyGoddag

        document = MultihierarchicalDocument.from_xml(
            "ab", {"h": '<r><x n="1">ab</x></r>'})
        goddag = KyGoddag.build(document)
        x = next(goddag.elements("x"))
        assert serialize_node(x) == '<x n="1">ab</x>'


class TestDot:
    def test_structure(self, goddag):
        dot = to_dot(goddag)
        assert dot.startswith("digraph kygoddag {")
        assert dot.rstrip().endswith("}")
        for name in goddag.hierarchy_names:
            assert f"cluster_{name}" in dot

    def test_figure_2_labels(self, goddag):
        dot = to_dot(goddag)
        for label in ("line1", "line2", "vline3", "w6", "res3", "dmg2",
                      "t1", "t22"):
            assert f'label="{label}"' in dot

    def test_leaf_boxes_numbered(self, goddag):
        dot = to_dot(goddag)
        assert 'label="16" shape=box' in dot.replace("  ", " ")

    def test_edge_count_matches_stats(self, goddag):
        from repro.core.goddag import collect

        dot = to_dot(goddag)
        arrow_count = dot.count(" -> ")
        assert arrow_count == collect(goddag).edge_count


class TestDescribe:
    def test_header(self, goddag):
        text = describe(goddag)
        assert text.splitlines()[0] == (
            "KyGODDAG over 51 characters, 4 hierarchies, 16 leaves")

    def test_all_hierarchies_listed(self, goddag):
        text = describe(goddag)
        for name in goddag.hierarchy_names:
            assert f"hierarchy {name}:" in text

    def test_leaves_listed_with_spans(self, goddag):
        text = describe(goddag)
        assert "  4: [14,15) 'w'" in text

    def test_temporary_flag_shown(self, goddag):
        from repro.cmh.spans import Span, SpanSet

        spans = SpanSet(goddag.text, [Span(0, 5, "x")])
        shell = goddag.shell()
        shell.add_hierarchy_from_spans("tmp", spans, temporary=True)
        assert "hierarchy tmp (temporary):" in describe(shell)

    def test_nesting_depth_indent(self, goddag):
        text = describe(goddag)
        # w nodes are nested under vline: indented two levels.
        assert "\n    w1 [0,10)" in text


class TestStatsRows:
    def test_rows_cover_all_hierarchies(self, goddag):
        from repro.core.goddag import collect

        rows = dict(collect(goddag).rows())
        assert rows["total nodes"] == "55"
        assert rows["total edges"] == "102"
        assert "elements[dmg:2]" in rows["hierarchy damage"]

    def test_counts_with_comments_and_pis(self):
        from repro.cmh import MultihierarchicalDocument
        from repro.core.goddag import KyGoddag, collect

        document = MultihierarchicalDocument.from_xml(
            "ab", {"h": "<r><!--c--><?p d?>ab</r>"})
        stats = collect(KyGoddag.build(document))
        hierarchy = stats.hierarchies[0]
        assert hierarchy.comments == 1
        assert hierarchy.processing_instructions == 1

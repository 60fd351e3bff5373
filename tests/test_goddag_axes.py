"""Tests for all axes over the paper's Figure 1/2 document.

Expectations are hand-derived from the Figure 2 KyGODDAG:
spans — line1 [0,27), line2 [27,51); vline1 [0,24), vline2 [24,49),
vline3 [49,51); words gesceaftum [0,10), unawendendne [11,23),
singallice [24,34), sibbe [35,40), gecynde [41,48), ϸa [49,51);
res1 [0,14), res2 [25,27), res3 [27,46); dmg1 [14,15), dmg2 [46,51).
"""

from __future__ import annotations

import pytest

from repro.core.goddag import evaluate_axis
from repro.core.goddag.nodes import GElement, GLeaf, GRoot, GText


def element(goddag, name, index=0):
    return list(goddag.elements(name))[index]


def word(goddag, text):
    return next(w for w in goddag.elements("w")
                if w.string_value() == text)


def names(nodes):
    return sorted(n.name for n in nodes if isinstance(n, GElement))


class TestChildParent:
    def test_child_of_root_crosses_components(self, goddag):
        children = evaluate_axis(goddag, "child", goddag.root)
        assert names(children).count("line") == 2
        assert names(children).count("vline") == 3
        assert names(children).count("res") == 3
        assert names(children).count("dmg") == 2

    def test_child_of_element(self, goddag):
        vline1 = element(goddag, "vline", 0)
        children = evaluate_axis(goddag, "child", vline1)
        assert names(children) == ["w", "w"]
        assert sum(isinstance(c, GText) for c in children) == 2

    def test_child_of_text_is_leaves(self, goddag):
        unaw = word(goddag, "unawendendne")
        text = unaw.children[0]
        leaves = evaluate_axis(goddag, "child", text)
        assert [l.text for l in leaves] == ["una", "w", "endendne"]

    def test_child_of_leaf_empty(self, goddag):
        leaf = goddag.partition.leaf_at(0)
        assert evaluate_axis(goddag, "child", leaf) == []

    def test_parent_of_top_element_is_root(self, goddag):
        line1 = element(goddag, "line", 0)
        assert evaluate_axis(goddag, "parent", line1) == [goddag.root]

    def test_parent_of_leaf_is_one_text_per_hierarchy(self, goddag):
        leaf = goddag.partition.leaf_at(14)  # "w"
        parents = evaluate_axis(goddag, "parent", leaf)
        assert len(parents) == 4
        assert all(isinstance(p, GText) for p in parents)

    def test_parent_of_root_empty(self, goddag):
        assert evaluate_axis(goddag, "parent", goddag.root) == []


class TestDescendantAncestor:
    def test_descendant_of_line_includes_leaves(self, goddag):
        line1 = element(goddag, "line", 0)
        descendants = evaluate_axis(goddag, "descendant", line1)
        leaves = [n for n in descendants if isinstance(n, GLeaf)]
        assert [l.text for l in sorted(leaves, key=lambda l: l.start)] == [
            "gesceaftum", " ", "una", "w", "endendne", " ", "s", "in"]

    def test_descendant_stays_in_hierarchy(self, goddag):
        line1 = element(goddag, "line", 0)
        descendants = evaluate_axis(goddag, "descendant", line1)
        assert names(descendants) == []  # no elements under a line

    def test_descendant_of_root_covers_everything(self, goddag):
        descendants = evaluate_axis(goddag, "descendant", goddag.root)
        assert len(names(descendants)) == 16
        leaf_count = sum(isinstance(n, GLeaf) for n in descendants)
        assert leaf_count == 16

    def test_ancestor_of_leaf_crosses_hierarchies(self, goddag):
        leaf = goddag.partition.leaf_at(14)  # "w" inside dmg1
        ancestors = evaluate_axis(goddag, "ancestor", leaf)
        assert "dmg" in names(ancestors)
        assert "w" in names(ancestors)
        assert "line" in names(ancestors)
        assert any(isinstance(a, GRoot) for a in ancestors)

    def test_ancestor_of_element(self, goddag):
        unaw = word(goddag, "unawendendne")
        ancestors = evaluate_axis(goddag, "ancestor", unaw)
        assert names(ancestors) == ["vline"]

    def test_or_self_variants(self, goddag):
        unaw = word(goddag, "unawendendne")
        self_included = evaluate_axis(goddag, "descendant-or-self", unaw)
        assert unaw in self_included
        assert unaw in evaluate_axis(goddag, "ancestor-or-self", unaw)


class TestSiblingsFollowingPreceding:
    def test_following_sibling(self, goddag):
        w1 = word(goddag, "gesceaftum")
        siblings = evaluate_axis(goddag, "following-sibling", w1)
        assert names(siblings) == ["w"]  # unawendendne (same vline)

    def test_preceding_sibling(self, goddag):
        unaw = word(goddag, "unawendendne")
        siblings = evaluate_axis(goddag, "preceding-sibling", unaw)
        assert names(siblings) == ["w"]

    def test_top_level_siblings_confined_to_component(self, goddag):
        line1 = element(goddag, "line", 0)
        siblings = evaluate_axis(goddag, "following-sibling", line1)
        assert names(siblings) == ["line"]

    def test_following_in_component(self, goddag):
        vline1 = element(goddag, "vline", 0)
        following = evaluate_axis(goddag, "following", vline1)
        assert names(following).count("vline") == 2
        assert names(following).count("w") == 4
        assert "line" not in names(following)

    def test_preceding_in_component(self, goddag):
        vline3 = element(goddag, "vline", 2)
        preceding = evaluate_axis(goddag, "preceding", vline3)
        assert names(preceding).count("vline") == 2

    def test_following_from_root_empty(self, goddag):
        assert evaluate_axis(goddag, "following", goddag.root) == []

    def test_following_from_last_element_returns_trailing_leaves(self):
        """Regression: the seed guarded the trailing-leaf scan with the
        always-true ``node.end <= len(text)``; the slice rewrite must
        still return the leaves after the component's last element."""
        from repro.cmh import MultihierarchicalDocument
        from repro.core.goddag import KyGoddag

        document = MultihierarchicalDocument.from_xml(
            "xyz", {"h": "<r><a>xy</a>z</r>", "g": "<r>x<b>y</b>z</r>"})
        goddag = KyGoddag.build(document)
        last = next(goddag.elements("a"))  # [0,2) — last element of h
        following = evaluate_axis(goddag, "following", last)
        leaves = [n for n in following if isinstance(n, GLeaf)]
        assert [leaf.text for leaf in leaves] == ["z"]
        # Besides the trailing leaf, only h's own trailing text node
        # follows — nothing from the other hierarchy.
        rest = [n for n in following if not isinstance(n, GLeaf)]
        assert [type(n) for n in rest] == [GText]
        assert rest[0].hierarchy == "h"

    def test_following_from_element_ending_at_text_end(self, goddag):
        """An element whose span reaches the very end of the base text
        has following nodes but no trailing leaves."""
        dmg2 = element(goddag, "dmg", 1)  # [46,51) — ends at len(text)
        following = evaluate_axis(goddag, "following", dmg2)
        assert not any(isinstance(n, GLeaf) for n in following)

    def test_attribute_axis(self, goddag):
        # Figure 1 elements carry no attributes; add a synthetic check.
        line1 = element(goddag, "line", 0)
        assert evaluate_axis(goddag, "attribute", line1) == []


class TestExtendedAxes:
    def test_xdescendant_of_line_crosses_hierarchies(self, goddag):
        line1 = element(goddag, "line", 0)  # [0,27)
        result = evaluate_axis(goddag, "xdescendant", line1)
        element_names = names(result)
        # vline1 [0,24), gesceaftum, unawendendne, res1, res2, dmg1.
        assert element_names == ["dmg", "res", "res", "vline", "w", "w"]

    def test_xdescendant_includes_leaves(self, goddag):
        dmg2 = element(goddag, "dmg", 1)  # [46,51)
        result = evaluate_axis(goddag, "xdescendant", dmg2)
        leaves = sorted((n.text for n in result if isinstance(n, GLeaf)))
        assert leaves == [" ", "de", "ϸa"]

    def test_xdescendant_excludes_own_ancestors_on_equal_span(self):
        from repro.cmh import MultihierarchicalDocument
        from repro.core.goddag import KyGoddag

        document = MultihierarchicalDocument.from_xml(
            "xy", {"a": "<r><o><i>xy</i></o></r>"})
        goddag = KyGoddag.build(document)
        inner = next(goddag.elements("i"))
        result = evaluate_axis(goddag, "xdescendant", inner)
        assert names(result) == []  # <o> equal span but is an ancestor

    def test_xancestor_crosses_hierarchies(self, goddag):
        dmg1 = element(goddag, "dmg", 0)  # [14,15) — inside many things
        result = evaluate_axis(goddag, "xancestor", dmg1)
        # line1 [0,27), vline1 [0,24), unawendendne [11,23); res1 ends
        # exactly at 14 and therefore does NOT contain dmg1.
        assert names(result) == ["line", "vline", "w"]
        assert any(isinstance(n, GRoot) for n in result)

    def test_xancestor_includes_own_hierarchy_ancestors(self, goddag):
        unaw = word(goddag, "unawendendne")
        result = evaluate_axis(goddag, "xancestor", unaw)
        assert "vline" in names(result)

    def test_xancestor_of_leaf(self, goddag):
        leaf = goddag.partition.leaf_at(46)  # "de"
        result = evaluate_axis(goddag, "xancestor", leaf)
        assert "dmg" in names(result)
        assert "w" in names(result)  # gecynde

    def test_xfollowing(self, goddag):
        line1 = element(goddag, "line", 0)  # [0,27)
        result = evaluate_axis(goddag, "xfollowing", line1)
        assert "singallice" not in [n.string_value() for n in result
                                    if isinstance(n, GElement)]
        element_names = names(result)
        assert "line" in element_names  # line2
        assert element_names.count("w") == 3  # sibbe, gecynde, ϸa
        assert element_names.count("res") == 1  # res3 [27,46)

    def test_xpreceding(self, goddag):
        dmg2 = element(goddag, "dmg", 1)  # [46,51)
        result = evaluate_axis(goddag, "xpreceding", dmg2)
        element_names = names(result)
        # gecynde [41,48) overlaps dmg2, so only 4 words strictly precede.
        assert element_names.count("w") == 4
        assert "line" in element_names  # line1

    def test_xfollowing_xpreceding_duality(self, goddag):
        line1 = element(goddag, "line", 0)
        following = evaluate_axis(goddag, "xfollowing", line1)
        for node in following:
            back = evaluate_axis(goddag, "xpreceding", node)
            assert line1 in back

    def test_preceding_overlapping(self, goddag):
        # singallice [24,34) starts inside vline1? no — starts inside
        # res... Check gecynde [41,48) vs dmg2 [46,51):
        gecynde = word(goddag, "gecynde")
        result = evaluate_axis(goddag, "preceding-overlapping", dmg2 :=
                               element(goddag, "dmg", 1))
        assert gecynde in result
        del dmg2

    def test_following_overlapping(self, goddag):
        gecynde = word(goddag, "gecynde")
        result = evaluate_axis(goddag, "following-overlapping", gecynde)
        assert names(result) == ["dmg"]

    def test_overlapping_symmetry(self, goddag):
        for node in goddag.elements():
            for other in evaluate_axis(goddag, "overlapping", node):
                back = evaluate_axis(goddag, "overlapping", other)
                assert node in back

    def test_overlapping_line_word(self, goddag):
        singallice = word(goddag, "singallice")  # [24,34) crosses lines
        result = evaluate_axis(goddag, "overlapping", singallice)
        assert names(result).count("line") == 2

    def test_containment_not_overlapping(self, goddag):
        unaw = word(goddag, "unawendendne")
        result = evaluate_axis(goddag, "overlapping", unaw)
        assert "dmg" not in names(result)  # dmg1 is contained, not crossing

    def test_extended_axes_empty_for_empty_span(self):
        from repro.cmh import MultihierarchicalDocument
        from repro.core.goddag import KyGoddag

        document = MultihierarchicalDocument.from_xml(
            "ab", {"a": "<r>a<pb/>b</r>"})
        goddag = KyGoddag.build(document)
        pb = next(goddag.elements("pb"))
        for axis in ("xancestor", "xdescendant", "xfollowing",
                     "xpreceding", "overlapping"):
            assert evaluate_axis(goddag, axis, pb) == []

    def test_unknown_axis_rejected(self, goddag):
        from repro.errors import GoddagError

        with pytest.raises(GoddagError, match="unknown axis"):
            evaluate_axis(goddag, "sideways", goddag.root)


class TestDefinitionOneAlgebra:
    """Definition 1 trichotomy: for two non-empty-span nodes in
    different hierarchies, exactly one of {xfollowing, xpreceding,
    overlap, containment-or-equal} holds."""

    def test_trichotomy(self, goddag):
        nodes = [n for n in goddag.elements()]
        for a in nodes:
            following = set(map(id, evaluate_axis(goddag, "xfollowing", a)))
            preceding = set(map(id, evaluate_axis(goddag, "xpreceding", a)))
            crossing = set(map(id, evaluate_axis(goddag, "overlapping", a)))
            for b in nodes:
                if a is b:
                    continue
                contained = (a.start <= b.start and b.end <= a.end) or \
                            (b.start <= a.start and a.end <= b.end)
                member = [id(b) in following, id(b) in preceding,
                          id(b) in crossing, contained]
                assert sum(member) == 1, (a, b, member)


class TestExactNameSlices:
    """The named ``descendant`` / ``following`` / ``preceding`` slices
    the steps no longer re-test (DESIGN.md §8), against the seed's
    walkers: on the paper's document, from attribute / comment / PI /
    empty-element contexts, on a generated corpus, and after every
    ``w`` was renamed — in place, on a fork, and on the cold load of
    that."""

    RENAME = 'for $w in /descendant::w return rename node $w as "token"'

    @staticmethod
    def check(goddag, stride=1):
        from tests.test_prop_axes import (
            all_context_nodes,
            assert_exact_name_slices,
        )

        contexts = all_context_nodes(goddag)
        contexts += [attribute for node in contexts
                     if isinstance(node, GElement)
                     for attribute in node.attribute_nodes]
        assert_exact_name_slices(
            goddag, contexts[::stride],
            None if stride == 1 else {"w", "token", "line", "dmg"})

    def test_boethius(self, goddag):
        self.check(goddag)

    def test_every_context_kind(self):
        from repro.cmh import MultihierarchicalDocument
        from repro.core.goddag import KyGoddag
        from tests.test_plan_cost import KINDS_DOCUMENT

        self.check(KyGoddag.build(
            MultihierarchicalDocument.from_xml(*KINDS_DOCUMENT)))

    def test_renamed_in_place_forked_and_cold_loaded(self, boethius_doc,
                                                     tmp_path):
        from repro.api import Engine
        from repro.store.catalog import fork_engine
        from repro.store.mhxb import load_engine, save_engine

        engine = Engine(boethius_doc)
        assert engine.query("/descendant::w").items  # the w entry is warm
        fork = fork_engine(engine)
        fork.update(self.RENAME)
        self.check(fork.goddag)
        self.check(engine.goddag)  # the forked-from version keeps its w
        assert len(engine.query("/descendant::w").items) == 6
        assert not fork.query("/descendant::w").items
        assert len(fork.query("/descendant::token").items) == 6
        save_engine(fork, tmp_path / "renamed.mhxb")
        cold = load_engine(tmp_path / "renamed.mhxb")
        self.check(cold.goddag)
        assert len(cold.query("count(/descendant::token)").items) == 1
        engine.update(self.RENAME)
        self.check(engine.goddag)
        assert not engine.query("/descendant::w").items

    def test_skewed_corpus(self):
        from repro.api import Engine
        from tests.test_plan_cost import skewed_document

        engine = Engine(skewed_document(200))
        self.check(engine.goddag, stride=7)
        engine.update(self.RENAME)
        self.check(engine.goddag, stride=7)

"""Edge-case tests for the evaluator: snapshots, order by, errors."""

from __future__ import annotations

import pytest

from repro.errors import QueryEvaluationError
from repro.markup import dom
from repro.core.runtime import evaluate_query, serialize_items
from repro.core.runtime.semantics import copy_dom, copy_gnode


def run(goddag, query, **kwargs):
    return evaluate_query(goddag, query, **kwargs)


class TestSnapshotting:
    def test_temp_nodes_copied_out(self, goddag):
        result = run(goddag,
                     'analyze-string(/descendant::w[2], "unawe")')
        assert isinstance(result[0], dom.Element)
        # Temp hierarchy and its leaf splits are gone.
        assert goddag.hierarchy_names == [
            "physical", "structural", "restoration", "damage"]
        assert len(goddag.partition) == 16

    def test_persistent_nodes_not_copied(self, goddag):
        result = run(goddag, "/descendant::dmg[1]")
        from repro.core.goddag.nodes import GElement

        assert isinstance(result[0], GElement)

    def test_nested_temp_node_result(self, goddag):
        result = run(goddag, '''
            let $res := analyze-string(/descendant::w[2], "unawe")
            return $res/xdescendant::m
        ''')
        assert isinstance(result[0], dom.Element)
        assert result[0].name == "m"
        assert result[0].text_content() == "unawe"

    def test_strings_derived_from_temp_survive(self, goddag):
        result = run(goddag, '''
            let $res := analyze-string(/descendant::w[2], "unawe")
            return string($res/xdescendant::m)
        ''')
        assert result == ["unawe"]


class TestCopyHelpers:
    def test_copy_gnode_element(self, goddag):
        word = next(goddag.elements("w"))
        copy = copy_gnode(word)
        assert isinstance(copy, dom.Element)
        assert copy.text_content() == "gesceaftum"

    def test_copy_gnode_leaf(self, goddag):
        leaf = goddag.partition.leaf_at(0)
        copy = copy_gnode(leaf)
        assert isinstance(copy, dom.Text)

    def test_copy_gnode_root_rejected(self, goddag):
        with pytest.raises(QueryEvaluationError):
            copy_gnode(goddag.root)

    def test_copy_dom_deep(self):
        element = dom.Element("a", {"x": "1"})
        element.append(dom.Text("t"))
        element.append(dom.Comment("c"))
        element.append(dom.ProcessingInstruction("p", "d"))
        copy = copy_dom(element)
        assert copy is not element
        assert copy.attributes == {"x": "1"}
        assert len(copy.children) == 3
        assert copy.children[0] is not element.children[0]

    def test_copy_dom_document_rejected(self):
        with pytest.raises(QueryEvaluationError):
            copy_dom(dom.Document())


class TestOrderByEdges:
    def test_empty_keys_sort_least_by_default(self, goddag):
        result = run(goddag, '''
            for $pair in (2, 1, 3)
            order by (if ($pair = 3) then () else $pair)
            return $pair
        ''')
        assert result == [3, 1, 2]

    def test_empty_greatest(self, goddag):
        result = run(goddag, '''
            for $pair in (2, 1, 3)
            order by (if ($pair = 3) then () else $pair) empty greatest
            return $pair
        ''')
        assert result == [1, 2, 3]

    def test_descending_with_empty(self, goddag):
        result = run(goddag, '''
            for $pair in (2, 1, 3)
            order by (if ($pair = 3) then () else $pair) descending
            return $pair
        ''')
        assert result == [2, 1, 3]

    def test_mixed_type_keys(self, goddag):
        # Numbers order before strings (documented total order).
        result = run(goddag, '''
            for $k in ("b", 2, "a", 1) order by $k return string($k)
        ''')
        assert result == ["1", "2", "a", "b"]

    def test_multi_key_stability(self, goddag):
        result = run(goddag, '''
            for $w in /descendant::w
            order by string-length(string($w)), string($w) descending
            return string($w)
        ''')
        # Equal lengths (10) tie-break descending: singallice first.
        assert result == ["ϸa", "sibbe", "gecynde", "singallice",
                          "gesceaftum", "unawendendne"]


class TestAttributesInConstructors:
    def test_attribute_node_content_becomes_attribute(self):
        from repro.cmh import MultihierarchicalDocument
        from repro.core.goddag import KyGoddag

        document = MultihierarchicalDocument.from_xml(
            "ab", {"h": '<r><x n="7">ab</x></r>'})
        goddag = KyGoddag.build(document)
        result = evaluate_query(
            goddag, "<copy>{/descendant::x/@n}</copy>")
        assert serialize_items(result) == '<copy n="7"/>'

    def test_attr_serialization(self):
        from repro.cmh import MultihierarchicalDocument
        from repro.core.goddag import KyGoddag

        document = MultihierarchicalDocument.from_xml(
            "ab", {"h": '<r><x n="7">ab</x></r>'})
        goddag = KyGoddag.build(document)
        result = evaluate_query(goddag, "/descendant::x/@n")
        assert serialize_items(result) == 'n="7"'


class TestMiscEdges:
    def test_expr_step_all_atomics(self, goddag):
        result = run(goddag, "/descendant::w/string-length(string(.))")
        assert result == [10, 12, 10, 5, 7, 2]

    def test_expr_step_mixed_rejected(self, goddag):
        with pytest.raises(QueryEvaluationError, match="mix"):
            run(goddag,
                "/descendant::line/(if (position() = 1) then string(.) "
                "else .)")

    def test_predicate_numeric_float(self, goddag):
        assert run(goddag, "string(/descendant::w[1.0])") == ["gesceaftum"]
        assert run(goddag, "/descendant::w[1.5]") == []

    def test_root_name_test_matches(self, goddag):
        assert len(run(goddag, "/self::r")) == 1
        assert run(goddag, "/self::other") == []

    def test_quantified_multiple_bindings(self, goddag):
        assert run(goddag, '''
            some $a in (1, 2), $b in (10, 20)
            satisfies $a * $b = 40
        ''') == [True]

    def test_deep_flwor_nesting(self, goddag):
        result = run(goddag, '''
            for $a in 1 to 3
            return for $b in 1 to $a
                   return for $c in 1 to $b return $c
        ''')
        assert len(result) == 10

    def test_variables_shadowing(self, goddag):
        result = run(goddag, '''
            for $x in (1, 2)
            return (for $x in (10) return $x, $x)
        ''')
        assert result == [10, 1, 10, 2]

"""Tests for the evaluator: paths, FLWOR, operators, constructors."""

from __future__ import annotations

import pytest

from repro.errors import QueryEvaluationError
from repro.core.runtime import QueryStats, evaluate_query, serialize_items
from repro.markup import dom


def run(goddag, query, **kwargs):
    return evaluate_query(goddag, query, **kwargs)


def run_str(goddag, query, **kwargs):
    return serialize_items(run(goddag, query, **kwargs))


class TestPathEvaluation:
    def test_absolute_descendant(self, goddag):
        assert run_str(goddag, "count(/descendant::w)") == "6"

    def test_double_slash(self, goddag):
        assert run_str(goddag, "count(//w)") == "6"

    def test_name_test_crosses_hierarchies_from_root(self, goddag):
        assert run_str(goddag, "count(/child::*)") == "10"

    def test_results_in_document_order(self, goddag):
        words = run(goddag, "/descendant::w")
        texts = [w.string_value() for w in words]
        assert texts == ["gesceaftum", "unawendendne", "singallice",
                         "sibbe", "gecynde", "ϸa"]

    def test_predicate_position(self, goddag):
        assert run_str(goddag, "string(/descendant::w[3])") == "singallice"

    def test_predicate_last(self, goddag):
        assert run_str(goddag, "string(/descendant::w[last()])") == "ϸa"

    def test_reverse_axis_position(self, goddag):
        # From the "w" leaf, ancestor::node()[1] is the nearest ancestor.
        query = ("string(name(/descendant::dmg[1]"
                 "/ancestor-or-self::*[1]))")
        assert run_str(goddag, query) == "dmg"

    def test_string_equality_predicate(self, goddag):
        query = '/descendant::w[string(.) = "sibbe"]'
        assert [w.string_value() for w in run(goddag, query)] == ["sibbe"]

    def test_leaf_kind_test(self, goddag):
        assert run_str(goddag, "count(/descendant::leaf())") == "16"

    def test_text_kind_test_with_hierarchy(self, goddag):
        assert run_str(
            goddag, "count(/descendant::text('physical'))") == "2"
        assert run_str(
            goddag, "count(/descendant::text())") == "22"

    def test_node_test_with_hierarchy_list(self, goddag):
        count = run_str(
            goddag, "count(/descendant::node('physical, damage'))")
        # physical: 2 line + 2 text; damage: 2 dmg + 4 text; leaves: 16.
        assert count == str(2 + 2 + 2 + 4 + 16)

    def test_wildcard_with_hierarchy(self, goddag):
        assert run_str(goddag, "count(/descendant::*('damage'))") == "2"

    def test_unknown_hierarchy_raises(self, goddag):
        with pytest.raises(QueryEvaluationError, match="unknown hierarchy"):
            run(goddag, "/descendant::text('typo')")

    def test_attribute_axis(self):
        from repro.cmh import MultihierarchicalDocument
        from repro.core.goddag import KyGoddag

        document = MultihierarchicalDocument.from_xml(
            "ab", {"h": '<r><x n="1">ab</x></r>'})
        goddag = KyGoddag.build(document)
        assert serialize_items(
            evaluate_query(goddag, "string(/descendant::x/@n)")) == "1"

    def test_path_over_atomic_rejected(self, goddag):
        with pytest.raises(QueryEvaluationError, match="navigate"):
            run(goddag, '("a")/child::b')

    def test_context_item_string(self, goddag):
        assert run_str(goddag,
                       "/descendant::w[1]/string(.)") == "gesceaftum"


class TestOrderedStepFastPath:
    """Single forward-axis steps over ordered contexts skip sorting."""

    def test_descendant_steps_skip_sort(self, goddag):
        stats = QueryStats()
        result = evaluate_query(goddag, "/descendant::w", stats=stats)
        assert len(result) == 6
        assert stats.ordered_steps > 0
        assert stats.ordered_steps <= stats.axis_steps

    def test_reverse_axis_still_counts_positions_backwards(self, goddag):
        # preceding:: positions count away from the context node; the
        # fast path must not disturb that (single-input reverse step).
        assert run_str(
            goddag,
            "string(/descendant::w[last()]/preceding::w[1])") == "gecynde"

    def test_single_input_reverse_result_is_document_ordered(self, goddag):
        words = run(goddag, "/descendant::w[last()]/preceding::w")
        texts = [w.string_value() for w in words]
        assert texts == ["gesceaftum", "unawendendne", "singallice",
                         "sibbe", "gecynde"]


class TestOperators:
    def test_arithmetic(self, goddag):
        assert run_str(goddag, "1 + 2 * 3") == "7"
        assert run_str(goddag, "7 mod 3") == "1"
        assert run_str(goddag, "7 idiv 2") == "3"
        assert run_str(goddag, "1 div 2") == "0.5"
        assert run_str(goddag, "-(3 - 5)") == "2"

    def test_division_by_zero(self, goddag):
        with pytest.raises(QueryEvaluationError, match="zero"):
            run(goddag, "1 div 0")

    @pytest.mark.parametrize("query", ["5 mod 0", "1e308 * 10 idiv 1"])
    def test_arithmetic_domain_errors_are_typed(self, goddag, query):
        """``math.fmod``/``int()`` failures used to leak as bare
        ``ValueError``/``OverflowError``."""
        with pytest.raises(QueryEvaluationError):
            run(goddag, query)

    def test_empty_operand_propagates(self, goddag):
        assert run(goddag, "() + 1") == []

    def test_general_comparison_existential(self, goddag):
        assert run(goddag, "(1, 2, 3) = 2") == [True]
        assert run(goddag, "(1, 2) = (8, 9)") == [False]

    def test_numeric_string_promotion(self, goddag):
        assert run(goddag, '"2" = 2') == [True]

    def test_value_comparison(self, goddag):
        assert run(goddag, '"a" lt "b"') == [True]
        assert run(goddag, "() eq 1") == []

    def test_value_comparison_rejects_sequences(self, goddag):
        with pytest.raises(QueryEvaluationError, match="singleton"):
            run(goddag, "(1, 2) eq 1")

    def test_node_identity(self, goddag):
        assert run(goddag, "/descendant::w[1] is /descendant::w[1]") == \
            [True]
        assert run(goddag, "/descendant::w[1] is /descendant::w[2]") == \
            [False]

    def test_node_order_comparison(self, goddag):
        assert run(goddag, "/descendant::w[1] << /descendant::w[2]") == \
            [True]

    def test_range(self, goddag):
        assert run(goddag, "2 to 5") == [2, 3, 4, 5]
        assert run(goddag, "5 to 2") == []

    def test_union_sorts_and_dedupes(self, goddag):
        result = run(goddag,
                     "/descendant::w[2] | /descendant::w[1] "
                     "| /descendant::w[1]")
        assert [w.string_value() for w in result] == [
            "gesceaftum", "unawendendne"]

    def test_intersect_except(self, goddag):
        assert run_str(goddag,
                       "count(/descendant::w intersect /descendant::w[1])"
                       ) == "1"
        assert run_str(goddag,
                       "count(/descendant::w except /descendant::w[1])"
                       ) == "5"

    def test_or_and_short_circuit(self, goddag):
        assert run(goddag, "1 = 1 or 1 div 0") == [True]
        assert run(goddag, "1 = 2 and 1 div 0") == [False]

    def test_ebv_of_multiple_atomics_rejected(self, goddag):
        with pytest.raises(QueryEvaluationError, match="effective boolean"):
            run(goddag, 'if ((1, 2)) then 1 else 2')


class TestFLWOR:
    def test_for_iterates(self, goddag):
        assert run(goddag, "for $i in (1, 2, 3) return $i * 2") == [2, 4, 6]

    def test_for_at(self, goddag):
        assert run(goddag,
                   'for $w at $i in /descendant::w return $i') == \
            [1, 2, 3, 4, 5, 6]

    def test_let_binds_sequence(self, goddag):
        assert run(goddag,
                   "let $s := (1, 2, 3) return count($s)") == [3]

    def test_where_filters(self, goddag):
        assert run(goddag,
                   "for $i in 1 to 6 where $i mod 2 = 0 return $i") == \
            [2, 4, 6]

    def test_order_by_ascending(self, goddag):
        query = ("for $w in /descendant::w order by string-length("
                 "string($w)) , string($w) return string($w)")
        assert run(goddag, query) == [
            "ϸa", "sibbe", "gecynde", "gesceaftum", "singallice",
            "unawendendne"]

    def test_order_by_descending(self, goddag):
        assert run(goddag,
                   "for $i in (2, 3, 1) order by $i descending return $i"
                   ) == [3, 2, 1]

    def test_order_by_empty_least(self, goddag):
        query = ("for $s in ((), 2, 1) order by $s return "
                 "if (empty($s)) then 0 else $s")
        # Tuple iteration over a 'for' does not bind empty; use let:
        assert run(goddag,
                   "for $p in (1, 2) order by $p return $p") == [1, 2]
        del query

    def test_nested_flwor(self, goddag):
        assert run(goddag,
                   "for $i in (1, 2) return for $j in (10, 20) "
                   "return $i + $j") == [11, 21, 12, 22]

    def test_quantified_some_every(self, goddag):
        assert run(goddag,
                   "some $w in /descendant::w satisfies "
                   'string($w) = "sibbe"') == [True]
        assert run(goddag,
                   "every $w in /descendant::w satisfies "
                   "string-length(string($w)) > 1") == [True]
        assert run(goddag,
                   "every $w in /descendant::w satisfies "
                   "string-length(string($w)) > 2") == [False]

    def test_if_else(self, goddag):
        assert run(goddag, "if (1 = 1) then 'y' else 'n'") == ["y"]
        assert run(goddag, "if (1 = 2) then 'y' else 'n'") == ["n"]

    def test_undefined_variable(self, goddag):
        with pytest.raises(QueryEvaluationError, match="undefined variable"):
            run(goddag, "$nope")

    def test_external_variables(self, goddag):
        assert run(goddag, "$x + 1", variables={"x": [41]}) == [42]


class TestConstructors:
    def test_simple_element(self, goddag):
        result = run(goddag, "<b>text</b>")
        assert isinstance(result[0], dom.Element)
        assert serialize_items(result) == "<b>text</b>"

    def test_empty_element(self, goddag):
        assert run_str(goddag, "<br/>") == "<br/>"

    def test_enclosed_leaf_copied_as_text(self, goddag):
        result = run_str(goddag,
                         "for $l in /descendant::leaf()[4] "
                         "return <b>{$l}</b>")
        assert result == "<b>w</b>"

    def test_enclosed_element_deep_copied(self, goddag):
        result = run_str(goddag,
                         "<out>{/descendant::dmg[1]}</out>")
        assert result == "<out><dmg>w</dmg></out>"

    def test_adjacent_atomics_space_joined(self, goddag):
        assert run_str(goddag, "<s>{1, 2, 3}</s>") == "<s>1 2 3</s>"

    def test_attribute_value_template(self, goddag):
        assert run_str(goddag, '<a n="{1+1}"/>') == '<a n="2"/>'

    def test_nested_constructors(self, goddag):
        assert run_str(goddag, "<i><b>{'x'}</b></i>") == "<i><b>x</b></i>"

    def test_escaping_in_serialization(self, goddag):
        # '&' in a string literal must itself be an entity reference.
        assert run_str(goddag, "<a>{'x < y &amp; z'}</a>") == \
            "<a>x &lt; y &amp; z</a>"

    def test_constructed_nodes_have_string_value(self, goddag):
        assert run_str(goddag, "string(<b>un<i>awe</i></b>)") == "unawe"

    def test_sequence_of_constructors_and_text(self, goddag):
        assert run_str(goddag, "<b>x</b>, 'mid', <br/>") == \
            "<b>x</b>mid<br/>"


class TestSerializationModes:
    def test_paper_mode_concatenates(self, goddag):
        items = run(goddag, "'a', 'b'")
        assert serialize_items(items, mode="paper") == "ab"

    def test_xquery_mode_spaces_atomics(self, goddag):
        items = run(goddag, "'a', 'b'")
        assert serialize_items(items, mode="xquery") == "a b"

    def test_unknown_mode_rejected(self, goddag):
        with pytest.raises(ValueError):
            serialize_items([], mode="weird")

    def test_gnode_element_serialization(self, goddag):
        assert run_str(goddag, "/descendant::dmg[1]") == "<dmg>w</dmg>"

    def test_leaf_serialization_escapes(self, goddag):
        items = run(goddag, "/descendant::leaf()[1]")
        assert serialize_items(items) == "gesceaftum"

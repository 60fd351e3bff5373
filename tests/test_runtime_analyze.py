"""Tests for analyze-string (Definition 4) and its temp hierarchies."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.errors import FunctionError
from repro.core.goddag.nodes import GNode
from repro.core.plan import physical
from repro.core.runtime import QueryOptions, evaluate_query, serialize_items
from repro.core.runtime.analyze import compile_pattern
from repro.experiments.paperdata import PAPER_QUERIES


def run_str(goddag, query, **kwargs):
    return serialize_items(evaluate_query(goddag, query, **kwargs))


class TestPatternCompilation:
    def test_plain_pattern_passthrough(self):
        template = compile_pattern("unawe", strip_dotstar=True)
        assert template.source == "unawe"
        assert template.groups == ()

    def test_dotstar_stripping(self):
        assert compile_pattern(".*unawe.*", True).source == "unawe"
        assert compile_pattern(".*?x.*?", True).source == "x"

    def test_stripping_disabled(self):
        assert compile_pattern(".*unawe.*", False).source == ".*unawe.*"

    def test_all_dotstar_kept(self):
        # Stripping everything would empty the pattern; keep original.
        assert compile_pattern(".*", True).source == ".*"

    def test_fragment_tags_become_groups(self):
        template = compile_pattern(".*un<a>a</a>we.*", True)
        assert template.source == "un(?P<_ag0>a)we"
        assert template.groups == (("_ag0", "a", 0),)

    def test_nested_fragment_tags(self):
        template = compile_pattern("<o>x<i>y</i></o>", True)
        assert [g[1] for g in template.groups] == ["o", "i"]
        assert [g[2] for g in template.groups] == [0, 1]

    def test_mismatched_tags_rejected(self):
        with pytest.raises(FunctionError, match="mismatched"):
            compile_pattern("<a>x</b>", True)
        with pytest.raises(FunctionError, match="unclosed"):
            compile_pattern("<a>x", True)

    def test_lookbehind_not_mistaken_for_tag(self):
        template = compile_pattern("(?<=x)y", True)
        assert template.groups == ()

    def test_invalid_regex_reported(self):
        with pytest.raises(FunctionError, match="invalid analyze-string"):
            compile_pattern("(", True)


class TestAnalyzeString:
    def test_example_1_exact(self, goddag):
        query = ('analyze-string(/descendant::w[string(.) = '
                 '"unawendendne"], ".*un<a>a</a>we.*")')
        assert run_str(goddag, query) == \
            "<res><m>un<a>a</a>we</m>ndendne</res>"

    def test_plain_match_wrapped_in_m(self, goddag):
        query = ('analyze-string(/descendant::w[2], "unawe")')
        assert run_str(goddag, query) == "<res><m>unawe</m>ndendne</res>"

    def test_no_match_yields_plain_res(self, goddag):
        query = ('analyze-string(/descendant::w[2], "zzz")')
        assert run_str(goddag, query) == "<res>unawendendne</res>"

    def test_multiple_matches(self, goddag):
        query = ('analyze-string(/descendant::w[2], "nd")')
        assert run_str(goddag, query) == \
            "<res>unawe<m>nd</m>e<m>nd</m>ne</res>"

    def test_result_participates_in_extended_axes(self, goddag):
        query = '''
        let $res := analyze-string(/descendant::w[2], "unawe")
        for $leaf in $res/descendant::leaf()
        return if ($leaf/xancestor::m) then concat("[", string($leaf), "]")
               else string($leaf)
        '''
        # m covers "unawe"; the partition splits it as una|w|e.
        assert run_str(goddag, query) == "[una][w][e]ndendne"

    def test_match_overlapping_persistent_markup(self, goddag):
        # "unawe" overlaps the restoration res1 [0,14): m [11,16)
        # crosses res1's right boundary.
        query = '''
        let $res := analyze-string(/descendant::w[2], "unawe")
        return count($res/xdescendant::m/overlapping::res)
        '''
        assert run_str(goddag, query) == "1"

    def test_temporaries_removed_after_query(self, goddag):
        before = goddag.hierarchy_names
        leaves_before = [l.text for l in goddag.leaves()]
        run_str(goddag, 'analyze-string(/descendant::w[2], "unawe")')
        assert goddag.hierarchy_names == before
        assert [l.text for l in goddag.leaves()] == leaves_before

    def test_result_snapshotted_to_dom(self, goddag):
        from repro.markup import dom

        result = evaluate_query(
            goddag, 'analyze-string(/descendant::w[2], "unawe")')
        assert isinstance(result[0], dom.Element)
        assert result[0].name == "res"

    def test_two_calls_get_distinct_hierarchies(self, goddag):
        query = '''
        let $a := analyze-string(/descendant::w[1], "ge"),
            $b := analyze-string(/descendant::w[2], "un")
        return concat(hierarchy($a), ",", hierarchy($b))
        '''
        before = goddag.hierarchy_names
        result = evaluate_query(goddag, query)
        names = result[0].split(",")
        assert len(set(names)) == 2
        assert goddag.hierarchy_names == before

    def test_strip_dotstar_off_matches_whole_string(self, goddag):
        options = QueryOptions(analyze_strip_dotstar=False)
        out = run_str(goddag,
                      'analyze-string(/descendant::w[2], ".*unawe.*")',
                      options=options)
        assert out == "<res><m>unawendendne</m></res>"

    def test_custom_wrapper_names(self, goddag):
        options = QueryOptions(analyze_wrapper="hit", analyze_match="x")
        out = run_str(goddag,
                      'analyze-string(/descendant::w[2], "unawe")',
                      options=options)
        assert out == "<hit><x>unawe</x>ndendne</hit>"

    def test_requires_node_argument(self, goddag):
        with pytest.raises(FunctionError, match="KyGODDAG node"):
            evaluate_query(goddag, 'analyze-string("text", "x")')

    def test_zero_length_matches_skipped(self, goddag):
        out = run_str(goddag, 'analyze-string(/descendant::w[2], "z*")')
        assert out == "<res>unawendendne</res>"

    def test_analyze_on_leaf_node(self, goddag):
        query = 'analyze-string(/descendant::leaf()[1], "sceaf")'
        assert run_str(goddag, query) == \
            "<res>ge<m>sceaf</m>tum</res>"

    def test_analyze_on_line_spanning_words(self, goddag):
        query = 'analyze-string(/descendant::line[1], "um una")'
        assert run_str(goddag, query) == \
            "<res>gesceaft<m>um una</m>wendendne sin</res>"


class TestHandOver:
    """``execute_plan`` copies result items out of temporaries — and
    walks the result only when the evaluation ran on a shell, that is
    when its plan calls ``analyze-string`` (DESIGN.md §8)."""

    @pytest.fixture()
    def snapshots(self):
        calls = []
        original = physical.snapshot

        def counting(item, goddag):
            calls.append(item)
            return original(item, goddag)

        with mock.patch.object(physical, "snapshot", counting):
            yield calls

    @pytest.mark.parametrize("query", (
        "/descendant::w", PAPER_QUERIES[0].query, PAPER_QUERIES[1].query))
    def test_no_temporary_no_pass(self, goddag, snapshots, query):
        assert evaluate_query(goddag, query)
        assert not snapshots

    @pytest.mark.parametrize("query", (
        PAPER_QUERIES[2].query, PAPER_QUERIES[3].query,
        'analyze-string(/descendant::w[2], "unawe")/descendant::node()'))
    def test_temporaries_are_copied_out(self, goddag, snapshots, query):
        before = goddag.hierarchy_names
        result = evaluate_query(goddag, query)
        assert len(snapshots) == len(result) > 0
        assert goddag.hierarchy_names == before
        for item in result:
            if isinstance(item, GNode):
                assert item.hierarchy is None \
                    or goddag.has_hierarchy(item.hierarchy)

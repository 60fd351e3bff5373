"""Unit tests for the transactional update engine (DESIGN.md §9).

Covers the statement grammar and its static updating-ness rules, the
pending-update-list conflict matrix, atomicity of rejected statements,
the incremental apply paths (in-place rename, single-hierarchy
re-registration, full text rebuild), the stale-plan regression (plan
caches keyed by document version), post-mutation ``.mhx`` round trips,
and the CLI ``update`` command.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Engine, load_mhx
from repro.cli import main
from repro.errors import (
    QuerySyntaxError,
    UpdateConflictError,
    UpdateError,
)
from repro.core.lang import parse_query, parse_update, parse_xpath
from repro.core.update import compile_update


SOURCES = {
    "blocks": "<r><a>abc</a><b>def</b></r>",
    "halves": "<r><c>abcd</c>ef</r>",
}
TEXT = "abcdef"


@pytest.fixture()
def engine() -> Engine:
    return Engine.from_xml(TEXT, dict(SOURCES))


def serialized(engine: Engine) -> dict[str, str]:
    return {name: hierarchy.to_xml() for name, hierarchy
            in engine.document.hierarchies.items()}


# ---------------------------------------------------------------------------
# grammar and static rules
# ---------------------------------------------------------------------------


class TestUpdateGrammar:
    def test_all_primitive_forms_parse(self):
        for statement in (
                "insert node <w>x</w> into (//a)[1]",
                "insert node <w>x</w> as first into (//a)[1]",
                "insert node <w>x</w> as last into (//a)[1]",
                "insert node <w>x</w> before (//a)[1]",
                "insert node <w>x</w> after (//a)[1]",
                "delete node //a",
                "replace value of node (//a)[1] with 'xyz'",
                "rename node //a as 'seg'",
                "add markup seg to 'blocks' covering (//a)[1]",
                "remove markup (//a)[1]",
                "delete node //a, rename node //b as 'c'",
                "for $x in //a return delete node $x",
                "if (count(//a) > 1) then delete node (//a)[1] else ()",
        ):
            parse_update(statement)

    def test_queries_are_not_update_statements(self):
        with pytest.raises(QuerySyntaxError):
            parse_update("count(//a)")

    def test_update_rejected_in_query_and_xpath(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("delete node //a")
        with pytest.raises(QuerySyntaxError):
            parse_xpath("delete node //a")

    def test_update_rejected_outside_statement_position(self):
        for bad in ("count(delete node //a)",
                    "for $x in delete node //a return $x",
                    "(//a)[delete node //b]",
                    "let $d := delete node //a return $d"):
            with pytest.raises(QuerySyntaxError):
                parse_update(bad)

    def test_engine_query_rejects_updates(self, engine):
        with pytest.raises(QuerySyntaxError):
            engine.query("delete node //a")

    def test_explain_update(self, engine):
        report = engine.explain_update(
            "insert node <w>x</w> as first into (//a)[1]")
        assert "update insert [into-first]" in report
        assert "construct <w>" in report

    def test_compile_update_is_cached(self, engine):
        compiled = engine.compile_update("delete node //a")
        assert engine.compile_update("delete node //a") is compiled


# ---------------------------------------------------------------------------
# primitives and apply paths
# ---------------------------------------------------------------------------


class TestApplyPaths:
    def test_rename_is_fully_in_place(self, engine):
        engine.goddag.span_index()
        before = engine.version
        result = engine.update("rename node (//a)[1] as 'alpha'")
        assert result.renamed_in_place == 1
        assert result.replaced_hierarchies == []
        assert not result.text_changed
        assert engine.version > before
        assert engine.query("count(//alpha)").items == [1]
        assert engine.query("count(//a)").items == [0]
        assert serialized(engine)["blocks"] == \
            "<r><alpha>abc</alpha><b>def</b></r>"

    def test_add_and_remove_markup_touch_one_hierarchy(self, engine):
        result = engine.update(
            "add markup seg to 'halves' covering (//a)[1]")
        assert result.replaced_hierarchies == ["halves"]
        assert serialized(engine)["halves"] == \
            "<r><c><seg>abc</seg>d</c>ef</r>"
        assert engine.query("string((//seg)[1])").items == ["abc"]
        result = engine.update("remove markup (//seg)[1]")
        assert result.replaced_hierarchies == ["halves"]
        assert serialized(engine)["halves"] == SOURCES["halves"]

    def test_add_markup_proper_overlap_rejected(self, engine):
        before = serialized(engine)
        with pytest.raises(UpdateError):
            # [0,4) would properly overlap <a>[0,3) in 'blocks'.
            engine.update("add markup seg to 'blocks' covering (//c)[1]")
        assert serialized(engine) == before

    def test_replace_value_rebuilds_all_hierarchies(self, engine):
        result = engine.update(
            "replace value of node (//a)[1] with 'XY'")
        assert result.text_changed and result.text_delta == -1
        assert set(result.replaced_hierarchies) == {"blocks", "halves"}
        assert engine.document.text == "XYdef"
        assert serialized(engine)["blocks"] == "<r><a>XY</a><b>def</b></r>"
        assert serialized(engine)["halves"] == "<r><c>XYd</c>ef</r>"

    def test_insert_into_and_siblings(self, engine):
        engine.update("insert node <n>1</n> as first into (//b)[1]")
        assert engine.document.text == "abc1def"
        assert serialized(engine)["blocks"] == \
            "<r><a>abc</a><b><n>1</n>def</b></r>"
        engine.update("insert node <n>2</n> after (//a)[1]")
        assert engine.document.text == "abc21def"
        assert serialized(engine)["blocks"] == \
            "<r><a>abc</a><n>2</n><b><n>1</n>def</b></r>"

    def test_insert_copies_existing_node(self, engine):
        engine.update("insert node (//a)[1] as last into (//b)[1]")
        assert engine.document.text == "abcdefabc"
        assert serialized(engine)["blocks"] == \
            "<r><a>abc</a><b>def<a>abc</a></b></r>"
        # The other hierarchy absorbed the text through its text nodes.
        assert serialized(engine)["halves"] == "<r><c>abcd</c>efabc</r>"

    def test_delete_removes_markup_and_text(self, engine):
        result = engine.update("delete node (//a)[1]")
        assert result.text_changed and result.text_delta == -3
        assert engine.document.text == "def"
        assert serialized(engine)["blocks"] == "<r><b>def</b></r>"
        assert serialized(engine)["halves"] == "<r><c>d</c>ef</r>"

    def test_flwor_bulk_update(self, engine):
        engine.update("for $x in //* return rename node $x as 'n'")
        assert engine.query("count(//n)").items == [3]

    def test_update_with_variables(self, engine):
        node = engine.query("(//b)[1]").items
        engine.update("delete node $target", variables={"target": node})
        assert engine.document.text == "abc"

    def test_conditional_update_vacuous_branch(self, engine):
        result = engine.update(
            "if (count(//zzz) > 0) then delete node (//a)[1] else ()")
        assert result.applied == 0
        assert engine.document.text == TEXT

    def test_bulk_delete_of_adjacent_siblings(self, engine):
        """Adjacent removal ranges compare half-open: one statement may
        delete every sibling of a hierarchy (the XQuery Update norm).
        Overlapping removals across hierarchies still conflict."""
        result = engine.update("for $x in //a | //b return delete node $x")
        assert result.counts["delete"] == 2
        assert engine.document.text == ""
        assert serialized(engine) == {"blocks": "<r/>",
                                      "halves": "<r><c/></r>"}
        with pytest.raises(UpdateConflictError):
            # Re-seed, then delete overlapping elements of two
            # hierarchies at once: genuinely ambiguous, rejected.
            fresh = Engine.from_xml(TEXT, dict(SOURCES))
            fresh.update("delete node (//a)[1], delete node (//c)[1]")

    def test_adjacent_replaces_in_one_statement(self, engine):
        engine.update("replace value of node (//a)[1] with 'AAA', "
                      "replace value of node (//b)[1] with 'BBB'")
        assert engine.document.text == "AAABBB"
        # Each replacement anchors at the text node containing its
        # edit's start offset, so <c> (which contains both starts)
        # absorbs both replacements.
        assert serialized(engine)["halves"] == "<r><c>AAABBB</c></r>"

    def test_text_phase_applies_in_kind_order(self):
        """replace → delete → insert is a fixed kind order: the two
        comma orders of an insert-into-replaced-node statement must
        produce identical documents."""
        results = []
        for statement in (
                "insert node <x/> as first into (//b)[1], "
                "replace value of node (//b)[1] with 'Z'",
                "replace value of node (//b)[1] with 'Z', "
                "insert node <x/> as first into (//b)[1]"):
            fresh = Engine.from_xml(TEXT, dict(SOURCES))
            fresh.update(statement)
            results.append((fresh.document.text, serialized(fresh)))
        assert results[0] == results[1]
        assert results[0][1]["blocks"] == "<r><a>abc</a><b><x/>Z</b></r>"

    def test_insert_with_empty_target_raises(self, engine):
        from repro.errors import QueryEvaluationError

        before = serialized(engine)
        with pytest.raises(QueryEvaluationError):
            engine.update("insert node <x>1</x> into //nosuch")
        assert serialized(engine) == before

    def test_rows_carry_what_is_not_text_like_the_dom_oracle(self):
        """Comments, PIs, attributes, the root's attributes, the
        comments and PIs around the root element and empty elements
        ride the row edits — through splices, unwraps, wraps and copied
        fragments — exactly as the DOM applier in ``tests/`` places
        them (the fuzzers' documents hold none of these)."""
        from repro.core.goddag import KyGoddag

        from tests.dombuild import assert_same_columns
        from tests.updateoracle import RebuildOracle

        engine = Engine.from_xml("alpha beta gamma delta", {
            "a": '<!--pro--><?p x?><r k="v"><s n="1">alpha <!--c1-->beta'
                 '</s> <e/><s n="2">gam<?t d?>ma</s> delta</r><!--epi-->',
            "b": '<r><x>alpha beta </x><y a="1">gamma<z/> delta</y></r>'})
        oracle = RebuildOracle(engine.document)
        for statement in (
                "insert node (//s)[1] after (//x)[1]",
                "insert node (//s)[last()] as first into (//y)[1]",
                'add markup m to "a" covering (//x)[1]',
                "remove markup (//s)[1]",
                "replace value of node (//s)[last()] with 'GAMMA'",
                "delete node (//y)[1]",
                "insert node <q t='1'>QQ</q> after (//x)[1]",
                'add markup g to "b" covering (//e)[1]',
                "insert node 'tail' as last into (//x)[1]"):
            held = engine.goddag.components()
            engine.update(statement)
            oracle.apply(statement)
            assert (engine.document.text, serialized(engine)) == \
                (oracle.text, oracle.sources), statement
            changed = engine.goddag.changed_components(held)
            fresh = KyGoddag.build(oracle.document()).components()
            assert_same_columns(
                [engine.goddag.components()[name] for name in changed],
                [fresh[name] for name in changed])


# ---------------------------------------------------------------------------
# conflicts and atomicity
# ---------------------------------------------------------------------------


class TestConflicts:
    def test_duplicate_rename_conflicts(self, engine):
        with pytest.raises(UpdateConflictError):
            engine.update("rename node (//a)[1] as 'x', "
                          "rename node (//a)[1] as 'y'")

    def test_duplicate_replace_conflicts(self, engine):
        with pytest.raises(UpdateConflictError):
            engine.update("replace value of node (//a)[1] with 'x', "
                          "replace value of node (//a)[1] with 'y'")

    def test_same_point_inserts_conflict(self, engine):
        with pytest.raises(UpdateConflictError):
            engine.update("insert node <x>1</x> before (//b)[1], "
                          "insert node <y>2</y> before (//b)[1]")

    def test_overlapping_text_edits_conflict(self, engine):
        with pytest.raises(UpdateConflictError):
            engine.update("delete node (//a)[1], "
                          "replace value of node (//c)[1] with 'q'")

    def test_remove_markup_plus_delete_conflicts(self, engine):
        with pytest.raises(UpdateConflictError):
            engine.update("remove markup (//a)[1], delete node (//a)[1]")

    def test_overlapping_wraps_conflict_before_mutation(self):
        engine = Engine.from_xml(TEXT, {
            "blocks": "<r><a>abc</a><b>def</b></r>",
            "halves": "<r><c>ab</c><d>cdef</d></r>",
        })
        before = {name: h.to_xml() for name, h
                  in engine.document.hierarchies.items()}
        with pytest.raises(UpdateConflictError):
            engine.update(
                "add markup x to 'blocks' covering "
                "/descendant::leaf()[position() <= 2], "
                "add markup y to 'blocks' covering "
                "/descendant::leaf()[position() >= 2]")
        assert {name: h.to_xml() for name, h
                in engine.document.hierarchies.items()} == before
        engine.goddag.check_invariants()
        # Equal-extent wraps nest innermost instead of conflicting.
        engine.update("add markup outer to 'blocks' covering //a, "
                      "add markup inner to 'blocks' covering //a")
        assert engine.document.hierarchies["blocks"].to_xml() == \
            "<r><a><outer><inner>abc</inner></outer></a><b>def</b></r>"

    def test_nested_deletes_collapse(self, engine):
        engine.update("add markup seg to 'blocks' covering (//a)[1]")
        result = engine.update("delete node (//a)[1], "
                               "delete node (//seg)[1]")
        assert result.counts["delete"] == 1
        assert engine.document.text == "def"

    def test_rejected_statement_is_atomic(self, engine):
        engine.goddag.span_index()
        before_text = engine.document.text
        before_sources = serialized(engine)
        with pytest.raises(UpdateConflictError):
            engine.update("rename node (//a)[1] as 'ok', "
                          "delete node (//b)[1], "
                          "replace value of node (//b)[1] with 'x'")
        assert engine.document.text == before_text
        assert serialized(engine) == before_sources
        engine.goddag.check_invariants()
        assert engine.query("count(//a)").items == [1]

    def test_invalid_rename_name_rejected(self, engine):
        with pytest.raises(UpdateError):
            engine.update("rename node (//a)[1] as '9bad name'")


# ---------------------------------------------------------------------------
# stale-plan regression: caches must be invalidated by document version
# ---------------------------------------------------------------------------


class TestPlanCacheInvalidation:
    def test_cached_plans_see_mutations(self, engine):
        """The stale-plan read: a compiled plan cached before a rename
        must not serve pre-mutation name-index state afterwards."""
        engine.goddag.span_index()
        # Warm the plan cache and the per-name element indexes.
        assert engine.query("count(/descendant::a)").items == [1]
        assert engine.query("count(/descendant::alpha)").items == [0]
        assert engine.query("/descendant::a[xdescendant::leaf()]"
                            ).items != []
        engine.update("rename node (//a)[1] as 'alpha'")
        # Same query texts, same engine: must reflect the mutation.
        assert engine.query("count(/descendant::a)").items == [0]
        assert engine.query("count(/descendant::alpha)").items == [1]
        assert engine.query("/descendant::alpha[xdescendant::leaf()]"
                            ).items != []

    def test_rename_then_remove_markup_drops_interval_rows(self, engine):
        """The per-name interval columns behind the batched existence
        probes must forget a removed element under its *current* name:
        an in-place rename patches the index's live name column, not
        the name table the hierarchy was merged with."""
        engine.goddag.span_index()
        engine.update("rename node (//a)[1] as 'alpha'")
        # warm the alpha columns, then take the element away again
        assert engine.query("count(//c[xdescendant::alpha])").items == [1]
        engine.update("remove markup (//alpha)[1]")
        assert len(engine.goddag.span_index().name_interval("alpha")) == 0
        assert engine.query("count(//c[xdescendant::alpha])").items == [0]
        assert engine.query(
            "count(//c[xdescendant::alpha or overlapping::alpha])"
        ).items == [0]

    def test_cache_keys_include_version(self, engine):
        first = engine.query("count(//a)")
        assert first.stats.plan_cache_hit is False
        again = engine.query("count(//a)")
        assert again.stats.plan_cache_hit is True
        engine.update("rename node (//b)[1] as 'beta'")
        post = engine.query("count(//a)")
        assert post.stats.plan_cache_hit is False  # new version, new key
        repeat = engine.query("count(//a)")
        assert repeat.stats.plan_cache_hit is True

    def test_compile_objects_not_shared_across_versions(self, engine):
        compiled = engine.compile("count(//a)")
        engine.update("rename node (//b)[1] as 'beta'")
        assert engine.compile("count(//a)") is not compiled


# ---------------------------------------------------------------------------
# persistence: .mhx round trip after mutation
# ---------------------------------------------------------------------------


class TestPersistence:
    def test_mhx_round_trip_after_updates(self, engine, tmp_path):
        engine.update("rename node (//a)[1] as 'alpha'")
        engine.update("insert node <n>42</n> after (//alpha)[1]")
        engine.update("add markup seg to 'halves' covering (//n)[1]")
        path = tmp_path / "mutated.mhx"
        engine.save_mhx(path)
        reloaded = Engine(load_mhx(path))
        assert reloaded.document.text == engine.document.text
        for query in ("count(//alpha)", "count(//n)",
                      "string((//seg)[1])", "count(//leaf())"):
            assert reloaded.query(query).items == \
                engine.query(query).items
        reloaded.goddag.check_invariants()


# ---------------------------------------------------------------------------
# invariant checking catches corruption
# ---------------------------------------------------------------------------


class TestInvariantNet:
    def test_detects_stale_order_key(self, engine):
        from repro.errors import GoddagError

        node = engine.query("(//a)[1]").items[0]
        engine.goddag.order_key(node)      # cache the packed key
        node._okey = node._okey + 1        # corrupt it
        with pytest.raises(GoddagError):
            engine.goddag.check_invariants()

    def test_detects_stale_span_index_name(self, engine):
        from repro.errors import GoddagError

        engine.goddag.span_index()
        node = engine.query("(//a)[1]").items[0]
        node._name = "smuggled"            # bypass rename_element
        with pytest.raises(GoddagError):
            engine.goddag.check_invariants()

    @pytest.mark.parametrize("column", ["starts", "ends", "parents",
                                        "subtree_ends", "name_ids",
                                        "okeys", "kinds"])
    def test_detects_column_diverging_from_its_node(self, engine, column):
        """Forks and saves read the columns, queries the nodes: a row
        that disagrees with its node object is corruption."""
        from repro.errors import GoddagError

        goddag = engine.goddag
        component = goddag._components[goddag.hierarchy_names[0]]
        component.nodes  # every row's node object exists
        forged = getattr(component, column).copy()
        forged[1] += 1
        setattr(component, "_okeys" if column == "okeys" else column,
                forged)
        with pytest.raises(GoddagError, match="invariant violation"):
            goddag.check_invariants()

    def test_detects_filled_node_diverging_from_its_row(self, engine):
        """The net compares every filled row with its node object."""
        from repro.errors import GoddagError

        node = engine.query("(//a)[1]").items[0]  # fills that row
        component = engine.goddag._components[node.hierarchy]
        assert component.filled().tolist() == [node.preorder]
        engine.goddag.check_invariants()
        node.start += 1
        with pytest.raises(GoddagError, match="column says start"):
            engine.goddag.check_invariants()

    def test_detects_children_that_do_not_tile_their_parent(self, engine):
        """With no node object made, the tree is checked on the
        columns: a child starting inside its previous sibling breaks
        the tiling of their parent's span."""
        from repro.errors import GoddagError

        goddag = engine.goddag
        component = goddag._components["blocks"]
        # rows that are not their parent's first child (a previous
        # sibling ends where they start)
        later = [row for row, parent in enumerate(component.parents)
                 if row != parent + 1 and component.starts[row] > 0]
        assert component._objects is None and later
        starts = component.starts.copy()
        starts[later[0]] -= 1
        component.starts = starts
        with pytest.raises(GoddagError,
                           match="must tile their parent's span"):
            goddag.check_invariants()
        assert component._objects is None  # the net made no node

    def test_detects_stale_span_index_column(self, engine):
        from repro.errors import GoddagError

        index = engine.goddag.span_index()
        index.preorders = index.preorders.copy()
        index.preorders[[1, 2]] = index.preorders[[2, 1]]
        with pytest.raises(GoddagError, match="span index"):
            engine.goddag.check_invariants()

    def test_detects_partition_desync(self, engine):
        from repro.errors import GoddagError

        engine.goddag.partition.add_boundaries([2])
        with pytest.raises(GoddagError):
            engine.goddag.check_invariants()

    @pytest.fixture()
    def committed(self, engine):
        """A real one-hierarchy commit: ``blocks`` rebuilt, ``halves``
        untouched, the span index merged into; the net over what the
        commit built passes."""
        goddag = engine.goddag
        goddag.span_index()
        held = goddag.components()
        engine.update("add markup seg to 'blocks' covering (//a)[1]")
        changed = goddag.changed_components(held)
        assert changed == ["blocks"]
        assert goddag._components["halves"] is held["halves"]
        goddag.check_invariants(components=changed)
        return goddag, changed

    @staticmethod
    def untouched_entries(goddag) -> list[int]:
        """Start-side positions of ``halves``' entries — ``<c>``, its
        text ``abcd`` (the same span) and the text ``ef`` — in order."""
        index = goddag.span_index()
        at = np.flatnonzero(index.ranks == goddag.hierarchy_rank("halves"))
        assert index.preorders[at].tolist() == [0, 1, 2]
        return at.tolist()

    @pytest.mark.parametrize("pair", [(0, 2), (0, 1)])
    def test_scoped_net_detects_swapped_untouched_preorders(
            self, committed, pair):
        """Two entries of the untouched hierarchy name each other's
        rows: with different spans the gathered spans disagree; with
        the same span (``<c>`` and its text) only the order proof —
        its entries are its span rows in its own sort order — sees
        it."""
        from repro.errors import GoddagError

        goddag, changed = committed
        index = goddag.span_index()
        at = self.untouched_entries(goddag)
        swap = [at[pair[0]], at[pair[1]]]
        index.preorders = index.preorders.copy()
        index.preorders[swap] = index.preorders[swap[::-1]]
        with pytest.raises(GoddagError, match="span index start-side"):
            goddag.check_invariants(components=changed)

    def test_scoped_net_detects_a_dropped_untouched_entry(
            self, committed):
        """One entry of the untouched hierarchy gone from every
        start-side column at once, the columns still aligned."""
        from repro.errors import GoddagError

        goddag, changed = committed
        index = goddag.span_index()
        keep = np.ones(len(index.ranks), dtype=bool)
        keep[self.untouched_entries(goddag)[2]] = False
        for attribute in ("_s_keys", "starts", "ends", "ranks",
                          "preorders", "subtree_ends", "_names"):
            setattr(index, attribute, getattr(index, attribute)[keep])
        assert index._nodes is None
        with pytest.raises(GoddagError, match="span index start-side"):
            goddag.check_invariants(components=changed)

    def test_scoped_net_detects_a_shifted_untouched_start(
            self, committed):
        """The untouched text ``ef`` starts one character late, its key
        packed again from the shifted span: keys are sorted and agree
        with the span columns, and the span gathered by preorder does
        not."""
        from repro.core.goddag.index import _start_keys
        from repro.errors import GoddagError

        goddag, changed = committed
        index = goddag.span_index()
        entry = self.untouched_entries(goddag)[2]
        starts, keys = index.starts.copy(), index._s_keys.copy()
        starts[entry] += 1
        keys[entry] = _start_keys(starts[entry], index.ends[entry])
        index.starts, index._s_keys = starts, keys
        assert (np.diff(keys) >= 0).all()
        with pytest.raises(GoddagError,
                           match=r"span index start-side entry .* "
                                 r"of 'halves'\) is stale"):
            goddag.check_invariants(components=changed)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestUpdateCli:
    def test_update_summary_and_out(self, tmp_path, capsys):
        out = tmp_path / "sample.mhx"
        code = main(["update", "--sample",
                     "rename node (//w)[1] as 'word'",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "applied 1 primitives" in printed
        assert "rename: 1" in printed
        reloaded = Engine(load_mhx(out))
        assert reloaded.query("count(//word)").items == [1]

    def test_update_explain(self, capsys):
        code = main(["update", "--sample", "--explain",
                     "delete node (//w)[1]"])
        assert code == 0
        assert "update delete" in capsys.readouterr().out

    def test_update_conflict_reports_error(self, capsys):
        code = main(["update", "--sample",
                     "rename node (//w)[1] as 'x', "
                     "rename node (//w)[1] as 'y'"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

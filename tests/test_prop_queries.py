"""Property tests: algebraic laws of the query language itself."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.goddag import KyGoddag
from repro.core.runtime import evaluate_query, serialize_each, serialize_items

from tests.strategies import multihierarchical_documents
from tests.treewalk import TreeWalkEngine

SETTINGS = settings(max_examples=40, deadline=None)

AXES = st.sampled_from([
    "descendant", "xdescendant", "xfollowing", "xpreceding",
    "overlapping", "following", "preceding",
])

NAMES = st.sampled_from(["w", "line", "dmg", "res", "seg"])


@SETTINGS
@given(document=multihierarchical_documents(), axis=AXES, name=NAMES)
def test_union_idempotent_and_counts(document, axis, name):
    goddag = KyGoddag.build(document)
    single = evaluate_query(goddag, f"/descendant::*/{axis}::{name}")
    doubled = evaluate_query(
        goddag,
        f"/descendant::*/{axis}::{name} | /descendant::*/{axis}::{name}")
    assert [id(n) for n in doubled] == [id(n) for n in single]


@SETTINGS
@given(document=multihierarchical_documents(), name=NAMES)
def test_intersect_except_partition(document, name):
    """A = (A intersect B) ∪ (A except B) for any node sets."""
    goddag = KyGoddag.build(document)
    left = f"/descendant::{name}"
    right = "/descendant::*[2]"
    combined = evaluate_query(
        goddag,
        f"({left} intersect {right}) | ({left} except {right})")
    base = evaluate_query(goddag, left)
    assert [id(n) for n in combined] == [id(n) for n in base]


@SETTINGS
@given(document=multihierarchical_documents())
def test_predicate_position_slicing(document):
    """Positional predicates agree with Python slicing."""
    goddag = KyGoddag.build(document)
    all_elements = evaluate_query(goddag, "/descendant::*")
    for position in (1, 2, max(1, len(all_elements))):
        picked = evaluate_query(goddag, f"/descendant::*[{position}]")
        if position <= len(all_elements):
            assert picked == [all_elements[position - 1]]
        else:
            assert picked == []


@SETTINGS
@given(document=multihierarchical_documents())
def test_count_distributes_over_sequence(document):
    goddag = KyGoddag.build(document)
    counts = evaluate_query(goddag, '''
        (count((/descendant::*, /descendant::leaf())),
         count(/descendant::*) + count(/descendant::leaf()))
    ''')
    assert counts[0] == counts[1]


@SETTINGS
@given(document=multihierarchical_documents())
def test_flwor_where_equals_predicate(document):
    """`for … where P(x)` ≡ path predicate `[P(.)]`."""
    goddag = KyGoddag.build(document)
    by_where = evaluate_query(goddag, '''
        for $e in /descendant::* where string-length(string($e)) > 1
        return string($e)
    ''')
    by_predicate = evaluate_query(goddag, '''
        for $e in /descendant::*[string-length(string(.)) > 1]
        return string($e)
    ''')
    assert by_where == by_predicate


@SETTINGS
@given(document=multihierarchical_documents())
def test_quantifiers_are_de_morgan_duals(document):
    goddag = KyGoddag.build(document)
    some = evaluate_query(goddag, '''
        some $e in /descendant::* satisfies string-length(string($e)) > 2
    ''')
    not_every_not = evaluate_query(goddag, '''
        not(every $e in /descendant::*
            satisfies not(string-length(string($e)) > 2))
    ''')
    assert some == not_every_not


@SETTINGS
@given(document=multihierarchical_documents())
def test_reverse_reverse_is_identity(document):
    goddag = KyGoddag.build(document)
    once = evaluate_query(goddag, "for $l in /descendant::leaf() "
                                  "return string($l)")
    twice = evaluate_query(goddag, '''
        reverse(reverse(for $l in /descendant::leaf()
                        return string($l)))
    ''')
    assert once == twice


@SETTINGS
@given(document=multihierarchical_documents())
def test_string_of_root_is_base_text(document):
    goddag = KyGoddag.build(document)
    assert evaluate_query(goddag, "string(/)") == [document.text]


@SETTINGS
@given(document=multihierarchical_documents(), axis=AXES, name=NAMES)
def test_results_serialize_as_the_tree_walk_does(document, axis, name):
    """The pipeline's results, through the row writer, print as the
    tree-walker's results through the node-walking oracle."""
    goddag = KyGoddag.build(document)
    walker = TreeWalkEngine(goddag)
    for query in (f"/descendant::*/{axis}::{name}", "/", "//leaf()",
                  f"/descendant::{name}/descendant::leaf()",
                  f"(/descendant::{name}, //leaf(), count(//*), 'x', 1)",
                  f"for $e in /descendant::* return ($e, string($e))"):
        items = evaluate_query(goddag, query)
        reference = walker.query(query)
        assert serialize_each(items) == reference.strings(), query
        for mode in ("paper", "xquery"):
            assert serialize_items(items, mode) \
                == reference.serialize(mode), (query, mode)

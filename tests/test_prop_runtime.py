"""Property tests: analyze-string invariants and baseline round-trips."""

from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    defragment,
    demilestone,
    fragment_document,
    milestone_document,
)
from repro.cmh.spans import spans_of
from repro.core.goddag import KyGoddag
from repro.core.runtime import evaluate_query, serialize_items

from tests import nodewalk
from tests.strategies import multihierarchical_documents

SETTINGS = settings(max_examples=40, deadline=None)

_patterns = st.text(alphabet="abϸ x", min_size=1, max_size=4)


def _strip_tags(markup: str) -> str:
    return re.sub(r"<[^>]*>", "", markup)


@SETTINGS
@given(document=multihierarchical_documents(min_text=1), data=st.data())
def test_analyze_string_preserves_content(document, data):
    """The <res> markup re-tags the node's content without changing it."""
    goddag = KyGoddag.build(document)
    pattern = re.escape(data.draw(_patterns))
    items = evaluate_query(goddag, f'analyze-string(/, "{pattern}")')
    out = serialize_items(items)
    assert out == nodewalk.serialize_items(items)
    # The root wraps all of S: stripping tags must give back S exactly
    # (the alphabet contains no XML-escaped characters).
    assert _strip_tags(out) == document.text


@SETTINGS
@given(document=multihierarchical_documents(min_text=1), data=st.data())
def test_analyze_string_tags_every_match(document, data):
    goddag = KyGoddag.build(document)
    needle = data.draw(_patterns)
    pattern = re.escape(needle)
    items = evaluate_query(goddag, f'analyze-string(/, "{pattern}")')
    out = serialize_items(items)
    assert out == nodewalk.serialize_items(items)
    expected_matches = len(re.findall(pattern, document.text))
    assert out.count("<m>") == expected_matches


@SETTINGS
@given(document=multihierarchical_documents(), data=st.data())
def test_analyze_string_restores_goddag(document, data):
    goddag = KyGoddag.build(document)
    hierarchies = list(goddag.hierarchy_names)
    leaves = [(l.start, l.end) for l in goddag.leaves()]
    pattern = re.escape(data.draw(_patterns))
    evaluate_query(goddag, f'analyze-string(/, "{pattern}")')
    assert goddag.hierarchy_names == hierarchies
    assert [(l.start, l.end) for l in goddag.leaves()] == leaves


def _signature(document):
    return sorted((s.start, s.end, s.name) for s in spans_of(document))


def _assert_hierarchies_recovered(document, rebuilt):
    """Hierarchies with markup round-trip; element-less hierarchies
    contribute nothing to a flat encoding and are (by design) not
    recoverable from it."""
    for name in document.hierarchy_names:
        expected = _signature(document[name].document)
        if name in rebuilt:
            assert _signature(rebuilt[name].document) == expected
        else:
            assert expected == []


@SETTINGS
@given(document=multihierarchical_documents(max_hierarchies=3))
def test_fragmentation_round_trip(document):
    flat = fragment_document(document)
    assert flat.root.text_content() == document.text
    _assert_hierarchies_recovered(document, defragment(flat))


@SETTINGS
@given(document=multihierarchical_documents(max_hierarchies=3))
def test_milestone_round_trip(document):
    primary = document.hierarchy_names[0]
    flat = milestone_document(document, primary=primary)
    assert flat.root.text_content() == document.text
    rebuilt = demilestone(flat, primary)
    # The primary hierarchy always comes back (possibly element-less).
    assert primary in rebuilt
    for name in document.hierarchy_names:
        expected = _signature(document[name].document)
        if name in rebuilt:
            assert _signature(rebuilt[name].document) == expected
        else:
            assert expected == []


@SETTINGS
@given(document=multihierarchical_documents())
def test_count_queries_consistent(document):
    """count(descendant::leaf()) equals the partition size; the node()
    test from the root covers every hierarchy node plus leaves."""
    goddag = KyGoddag.build(document)
    leaf_count = evaluate_query(goddag,
                                "count(/descendant-or-self::leaf())")
    assert leaf_count == [len(goddag.partition)]
    node_count = evaluate_query(goddag, "count(/descendant::node())")
    expected = sum(len(goddag.nodes_of(h))
                   for h in goddag.hierarchy_names)
    assert node_count == [expected + len(goddag.partition)]

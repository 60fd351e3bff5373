"""Property tests for the leaf partition (paper §3).

The partition is defined as *longest substrings no markup breaks*;
these properties pin down exactly that:

* tiling — leaves concatenate to the base text;
* closure — every markup boundary is a leaf boundary;
* maximality — every internal leaf boundary is some markup boundary
  (leaves are as long as possible);
* reversibility — removing a hierarchy restores the previous partition.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.cmh.spans import spans_of
from repro.core.goddag import KyGoddag
from repro.core.goddag.partition import Partition

from tests.strategies import multihierarchical_documents, span_sets

SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(document=multihierarchical_documents())
def test_leaves_tile_the_text(document):
    goddag = KyGoddag.build(document)
    assert "".join(l.text for l in goddag.leaves()) == document.text


@SETTINGS
@given(document=multihierarchical_documents())
def test_markup_boundaries_are_leaf_boundaries(document):
    goddag = KyGoddag.build(document)
    for name in document.hierarchy_names:
        for span in spans_of(document[name].document):
            assert goddag.partition.is_boundary(span.start)
            assert goddag.partition.is_boundary(span.end)


@SETTINGS
@given(document=multihierarchical_documents())
def test_partition_maximality(document):
    """Each internal boundary is contributed by some markup or text
    node edge — no leaf is split gratuitously."""
    goddag = KyGoddag.build(document)
    contributed: set[int] = {0, len(document.text)}
    for name in goddag.hierarchy_names:
        for node in goddag.nodes_of(name):
            contributed.add(node.start)
            contributed.add(node.end)
    for boundary in goddag.partition.boundaries:
        assert boundary in contributed


@SETTINGS
@given(document=multihierarchical_documents())
def test_leaf_parents_one_text_node_per_hierarchy(document):
    goddag = KyGoddag.build(document)
    hierarchy_count = len(document.hierarchy_names)
    for leaf in goddag.leaves():
        parents = goddag.text_parents_of_leaf(leaf)
        assert len(parents) == hierarchy_count
        assert len({p.hierarchy for p in parents}) == hierarchy_count
        for parent in parents:
            assert parent.start <= leaf.start and leaf.end <= parent.end


@SETTINGS
@given(document=multihierarchical_documents(), data=st.data())
def test_add_remove_hierarchy_restores_partition(document, data):
    goddag = KyGoddag.build(document)
    before = [(l.start, l.end) for l in goddag.leaves()]
    extra = data.draw(span_sets(document.text, max_spans=4))
    goddag.add_hierarchy_from_spans("extra", extra, temporary=True)
    # While present, the extra markup's boundaries are leaf boundaries.
    for span in extra.spans:
        assert goddag.partition.is_boundary(span.start)
    goddag.remove_hierarchy("extra")
    assert [(l.start, l.end) for l in goddag.leaves()] == before


@SETTINGS
@given(document=multihierarchical_documents())
def test_leaves_of_equals_leaf_set_within_span(document):
    """``leaves(n)`` == the leaves lying inside the node's span."""
    goddag = KyGoddag.build(document)
    all_leaves = goddag.leaves()
    for name in goddag.hierarchy_names:
        for node in goddag.nodes_of(name):
            expected = [l for l in all_leaves
                        if node.start <= l.start and l.end <= node.end]
            assert goddag.leaves_of(node) == expected


@SETTINGS
@given(document=multihierarchical_documents())
def test_leaf_at_consistent_with_leaves(document):
    goddag = KyGoddag.build(document)
    for leaf in goddag.leaves():
        for offset in range(leaf.start, leaf.end):
            assert goddag.partition.leaf_at(offset) is leaf


@SETTINGS
@given(document=multihierarchical_documents(), data=st.data())
def test_restored_partition_swaps_like_a_counted_one(document, data):
    """A restored partition keeps its multiset as two arrays through a
    whole hierarchy's swap; it must end where the counter form does,
    and so must the leaves, its fork and the source it was forked
    from."""
    goddag = KyGoddag.build(document)
    built = goddag.partition
    offsets, counts = built.export_arrays()
    restored = Partition.restore(document.text, offsets.copy(),
                                 counts.copy())
    fork = restored.fork()
    component = goddag.components()[document.hierarchy_names[0]]
    old = np.concatenate((component.starts, component.ends))
    extra = data.draw(span_sets(document.text, max_spans=4))
    new = np.concatenate((old, [s.start for s in extra.spans],
                          [s.end for s in extra.spans]))
    for partition in (built, fork):
        partition.swap_boundaries(old, new)
    assert fork._refcounts is None  # still the arrays
    for got, want in zip(fork.export_arrays(), built.export_arrays()):
        assert np.array_equal(got, want)
    assert fork.boundaries == built.boundaries
    assert [(l.start, l.end) for l in fork.leaves()] == \
        [(l.start, l.end) for l in built.leaves()]
    for offset in range(len(document.text) + 1):
        assert fork.is_boundary(offset) == built.is_boundary(offset)
    assert np.array_equal(restored.export_arrays()[0], offsets)
    # a per-offset splice fills the counter from the arrays
    fork.swap_boundaries(new, old)
    fork.add_boundaries([0])
    built.swap_boundaries(new, old)
    built.add_boundaries([0])
    assert fork._refcounts == built._refcounts

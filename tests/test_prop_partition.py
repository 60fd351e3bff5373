"""Property tests for the leaf partition (paper §3).

The partition is defined as *longest substrings no markup breaks*;
these properties pin down exactly that:

* tiling — leaves concatenate to the base text;
* closure — every markup boundary is a leaf boundary;
* maximality — every internal leaf boundary is some markup boundary
  (leaves are as long as possible);
* reversibility — swapping a hierarchy back restores the previous
  partition, and a shell's temporary leaves its source's as it was.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
def test_shell_hierarchy_leaves_source_partition(document, data):
    """A temporary on a shell splits the shell's leaves exactly as the
    same markup registered for good would, and leaves the source's as
    they were — whether or not either had made its leaf list yet."""
    goddag = KyGoddag.build(document)
    warm = data.draw(st.booleans())
    before = [(l.start, l.end) for l in goddag.leaves()] if warm else None
    extra = data.draw(span_sets(document.text, max_spans=4))
    shell = goddag.shell()
    shell.add_hierarchy_from_spans("extra", extra, temporary=True)
    # the first leaf read merges the added boundaries and makes the list
    shell_leaves = shell.leaves()
    persistent = KyGoddag.build(document)
    persistent.add_hierarchy_from_spans("extra", extra)
    assert [(l.start, l.end) for l in shell_leaves] \
        == [(l.start, l.end) for l in persistent.leaves()]
    for span in extra.spans:
        assert shell.partition.is_boundary(span.start)
    source_leaves = goddag.leaves()
    if warm:
        assert [(l.start, l.end) for l in source_leaves] == before
    # the cells no temporary split are the same leaf objects
    for leaf in shell_leaves:
        cell = goddag.partition.leaf_at(leaf.start)
        if (cell.start, cell.end) == (leaf.start, leaf.end):
            assert cell is leaf


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
def test_swap_splices_like_a_fresh_partition(document, data):
    """A whole hierarchy's swap must end where a partition restored from
    the resulting multiset starts — with a leaf list made before (the
    splice) or not (a fill after) — and the source a fork was taken
    from must keep its arrays; the swap back restores them."""
    goddag = KyGoddag.build(document)
    built = goddag.partition
    offsets, counts = built.export_arrays()
    before = [(l.start, l.end) for l in built.leaves()]
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
    multiset = Counter(dict(zip(offsets.tolist(), counts.tolist())))
    multiset.update(new.tolist())
    multiset.subtract(old.tolist())
    want = sorted(multiset.items())
    fresh = Partition.restore(document.text,
                              np.array([o for o, _ in want]),
                              np.array([c for _, c in want]))
    for partition in (built, fork):
        for got, expected in zip(partition.export_arrays(),
                                 fresh.export_arrays()):
            assert np.array_equal(got, expected)
        assert partition.boundaries == fresh.boundaries
        assert [(l.start, l.end) for l in partition.leaves()] == \
            [(l.start, l.end) for l in fresh.leaves()]
        for offset in range(len(document.text) + 1):
            assert partition.is_boundary(offset) == fresh.is_boundary(offset)
    assert np.array_equal(restored.export_arrays()[0], offsets)
    built.swap_boundaries(new, old)
    assert [(l.start, l.end) for l in built.leaves()] == before
    for got, expected in zip(built.export_arrays(), (offsets, counts)):
        assert np.array_equal(got, expected)

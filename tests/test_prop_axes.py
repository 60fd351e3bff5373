"""Property tests: the interval implementation of Definition 1 agrees
with the *literal* leaf-set semantics, plus the axis algebra.

``literal_*`` below compute each extended axis exactly as the paper
writes it — with explicit leaf sets, ``min``/``max`` over the leaf
order, and within-hierarchy ancestor/descendant exclusions — and the
tests assert the production (interval-based) axes return identical node
sets on randomly generated multihierarchical documents.

The slice-based *standard* axes (DESIGN.md §5) are additionally checked
element-for-element against the seed's walkers, preserved in
:mod:`tests.naive`.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.core.goddag import KyGoddag, evaluate_axis
from repro.core.goddag.axes import (
    ORDERED_AXES,
    axis_candidates,
    emits_document_order,
)
from tests.naive import NAIVE_STANDARD_AXES
from repro.core.goddag.nodes import (
    GElement,
    GRoot,
    GText,
    _HierarchyNode,
)

from tests.strategies import multihierarchical_documents

SETTINGS = settings(max_examples=40, deadline=None)


def span_nodes(goddag):
    """Root + every element/text node (the extended axes' domain)."""
    nodes = [goddag.root]
    for name in goddag.hierarchy_names:
        nodes.extend(n for n in goddag.nodes_of(name)
                     if isinstance(n, (GElement, GText)))
    return nodes


def leaf_ids(goddag, node):
    return frozenset(id(l) for l in goddag.leaves_of(node))


def leaf_positions(goddag, node):
    return sorted(l.start for l in goddag.leaves_of(node))


def in_same_hierarchy_descendants(node, other):
    if isinstance(node, _HierarchyNode):
        return node.is_ancestor_of(other)
    # The root's descendants are all hierarchy nodes.
    return isinstance(other, _HierarchyNode) or other is node


def literal_xancestor(goddag, n):
    ln = leaf_ids(goddag, n)
    if not ln:
        return set()
    out = set()
    for m in span_nodes(goddag):
        if m is n or in_same_hierarchy_descendants(n, m):
            continue
        lm = leaf_ids(goddag, m)
        if lm and ln <= lm:
            out.add(id(m))
    return out


def literal_xdescendant(goddag, n):
    ln = leaf_ids(goddag, n)
    if not ln:
        return set()
    out = set()
    for m in span_nodes(goddag):
        if m is n or in_same_hierarchy_descendants(m, n):
            continue
        lm = leaf_ids(goddag, m)
        if lm and lm <= ln:
            out.add(id(m))
    for leaf in goddag.leaves():
        if id(leaf) in ln and not isinstance(n, type(leaf)):
            out.add(id(leaf))
    return out


def literal_xfollowing(goddag, n):
    positions = leaf_positions(goddag, n)
    if not positions:
        return set()
    out = set()
    for m in span_nodes(goddag) + list(goddag.leaves()):
        other = leaf_positions(goddag, m)
        if other and max(positions) < min(other):
            out.add(id(m))
    return out


def literal_overlapping(goddag, n):
    ln = leaf_ids(goddag, n)
    positions = leaf_positions(goddag, n)
    if not positions:
        return set()
    out = set()
    for m in span_nodes(goddag):
        if m is n:
            continue
        lm = leaf_ids(goddag, m)
        other = leaf_positions(goddag, m)
        if not other or not (ln & lm):
            continue
        preceding = (min(other) < min(positions) <= max(other)
                     and max(positions) > max(other))
        following = (min(other) <= max(positions) < max(other)
                     and min(positions) < min(other))
        if preceding or following:
            out.add(id(m))
    return out


@SETTINGS
@given(document=multihierarchical_documents())
def test_xancestor_matches_literal_definition(document):
    goddag = KyGoddag.build(document)
    for node in span_nodes(goddag):
        measured = {id(m) for m in evaluate_axis(goddag, "xancestor", node)}
        assert measured == literal_xancestor(goddag, node)


@SETTINGS
@given(document=multihierarchical_documents())
def test_xdescendant_matches_literal_definition(document):
    goddag = KyGoddag.build(document)
    for node in span_nodes(goddag):
        measured = {id(m)
                    for m in evaluate_axis(goddag, "xdescendant", node)}
        assert measured == literal_xdescendant(goddag, node)


@SETTINGS
@given(document=multihierarchical_documents())
def test_xfollowing_matches_literal_definition(document):
    goddag = KyGoddag.build(document)
    for node in span_nodes(goddag):
        measured = {id(m)
                    for m in evaluate_axis(goddag, "xfollowing", node)}
        assert measured == literal_xfollowing(goddag, node)


@SETTINGS
@given(document=multihierarchical_documents())
def test_overlapping_matches_literal_definition(document):
    goddag = KyGoddag.build(document)
    for node in span_nodes(goddag):
        measured = {id(m)
                    for m in evaluate_axis(goddag, "overlapping", node)}
        assert measured == literal_overlapping(goddag, node)


@SETTINGS
@given(document=multihierarchical_documents())
def test_xfollowing_xpreceding_duality(document):
    goddag = KyGoddag.build(document)
    nodes = span_nodes(goddag)
    for node in nodes:
        for other in evaluate_axis(goddag, "xfollowing", node):
            assert node in evaluate_axis(goddag, "xpreceding", other)
        for other in evaluate_axis(goddag, "xpreceding", node):
            assert node in evaluate_axis(goddag, "xfollowing", other)


@SETTINGS
@given(document=multihierarchical_documents())
def test_xancestor_xdescendant_duality(document):
    goddag = KyGoddag.build(document)
    for node in span_nodes(goddag):
        for other in evaluate_axis(goddag, "xancestor", node):
            if isinstance(other, (GElement, GText)) or other is goddag.root:
                assert node in evaluate_axis(goddag, "xdescendant", other)


@SETTINGS
@given(document=multihierarchical_documents())
def test_overlapping_symmetry_and_directions(document):
    goddag = KyGoddag.build(document)
    for node in span_nodes(goddag):
        for other in evaluate_axis(goddag, "preceding-overlapping", node):
            assert node in evaluate_axis(goddag, "following-overlapping",
                                         other)
        for other in evaluate_axis(goddag, "overlapping", node):
            assert node in evaluate_axis(goddag, "overlapping", other)


@SETTINGS
@given(document=multihierarchical_documents())
def test_standard_axes_stay_in_hierarchy(document):
    goddag = KyGoddag.build(document)
    for name in goddag.hierarchy_names:
        for node in goddag.nodes_of(name):
            for axis in ("descendant", "following", "preceding",
                         "following-sibling", "preceding-sibling"):
                for result in evaluate_axis(goddag, axis, node):
                    if isinstance(result, _HierarchyNode):
                        assert result.hierarchy == name


@SETTINGS
@given(document=multihierarchical_documents())
def test_document_order_is_total(document):
    goddag = KyGoddag.build(document)
    keys = [goddag.order_key(n) for n in goddag.iter_nodes()]
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# standard axes: the slice rewrite equals the seed's walkers
# ---------------------------------------------------------------------------


def all_context_nodes(goddag):
    """Root, every hierarchy node, and every leaf."""
    nodes = [goddag.root]
    for name in goddag.hierarchy_names:
        nodes.extend(goddag.nodes_of(name))
    nodes.extend(goddag.leaves())
    return nodes


@SETTINGS
@given(document=multihierarchical_documents())
def test_standard_axes_match_seed_walkers(document):
    goddag = KyGoddag.build(document)
    for node in all_context_nodes(goddag):
        for axis, oracle in NAIVE_STANDARD_AXES.items():
            measured = evaluate_axis(goddag, axis, node)
            expected = oracle(goddag, node)
            assert len(measured) == len(expected), (axis, node)
            assert {id(m) for m in measured} == \
                {id(m) for m in expected}, (axis, node)


@SETTINGS
@given(document=multihierarchical_documents())
def test_or_self_axes_match_seed_walkers(document):
    goddag = KyGoddag.build(document)
    for node in all_context_nodes(goddag):
        for axis, base in (("descendant-or-self", "descendant"),
                           ("ancestor-or-self", "ancestor")):
            measured = {id(m) for m in evaluate_axis(goddag, axis, node)}
            expected = {id(m) for m in
                        NAIVE_STANDARD_AXES[base](goddag, node)}
            expected.add(id(node))
            assert measured == expected, (axis, node)


@SETTINGS
@given(document=multihierarchical_documents())
def test_ordered_axes_emit_document_order(document):
    """The evaluator skips sorting exactly when this property holds:
    ordered axes emit strictly increasing Definition 3 keys."""
    goddag = KyGoddag.build(document)
    for node in all_context_nodes(goddag):
        for axis in ORDERED_AXES:
            if not emits_document_order(axis, node):
                continue
            keys = [goddag.order_key(n)
                    for n in evaluate_axis(goddag, axis, node)]
            assert keys == sorted(keys), (axis, node)
            assert len(set(keys)) == len(keys), (axis, node)


# ---------------------------------------------------------------------------
# exact name slices (DESIGN.md §8): what the steps no longer re-test
# ---------------------------------------------------------------------------


def assert_exact_name_slices(goddag, contexts=None, names=None):
    """``axis_candidates(…, name, skip_leaves=True)`` against the seed's
    walkers filtered by the name test: a slice reported exact *is* the
    walker's named elements, untested; anything else is a superset of
    them — and the slices the steps rely on are reported exact."""
    if names is None:
        names = {node.name for hierarchy in goddag.hierarchy_names
                 for node in goddag.nodes_of(hierarchy)
                 if isinstance(node, GElement)}
        names |= {goddag.root.name, "nosuch"}

    def named(node, name):
        return isinstance(node, (GElement, GRoot)) and node.name == name

    for node in contexts or all_context_nodes(goddag):
        for axis in ("descendant", "following", "preceding",
                     "descendant-or-self"):
            walked = NAIVE_STANDARD_AXES[axis.removesuffix("-or-self")](
                goddag, node)
            if axis == "descendant-or-self":
                walked = [node] + walked
            for name in sorted(names):
                found, exact = axis_candidates(goddag, axis, node, name,
                                               True)
                if not exact:
                    found = [c for c in found if named(c, name)]
                assert sorted(map(id, found)) == sorted(
                    id(m) for m in walked if named(m, name)), \
                    (axis, node, name, exact)
                sliced = (isinstance(node, _HierarchyNode)
                          or (axis == "descendant"
                              and isinstance(node, GRoot)))
                assert exact == (sliced and axis != "descendant-or-self"), \
                    (axis, node, name)


@SETTINGS
@given(document=multihierarchical_documents())
def test_exact_name_slices_match_seed_walkers(document):
    assert_exact_name_slices(KyGoddag.build(document))

"""The naive (literal Definition 1) axes agree with the indexed ones."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.goddag import KyGoddag, evaluate_axis
from tests.naive import NAIVE_AXES
from repro.core.goddag.nodes import GElement, GText

from tests.strategies import multihierarchical_documents

AXIS_NAMES = sorted(NAIVE_AXES)


def ids_of(nodes) -> set[int]:
    return {id(node) for node in nodes}


class TestOnBoethius:
    @pytest.mark.parametrize("axis", AXIS_NAMES)
    def test_every_node_every_axis(self, goddag, axis):
        naive = NAIVE_AXES[axis]
        contexts = [goddag.root] + [
            n for name in goddag.hierarchy_names
            for n in goddag.nodes_of(name)
            if isinstance(n, (GElement, GText))
        ] + goddag.leaves()
        for node in contexts:
            indexed = evaluate_axis(goddag, axis, node)
            if axis == "xdescendant" and node.kind == "leaf":
                assert indexed == []
                continue
            if node.kind == "leaf" and axis in ("xancestor",
                                                "overlapping"):
                # naive domain omits leaves as *context* refinements
                # only for set equality below; both sides still agree.
                pass
            assert ids_of(indexed) == ids_of(naive(goddag, node)), \
                (axis, node)

    @pytest.mark.parametrize("axis", AXIS_NAMES)
    def test_name_pushdown_never_changes_results(self, goddag, axis):
        for node in goddag.elements():
            unhinted = [n for n in evaluate_axis(goddag, axis, node)
                        if n.name == "w"]
            hinted = evaluate_axis(goddag, axis, node, "w")
            assert ids_of(unhinted) == ids_of(hinted)


@settings(max_examples=25, deadline=None)
@given(document=multihierarchical_documents())
def test_naive_equivalence_generated(document):
    goddag = KyGoddag.build(document)
    contexts = [goddag.root] + [
        n for name in goddag.hierarchy_names
        for n in goddag.nodes_of(name)
        if isinstance(n, (GElement, GText))
    ]
    for axis, naive in NAIVE_AXES.items():
        for node in contexts:
            indexed = evaluate_axis(goddag, axis, node)
            assert ids_of(indexed) == ids_of(naive(goddag, node)), axis

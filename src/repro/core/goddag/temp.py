"""Temporary (query-scoped) hierarchies.

Definition 4(1): each ``analyze-string`` call creates *"a new KyGODDAG
hierarchy ... and a hierarchy name is assigned to this hierarchy (say,
rest)"*; Definition 4(5): *"all temporary hierarchies generated by an
execution of this function are deleted after the entire query is
evaluated."*

:class:`TemporaryHierarchyManager` creates them for one evaluation: it
allocates fresh hierarchy names (``rest``, ``rest2``, …) and registers
the span markup as a temporary hierarchy (splitting leaves as needed)
of the evaluation's :meth:`~repro.core.goddag.goddag.KyGoddag.shell`.
Deleting them is dropping the shell when the evaluation hands over:
nothing is undone, and no other evaluation ever sees one.
"""

from __future__ import annotations

from repro.cmh.spans import SpanSet
from repro.core.goddag.goddag import KIND_ELEMENT, KyGoddag
from repro.core.goddag.nodes import GElement
from repro.util.ids import NameAllocator


class TemporaryHierarchyManager:
    """Creates the temporary hierarchies of one evaluation."""

    def __init__(self, goddag: KyGoddag) -> None:
        self.goddag = goddag
        self._allocator = NameAllocator(goddag.hierarchy_names)

    def create(self, spans: SpanSet, base_name: str = "rest") -> str:
        """Register ``spans`` as a fresh temporary hierarchy.

        Returns the allocated hierarchy name.
        """
        name = self._allocator.allocate(base_name)
        self.goddag.add_hierarchy_from_spans(name, spans, temporary=True)
        return name

    def top_element(self, hierarchy: str) -> GElement:
        """The outermost element of a temporary hierarchy.

        ``analyze-string`` wraps the target node's content in a single
        ``<res>`` element, which is the hierarchy's only top-level
        element; this accessor returns it — the first element row, the
        one row it fills.
        """
        component = self.goddag._components[hierarchy]
        elements = component.kinds == KIND_ELEMENT
        row = int(elements.argmax())
        if not elements[row]:
            raise ValueError(f"hierarchy '{hierarchy}' has no element nodes")
        return component.node(row)

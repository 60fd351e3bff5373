"""KyGODDAG node types.

A KyGODDAG (paper §3) unites the DOM trees of all hierarchies at a
shared root and adds a layer of *leaf* nodes — the partition of the base
text induced by every markup boundary in every hierarchy.  Node kinds:

=============  ============================================================
kind           meaning
=============  ============================================================
``root``       the single shared root (one per KyGODDAG)
``element``    an element node, owned by exactly one hierarchy
``text``       a text node, owned by exactly one hierarchy
``leaf``       a shared leaf cell of the partition (no hierarchy)
``attribute``  an attribute of an element (no text span)
``comment``    a comment (empty span)
``pi``         a processing instruction (empty span)
=============  ============================================================

Every node with content carries a half-open character span
``[start, end)`` into the base text; the axes layer operates purely on
these spans (see DESIGN.md).

Nodes are *version-free* (DESIGN.md §1, §10): a node holds the base
text it slices and its row of its own hierarchy's component, never the
KyGODDAG it is registered in, so every version of a document that did
not change a hierarchy shares that hierarchy's node objects.  The one
per-version node is the root, which holds each version's own child
tables; a top-level node therefore has no parent — whoever asks has the
KyGODDAG in hand (:meth:`KyGoddag.parent_of`).

A hierarchy node is made by its component when somebody asks for its
row (:meth:`~repro.core.goddag.goddag._HierarchyComponent.fill`), and
its ``parent`` and ``children`` are read off the component's columns
the first time they are asked for: making a node makes none of its
neighbours.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Optional

from repro.util.intervals import Span

ROOT = "root"
ELEMENT = "element"
TEXT = "text"
LEAF = "leaf"
ATTRIBUTE = "attribute"
COMMENT = "comment"
PI = "processing-instruction"


#: the attribute mapping of every element that has none: one read-only
#: object instead of a fresh ``{}`` per node (nothing writes a node's
#: attributes after construction)
NO_ATTRIBUTES: MappingProxyType = MappingProxyType({})

#: a hierarchy node's ``_parent`` until somebody reads ``parent``
UNREAD = object()


class GNode:
    """Base class of all KyGODDAG nodes."""

    __slots__ = ("_text", "start", "end", "_okey")

    kind: str = "abstract"

    def __init__(self, text: str, start: int, end: int) -> None:
        self._text = text
        self.start = start
        self.end = end
        # Cached packed document-order key (a node's hierarchy rank and
        # preorder position never change once registered); see
        # DESIGN.md §1 for the int64 layout.
        self._okey: int | None = None

    # -- geometry -----------------------------------------------------------

    @property
    def span(self) -> Span:
        """The node's character span in the base text."""
        return Span(self.start, self.end)

    @property
    def has_leaves(self) -> bool:
        """True when ``leaves(self)`` is non-empty (non-empty span)."""
        return self.start < self.end

    # -- identity -------------------------------------------------------------

    @property
    def hierarchy(self) -> str | None:
        """The owning hierarchy name (``None`` for root/leaf/shared)."""
        return None

    @property
    def name(self) -> str | None:
        """The node's name, when it has one (elements, attributes, PIs)."""
        return None

    @property
    def parent(self) -> Optional["GNode"]:
        """The single within-hierarchy parent this node stores, if any
        (a top-level node's is the root of whichever version holds it:
        :meth:`KyGoddag.parent_of`)."""
        return None

    def string_value(self) -> str:
        """The XPath string value (covered base text, by default)."""
        return self._text[self.start:self.end]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.kind
        return f"<{type(self).__name__} {label} [{self.start},{self.end})>"


class GRoot(GNode):
    """The shared root: one node present in every hierarchy.

    The per-hierarchy children are kept separately so that axes can
    serve both "all components" traversal (root context, paper §3) and
    per-hierarchy serialization.  They resolve through this version's
    own component table — the very dict its KyGODDAG registers
    hierarchies in, in registration order — so the root lists a
    hierarchy's top-level nodes (and root attributes) without making
    them: a component makes the nodes of its top-level rows when
    somebody first asks (DESIGN.md §10).  The lists and mappings handed
    out belong to the components and are shared, never written.  An evaluation's shell
    shares its version's root, so the axes ask the KyGODDAG instead
    (:meth:`KyGoddag.root_children`), whose table also holds the
    shell's temporaries.
    """

    __slots__ = ("root_name", "components")

    kind = ROOT

    def __init__(self, text: str, root_name: str) -> None:
        super().__init__(text, 0, len(text))
        self.root_name = root_name
        #: hierarchy name -> this version's component
        self.components: dict = {}

    @property
    def name(self) -> str:
        return self.root_name

    @property
    def attributes(self) -> dict[str, str]:
        """Merged root attributes across hierarchies (first wins)."""
        merged: dict[str, str] = {}
        for component in self.components.values():
            for key, value in component.root_attrs.items():
                merged.setdefault(key, value)
        return merged

    def attributes_in(self, hierarchy: str) -> dict[str, str]:
        """The root element's attributes within one hierarchy."""
        component = self.components.get(hierarchy)
        return {} if component is None else component.root_attrs

    def children_in(self, hierarchy: str) -> list[GNode]:
        """The root's children within one hierarchy component."""
        component = self.components.get(hierarchy)
        return [] if component is None else component.top_nodes


class _HierarchyNode(GNode):
    """A node owned by exactly one hierarchy component: row
    ``preorder`` of ``_component``, made by its :meth:`fill
    <repro.core.goddag.goddag._HierarchyComponent.fill>` (no constructor
    of its own)."""

    __slots__ = ("_hierarchy", "_component", "_parent", "preorder",
                 "subtree_end")

    # ``preorder`` is the row, ``subtree_end`` the last row of the
    # subtree: together they answer ancestor/descendant/following/
    # preceding tests in O(1).

    @property
    def hierarchy(self) -> str:
        return self._hierarchy

    @property
    def parent(self) -> GNode | None:
        """The parent *element*; ``None`` directly under the root.
        Read off the ``parents`` column when first asked."""
        parent = self._parent
        if parent is UNREAD:
            parent = self._parent = self._component.parent_node(
                self.preorder)
        return parent

    def is_ancestor_of(self, other: "GNode") -> bool:
        """True when ``self`` is a within-hierarchy ancestor of ``other``."""
        if not isinstance(other, _HierarchyNode):
            return False
        return (other._hierarchy == self._hierarchy
                and self.preorder < other.preorder <= self.subtree_end)


class GElement(_HierarchyNode):
    """An element node within one hierarchy."""

    __slots__ = ("_name", "attributes", "_children", "_attr_nodes",
                 "_child_positions")

    kind = ELEMENT

    @property
    def children(self) -> list[GNode]:
        """The child nodes, in document order: read off the columns
        when first asked, then kept (a child list never changes)."""
        children = self._children
        if children is None:
            children = self._children = self._component.child_nodes(
                self.preorder)
        return children

    def child_position(self, child: GNode) -> int:
        """The position of ``child`` in ``self.children``, O(1).

        The identity map is built once; an element's child list never
        changes after its hierarchy is built.
        """
        positions = self._child_positions
        if positions is None:
            positions = self._child_positions = {
                id(node): index
                for index, node in enumerate(self.children)
            }
        return positions[id(child)]

    @property
    def name(self) -> str:
        return self._name

    @property
    def attribute_nodes(self) -> list["GAttr"]:
        """Attribute nodes, materialized once per element."""
        if self._attr_nodes is None:
            self._attr_nodes = [
                GAttr(self, name, value)
                for name, value in self.attributes.items()
            ]
        return self._attr_nodes


class GText(_HierarchyNode):
    """A text node within one hierarchy; children are the shared leaves."""

    __slots__ = ()

    kind = TEXT

    @property
    def content(self) -> str:
        """The character data (a slice of the base text)."""
        return self._text[self.start:self.end]


class GComment(_HierarchyNode):
    """A comment; occupies a zero-length span at its position."""

    __slots__ = ("data",)

    kind = COMMENT

    def string_value(self) -> str:
        return self.data


class GPi(_HierarchyNode):
    """A processing instruction; zero-length span at its position."""

    __slots__ = ("target", "data")

    kind = PI

    @property
    def name(self) -> str:
        return self.target

    def string_value(self) -> str:
        return self.data


class GLeaf(GNode):
    """A shared leaf cell of the text partition.

    Leaves are owned by the partition, not by any hierarchy; identity is
    canonical within one partition version (two lookups of the same cell
    return the same object), which lets node-set deduplication work.
    """

    __slots__ = ()

    kind = LEAF

    @property
    def text(self) -> str:
        """The leaf's character data."""
        return self._text[self.start:self.end]


class GAttr(GNode):
    """An attribute node.  Attributes carry no leaves (empty span)."""

    __slots__ = ("owner", "_name", "value")

    kind = ATTRIBUTE

    def __init__(self, owner: GElement | GRoot, name: str,
                 value: str) -> None:
        super().__init__(owner._text, owner.start, owner.start)
        self.owner = owner
        self._name = name
        self.value = value

    @property
    def name(self) -> str:
        return self._name

    @property
    def hierarchy(self) -> str | None:
        return self.owner.hierarchy

    @property
    def parent(self) -> GNode:
        return self.owner

    @property
    def has_leaves(self) -> bool:
        return False

    def string_value(self) -> str:
        return self.value

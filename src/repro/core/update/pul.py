"""Pending update lists (DESIGN.md §9).

An update statement never mutates anything while it evaluates: target
and source expressions run against the *pre-state* snapshot and emit
:class:`UpdatePrimitive` records.  The collected records form a
:class:`PendingUpdateList`, which validates the XQuery-Update-style
conflict rules before anything is applied:

* at most one ``rename``, one ``replace value of``, and one
  ``remove markup`` per node;
* duplicate and nested ``delete`` targets collapse to the outermost
  one (deleting a subtree deletes its descendants);
* no structural primitive may target a node inside a deleted or
  replaced subtree of the same hierarchy;
* the base-text edits implied by ``insert``/``delete``/``replace``
  must be pairwise disjoint: removal/replacement ranges compare
  half-open (adjacent deletes are fine), while zero-width insertion
  points compare closed (two inserts at one point, or an insert on a
  removed range's boundary, conflict).

Application order is fixed and documented: renames, then markup
removal, then markup addition, then value replacement, then deletes,
then inserts — all against pre-state coordinates, and each a row edit
of the hierarchies it touches (:mod:`repro.core.update.apply`).  A
primitive names its target by node; the node's preorder is its row.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import UpdateConflictError, UpdateError
from repro.core.goddag.nodes import GElement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.markup import dom

#: Accepted element names for ``rename`` / ``add markup`` / inserted
#: content (the subset of XML names the rest of the stack emits).
_XML_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_.:-]*$")


def require_xml_name(name: str, what: str) -> str:
    """Validate an element name produced by an update expression."""
    if not _XML_NAME.match(name or ""):
        raise UpdateError(f"{what} {name!r} is not a valid element name")
    return name


@dataclass
class UpdatePrimitive:
    """Base class of all pending-update records."""

    kind = "abstract"


@dataclass
class RenamePrim(UpdatePrimitive):
    """Rename one element (in place, structure untouched)."""

    node: GElement
    name: str
    kind = "rename"


@dataclass
class ReplaceValuePrim(UpdatePrimitive):
    """Replace one element's entire content with a text value."""

    node: GElement
    value: str
    kind = "replace-value"


@dataclass
class DeletePrim(UpdatePrimitive):
    """Delete one element *and* the base text it covers."""

    node: GElement
    kind = "delete"


@dataclass
class InsertPrim(UpdatePrimitive):
    """Insert constructed content relative to one target element.

    ``fragment`` holds detached DOM nodes (already deep-copied, so one
    constructed element can feed several inserts) — constructed content
    is a DOM only until the applier pushes it into the row writer;
    ``text`` is the fragment's concatenated character data, spliced
    into the base text at the location implied by ``location``.
    """

    target: GElement
    location: str  # "into-first" | "into-last" | "before" | "after"
    fragment: list = field(default_factory=list)  # list[dom.Node]
    text: str = ""
    kind = "insert"


@dataclass
class AddMarkupPrim(UpdatePrimitive):
    """Promote the span ``[start, end)`` to an element of a hierarchy."""

    hierarchy: str
    name: str
    start: int
    end: int
    kind = "add-markup"


@dataclass
class RemoveMarkupPrim(UpdatePrimitive):
    """Demote one element: unwrap it, keeping its content in place."""

    node: GElement
    kind = "remove-markup"


class PendingUpdateList:
    """The validated, ordered collection of update primitives."""

    def __init__(self, primitives: list[UpdatePrimitive]) -> None:
        for primitive in primitives:
            if not isinstance(primitive, UpdatePrimitive):
                raise UpdateError(
                    "an update statement may only produce update "
                    f"primitives; got {type(primitive).__name__}")
        self.primitives = self._resolve_conflicts(list(primitives))

    def __len__(self) -> int:
        return len(self.primitives)

    def __iter__(self):
        return iter(self.primitives)

    def of_kind(self, kind: str) -> list[UpdatePrimitive]:
        """All primitives of one kind, in statement order."""
        return [p for p in self.primitives if p.kind == kind]

    def counts(self) -> dict[str, int]:
        """Primitive counts per kind (for reporting)."""
        out: dict[str, int] = {}
        for primitive in self.primitives:
            out[primitive.kind] = out.get(primitive.kind, 0) + 1
        return out

    # -- conflict rules ----------------------------------------------------

    def _resolve_conflicts(self, primitives: list[UpdatePrimitive]
                           ) -> list[UpdatePrimitive]:
        self._check_duplicates(primitives)
        primitives = self._prune_deletes(primitives)
        self._check_destroyed_targets(primitives)
        self._check_same_node_pairs(primitives)
        self._check_add_markup_overlap(primitives)
        return primitives

    @staticmethod
    def _check_duplicates(primitives: list[UpdatePrimitive]) -> None:
        seen: dict[tuple[str, int], UpdatePrimitive] = {}
        for primitive in primitives:
            node = getattr(primitive, "node", None)
            if node is None or primitive.kind == "delete":
                continue
            key = (primitive.kind, id(node))
            if key in seen:
                raise UpdateConflictError(
                    f"duplicate {primitive.kind} on one node "
                    f"(<{node.name}> [{node.start},{node.end}) of "
                    f"hierarchy '{node.hierarchy}')")
            seen[key] = primitive

    @staticmethod
    def _prune_deletes(primitives: list[UpdatePrimitive]
                       ) -> list[UpdatePrimitive]:
        """Collapse duplicate deletes and deletes nested inside another
        delete of the same hierarchy (the outermost delete wins)."""
        targets = [p.node for p in primitives if p.kind == "delete"]
        kept_ids: set[int] = set()
        for node in targets:
            if id(node) in kept_ids:
                continue
            if any(other is not node and other.is_ancestor_of(node)
                   for other in targets):
                continue
            kept_ids.add(id(node))
        out: list[UpdatePrimitive] = []
        emitted: set[int] = set()
        for primitive in primitives:
            if primitive.kind != "delete":
                out.append(primitive)
                continue
            node_id = id(primitive.node)
            if node_id in kept_ids and node_id not in emitted:
                emitted.add(node_id)
                out.append(primitive)
        return out

    @staticmethod
    def _check_destroyed_targets(primitives: list[UpdatePrimitive]
                                 ) -> None:
        """No primitive may target a node inside a subtree another
        primitive deletes or replaces."""
        destroyed = [p.node for p in primitives
                     if p.kind in ("delete", "replace-value")]
        if not destroyed:
            return
        for primitive in primitives:
            node = getattr(primitive, "node", None) \
                or getattr(primitive, "target", None)
            if node is None:
                continue
            for root in destroyed:
                if root is node:
                    continue
                if root.is_ancestor_of(node):
                    raise UpdateConflictError(
                        f"{primitive.kind} targets <{node.name}> inside a "
                        f"subtree destroyed by a delete/replace of "
                        f"<{root.name}> [{root.start},{root.end})")

    @staticmethod
    def _check_add_markup_overlap(primitives: list[UpdatePrimitive]
                                  ) -> None:
        """Two wraps into one hierarchy must nest, not properly overlap
        (one statement may not create overlap *within* a hierarchy) —
        checked here so the failure precedes any mutation."""
        wraps = [p for p in primitives if p.kind == "add-markup"]
        for position, first in enumerate(wraps):
            for second in wraps[position + 1:]:
                if first.hierarchy != second.hierarchy:
                    continue
                if not (first.start < second.end
                        and second.start < first.end):
                    continue
                first_inside = (second.start <= first.start
                                and first.end <= second.end)
                second_inside = (first.start <= second.start
                                 and second.end <= first.end)
                if not (first_inside or second_inside):
                    raise UpdateConflictError(
                        f"add markup [{first.start},{first.end}) and "
                        f"[{second.start},{second.end}) properly overlap "
                        f"within hierarchy '{first.hierarchy}'")

    #: Same-node kind pairs that cannot compose: the first kind detaches
    #: or empties the node, so the second's effect (and its base-text
    #: edit) would be lost — breaking alignment or atomicity.
    _EXCLUSIVE_PAIRS = frozenset({
        frozenset({"remove-markup", "delete"}),
        frozenset({"remove-markup", "replace-value"}),
        frozenset({"remove-markup", "insert"}),
        frozenset({"delete", "replace-value"}),
        frozenset({"delete", "insert"}),
    })

    @classmethod
    def _check_same_node_pairs(cls, primitives: list[UpdatePrimitive]
                               ) -> None:
        kinds_by_node: dict[int, tuple[object, set[str]]] = {}
        for primitive in primitives:
            node = getattr(primitive, "node", None) \
                or getattr(primitive, "target", None)
            if node is None:
                continue
            entry = kinds_by_node.setdefault(id(node), (node, set()))
            for kind in entry[1]:
                if frozenset({kind, primitive.kind}) in \
                        cls._EXCLUSIVE_PAIRS:
                    raise UpdateConflictError(
                        f"{kind} and {primitive.kind} cannot both target "
                        f"<{node.name}> [{node.start},{node.end})")
            entry[1].add(primitive.kind)

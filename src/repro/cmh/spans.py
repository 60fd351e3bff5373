"""Span-list representation of a markup hierarchy.

A hierarchy over a base text can equivalently be described as a set of
*annotation spans* — ``(start, end, name, attributes)`` tuples that must
nest properly within one hierarchy.  This is the representation used by

* the synthetic corpus generator (which thinks in terms of features
  covering text ranges),
* ``analyze-string`` (whose temporary hierarchy is born as match spans),
* the fragmentation baseline (which re-derives spans from a KyGODDAG).

:class:`SpanSet` validates proper nesting and converts to/from DOM.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.errors import CMHError
from repro.markup import dom


@dataclass(frozen=True)
class Span:
    """An annotation: element ``name`` covering ``[start, end)``.

    ``depth_hint`` breaks ties between spans with identical extents: the
    span with the smaller hint becomes the outer element.
    """

    start: int
    end: int
    name: str
    attributes: tuple[tuple[str, str], ...] = ()
    depth_hint: int = 0

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise CMHError(
                f"span <{self.name}> has negative extent "
                f"[{self.start}, {self.end})")

    @property
    def attributes_dict(self) -> dict[str, str]:
        return dict(self.attributes)


#: up to this many spans a new one is checked against each of them
#: (``analyze-string`` sets hold two or three); past it, against the
#: containment forest, built then (a generated hierarchy holds thousands)
_SCANNED = 16


class SpanSet:
    """A properly-nesting set of spans over a text, forming one hierarchy.

    Besides the spans in insertion order it keeps the non-empty ones,
    once there are more than a few, as a containment forest — each
    level a list of pairwise disjoint spans sorted by start, an empty
    span never crossing another — so that checking one more span looks
    at the spans holding its two endpoints, not at every span added
    before it.
    """

    def __init__(self, text: str, spans: list[Span] | None = None) -> None:
        self.text = text
        self.spans: list[Span] = []
        # a forest level: ``[starts, nodes]``; a node is ``[start, end,
        # position in self.spans, its children's level]``
        self._roots: list | None = None
        for span in spans or []:
            self.add(span)

    def add(self, span: Span) -> Span:
        """Add ``span`` after checking bounds and proper nesting."""
        start, end = span.start, span.end
        if end > len(self.text) or start < 0:
            raise CMHError(
                f"span <{span.name}> [{start}, {end}) exceeds "
                f"the text (length {len(self.text)})")
        spans = self.spans
        if start < end:
            # what crosses [start, end) holds one endpoint strictly and
            # not the other; the first added of those is reported
            if self._roots is None:
                other = None
                for held in spans:
                    if held.start < start < held.end < end \
                            or start < held.start < end < held.end:
                        other = held
                        break
            else:
                other = self._first_crossing(start, end)
            if other is not None:
                raise CMHError(
                    f"span <{span.name}> [{start}, {end}) "
                    f"overlaps <{other.name}> [{other.start}, {other.end}) "
                    f"within a single hierarchy")
            if self._roots is not None:
                self._insert([start, end, len(spans), [[], []]])
        spans.append(span)
        if self._roots is None and len(spans) > _SCANNED:
            self._roots = [[], []]
            for position, held in enumerate(spans):
                if held.start < held.end:
                    self._insert([held.start, held.end, position, [[], []]])
        return span

    def _first_crossing(self, start: int, end: int) -> Span | None:
        """The first added span that crosses ``[start, end)``, found
        among the nodes holding either endpoint strictly: one path down
        the forest each, since two of them nest."""
        first = len(self.spans)
        for point in (start, end):
            starts, nodes = self._roots
            while starts:
                index = bisect_left(starts, point) - 1
                if index < 0 or nodes[index][1] <= point:
                    break
                node = nodes[index]
                if node[2] < first and (node[1] < end if point == start
                                        else node[0] > start):
                    first = node[2]
                starts, nodes = node[3]
        return self.spans[first] if first < len(self.spans) else None

    def _insert(self, node: list) -> None:
        """Put ``node`` under the innermost node holding it, above the
        nodes it holds."""
        start, end = node[0], node[1]
        level = self._roots
        while True:
            starts, nodes = level
            index = bisect_right(starts, start) - 1
            if index < 0 or nodes[index][1] < end:
                break
            level = nodes[index][3]
        low, high = bisect_left(starts, start), bisect_left(starts, end)
        node[3] = [starts[low:high], nodes[low:high]]
        starts[low:high] = [start]
        nodes[low:high] = [node]

    def sorted_spans(self) -> list[Span]:
        """Spans in document order: by start, outermost first."""
        return sorted(
            self.spans,
            key=lambda s: (s.start, -(s.end - s.start), s.depth_hint))

    def to_document(self, root_name: str) -> dom.Document:
        """Build the hierarchy DOM: root element + nested spans + text.

        Every character of the text lands in exactly one text node, so
        the result is automatically aligned with the base text.  The
        nesting walk is the one that registers spans in a KyGODDAG
        (:func:`repro.core.goddag.goddag.span_component`); the DOM is
        read off the rows it writes.
        """
        from repro.core.goddag.goddag import _ComponentWriter, span_component

        rows = span_component(
            _ComponentWriter(self.text, root_name, "spans", 0),
            self.sorted_spans())
        return rows.build_dom(self.text, root_name)


@dataclass
class _Walk:
    """Mutable cursor state for :func:`spans_of`."""

    cursor: int = 0
    spans: list[Span] = field(default_factory=list)


def spans_of(document: dom.Document,
             include_root: bool = False) -> list[Span]:
    """Extract the annotation spans of an aligned hierarchy document.

    The inverse of :meth:`SpanSet.to_document` (modulo span order).
    Element extents are derived from the text they contain, so the
    document's text nodes must cover the base text contiguously.
    """
    walk = _Walk()
    _walk_element(document.root, walk, depth=0, include=include_root)
    return walk.spans


def _walk_element(element: dom.Element, walk: _Walk, depth: int,
                  include: bool) -> tuple[int, int]:
    start = walk.cursor
    for child in element.children:
        if isinstance(child, dom.Text):
            walk.cursor += len(child.data)
        elif isinstance(child, dom.Element):
            _walk_element(child, walk, depth + 1, include=True)
    end = walk.cursor
    if include:
        walk.spans.append(Span(start, end, element.name,
                               tuple(element.attributes.items()),
                               depth_hint=depth))
    return start, end

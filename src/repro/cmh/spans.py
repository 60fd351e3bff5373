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


class SpanSet:
    """A properly-nesting set of spans over a text, forming one hierarchy."""

    def __init__(self, text: str, spans: list[Span] | None = None) -> None:
        self.text = text
        self.spans: list[Span] = []
        for span in spans or []:
            self.add(span)

    def add(self, span: Span) -> Span:
        """Add ``span`` after checking bounds and proper nesting."""
        if span.end > len(self.text) or span.start < 0:
            raise CMHError(
                f"span <{span.name}> [{span.start}, {span.end}) exceeds "
                f"the text (length {len(self.text)})")
        for other in self.spans:
            if _properly_overlap(span, other):
                raise CMHError(
                    f"span <{span.name}> [{span.start}, {span.end}) "
                    f"overlaps <{other.name}> [{other.start}, {other.end}) "
                    f"within a single hierarchy")
        self.spans.append(span)
        return span

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


def _properly_overlap(a: Span, b: Span) -> bool:
    """True when the spans overlap without either containing the other."""
    if a.start >= b.end or b.start >= a.end:
        return False
    a_in_b = b.start <= a.start and a.end <= b.end
    b_in_a = a.start <= b.start and b.end <= a.end
    return not (a_in_b or b_in_a)


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

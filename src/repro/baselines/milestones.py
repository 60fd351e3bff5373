"""The milestone encoding: one primary tree + empty boundary markers.

One hierarchy (the *primary*) keeps its real element structure; every
element of every other hierarchy collapses into a pair of empty marker
elements ``<nameS sid=.../>`` / ``<nameE sid=.../>`` placed at its
start/end offsets (the TEI milestone technique).  Queries over the
non-primary hierarchies must then scan between markers and rebuild
extents at query time — the cost the paper's §1 refers to.

``demilestone`` inverts the encoding (round-trip property tests).
"""

from __future__ import annotations

from repro.errors import BaselineError
from repro.markup import dom
from repro.cmh.document import MultihierarchicalDocument
from repro.cmh.spans import Span, SpanSet, spans_of

SID_ATTRIBUTE = "sid"
START_SUFFIX = "S"
END_SUFFIX = "E"


def milestone_document(document: MultihierarchicalDocument,
                       primary: str | None = None) -> dom.Document:
    """Encode ``document`` as primary tree + milestones.

    ``primary`` names the hierarchy that keeps real elements; defaults
    to the first registered hierarchy.
    """
    names = document.hierarchy_names
    primary = primary or names[0]
    if primary not in document:
        raise BaselineError(f"no hierarchy named '{primary}'")
    text = document.text
    primary_spans = SpanSet(text, list(spans_of(document[primary].document)))
    flat = primary_spans.to_document(document.root_name)
    # Per offset: end markers (innermost first), then zero-length
    # start/end pairs, then start markers (outermost first) — so nesting
    # reads correctly and a zero-length span's start precedes its end.
    ends: dict[int, list[dom.Element]] = {}
    pairs: dict[int, list[dom.Element]] = {}
    starts: dict[int, list[dom.Element]] = {}
    for hierarchy in names:
        if hierarchy == primary:
            continue
        serial = 0
        for span in sorted(spans_of(document[hierarchy].document),
                           key=lambda s: (s.start, -(s.end - s.start))):
            serial += 1
            sid = f"{hierarchy}.{serial}"
            start_marker = dom.Element(span.name + START_SUFFIX,
                                       {**span.attributes_dict,
                                        SID_ATTRIBUTE: sid})
            end_marker = dom.Element(span.name + END_SUFFIX,
                                     {SID_ATTRIBUTE: sid})
            if span.start == span.end:
                pairs.setdefault(span.start, []).extend(
                    [start_marker, end_marker])
            else:
                starts.setdefault(span.start, []).append(start_marker)
                ends.setdefault(span.end, []).insert(0, end_marker)
    markers: dict[int, list[dom.Element]] = {}
    for offset in set(ends) | set(pairs) | set(starts):
        markers[offset] = (ends.get(offset, []) + pairs.get(offset, [])
                           + starts.get(offset, []))
    _insert_markers(flat, markers, text)
    return flat


def _insert_markers(document: dom.Document,
                    markers: dict[int, list[dom.Element]],
                    text: str) -> None:
    """Insert marker elements at their offsets, splitting text nodes."""
    remaining = dict(markers)
    for node in list(document.root.iter()):
        if not isinstance(node, dom.Text):
            continue
        assert node.start is not None and node.end is not None
        inside = sorted(offset for offset in remaining
                        if node.start <= offset <= node.end)
        if not inside:
            continue
        parent = node.parent
        assert parent is not None
        index = parent.children.index(node)
        parent.remove(node)
        cursor = node.start
        for offset in inside:
            if offset > cursor:
                piece = dom.Text(text[cursor:offset])
                piece.start, piece.end = cursor, offset
                parent.insert(index, piece)
                index += 1
                cursor = offset
            for marker in remaining.pop(offset):
                parent.insert(index, marker)
                index += 1
        if node.end > cursor:
            piece = dom.Text(text[cursor:node.end])
            piece.start, piece.end = cursor, node.end
            parent.insert(index, piece)
    leftovers = sorted(remaining)
    if leftovers:
        # Offsets not inside any primary text node (e.g. the document
        # ends with markup): attach at the root edge.
        for offset in leftovers:
            for marker in remaining[offset]:
                document.root.append(marker)


def demilestone(document: dom.Document,
                primary: str) -> MultihierarchicalDocument:
    """Invert :func:`milestone_document` back to aligned hierarchies."""
    from repro.baselines.flatquery import text_offsets

    offsets, text = text_offsets(document)
    primary_spans = SpanSet(text)
    starts: dict[str, tuple[int, str, dict[str, str], int]] = {}
    span_sets: dict[str, SpanSet] = {}
    counter = 0
    for element in document.root.iter_elements():
        counter += 1
        sid = element.get(SID_ATTRIBUTE)
        if sid is None:
            start, end = offsets[id(element)]
            primary_spans.add(Span(start, end, element.name,
                                   tuple(element.attributes.items()),
                                   depth_hint=counter))
            continue
        hierarchy, _dot, _serial = sid.rpartition(".")
        if element.name.endswith(START_SUFFIX):
            attributes = {k: v for k, v in element.attributes.items()
                          if k != SID_ATTRIBUTE}
            # The start-marker position (document order) recovers the
            # nesting of same-extent spans: outer starts come first.
            starts[sid] = (offsets[id(element)][0],
                           element.name[:-len(START_SUFFIX)], attributes,
                           counter)
        elif element.name.endswith(END_SUFFIX):
            if sid not in starts:
                raise BaselineError(f"end marker without start: {sid}")
            start, name, attributes, start_order = starts.pop(sid)
            end = offsets[id(element)][0]
            span_sets.setdefault(hierarchy, SpanSet(text))
            span_sets[hierarchy].add(Span(start, end, name,
                                          tuple(attributes.items()),
                                          depth_hint=start_order))
        else:
            raise BaselineError(
                f"marker element '{element.name}' has no S/E suffix")
    if starts:
        raise BaselineError(
            f"unmatched start markers: {sorted(starts)}")
    result = MultihierarchicalDocument(text)
    result.add_spans(primary, primary_spans, document.root.name)
    for hierarchy, spans in span_sets.items():
        result.add_spans(hierarchy, spans, document.root.name)
    return result

"""A TEI-flavored synthetic corpus.

The paper's motivating community (electronic editions, §2) works with
TEI markup [15].  This module re-labels the generator's hierarchies
with TEI element names so examples and tests exercise realistic
vocabularies:

================  ==========================
generator name    TEI-flavored name
================  ==========================
``line``/``page`` ``lb``-delimited ``line``, ``pb``-delimited ``page``
``vline``/``w``   ``l`` (verse line) / ``w``
``dmg``           ``damage``
``res``           ``supplied``
================  ==========================
"""

from __future__ import annotations

from repro.cmh import MultihierarchicalDocument
from repro.cmh.spans import Span, SpanSet, spans_of
from repro.corpus.generator import GeneratorConfig, generate_document

#: Element renames applied per hierarchy.
TEI_NAMES = {
    "structural": {"vline": "l", "w": "w"},
    "physical": {"line": "line", "page": "page"},
    "damage": {"dmg": "damage"},
    "restoration": {"res": "supplied"},
}


def generate_tei_document(config: GeneratorConfig
                          ) -> MultihierarchicalDocument:
    """A synthetic document with TEI-flavored element names."""
    base = generate_document(config)
    result = MultihierarchicalDocument(base.text)
    for name, hierarchy in base.hierarchies.items():
        renames = TEI_NAMES.get(name, {})
        spans = SpanSet(base.text)
        for span in spans_of(hierarchy.document):
            spans.add(Span(span.start, span.end,
                           renames.get(span.name, span.name),
                           span.attributes, span.depth_hint))
        result.add_spans(name, spans, "TEI")
    return result

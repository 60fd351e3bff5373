"""Seeded synthetic multihierarchical manuscripts.

The generator reproduces the *shape* of the paper's motivating data
(image-based electronic editions, §2): a base text with

* a **physical** hierarchy — ``<page>``/``<line>`` following the
  manuscript's physical layout, with line breaks that may fall inside
  words (the *singallice* phenomenon: a word split across lines);
* a **structural** hierarchy — ``<vline>``/``<w>`` verse lines and
  words;
* a **damage** hierarchy — ``<dmg>`` spans that may cross word and line
  boundaries;
* a **restoration** hierarchy — ``<res>`` spans, likewise
  boundary-crossing.

All randomness is driven by the seed, so corpora are reproducible;
sizes and overlap characteristics are controlled by
:class:`GeneratorConfig`.  These corpora power the scaling and
baseline-comparison benchmarks (experiment ids C-FRAG, C-MILE,
S-BUILD, S-AXES, S-ANALYZE).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cmh import MultihierarchicalDocument
from repro.cmh.spans import Span, SpanSet
from repro.corpus.vocabulary import WordSource


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of a synthetic manuscript.

    Attributes
    ----------
    n_words:
        Total number of words in the base text.
    seed:
        RNG seed; equal configs generate equal documents.
    words_per_vline:
        Mean verse-line length in words.
    chars_per_line:
        Target physical line width in characters.
    words_per_page:
        Physical page size; ``0`` disables the page level.
    hyphenation_rate:
        Probability that a physical line break splits a word (creating
        line/word overlap, the paper's query I.1 situation).
    damage_rate:
        Expected fraction of words touched by a ``<dmg>`` span.
    restoration_rate:
        Expected fraction of words touched by a ``<res>`` span.
    boundary_cross_rate:
        Probability that a damage/restoration span crosses a word
        boundary (creating markup overlap, queries I.2/III.1).
    """

    n_words: int = 200
    seed: int = 0
    words_per_vline: int = 5
    chars_per_line: int = 40
    words_per_page: int = 0
    hyphenation_rate: float = 0.35
    damage_rate: float = 0.08
    restoration_rate: float = 0.08
    boundary_cross_rate: float = 0.5


def generate_document(config: GeneratorConfig) -> MultihierarchicalDocument:
    """Generate an aligned multihierarchical document per ``config``."""
    rng = random.Random(config.seed)
    words = list(WordSource(config.seed).words(config.n_words))
    text, word_spans = _lay_out(words)
    document = MultihierarchicalDocument(text)
    builders = {
        "structural": _structural_spans(text, word_spans, config, rng),
        "physical": _physical_spans(text, word_spans, config, rng),
        "damage": _feature_spans(text, word_spans, "dmg",
                                 config.damage_rate,
                                 config.boundary_cross_rate, rng),
        "restoration": _feature_spans(text, word_spans, "res",
                                      config.restoration_rate,
                                      config.boundary_cross_rate, rng),
    }
    for name, spans in builders.items():
        document.add_spans(name, spans, "r")
    return document


def _lay_out(words: list[str]) -> tuple[str, list[tuple[int, int]]]:
    """Join words with single spaces; return the text and word spans."""
    spans: list[tuple[int, int]] = []
    cursor = 0
    parts: list[str] = []
    for index, word in enumerate(words):
        if index:
            parts.append(" ")
            cursor += 1
        spans.append((cursor, cursor + len(word)))
        parts.append(word)
        cursor += len(word)
    return "".join(parts), spans


def _structural_spans(text: str, word_spans: list[tuple[int, int]],
                      config: GeneratorConfig,
                      rng: random.Random) -> SpanSet:
    """Verse lines of ~``words_per_vline`` words, each word a ``<w>``."""
    spans = SpanSet(text)
    index = 0
    vline_number = 0
    while index < len(word_spans):
        size = max(1, config.words_per_vline + rng.randint(-1, 1))
        group = word_spans[index:index + size]
        vline_number += 1
        # The verse line runs to the start of the next one, covering
        # the inter-word spaces (as in the Boethius encoding).
        vline_end = (word_spans[index + size][0]
                     if index + size < len(word_spans)
                     else len(text))
        spans.add(Span(group[0][0], vline_end, "vline",
                       (("n", str(vline_number)),), depth_hint=0))
        for start, end in group:
            spans.add(Span(start, end, "w", depth_hint=1))
        index += size
    return spans


def _physical_spans(text: str, word_spans: list[tuple[int, int]],
                    config: GeneratorConfig,
                    rng: random.Random) -> SpanSet:
    """Physical lines of ~``chars_per_line``; breaks may split words."""
    spans = SpanSet(text)
    breaks: list[int] = [0]
    cursor = 0
    while cursor < len(text):
        target = min(cursor + config.chars_per_line, len(text))
        if target >= len(text):
            breaks.append(len(text))
            break
        if rng.random() < config.hyphenation_rate and text[target] != " ":
            # Break inside the word (hyphenation in the manuscript).
            break_at = target
        else:
            # Back off to the preceding space, if there is one nearby.
            space = text.rfind(" ", cursor + 1, target + 1)
            break_at = space + 1 if space != -1 else target
        if break_at <= cursor:
            break_at = target
        breaks.append(break_at)
        cursor = break_at
    line_number = 0
    page_groups: dict[int, list[tuple[int, int]]] = {}
    for start, end in zip(breaks, breaks[1:]):
        line_number += 1
        if config.words_per_page:
            lines_per_page = max(
                1, (config.words_per_page * 6) // config.chars_per_line)
            page = (line_number - 1) // lines_per_page
            page_groups.setdefault(page, []).append((start, end))
        spans.add(Span(start, end, "line", (("n", str(line_number)),),
                       depth_hint=1))
    for number, lines in sorted(page_groups.items()):
        spans.add(Span(lines[0][0], lines[-1][1], "page",
                       (("n", str(number + 1)),), depth_hint=0))
    return spans


def _feature_spans(text: str, word_spans: list[tuple[int, int]],
                   element: str, rate: float, cross_rate: float,
                   rng: random.Random) -> SpanSet:
    """Disjoint feature spans (damage/restoration) over random words.

    A span starts inside or at a random word; with probability
    ``cross_rate`` it extends past the word boundary into the middle of
    a following word — producing markup that overlaps the structural
    hierarchy (and often the physical one).
    """
    spans = SpanSet(text)
    expected = max(0, int(len(word_spans) * rate))
    if expected == 0:
        return spans
    chosen = sorted(rng.sample(range(len(word_spans)),
                               min(expected, len(word_spans))))
    last_end = -1
    for word_index in chosen:
        start, end = word_spans[word_index]
        span_start = rng.randint(start, max(start, end - 1))
        if rng.random() < cross_rate and word_index + 1 < len(word_spans):
            next_start, next_end = word_spans[word_index + 1]
            span_end = rng.randint(next_start + 1, next_end)
        else:
            span_end = rng.randint(min(span_start + 1, end), end)
        if span_start <= last_end:
            span_start = last_end + 1
        if span_end <= span_start:
            continue
        spans.add(Span(span_start, span_end, element))
        last_end = span_end
    return spans

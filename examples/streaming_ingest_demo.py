"""Ingest with NLP standoff layers (DESIGN.md §15).

A typical document-centric NLP pipeline holds prose plus several
annotation layers produced by different tools — tokenization, sentence
segmentation, named entities — each a set of ``(start, end, name,
attrs)`` character spans over the *same* base text.  As concurrent
hierarchies they overlap freely (an entity may cross a sentence
boundary), which is exactly the multihierarchical setting the paper
targets.

This demo ingests such a bundle through ``StreamingBuilder``: the base
XML encoding is tokenized straight into the rows a KyGODDAG holds —
the way ``Engine.from_xml`` takes XML in too — and each standoff layer
is attached with ``add_layer``, as sorted spans pushed into the same
row writer: no XML serialization round-trip.  ``save`` writes the rows
out as an ``.mhxb`` container, the file an engine over the same
hierarchies would save, so everything downstream (queries, updates,
the store, the server) works on it as on any other.

Run:  python examples/streaming_ingest_demo.py
"""

import tempfile
from pathlib import Path

from repro import Engine
from repro.markup.streaming import StreamingBuilder

PROSE = (
    "Mr. Sherlock Holmes, who was usually very late in the mornings, "
    "sat at the breakfast table. I stood upon the hearth-rug and "
    "picked up the stick which our visitor had left behind him."
)

#: the structural encoding a digitization workflow would supply
BASE_XML = f"<doc><p>{PROSE}</p></doc>"


def tokenize(text: str) -> list[tuple[int, int, str, dict[str, str]]]:
    """Whitespace tokens with a running index attribute."""
    spans = []
    position = 0
    for index, word in enumerate(text.split(" ")):
        spans.append((position, position + len(word), "tok",
                      {"i": str(index)}))
        position += len(word) + 1
    return spans


def split_sentences(text: str) -> list[tuple[int, int, str]]:
    """Naive sentence spans (period followed by space, 'Mr.' exempt)."""
    spans, start = [], 0
    cursor = 0
    while cursor < len(text):
        if (text[cursor] == "." and not text.endswith("Mr", 0, cursor)
                and (cursor + 1 == len(text) or text[cursor + 1] == " ")):
            spans.append((start, cursor + 1, "s"))
            start = cursor + 2
        cursor += 1
    return spans


#: spans a (pretend) NER model emitted — note "Sherlock Holmes"
#: overlaps two tokens and sits inside the first sentence
ENTITIES = [
    (PROSE.index("Sherlock Holmes"),
     PROSE.index("Sherlock Holmes") + len("Sherlock Holmes"),
     "ent", {"type": "PERSON"}),
]


def main() -> None:
    builder = StreamingBuilder(PROSE)
    builder.add_hierarchy("base", BASE_XML)
    builder.add_layer("tokens", tokenize(PROSE))
    builder.add_layer("sentences", split_sentences(PROSE))
    builder.add_layer("entities", ENTITIES)
    print(f"hierarchies: {builder.hierarchy_names}")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "annotated.mhxb"
        size = builder.save(path)
        print(f"streamed {size} bytes into {path.name}")

        # The container is a saved engine: query across the layers
        # like any concurrent hierarchies.
        engine = Engine.from_mhxb(path)
        tokens = engine.query("count(/descendant::tok)").items[0]
        sentences = engine.query("count(/descendant::s)").items[0]
        print(f"{tokens} tokens, {sentences} sentences")

        # Tokens inside the PERSON entity ("Sherlock"), plus the one
        # that straddles its right edge ("Holmes," keeps the comma the
        # entity excludes) — containment vs strict overlap.
        inside = engine.query(
            "for $t in /descendant::ent/xdescendant::tok "
            "return string($t)")
        straddling = engine.query(
            "for $t in /descendant::ent/overlapping::tok "
            "return string($t)")
        print("entity tokens:",
              ", ".join(inside.items + straddling.items))

        # Which sentence contains the entity?
        result = engine.query(
            "count(/descendant::s[xdescendant::ent])")
        print(f"sentences containing an entity: {result.items[0]}")


if __name__ == "__main__":
    main()

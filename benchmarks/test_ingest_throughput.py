"""S-INGEST — XML goes in as columns, and they are the reference's.

The ingest (DESIGN.md §15) tokenizes every encoding straight into the
rows a KyGODDAG holds; no DOM is parsed on the way to an engine or a
``.mhxb`` file.  There is no slower path left in the package to race
it against, so what is held here, on the largest bench corpus, is

* **parity** — the streamed file is byte-identical to the reference
  ingest's (``tests/dombuild.py``: parse → align → the seed's DOM
  walker), and
* **counts** — ``Engine.from_xml`` + a query + ``save_mhxb`` calls the
  parser 0 times and builds 0 hierarchy DOMs.

What the ingest costs is the census's ``markup.stream_save_ms`` /
``markup.stream_words_per_s`` and every workload's ``setup_s``
(``perfbench/``).  The nightly job runs :func:`assert_byte_parity` at
100k words.
"""

from __future__ import annotations

from pathlib import Path
from unittest import mock

from repro.api import Engine
from repro.bench import SCALING_SIZES, corpus_at_size
from repro.core.goddag.goddag import _HierarchyComponent
from repro.markup import parser
from repro.markup.streaming import stream_save

from conftest import record
from tests.dombuild import dom_document, reference_save

LARGEST = SCALING_SIZES[-1]


def inputs_at(n_words: int) -> tuple[str, dict[str, str]]:
    corpus = corpus_at_size(n_words)
    return corpus.text, {name: hierarchy.to_xml() for name, hierarchy
                         in corpus.hierarchies.items()}


def assert_byte_parity(n_words: int, root: Path) -> int:
    """Streamed bytes == reference-ingest bytes; returns the size."""
    text, sources = inputs_at(n_words)
    stream_save(text, sources, root / "stream.mhxb")
    reference_save(dom_document(text, sources), root / "reference.mhxb")
    streamed = (root / "stream.mhxb").read_bytes()
    assert streamed == (root / "reference.mhxb").read_bytes()
    return len(streamed)


def test_streaming_output_byte_identical(tmp_path):
    size = assert_byte_parity(LARGEST, tmp_path)
    record("S-INGEST parity", "PASS",
           f"n={LARGEST}: streamed .mhxb byte-identical to the "
           f"reference ingest ({size} bytes)")


def test_ingest_parses_no_dom(tmp_path):
    text, sources = inputs_at(LARGEST)
    build_dom = _HierarchyComponent.build_dom
    with mock.patch.object(parser, "parse",
                           side_effect=parser.parse) as parse, \
            mock.patch("repro.markup.streaming.parse", parse), \
            mock.patch.object(_HierarchyComponent, "build_dom",
                              autospec=True,
                              side_effect=build_dom) as exports:
        engine = Engine.from_xml(text, sources)
        words = engine.query("count(/descendant::w)").items
        engine.save_mhxb(tmp_path / "engine.mhxb")
        assert len(engine.document) == len(sources)
    assert words == [LARGEST]
    assert parse.call_count == 0
    assert exports.call_count == 0
    record("S-INGEST counts", "PASS",
           f"n={LARGEST}: from_xml + query + save_mhxb: 0 parser "
           f"calls, 0 hierarchy DOMs built")

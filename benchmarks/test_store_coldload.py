"""S-STORE — ``.mhxb`` mmap cold load vs XML re-parse + index build:
the two paths must agree on the probe results at the largest bench
size.

What a cold load *costs* is gated by counts, not by a wall-clock ratio
against the XML path nobody runs:
``tests/test_mhxb.py::TestRoundTrip::test_cold_load_maps_once_and_builds_nothing``
(no XML parse, no component build, no sort, one mapping, read-only
columns).  ``perfbench`` times it (``mhxb.load_ms``).
"""

from __future__ import annotations

import pytest

from repro.api import Engine, load_mhx, save_mhx
from repro.bench import SCALING_SIZES, corpus_at_size

from conftest import record

LARGEST = SCALING_SIZES[-1]

#: parity probes: a named-axis count plus an extended-axis touch, so
#: both the name index and the span index actually serve reads
PROBES = [
    "count(/descendant::w)",
    "count(/descendant::line[overlapping::w])",
]


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    root = tmp_path_factory.mktemp("coldload")
    corpus = corpus_at_size(LARGEST)
    engine = Engine(corpus)
    engine.goddag.span_index()
    mhx = root / "corpus.mhx"
    mhxb = root / "corpus.mhxb"
    save_mhx(corpus, mhx)
    engine.save_mhxb(mhxb)
    return mhx, mhxb


def _cold_mhxb(mhxb) -> list[str]:
    engine = Engine.from_mhxb(mhxb)
    return [engine.query(probe).serialize() for probe in PROBES]


def _cold_xml(mhx) -> list[str]:
    engine = Engine(load_mhx(mhx))
    engine.goddag.span_index()
    return [engine.query(probe).serialize() for probe in PROBES]


def test_cold_paths_agree(containers):
    mhx, mhxb = containers
    assert _cold_mhxb(mhxb) == _cold_xml(mhx)
    restored = Engine.from_mhxb(mhxb)
    restored.goddag.check_invariants()
    record("S-STORE parity", "PASS",
           f"n={LARGEST}: mmap cold load matches XML rebuild on "
           f"{len(PROBES)} probes")

"""S-UPDATE — incremental update apply vs rebuild-per-update.

Applying update statements through the live engine (in-place renames,
partition boundary splicing, span-index component surgery — never a
from-scratch rebuild) must produce serializations byte-identical to the
naive baseline — re-parse every hierarchy's XML, rebuild the KyGODDAG
and its span index for every statement, as
:class:`tests.updateoracle.RebuildOracle` does with its own DOM
applier — on the largest bench corpus.

What a markup-level update builds is gated by counts, not by a clock
against a path nobody runs:
``tests/test_store.py::TestUntouchedHierarchiesUntouched`` (no DOM, no
component from the row writer, no row filled, no leaf, one checked
hierarchy per ``add markup``) and ``tests/test_first_use.py::
TestRowsFilledByAWrite`` (the rows an update and a rename fill).  Text-changing statements
(insert/delete) re-register every hierarchy; their time against the
rebuild is reported and must not fall below it.
"""

from __future__ import annotations

import time

import pytest

from repro.api import Engine
from repro.bench import SCALING_SIZES, corpus_at_size
from tests.updateoracle import RebuildOracle

from conftest import record

LARGEST = SCALING_SIZES[-1]

#: Markup-level statements forming an involution: running the list
#: returns the document to its starting state, so timed repeats are
#: stable and the incremental/rebuild states stay comparable.
MARKUP_STATEMENTS = [
    "rename node (/descendant::w)[10] as 'word'",
    "rename node (/descendant::word)[1] as 'w'",
    "add markup mark to 'damage' covering (/descendant::w)[20]",
    "remove markup (/descendant::mark)[1]",
    "add markup mark to 'restoration' covering (/descendant::w)[40]",
    "remove markup (/descendant::mark)[1]",
    "rename node (/descendant::line)[2] as 'row'",
    "rename node (/descendant::row)[1] as 'line'",
]

#: Text-changing pair, also an involution (reported, not gated).
TEXT_STATEMENTS = [
    "insert node <w>benchword</w> after (/descendant::w)[30]",
    "delete node (/descendant::w[string(.) = 'benchword'])[1]",
]


def best_of(function, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - begin)
    return best


def _private_corpus():
    """A deep copy of the bench corpus via serialization round trip.

    ``corpus_at_size`` is memoized process-wide and other benchmark
    modules share its return value; updates mutate documents in place,
    so the mutation benchmarks must never touch the cached instance.
    """
    from repro.cmh import MultihierarchicalDocument

    shared = corpus_at_size(LARGEST)
    return MultihierarchicalDocument.from_xml(
        shared.text, {name: hierarchy.to_xml()
                      for name, hierarchy in shared.hierarchies.items()})


@pytest.fixture(scope="module")
def update_paths():
    engine = Engine(_private_corpus())
    engine.goddag.span_index()
    oracle = RebuildOracle(_private_corpus())
    return engine, oracle


def test_incremental_matches_rebuild_serialization(update_paths):
    """Both paths land on byte-identical documents after the workload."""
    engine, oracle = update_paths
    for statement in MARKUP_STATEMENTS + TEXT_STATEMENTS:
        engine.update(statement, check=False)
        oracle.apply(statement)
    assert engine.document.text == oracle.text
    mine = {name: hierarchy.to_xml() for name, hierarchy
            in engine.document.hierarchies.items()}
    assert mine == oracle.sources
    engine.goddag.check_invariants()
    record("S-UPDATE parity", "PASS",
           f"{len(MARKUP_STATEMENTS + TEXT_STATEMENTS)} statements, "
           f"serializations byte-identical")


def test_text_updates_reported(update_paths):
    """Insert/delete re-register every hierarchy: still ahead of a
    rebuild (no XML re-parse), but not gated at the markup floor."""
    engine, oracle = update_paths

    def run_incremental() -> None:
        for statement in TEXT_STATEMENTS:
            engine.update(statement, check=False)

    def run_rebuild() -> None:
        for statement in TEXT_STATEMENTS:
            oracle.apply(statement)

    run_incremental()
    run_rebuild()
    incremental = best_of(run_incremental)
    rebuild = best_of(run_rebuild)
    speedup = rebuild / incremental
    record("S-UPDATE text ops", "PASS" if speedup >= 1.0 else "FAIL",
           f"n={LARGEST}: rebuild {rebuild * 1e3:.0f} ms, "
           f"incremental {incremental * 1e3:.0f} ms ({speedup:.1f}x)")
    assert speedup >= 1.0, (
        f"text-changing updates slower than a full rebuild "
        f"({speedup:.2f}x)")

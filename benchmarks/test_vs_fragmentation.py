"""C-FRAG — the paper's §1 claim against fragmentation "hacks".

*"Representing such markup using 'hacks' in XML comes with a steep
price at query processing time"* (§2, citing [6]).  Both sides answer
the same two information needs on the same corpus:

* Q-I.1 shape — find lines containing a given (possibly fragmented)
  word;
* Q-I.2 shape — find words overlapping damage markup.

KyGODDAG runs the extended-XQuery one-liner; the baseline must walk the
flat document, reassemble fragment groups, and join extents by hand.
Answers are asserted equal; the benchmark shows who pays what.
"""

from __future__ import annotations

import pytest

from repro.baselines import fragment_document
from repro.baselines.flatquery import (
    fragment_groups,
    groups_overlapping,
    lines_containing_group,
    search_groups,
)
from repro.bench import corpus_at_size, goddag_at_size
from repro.core.runtime import evaluate_query

from conftest import record

SIZES = (400, 1600)

GODDAG_LINES_QUERY = (
    'for $l in /descendant::line'
    '[xdescendant::w[string(.) = "singallice"] or '
    'overlapping::w[string(.) = "singallice"]] '
    'return string($l)')

GODDAG_DAMAGED_QUERY = (
    "for $w in /descendant::w[xancestor::dmg or xdescendant::dmg "
    "or overlapping::dmg] return string($w)")


def flat_lines_answer(flat) -> list[str]:
    words = fragment_groups(flat, "w")
    hits = search_groups(words, "singallice")
    lines = fragment_groups(flat, "line")
    return sorted(g.text for g in lines_containing_group(lines, hits))


def flat_damaged_answer(flat) -> list[str]:
    words = fragment_groups(flat, "w")
    damage = fragment_groups(flat, "dmg")
    return sorted(g.text for g in groups_overlapping(words, damage))


@pytest.mark.parametrize("n_words", SIZES)
@pytest.mark.benchmark(group="C-FRAG-lines")
def test_goddag_line_search(benchmark, n_words):
    goddag = goddag_at_size(n_words)
    goddag.span_index()
    result = benchmark(
        lambda: sorted(evaluate_query(goddag, GODDAG_LINES_QUERY)))
    flat = fragment_document(corpus_at_size(n_words))
    assert result == flat_lines_answer(flat)
    record(f"C-FRAG lines (goddag) n={n_words}", "AGREES",
           f"{len(result)} lines found by both representations")


@pytest.mark.parametrize("n_words", SIZES)
@pytest.mark.benchmark(group="C-FRAG-lines")
def test_fragmentation_line_search(benchmark, n_words):
    flat = fragment_document(corpus_at_size(n_words))
    result = benchmark(flat_lines_answer, flat)
    assert isinstance(result, list)


@pytest.mark.parametrize("n_words", SIZES)
@pytest.mark.benchmark(group="C-FRAG-damaged")
def test_goddag_damaged_words(benchmark, n_words):
    goddag = goddag_at_size(n_words)
    goddag.span_index()
    result = benchmark(
        lambda: sorted(evaluate_query(goddag, GODDAG_DAMAGED_QUERY)))
    flat = fragment_document(corpus_at_size(n_words))
    assert result == flat_damaged_answer(flat)
    record(f"C-FRAG damaged (goddag) n={n_words}", "AGREES",
           f"{len(result)} damaged words found by both representations")


@pytest.mark.parametrize("n_words", SIZES)
@pytest.mark.benchmark(group="C-FRAG-damaged")
def test_fragmentation_damaged_words(benchmark, n_words):
    flat = fragment_document(corpus_at_size(n_words))
    result = benchmark(flat_damaged_answer, flat)
    assert isinstance(result, list)


#: Same-engine comparison: the fragmentation encoding loaded as a
#: single-hierarchy KyGODDAG and queried with *standard* axes only —
#: fragment reassembly becomes a value-based join on @fid, which is the
#: "steep price" the paper's §1 refers to.  Kept to small sizes: the
#: join is quadratic in the word count.
ENGINE_SIZES = (100, 400)

ENGINE_FLAT_QUERY = """
for $first in /descendant::w[string(@part) = "" or string(@part) = "I"]
let $fid := string($first/@fid)
let $text := string-join(
    for $f in /descendant::w[string(@fid) = $fid] return string($f), "")
where $text = "singallice"
return
  for $lid in distinct-values(
      for $f in /descendant::w[string(@fid) = $fid]
      return string($f/ancestor::line/@fid))
  return string-join(
      for $g in /descendant::line[string(@fid) = $lid]
      return string($g), "")
"""


def _flat_goddag(n_words):
    from repro.cmh import Hierarchy, MultihierarchicalDocument
    from repro.core.goddag import KyGoddag

    document = corpus_at_size(n_words)
    flat = fragment_document(document)
    return KyGoddag.build(MultihierarchicalDocument(
        document.text, [Hierarchy("flat", flat)]))


@pytest.mark.parametrize("n_words", ENGINE_SIZES)
@pytest.mark.benchmark(group="C-FRAG-same-engine")
def test_engine_on_goddag(benchmark, n_words):
    goddag = goddag_at_size(n_words)
    goddag.span_index()
    result = benchmark(
        lambda: sorted(evaluate_query(goddag, GODDAG_LINES_QUERY)))
    assert isinstance(result, list)


@pytest.mark.parametrize("n_words", ENGINE_SIZES)
@pytest.mark.benchmark(group="C-FRAG-same-engine")
def test_engine_on_fragmentation(benchmark, n_words):
    """The paper's claim, like-for-like: same query engine, flat input."""
    flat_goddag = _flat_goddag(n_words)
    flat_goddag.span_index()
    result = benchmark(
        lambda: sorted(evaluate_query(flat_goddag, ENGINE_FLAT_QUERY)))
    goddag = goddag_at_size(n_words)
    assert result == sorted(evaluate_query(goddag, GODDAG_LINES_QUERY))
    record(f"C-FRAG same-engine n={n_words}", "CLAIM HOLDS",
           "value-join reassembly on the flat encoding vs structural "
           "extended axes — see the C-FRAG-same-engine timing group")


@pytest.mark.parametrize("n_words", SIZES)
@pytest.mark.benchmark(group="C-FRAG-encode")
def test_fragmentation_encoding_cost(benchmark, n_words):
    """The up-front cost of producing the fragmentation encoding."""
    document = corpus_at_size(n_words)
    flat = benchmark(fragment_document, document)
    fragments = sum(1 for _ in flat.root.iter_elements())
    originals = sum(
        sum(1 for _ in document[h].document.root.iter_elements())
        for h in document.hierarchy_names)
    record(f"C-FRAG blowup n={n_words}", "SERIES",
           f"{originals} elements become {fragments} fragments "
           f"({fragments / originals:.2f}x)")

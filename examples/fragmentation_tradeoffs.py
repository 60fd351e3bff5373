"""Encoding trade-offs: KyGODDAG vs the single-tree hacks (§1, [6]).

Takes one synthetic manuscript and answers the same information need —
"which lines contain the (possibly line-crossing) word X?" — four ways:

1. extended XQuery over the KyGODDAG (the paper's proposal),
2. hand-written reassembly joins over the fragmentation encoding,
3. hand-written marker scans over the milestone encoding,
4. standard-axes XQuery *through the same engine* over the
   fragmentation encoding (the like-for-like comparison).

It prints the answers (all identical), the query text each approach
requires, and wall-clock timings.

Run:  python examples/fragmentation_tradeoffs.py
"""

from __future__ import annotations

import time

from repro.baselines import fragment_document, milestone_document
from repro.baselines.flatquery import (
    fragment_groups,
    lines_containing_group,
    milestone_groups,
    primary_groups,
    search_groups,
)
from repro.cmh import Hierarchy, MultihierarchicalDocument
from repro.core.goddag import KyGoddag
from repro.core.runtime import evaluate_query
from repro.corpus import GeneratorConfig, generate_document

TARGET = "singallice"

GODDAG_QUERY = f"""
for $l in /descendant::line
  [xdescendant::w[string(.) = "{TARGET}"] or
   overlapping::w[string(.) = "{TARGET}"]]
return string($l)
"""

ENGINE_FLAT_QUERY = f"""
for $first in /descendant::w[string(@part) = "" or string(@part) = "I"]
let $fid := string($first/@fid)
let $text := string-join(
    for $f in /descendant::w[string(@fid) = $fid] return string($f), "")
where $text = "{TARGET}"
return
  for $lid in distinct-values(
      for $f in /descendant::w[string(@fid) = $fid]
      return string($f/ancestor::line/@fid))
  return string-join(
      for $g in /descendant::line[string(@fid) = $lid]
      return string($g), "")
"""


def timed(label, fn):
    started = time.perf_counter()
    result = fn()
    elapsed = (time.perf_counter() - started) * 1000
    return label, sorted(result), elapsed


def main() -> None:
    document = generate_document(GeneratorConfig(
        n_words=300, seed=20060627, hyphenation_rate=0.5))
    goddag = KyGoddag.build(document)
    goddag.span_index()
    flat = fragment_document(document)
    flat_goddag = KyGoddag.build(MultihierarchicalDocument(
        document.text, [Hierarchy("flat", flat)]))
    flat_goddag.span_index()
    marked = milestone_document(document, primary="structural")

    def by_fragment_joins():
        words = fragment_groups(flat, "w")
        hits = search_groups(words, TARGET)
        lines = fragment_groups(flat, "line")
        return [g.text for g in lines_containing_group(lines, hits)]

    def by_milestone_scan():
        words = primary_groups(marked, "w")
        hits = search_groups(words, TARGET)
        lines = milestone_groups(marked, "line")
        return [g.text for g in lines_containing_group(lines, hits)]

    runs = [
        timed("extended XQuery on KyGODDAG",
              lambda: evaluate_query(goddag, GODDAG_QUERY)),
        timed("hand-coded joins on fragmentation",
              by_fragment_joins),
        timed("hand-coded scans on milestones",
              by_milestone_scan),
        timed("standard XQuery on fragmentation (same engine)",
              lambda: evaluate_query(flat_goddag, ENGINE_FLAT_QUERY)),
    ]

    answers = {tuple(result) for _label, result, _ms in runs}
    assert len(answers) == 1, "all four approaches must agree"
    print(f"Lines containing '{TARGET}':")
    for line in runs[0][1]:
        print(f"  | {line}")
    print()
    print(f"{'approach':<48} {'time':>10}")
    print("-" * 60)
    baseline_ms = runs[0][2]
    for label, _result, elapsed in runs:
        ratio = elapsed / baseline_ms
        print(f"{label:<48} {elapsed:>8.1f}ms ({ratio:>5.1f}x)")
    print()
    print("The KyGODDAG query is one line of structural axes; the")
    print("flat encodings need either hand-written reassembly code or")
    print("(same engine, bottom row) a quadratic value-based join —")
    print("the paper's 'steep price at query processing time'.")


if __name__ == "__main__":
    main()

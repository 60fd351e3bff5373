"""Vectorized cross-hierarchy interval joins (DESIGN.md §11).

The extended axes of Definition 1 — ``overlapping``, ``xdescendant``,
``xancestor``, ``xfollowing``, ``xpreceding`` — relate nodes *across*
hierarchies by their leaf intervals.  PR 5 lowers every extended-axis
step (and recognized ``[extended-axis::name]`` predicates) to explicit
interval-join operators: one sorted-array join per step over the span
index's columnar arrays instead of one span-arithmetic call per
context node.  This example shows

* the ``explain()`` rendering of the lowered ``interval-join``
  operators and of the bare ``[mask axis::name]`` probe a recognized
  predicate becomes — one batched existence probe (a semi-join)
  wherever it stands,
* the per-call ``QueryStats`` join counters, and
* a direct comparison of the batched kernel against the per-node path
  it replaced (identical results, one call instead of thousands).

Run:  python examples/overlap_join_demo.py
"""

from repro import Engine
from repro.core.goddag import evaluate_axis_batch, join_axis_batch
from repro.corpus import BASE_TEXT, ENCODINGS

#: A word overlapping a physical line break (the paper's query I.1
#: situation) and the lines damaged material spills into.
STEP_QUERY = "/descendant::w/overlapping::line"

#: The semi-join shape: filter one hierarchy's nodes by a
#: cross-hierarchy existence test against another.
PREDICATE_QUERY = "/descendant::line[overlapping::w]"

#: Chained joins: containment down into one hierarchy, then back up
#: into another.
CHAIN_QUERY = "/descendant::dmg/xdescendant::w/xancestor::line"


def main() -> None:
    engine = Engine.from_xml(BASE_TEXT, ENCODINGS)

    print("explain():")
    print(engine.explain(PREDICATE_QUERY))
    print()
    print(engine.explain(CHAIN_QUERY))
    print()

    for query in (STEP_QUERY, PREDICATE_QUERY, CHAIN_QUERY):
        result = engine.query(query)
        print(f"{query}")
        print(f"  -> {len(result.items)} nodes | "
              f"join steps: {result.stats.join_steps}, "
              f"batched extended steps: "
              f"{result.stats.batched_extended_steps}")

    # The same step through both engines: the batched kernel is one
    # sorted-merge join; the per-node path evaluates every context
    # separately and merges Python objects.  Results are identical —
    # the per-node axes remain the differential-testing oracle.
    goddag = engine.goddag
    words = list(goddag.elements("w"))
    batched = join_axis_batch(goddag, "overlapping", words, "line",
                              skip_leaves=True)
    pernode = evaluate_axis_batch(goddag, "overlapping", words, "line",
                                  skip_leaves=True)
    assert list(batched) == list(pernode)
    print()
    print(f"overlapping::line over {len(words)} words: "
          f"{len(batched)} results, batched == per-node")
    starts, ends = batched.span_columns()
    print("columnar node-set spans:",
          [f"[{s},{e})" for s, e in zip(starts.tolist(), ends.tolist())])


if __name__ == "__main__":
    main()

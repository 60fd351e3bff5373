"""S-PLAN — cost-based planning vs the mechanical lowering.

The tentpole claim of ISSUE 10 (DESIGN.md §16), gated by what repeats
exactly: on a skewed corpus the cost pass must *change the plan* of at
least two reversible join chains — the reversal note and the reversed
operator order are in ``explain`` — no workload query may take more
operator steps (``QueryStats.axis_steps + join_steps``) costed than
mechanical, and every costed answer stays item-for-item identical to
the mechanical oracle.  What the changed plans are worth in time is
``BENCH_plan.json`` (``emit_bench.py --plan-only``), which asserts
nothing.
"""

from __future__ import annotations

import re

from repro.api import Engine

from conftest import record
from emit_bench import PLAN_WORDS, PLAN_WORKLOAD, _plan_corpus

#: how many chains the cost pass must reverse
MIN_REVERSED_CHAINS = 2

#: the probe a reversed pair's scan carries back: a bare
#: ``axis::name`` mask term
BARE_PROBE = re.compile(r"predicate \[mask [a-z-]+::[\w-]+\]")


def engines():
    document = _plan_corpus(PLAN_WORDS)
    costed = Engine(document)
    mechanical = Engine(document, use_cost=False)
    costed.goddag.span_index()
    mechanical.goddag.span_index()
    for _label, query in PLAN_WORKLOAD:  # warm plans + lazy indexes
        costed.query(query)
        mechanical.query(query)
    return costed, mechanical


def test_costed_identical_to_mechanical():
    """Every workload query: costed plan ≡ mechanical oracle, item for
    item (the cost pass is a pure optimization)."""
    costed, mechanical = engines()
    checked = 0
    for label, query in PLAN_WORKLOAD:
        want = mechanical.query(query).strings()
        got = costed.query(query).strings()
        assert got == want, label
        checked += len(got)
    record("S-PLAN parity", "PASS",
           f"{len(PLAN_WORKLOAD)} workload queries, "
           f"{checked} result items identical")


def test_cost_pass_changes_the_plans():
    """Reversed chains scan the small side and probe back; no query
    pays for its plan in operator steps."""
    costed, mechanical = engines()
    reversed_chains = []
    steps = []
    for label, query in PLAN_WORKLOAD:
        report = costed.explain(query)
        # reversed: the join step is gone, its target side is scanned
        # and probes back with a bare term
        if ("cost: reversed join pair" in report
                and "interval-join" not in report
                and BARE_PROBE.search(report)):
            reversed_chains.append(label)
        got = costed.query(query).stats
        want = mechanical.query(query).stats
        steps.append((label, got.axis_steps + got.join_steps,
                      want.axis_steps + want.join_steps))
    summary = ", ".join(f"{label} {got} vs {want}"
                        for label, got, want in steps)
    dearer = [label for label, got, want in steps if got > want]
    record("S-PLAN plans",
           "PASS" if len(reversed_chains) >= MIN_REVERSED_CHAINS
           and not dearer else "FAIL",
           f"reversed {', '.join(reversed_chains) or 'none'}; operator "
           f"steps costed vs mechanical: {summary} at n={PLAN_WORDS}")
    assert len(reversed_chains) >= MIN_REVERSED_CHAINS, (
        f"only {reversed_chains} carry a reversal note and the "
        "reversed operator order")
    assert not dearer, (
        f"costed plans take more operator steps: {summary}")

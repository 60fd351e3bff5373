"""ABLATE-INDEX — what the sorted span index buys (DESIGN.md §3).

The production extended axes answer Definition 1 by binary search over
the sorted span index; :mod:`tests.naive` transcribes the
definition literally (full scan, explicit leaf sets).  Both are proved
equal by the test suite; this bench measures the gap for the two axes
the paper's queries lean on.
"""

from __future__ import annotations

import pytest

from repro.bench import goddag_at_size
from repro.core.goddag.axes import axis_overlapping, axis_xdescendant
from tests.naive import naive_overlapping, naive_xdescendant

from conftest import record

SIZE = 400


def _mid_line(goddag):
    lines = list(goddag.elements("line"))
    return lines[len(lines) // 2]


@pytest.mark.benchmark(group="ABLATE-overlapping")
def test_indexed_overlapping(benchmark):
    goddag = goddag_at_size(SIZE)
    goddag.span_index()
    node = _mid_line(goddag)
    result = benchmark(axis_overlapping, goddag, node)
    assert {id(n) for n in result} == \
        {id(n) for n in naive_overlapping(goddag, node)}
    record("ABLATE overlapping", "AGREES",
           "indexed and literal Definition 1 return identical sets")


@pytest.mark.benchmark(group="ABLATE-overlapping")
def test_naive_overlapping(benchmark):
    goddag = goddag_at_size(SIZE)
    node = _mid_line(goddag)
    result = benchmark(naive_overlapping, goddag, node)
    assert isinstance(result, list)


@pytest.mark.benchmark(group="ABLATE-xdescendant")
def test_indexed_xdescendant(benchmark):
    goddag = goddag_at_size(SIZE)
    goddag.span_index()
    node = _mid_line(goddag)
    result = benchmark(axis_xdescendant, goddag, node)
    assert {id(n) for n in result} == \
        {id(n) for n in naive_xdescendant(goddag, node)}


@pytest.mark.benchmark(group="ABLATE-xdescendant")
def test_naive_xdescendant(benchmark):
    goddag = goddag_at_size(SIZE)
    node = _mid_line(goddag)
    result = benchmark(naive_xdescendant, goddag, node)
    assert isinstance(result, list)


@pytest.mark.benchmark(group="ABLATE-pushdown")
def test_xdescendant_with_name_pushdown(benchmark):
    """Name-test pushdown (DESIGN.md): filter inside the index."""
    goddag = goddag_at_size(SIZE)
    goddag.span_index()
    node = _mid_line(goddag)
    result = benchmark(axis_xdescendant, goddag, node, "w")
    assert all(n.name == "w" for n in result)


@pytest.mark.benchmark(group="ABLATE-pushdown")
def test_xdescendant_with_post_filter(benchmark):
    """The same answer filtered after a hint-less evaluation."""
    goddag = goddag_at_size(SIZE)
    goddag.span_index()
    node = _mid_line(goddag)

    def run():
        return [n for n in axis_xdescendant(goddag, node)
                if n.name == "w"]

    filtered = benchmark(run)
    assert {id(n) for n in filtered} == \
        {id(n) for n in axis_xdescendant(goddag, node, "w")}

"""Tests for shared utilities: intervals, name allocation, temp manager."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import (
    NameAllocator,
    Span,
    contains,
    crosses,
    overlaps,
    strictly_after,
    strictly_before,
)

spans = st.builds(Span,
                  st.integers(min_value=0, max_value=20),
                  st.integers(min_value=0, max_value=20))


class TestSpan:
    def test_is_empty(self):
        assert Span(3, 3).is_empty
        assert Span(4, 3).is_empty
        assert not Span(3, 4).is_empty

    def test_len(self):
        assert len(Span(2, 6)) == 4
        assert len(Span(6, 2)) == 0

    def test_overlaps(self):
        assert overlaps(Span(0, 5), Span(4, 9))
        assert not overlaps(Span(0, 5), Span(5, 9))
        assert overlaps(Span(2, 3), Span(0, 9))

    def test_contains(self):
        assert contains(Span(0, 9), Span(2, 5))
        assert contains(Span(0, 9), Span(0, 9))
        assert not contains(Span(2, 5), Span(0, 9))
        assert contains(Span(2, 5), Span(3, 3))  # empty vacuously

    def test_strictly_before_after(self):
        assert strictly_before(Span(0, 3), Span(3, 5))
        assert not strictly_before(Span(0, 4), Span(3, 5))
        assert strictly_after(Span(3, 5), Span(0, 3))

    def test_crosses(self):
        assert crosses(Span(0, 5), Span(3, 8))
        assert not crosses(Span(0, 5), Span(2, 4))  # containment
        assert not crosses(Span(0, 5), Span(0, 5))  # equality
        assert not crosses(Span(0, 5), Span(5, 8))  # adjacency
        assert not crosses(Span(2, 2), Span(0, 5))  # empty

    @settings(max_examples=200, deadline=None)
    @given(a=spans, b=spans)
    def test_trichotomy_for_nonempty(self, a, b):
        if a.is_empty or b.is_empty:
            return
        relations = [
            strictly_before(a, b), strictly_after(a, b),
            crosses(a, b), contains(a, b) or contains(b, a),
        ]
        assert sum(relations) == 1

    @settings(max_examples=200, deadline=None)
    @given(a=spans, b=spans)
    def test_crosses_symmetric(self, a, b):
        assert crosses(a, b) == crosses(b, a)


class TestNameAllocator:
    def test_first_allocation_is_base(self):
        allocator = NameAllocator()
        assert allocator.allocate("rest") == "rest"

    def test_taken_base_gets_counter(self):
        allocator = NameAllocator(["rest"])
        assert allocator.allocate("rest") == "rest2"
        assert allocator.allocate("rest") == "rest3"

    def test_reserve(self):
        allocator = NameAllocator()
        allocator.reserve("rest")
        assert allocator.allocate("rest") == "rest2"

    def test_independent_bases(self):
        allocator = NameAllocator()
        assert allocator.allocate("a") == "a"
        assert allocator.allocate("b") == "b"


class TestTemporaryHierarchyManager:
    def test_temporaries_live_on_the_shell(self, goddag):
        from repro.cmh.spans import Span as ASpan, SpanSet
        from repro.core.goddag import TemporaryHierarchyManager

        before = goddag.hierarchy_names
        shell = goddag.shell()
        manager = TemporaryHierarchyManager(shell)
        spans = SpanSet(goddag.text, [ASpan(0, 5, "res")])
        name = manager.create(spans)
        assert name == "rest"
        assert shell.has_hierarchy("rest") and shell.is_temporary("rest")
        top = manager.top_element(name)
        assert top.name == "res"
        assert shell.parent_of(top) is goddag.root
        assert goddag.hierarchy_names == before

    def test_cleanup_on_exception(self, goddag):
        """An evaluation that fails after making a temporary leaves the
        structure as it was: the temporary was its shell's."""
        from repro.errors import ReproError
        from repro.core.runtime import evaluate_query

        before = goddag.hierarchy_names
        with pytest.raises(ReproError):
            evaluate_query(goddag, '(analyze-string(/descendant::w[2], '
                                   '"unawe"), analyze-string("x", "y"))')
        assert goddag.hierarchy_names == before

    def test_a_version_refuses_temporaries(self, goddag):
        from repro.cmh.spans import Span as ASpan, SpanSet
        from repro.errors import GoddagError
        from repro.core.goddag import TemporaryHierarchyManager

        manager = TemporaryHierarchyManager(goddag)
        with pytest.raises(GoddagError, match="shell"):
            manager.create(SpanSet(goddag.text, [ASpan(0, 5, "res")]))
        assert not goddag.has_hierarchy("rest")

    def test_names_do_not_collide_with_existing(self, goddag):
        from repro.cmh.spans import Span as ASpan, SpanSet
        from repro.core.goddag import TemporaryHierarchyManager

        goddag.add_hierarchy_from_spans(
            "rest", SpanSet(goddag.text, [ASpan(0, 2, "x")]))
        manager = TemporaryHierarchyManager(goddag.shell())
        name = manager.create(SpanSet(goddag.text, [ASpan(0, 5, "res")]))
        assert name == "rest2"


class TestErrors:
    def test_hierarchy_of_exceptions(self):
        from repro import errors

        assert issubclass(errors.MarkupError, errors.ReproError)
        assert issubclass(errors.AlignmentError, errors.CMHError)
        assert issubclass(errors.FunctionError,
                          errors.QueryEvaluationError)
        assert issubclass(errors.QuerySyntaxError, errors.QueryError)

    def test_markup_error_position_formatting(self):
        from repro.errors import MarkupError

        error = MarkupError("bad", line=3, column=7)
        assert "line 3" in str(error) and error.column == 7
        bare = MarkupError("bad")
        assert str(bare) == "bad"

    def test_alignment_error_fields(self):
        from repro.errors import AlignmentError

        error = AlignmentError("diverges", hierarchy="h", offset=12)
        assert error.hierarchy == "h" and error.offset == 12

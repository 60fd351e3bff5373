"""Unit tests for the sorted span index."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.goddag.index import SpanIndex
from repro.core.goddag.nodes import GElement, GText


class TestConstruction:
    def test_covers_root_elements_and_text(self, goddag):
        index = SpanIndex(goddag)
        kinds = {type(node) for node in index.nodes}
        assert GElement in kinds and GText in kinds
        assert goddag.root in index.nodes
        # 1 root + 16 elements + 22 text nodes
        assert len(index) == 39

    def test_sorted_by_start_then_wider_first(self, goddag):
        index = SpanIndex(goddag)
        pairs = [(node.start, -node.end) for node in index.nodes]
        assert pairs == sorted(pairs)

    def test_end_sorted_view(self, goddag):
        index = SpanIndex(goddag)
        assert list(index.ends_sorted) == sorted(index.ends)

    def test_cached_on_goddag(self, goddag):
        first = goddag.span_index()
        assert goddag.span_index() is first

    def test_shell_merges_into_its_own_arrays(self, goddag):
        from repro.cmh.spans import Span, SpanSet

        first = goddag.span_index()
        size = len(first)
        columns = (first._s_keys, first._e_keys, first.ranks)
        shell = goddag.shell()
        spans = SpanSet(goddag.text, [Span(0, 5, "x")])
        shell.add_hierarchy_from_spans("tmp", spans, temporary=True)
        second = shell.span_index()
        # The shell's index is derived from the source's, not rebuilt.
        assert second is not first
        assert goddag.index_full_builds == 1
        assert shell.index_full_builds == 0
        # <x> element + its text + the trailing text node after it
        assert len(second) == size + 3
        assert second.incremental_adds == 1
        assert goddag.span_index() is first and len(first) == size
        assert all(now is held for now, held in zip(
            (first._s_keys, first._e_keys, first.ranks), columns))
        assert first.incremental_adds == 0

    def test_a_thousand_evaluations_leave_ranks_and_names(self, goddag):
        """Every analyze-string evaluation makes its temporaries on its
        own shell: the structure's next rank — the packed order key's
        16-bit field — and its hierarchy names never move."""
        from repro.core.runtime import evaluate_query

        goddag.span_index()
        rank, names = goddag._next_rank, goddag.hierarchy_names
        query = ('count(analyze-string(/descendant::w[2], "e")'
                 '/descendant::m/xancestor::w)')
        for _ in range(1000):
            assert evaluate_query(goddag, query) == [1]
        assert goddag._next_rank == rank
        assert goddag.hierarchy_names == names


class TestOffsetGuard:
    def test_oversized_span_offsets_rejected(self):
        from repro.errors import GoddagError
        from repro.core.goddag.index import _SubIndex

        one = np.zeros(1, dtype=np.int64)
        objects = np.array([object()], dtype=object)
        with pytest.raises(GoddagError, match="2\\^31"):
            _SubIndex(0, objects, np.array(["x"], dtype=object), one,
                      np.array([1 << 31], dtype=np.int64), one, one)


class TestSlices:
    def test_start_slice_bounds(self, goddag):
        index = SpanIndex(goddag)
        left, right = index.start_slice(11, 23)  # unawendendne's span
        starts = index.starts[left:right]
        assert (starts >= 11).all() and (starts < 23).all()
        # Everything outside the slice is outside the range.
        outside = np.concatenate([index.starts[:left],
                                  index.starts[right:]])
        assert not ((outside >= 11) & (outside < 23)).any()

    def test_end_slice_bounds(self, goddag):
        index = SpanIndex(goddag)
        left, right = index.end_slice(14, 24)
        ends = index.ends_sorted[left:right]
        assert (ends >= 14).all() and (ends < 24).all()

    def test_empty_slice(self, goddag):
        index = SpanIndex(goddag)
        left, right = index.start_slice(51, 51)
        assert left == right

    def test_name_mask(self, goddag):
        index = SpanIndex(goddag)
        mask = index.name_mask("w")
        assert mask.sum() == 6
        assert all(index.nodes[i].name == "w"
                   for i in np.flatnonzero(mask))
        assert index.name_mask("w") is mask  # cached

    def test_name_mask_root(self, goddag):
        index = SpanIndex(goddag)
        assert index.name_mask("r").sum() == 1


class TestExclusionHelpers:
    def test_root_excludes_only_itself_for_xdescendant(self, goddag):
        index = SpanIndex(goddag)
        mask = index.ancestor_or_self_exclusion(goddag.root, 0,
                                                len(index))
        excluded = [index.nodes[i] for i in np.flatnonzero(mask)]
        assert excluded == [goddag.root]

    def test_element_excludes_chain_and_root(self, goddag):
        index = SpanIndex(goddag)
        word = next(w for w in goddag.elements("w")
                    if w.string_value() == "gesceaftum")
        mask = index.ancestor_or_self_exclusion(word, 0, len(index))
        excluded = {index.nodes[i] for i in np.flatnonzero(mask)}
        assert word in excluded
        assert goddag.root in excluded
        assert any(getattr(n, "name", None) == "vline" for n in excluded)
        # Other hierarchies are never excluded.
        assert not any(getattr(n, "name", None) == "line"
                       for n in excluded)

    def test_is_descendant_or_self(self, goddag):
        index = SpanIndex(goddag)
        vline = next(goddag.elements("vline"))
        word = vline.children[0]
        assert index.is_descendant_or_self(vline, word)
        assert index.is_descendant_or_self(vline, vline)
        assert not index.is_descendant_or_self(word, vline)
        assert index.is_descendant_or_self(goddag.root, vline)
        assert not index.is_descendant_or_self(vline, goddag.root)

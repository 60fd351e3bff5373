"""The leaf partition of the base text.

Paper §3: *"Let S = l1 · l2 · ... · ls be a partition of S into leaves,
longest substrings such that no markup in any of the di breaks any
substring li (that is, markup appears only at the substring
boundaries)."*

The partition is therefore determined by the multiset of markup
boundary offsets contributed by all hierarchies.  Boundaries are
reference-counted so that removing a (temporary) hierarchy restores
exactly the partition that existed before it was added — leaves that
were split coalesce again.  Each mutation bumps ``version``.

The partition caches a numpy boundary array and the full leaf list
(DESIGN.md §5), so every range query — ``leaves_in``, ``leaves_from``,
``leaves_until`` — is two ``searchsorted`` calls plus a contiguous
slice of the cached list instead of a scan.  Both caches are maintained
**incrementally**: adding or removing boundary offsets splices only the
split/coalesced cells (one bisect + one ``np.insert``/``np.delete``
per changed offset), so the ``analyze-string`` temporary-hierarchy
lifecycle never rebuilds the whole leaf list.  Leaf objects are
canonical per cell lifetime — untouched cells keep their objects across
versions.  The leaf list is made on first use, once, under the
partition's lock: a restored partition is its boundary multiset and
nothing else until somebody asks for a leaf (DESIGN.md §10).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable

import numpy as np

from repro.errors import GoddagError
from repro.core.goddag.nodes import GLeaf


class Partition:
    """Reference-counted boundary set and the leaves it induces."""

    def __init__(self, text: str) -> None:
        self._text = text
        length = self.length = len(text)
        # The document ends are permanent boundaries.  A restored
        # partition holds its multiset as the two arrays it came as —
        # a whole hierarchy's swap merges into them — until the first
        # per-offset splice asks for the counter (:meth:`_counts`).
        self._refcounts: Counter[int] | None = Counter({0: 1, length: 1})
        self._restored: tuple[np.ndarray, np.ndarray] | None = None
        self._sorted: list[int] | None = None
        self._bounds_array: np.ndarray | None = None
        self._leaf_cache: dict[int, GLeaf] = {}
        self._leaves_list: list[GLeaf] | None = None
        self._lock = threading.Lock()
        self.version = 0

    # -- mutation -----------------------------------------------------------

    def _counts(self) -> Counter[int]:
        """The boundary multiset as a counter to splice: a restored
        partition's is filled from its arrays here, with the sorted
        boundary list the splices keep."""
        refcounts = self._refcounts
        if refcounts is None:
            offsets, counts = self._restored
            bounds = offsets.tolist()
            refcounts = self._refcounts = Counter(dict(zip(
                bounds, counts.tolist())))
            if self._sorted is None:
                self._sorted = bounds
            self._restored = None
        return refcounts

    def add_boundaries(self, offsets: Iterable[int]) -> None:
        """Reference the given boundary offsets (duplicates allowed)."""
        refcounts = self._counts()
        fresh: set[int] = set()
        for offset in offsets:
            if offset < 0 or offset > self.length:
                raise GoddagError(
                    f"boundary offset {offset} outside the text "
                    f"(length {self.length})")
            if refcounts[offset] == 0:
                fresh.add(offset)
            refcounts[offset] += 1
        if fresh:
            self._apply_delta(sorted(fresh), added=True)

    def remove_boundaries(self, offsets: Iterable[int]) -> None:
        """Drop one reference per given offset; coalesce freed leaves."""
        refcounts = self._counts()
        gone: set[int] = set()
        for offset in offsets:
            count = refcounts[offset]
            if count <= 0:
                raise GoddagError(
                    f"boundary offset {offset} removed more times than "
                    f"it was added")
            if count == 1:
                del refcounts[offset]
                gone.add(offset)
            else:
                refcounts[offset] = count - 1
        if gone:
            self._apply_delta(sorted(gone), added=False)

    def swap_boundaries(self, old: np.ndarray, new: np.ndarray) -> None:
        """Exchange one hierarchy's boundary multiset for its next
        form, touching only the offsets whose count differs: an update
        that wraps one span re-registers a whole hierarchy and moves
        two boundaries."""
        offsets, inverse = np.unique(np.concatenate((old, new)),
                                     return_inverse=True)
        delta = (np.bincount(inverse[len(old):], minlength=len(offsets))
                 - np.bincount(inverse[:len(old)], minlength=len(offsets)))
        if self._refcounts is None and self._leaves_list is None:
            # restored, and no leaf to split or merge: the delta goes
            # into the two arrays, which stay the multiset
            self._swap_restored(offsets, delta)
            return
        self.remove_boundaries(
            np.repeat(offsets, np.maximum(-delta, 0)).tolist())
        self.add_boundaries(
            np.repeat(offsets, np.maximum(delta, 0)).tolist())

    def _swap_restored(self, offsets: np.ndarray, delta: np.ndarray
                       ) -> None:
        """Add ``delta`` to the counts of ``offsets`` in new arrays (the
        held ones may be a fork's or mapped), checked as the per-offset
        splices check before anything is replaced."""
        changed = delta != 0
        offsets, delta = offsets[changed], delta[changed]
        held, counts = self._restored
        at = np.minimum(np.searchsorted(held, offsets), len(held) - 1)
        fresh = offsets[held[at] != offsets]
        where = np.searchsorted(held, fresh)
        merged = np.insert(held, where, fresh)
        total = np.insert(counts, where, 0)
        total[np.searchsorted(merged, offsets)] += delta
        added = offsets[delta > 0]
        if len(added) and (added[0] < 0 or added[-1] > self.length):
            offset = int(added[0] if added[0] < 0 else added[-1])
            raise GoddagError(
                f"boundary offset {offset} outside the text "
                f"(length {self.length})")
        if (total < 0).any():
            raise GoddagError(
                f"boundary offset {int(merged[np.argmax(total < 0)])} "
                f"removed more times than it was added")
        keep = total > 0
        bounds = merged[keep]
        if not np.array_equal(bounds, held):
            self.version += 1
            self._sorted = None
            self._leaf_cache.clear()
        self._restored = bounds, total[keep]
        self._bounds_array = bounds

    def _apply_delta(self, offsets: list[int], added: bool) -> None:
        """Splice changed cells into the cached boundary/leaf structures.

        Interior offsets only (0 and the text length are permanent), so
        every changed offset splits — or re-merges — exactly one cell.
        With nothing materialized yet — or when the delta is a large
        fraction of the partition, where per-offset splices (each an
        O(n) copy) would go quadratic — this is a plain invalidation
        and the caches rebuild lazily in one O(n) pass.
        """
        self.version += 1
        if (self._sorted is None or self._leaves_list is None
                or len(offsets) > max(64, len(self._sorted) // 8)):
            self._sorted = None
            self._bounds_array = None
            self._leaf_cache.clear()
            self._leaves_list = None
            return
        bounds = self._sorted
        leaves = self._leaves_list
        cache = self._leaf_cache
        array = self._bounds_array
        text = self._text
        if added:
            for offset in offsets:
                position = bisect_left(bounds, offset)
                bounds.insert(position, offset)
                if array is not None:
                    array = np.insert(array, position, offset)
                old = leaves[position - 1]
                left = GLeaf(text, old.start, offset)
                right = GLeaf(text, offset, old.end)
                leaves[position - 1:position] = [left, right]
                cache[old.start] = left
                cache[offset] = right
        else:
            for offset in offsets:
                position = bisect_left(bounds, offset)
                del bounds[position]
                if array is not None:
                    array = np.delete(array, position)
                left = leaves[position - 1]
                right = leaves[position]
                merged = GLeaf(text, left.start, right.end)
                leaves[position - 1:position + 1] = [merged]
                cache.pop(offset, None)
                cache[left.start] = merged
        self._bounds_array = array

    # -- persistence (the .mhxb cold-load path, DESIGN.md §10) ---------------

    def export_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(offsets, refcounts)`` — the whole boundary multiset as two
        parallel sorted int64 arrays, ready for binary persistence (do
        not write them: a restored partition hands over its own)."""
        if self._restored is not None:
            return self._restored
        offsets = sorted(self._refcounts)
        counts = [self._refcounts[offset] for offset in offsets]
        return (np.array(offsets, dtype=np.int64),
                np.array(counts, dtype=np.int64))

    @classmethod
    def restore(cls, text: str, offsets: np.ndarray,
                counts: np.ndarray) -> "Partition":
        """Rebuild a partition from :meth:`export_arrays` output.

        Nothing is made per offset: the two arrays are the multiset
        until the first splice (:meth:`_counts`), and the offsets, which
        arrive sorted, are the boundary array — it may stay
        memory-mapped (it is only ever replaced wholesale, never written
        in place).
        """
        partition = cls(text)
        offsets = np.asarray(offsets, dtype=np.int64)
        partition._refcounts = None
        partition._restored = offsets, np.asarray(counts, dtype=np.int64)
        partition._bounds_array = offsets
        return partition

    def fork(self) -> "Partition":
        """The next version's partition: its own multiset and lists
        around this one's boundary array and leaf objects.

        Leaves hold no version (DESIGN.md §1), so the cells a later
        update neither splits nor merges stay one object in every
        version — every leaf made before the fork; one neither side
        had made yet is made by each side for itself.  The containers
        :meth:`_apply_delta` splices in place are copied, the boundary
        array — only ever replaced — is not.
        """
        fork = Partition(self._text)
        fork._refcounts = None if self._refcounts is None \
            else self._refcounts.copy()
        fork._restored = self._restored
        fork._sorted = None if self._sorted is None else self._sorted.copy()
        fork._bounds_array = self._bounds_array
        leaves = self._leaves_list
        if leaves is not None:
            fork._leaves_list = leaves.copy()
        return fork

    def freeze(self) -> None:
        """Seal the boundary array for snapshot readers; the leaf list
        stays a first-use fill (:meth:`_all_leaves`)."""
        self.boundary_array.setflags(write=False)

    # -- access ---------------------------------------------------------------

    @property
    def boundaries(self) -> list[int]:
        """Distinct boundary offsets in increasing order."""
        if self._sorted is None:
            self._sorted = sorted(self._refcounts) \
                if self._bounds_array is None else self._bounds_array.tolist()
        return self._sorted

    @property
    def boundary_array(self) -> np.ndarray:
        """The boundary offsets as a sorted int64 array (cached)."""
        if self._bounds_array is None:
            bounds = self.boundaries
            self._bounds_array = np.fromiter(bounds, dtype=np.int64,
                                             count=len(bounds))
        return self._bounds_array

    def __len__(self) -> int:
        """The number of leaves."""
        return max(0, len(self.boundaries) - 1)

    def leaf_spans(self) -> list[tuple[int, int]]:
        """All leaf cells as ``(start, end)`` pairs, in text order."""
        bounds = self.boundaries
        return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]

    def _leaf(self, start: int, end: int) -> GLeaf:
        leaf = self._leaf_cache.get(start)
        if leaf is None:
            leaf = GLeaf(self._text, start, end)
            self._leaf_cache[start] = leaf
        return leaf

    def _all_leaves(self) -> list[GLeaf]:
        """The incrementally maintained leaf list (do not mutate): made
        once, under the lock — two racing fills would hand out two
        objects for one cell."""
        leaves = self._leaves_list
        if leaves is None:
            with self._lock:
                leaves = self._leaves_list
                if leaves is None:
                    leaves = [self._leaf(start, end)
                              for start, end in self.leaf_spans()]
                    self._leaves_list = leaves
        return leaves

    def leaves(self) -> list[GLeaf]:
        """All leaves in text order (canonical objects)."""
        return list(self._all_leaves())

    def leaf_at(self, offset: int) -> GLeaf:
        """The leaf containing character ``offset``."""
        if offset < 0 or offset >= self.length:
            raise GoddagError(
                f"offset {offset} outside the text (length {self.length})")
        index = int(np.searchsorted(self.boundary_array, offset,
                                    side="right")) - 1
        return self._all_leaves()[index]

    def leaf_index(self, offset: int) -> int:
        """The position of the leaf starting at ``offset``.

        For a non-boundary offset this is the position the leaf covering
        it *follows*, matching ``searchsorted`` semantics; sibling-axis
        callers always pass canonical leaf starts.
        """
        return int(np.searchsorted(self.boundary_array, offset,
                                   side="left"))

    def leaves_in(self, start: int, end: int) -> list[GLeaf]:
        """Leaves lying entirely within ``[start, end)``.

        For span-aligned callers (every markup node) this is exactly
        ``leaves(n)`` from the paper.  Two bisects plus a slice of the
        cached leaf list.
        """
        if start >= end:
            return []
        bounds = self.boundary_array
        first = int(np.searchsorted(bounds, start, side="left"))
        # Largest boundary index j with bounds[j] <= end; leaves
        # [first, j) end at or before ``end``.
        last = int(np.searchsorted(bounds, end, side="right")) - 1
        if last <= first:
            return []
        return self._all_leaves()[first:last]

    def leaf_ranges(self, starts: np.ndarray, ends: np.ndarray
                    ) -> tuple[list[GLeaf], np.ndarray, np.ndarray]:
        """:meth:`leaves_in` for many spans at once.

        ``(leaves, firsts, lasts)``: row ``i``'s leaves are
        ``leaves[firsts[i]:lasts[i]]`` of the cached leaf list (do not
        mutate) — two bisects for the whole batch.
        """
        bounds = self.boundary_array
        firsts = np.searchsorted(bounds, starts, side="left")
        lasts = np.searchsorted(bounds, ends, side="right") - 1
        return self._all_leaves(), firsts, np.maximum(lasts, firsts)

    def leaves_from(self, offset: int) -> list[GLeaf]:
        """Leaves whose span starts at or after ``offset``."""
        first = int(np.searchsorted(self.boundary_array, offset,
                                    side="left"))
        return self._all_leaves()[first:]

    def leaves_until(self, offset: int) -> list[GLeaf]:
        """Leaves whose span ends at or before ``offset``."""
        last = int(np.searchsorted(self.boundary_array, offset,
                                   side="right")) - 1
        if last <= 0:
            return []
        return self._all_leaves()[:last]

    def is_boundary(self, offset: int) -> bool:
        """True when ``offset`` is a current partition boundary."""
        bounds = self.boundary_array
        index = int(np.searchsorted(bounds, offset))
        return index < len(bounds) and int(bounds[index]) == offset

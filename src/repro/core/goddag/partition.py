"""The leaf partition of the base text.

Paper §3: *"Let S = l1 · l2 · ... · ls be a partition of S into leaves,
longest substrings such that no markup in any of the di breaks any
substring li (that is, markup appears only at the substring
boundaries)."*

The partition is therefore determined by the multiset of markup
boundary offsets contributed by all hierarchies, held as two parallel
sorted arrays — the distinct offsets, which are the boundary array, and
their reference counts.  Swapping one hierarchy's boundaries for its
next form merges the count delta into new arrays (one ``searchsorted``
and one ``np.insert``), so a boundary that another hierarchy still
references survives and one nobody references any more is gone.

The partition caches the full leaf list (DESIGN.md §5), so every range
query — ``leaves_in``, ``leaves_from``, ``leaves_until`` — is two
``searchsorted`` calls plus a contiguous slice of it instead of a scan.
A change splices only the split or coalesced cells into the list, and
the cells it does not touch keep their leaf objects.  The leaf list is
made on first use, once, under the partition's lock: a restored
partition is its boundary multiset and nothing else until somebody asks
for a leaf (DESIGN.md §10).  An evaluation's :meth:`shell` shares the
arrays and starts its leaf list from this one's.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import GoddagError
from repro.core.goddag.nodes import GLeaf


class Partition:
    """Reference-counted boundary set and the leaves it induces."""

    def __init__(self, text: str,
                 multiset: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> None:
        self._text = text
        self.length = len(text)
        # The two arrays are only ever replaced, never written in
        # place: a fork or a shell shares them, and they may be
        # memory-mapped.  The document ends are permanent boundaries.
        self._multiset: tuple[np.ndarray, np.ndarray] = \
            multiset if multiset is not None else np.unique(
                np.array([0, self.length], dtype=np.int64),
                return_counts=True)
        # offsets added since the arrays were last merged: a read
        # merges them all at once (:attr:`boundary_array`)
        self._pending: list[np.ndarray] = []
        self._sorted: list[int] | None = None
        self._leaves_list: list[GLeaf] | None = None
        # the partition a shell extends (:meth:`shell`): its leaf list
        # is where this one's starts
        self._base: Partition | None = None
        self._lock = threading.Lock()

    # -- mutation -----------------------------------------------------------

    def add_boundaries(self, offsets: np.ndarray | list[int]) -> None:
        """Reference the given boundary offsets (duplicates allowed).

        While no leaf list is made they merge into the arrays on the
        next read, all that came since at once: an evaluation whose
        ``analyze-string`` temporaries nothing reads the leaves of never
        merges them."""
        offsets = np.asarray(offsets, dtype=np.int64)
        if not len(offsets):
            return
        low, high = int(offsets.min()), int(offsets.max())
        if low < 0 or high > self.length:
            raise GoddagError(
                f"boundary offset {low if low < 0 else high} outside "
                f"the text (length {self.length})")
        self._pending.append(offsets)
        self._sorted = None
        if self._leaves_list is not None:
            self._merge_pending()

    def _merge_pending(self) -> None:
        pending, self._pending = self._pending, []
        self._change(*np.unique(np.concatenate(pending),
                                return_counts=True))

    def swap_boundaries(self, old: np.ndarray, new: np.ndarray) -> None:
        """Exchange one hierarchy's boundary multiset for its next
        form, touching only the offsets whose count differs: an update
        that wraps one span re-registers a whole hierarchy and moves
        two boundaries."""
        offsets, inverse = np.unique(np.concatenate((old, new)),
                                     return_inverse=True)
        delta = (np.bincount(inverse[len(old):], minlength=len(offsets))
                 - np.bincount(inverse[:len(old)], minlength=len(offsets)))
        if self._pending:
            self._merge_pending()
        self._change(offsets, delta)

    def _change(self, offsets: np.ndarray, delta: np.ndarray) -> None:
        """Add ``delta`` to the counts of the sorted distinct
        ``offsets`` in new arrays, checked before anything is replaced,
        then splice the leaf list for the boundaries that came or went.
        Only the touched entries are read: the rest is two copies."""
        changed = delta != 0
        offsets, delta = offsets[changed], delta[changed]
        if not len(offsets):
            return
        held, counts = self._multiset
        at = np.minimum(np.searchsorted(held, offsets), len(held) - 1)
        added = offsets[held[at] != offsets]
        where = np.searchsorted(held, added)
        merged = np.insert(held, where, added)
        total = np.insert(counts, where, 0)
        at = np.searchsorted(merged, offsets)
        before = total[at]
        after = before + delta
        added = offsets[delta > 0]
        if len(added) and (added[0] < 0 or added[-1] > self.length):
            offset = int(added[0] if added[0] < 0 else added[-1])
            raise GoddagError(
                f"boundary offset {offset} outside the text "
                f"(length {self.length})")
        if (after < 0).any():
            raise GoddagError(
                f"boundary offset {int(offsets[np.argmax(after < 0)])} "
                f"removed more times than it was added")
        total[at] = after
        came = offsets[before == 0]
        went = offsets[after == 0]
        if len(went):
            keep = total > 0
            merged, total = merged[keep], total[keep]
        self._multiset = merged, total
        if len(came) or len(went):
            self._sorted = None
            self._splice(held, came, went)

    def _splice(self, held: np.ndarray, came: np.ndarray,
                went: np.ndarray) -> None:
        """Split the leaf list's cells at the boundaries that ``came``
        and coalesce them across those that ``went`` (``held`` is the
        boundary array before).  Interior offsets only — 0 and the text
        length are permanent — so each one splits or re-merges exactly
        one cell.  With no list yet, or a change that is a large
        fraction of the partition, where per-offset splices (each an
        O(n) copy) would go quadratic, the list is dropped and rebuilt
        on first use in one O(n) pass."""
        leaves = self._leaves_list
        if leaves is None:
            return
        if len(came) + len(went) > max(64, len(held) // 8):
            self._leaves_list = None
            return
        text = self._text
        # right to left over the old positions, so those still to come
        # do not move
        for position in np.searchsorted(held, went)[::-1].tolist():
            left, right = leaves[position - 1], leaves[position]
            leaves[position - 1:position + 1] = [
                GLeaf(text, left.start, right.end)]
        # left to right over the new ones: the cells left of each
        # offset are final by the time it is split
        bounds = self.boundary_array
        for offset, position in zip(
                came.tolist(), np.searchsorted(bounds, came).tolist()):
            old = leaves[position - 1]
            leaves[position - 1:position] = [GLeaf(text, old.start, offset),
                                             GLeaf(text, offset, old.end)]

    # -- persistence (the .mhxb cold-load path, DESIGN.md §10) ---------------

    def export_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(offsets, refcounts)`` — the whole boundary multiset as two
        parallel sorted int64 arrays, ready for binary persistence (do
        not write them: the partition hands over its own)."""
        if self._pending:
            self._merge_pending()
        return self._multiset

    @classmethod
    def restore(cls, text: str, offsets: np.ndarray,
                counts: np.ndarray) -> "Partition":
        """Rebuild a partition from :meth:`export_arrays` output.

        Nothing is made per offset: the two arrays, which arrive
        sorted, are the multiset and the offsets the boundary array —
        they may stay memory-mapped (they are only ever replaced
        wholesale, never written in place).
        """
        return cls(text, (np.asarray(offsets, dtype=np.int64),
                          np.asarray(counts, dtype=np.int64)))

    def fork(self) -> "Partition":
        """The next version's partition: this one's arrays and a copy of
        its leaf list.

        Leaves hold no version (DESIGN.md §1), so the cells a later
        update neither splits nor merges stay one object in every
        version — every leaf made before the fork; one neither side
        had made yet is made by each side for itself.  The leaf list,
        which :meth:`_splice` edits in place, is copied; the arrays —
        only ever replaced — are not.
        """
        fork = Partition(self._text, self.export_arrays())
        fork._sorted = self._sorted
        leaves = self._leaves_list
        if leaves is not None:
            fork._leaves_list = leaves.copy()
        return fork

    def shell(self) -> "Partition":
        """An evaluation's partition over this one (DESIGN.md §8): the
        same two arrays, which its temporaries' boundaries merge into
        as new ones.  Its leaf list is made on first use from this
        one's — the cells its temporaries do not split keep their leaf
        objects — and nothing it makes is written back here."""
        shell = Partition(self._text, self.export_arrays())
        shell._sorted = self._sorted
        shell._base = self
        return shell

    def freeze(self) -> None:
        """Seal the boundary array for snapshot readers; the leaf list
        stays a first-use fill (:meth:`_all_leaves`)."""
        self.boundary_array.setflags(write=False)

    # -- access ---------------------------------------------------------------

    @property
    def boundaries(self) -> list[int]:
        """Distinct boundary offsets in increasing order."""
        if self._sorted is None:
            self._sorted = self.boundary_array.tolist()
        return self._sorted

    @property
    def boundary_array(self) -> np.ndarray:
        """The boundary offsets as a sorted int64 array."""
        if self._pending:
            self._merge_pending()
        return self._multiset[0]

    def __len__(self) -> int:
        """The number of leaves."""
        return max(0, len(self.boundary_array) - 1)

    def leaf_spans(self) -> list[tuple[int, int]]:
        """All leaf cells as ``(start, end)`` pairs, in text order."""
        bounds = self.boundaries
        return list(zip(bounds, bounds[1:]))

    def _all_leaves(self) -> list[GLeaf]:
        """The incrementally maintained leaf list (do not mutate): made
        once, under the lock — two racing fills would hand out two
        objects for one cell.  A shell's starts as a copy of its base's,
        spliced to its own boundaries."""
        leaves = self._leaves_list
        if leaves is None:
            with self._lock:
                leaves = self._leaves_list
                if leaves is None:
                    base = self._base
                    if base is not None:
                        # merged before the list exists, so that the
                        # splice below is the only one
                        bounds = self.boundary_array
                        held = base.boundary_array
                        self._leaves_list = base._all_leaves().copy()
                        at = np.minimum(np.searchsorted(held, bounds),
                                        len(held) - 1)
                        self._splice(held, bounds[held[at] != bounds],
                                     bounds[:0])
                    leaves = self._leaves_list
                    if leaves is None:
                        text = self._text
                        leaves = self._leaves_list = [
                            GLeaf(text, start, end)
                            for start, end in self.leaf_spans()]
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

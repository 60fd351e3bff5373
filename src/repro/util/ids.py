"""Unique name allocation for temporary hierarchies and fragments."""

from __future__ import annotations

from collections.abc import Iterable


class NameAllocator:
    """Allocates names that are unique against a set of taken names.

    The first allocation for a base returns the base itself when free
    (``rest``); later ones append a counter (``rest2``, ``rest3``, …).
    This matches the paper's Definition 4, which names the temporary
    hierarchy "say, rest" but requires a fresh hierarchy per call.
    """

    def __init__(self, taken: Iterable[str] = ()) -> None:
        self._taken: set[str] = set(taken)
        self._counters: dict[str, int] = {}

    def reserve(self, name: str) -> None:
        """Mark ``name`` as taken without allocating it."""
        self._taken.add(name)

    def allocate(self, base: str) -> str:
        """Return a fresh name derived from ``base`` and mark it taken."""
        if base not in self._taken:
            self._taken.add(base)
            return base
        counter = self._counters.get(base, 1)
        while True:
            counter += 1
            candidate = f"{base}{counter}"
            if candidate not in self._taken:
                self._counters[base] = counter
                self._taken.add(candidate)
                return candidate

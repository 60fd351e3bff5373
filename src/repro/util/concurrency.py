"""Concurrency primitives for frozen-snapshot readers (DESIGN.md §10).

The stdlib has no reader/writer lock; this one is writer-preferring —
once an exclusive acquirer queues, new shared acquirers wait, so a
steady stream of plain queries can never starve an ``analyze-string``
evaluation waiting for the exclusive side.
"""

from __future__ import annotations

import threading


class ReadWriteLatch:
    """A minimal many-reader / one-writer latch."""

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writing = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._condition:
            while self._writing or self._writers_waiting:
                self._condition.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._condition:
            self._readers -= 1
            if self._readers == 0:
                self._condition.notify_all()

    def acquire_write(self) -> None:
        with self._condition:
            self._writers_waiting += 1
            try:
                while self._writing or self._readers:
                    self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writing = True

    def release_write(self) -> None:
        with self._condition:
            self._writing = False
            self._condition.notify_all()

    def acquire(self, exclusive: bool) -> None:
        (self.acquire_write if exclusive else self.acquire_read)()

    def release(self, exclusive: bool) -> None:
        (self.release_write if exclusive else self.release_read)()

"""The harness's own span recorder (traced runs only).

A span is one timed call the harness makes into a layer of the
program: ``[name, start, end, parent, request, replay]`` with times in
seconds on ``time.perf_counter`` and ``parent`` the index of the
enclosing span (``-1`` for an operation span, which is the root of one
request).  Spans stay in memory until :meth:`Recorder.dump`.

Work hidden behind a process boundary (an HTTP round trip, a pooled
``cquery``) cannot be opened up from outside, so the harness runs the
same work again in this process and attaches it as a *replay* span
under the call it explains: the replay's clock interval lies after its
parent's, only its duration is meaningful.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT, REQUEST, REPLAY = range(6)


class Recorder:
    """Nested spans for one thread of calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._request = 0

    @contextmanager
    def span(self, name: str):
        """Time the body as ``name`` under the currently open span."""
        parent = self._open[-1] if self._open else -1
        if parent < 0:
            self._request += 1
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, self._request, False]
        self.spans.append(record)
        self._open.append(index)
        record[START] = time.perf_counter()
        try:
            yield index
        finally:
            record[END] = time.perf_counter()
            self._open.pop()

    def replay(self, parent: int, name: str, call):
        """Run ``call`` now and record it as a replay under ``parent``."""
        begin = time.perf_counter()
        result = call()
        end = time.perf_counter()
        self.spans.append([name, begin, end, parent,
                           self.spans[parent][REQUEST], True])
        return result

    def self_times(self) -> list[float]:
        """Per span: its duration minus what its child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        return [max(span[END] - span[START] - inside, 0.0)
                for span, inside in zip(self.spans, covered)]

    def coverage_share(self) -> float:
        """Share of the operations' wall spent inside layer spans (a
        replay runs after its operation and explains a layer span's
        inside; it adds nothing here)."""
        wall = inside = 0.0
        for span in self.spans:
            if span[PARENT] < 0:
                wall += span[END] - span[START]
            elif self.spans[span[PARENT]][PARENT] < 0 and not span[REPLAY]:
                inside += span[END] - span[START]
        return inside / wall if wall else 0.0

    def by_name(self) -> dict[str, dict]:
        """Self-time totals and call counts per span name."""
        out: dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            row = out.setdefault(span[NAME], {"calls": 0, "self_s": 0.0,
                                              "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own
            row["total_s"] += span[END] - span[START]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "request", "replay"],
                       "spans": self.spans,
                       "by_name": self.by_name()}, handle)

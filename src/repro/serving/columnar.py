"""The fleet calendar: a heap event clock.

:class:`EventClock` is a binary-heap pending-event index with lazy
cancellation, replacing linear next-event scans; it pops events in exact
``(time, insertion)`` order.  A fleet run keeps every timed event on one
(crash detections, repairs, retries and elastic boot milestones; see
:mod:`repro.serving.cluster`).
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable

from repro.errors import ConfigError

__all__ = ["EventClock"]


class EventClock:
    """Pending-event index with lazy cancellation.

    Keys are arbitrary hashables; scheduling a key again moves it (the
    stale entry dies lazily).  ``next_time`` is the earliest pending
    instant (``inf`` when empty); ``pop_due`` drains everything due by a
    given time in exact ``(time, insertion order)`` order.
    """

    def __init__(self) -> None:
        self._seq = 0
        self._live: dict[object, tuple[float, int]] = {}
        self._heap: list[tuple[float, int, object]] = []

    def __len__(self) -> int:
        return len(self._live)

    def schedule(self, key: object, when: float) -> None:
        """Schedule (or move) ``key`` to fire at ``when``."""
        if not math.isfinite(when):
            raise ConfigError("event times must be finite")
        self._seq += 1
        self._live[key] = (when, self._seq)
        heapq.heappush(self._heap, (when, self._seq, key))

    def cancel(self, key: object) -> None:
        """Forget ``key`` (no-op when not scheduled); dies lazily."""
        self._live.pop(key, None)

    def _entry_live(self, entry: tuple[float, int, object]) -> bool:
        when, seq, key = entry
        return self._live.get(key) == (when, seq)

    def next_time(self) -> float:
        """Earliest pending instant (``inf`` when nothing is scheduled)."""
        if not self._live:
            return float("inf")
        while self._heap and not self._entry_live(self._heap[0]):
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else float("inf")

    def pop_due(self, now_s: float) -> list[object]:
        """Pop every key scheduled at or before ``now_s``, in fire order."""
        due: list[object] = []
        while self._heap and self._heap[0][0] <= now_s:
            entry = heapq.heappop(self._heap)
            if self._entry_live(entry):
                due.append(entry[2])
                del self._live[entry[2]]
        return due

    def extend(self, items: Iterable[tuple[object, float]]) -> None:
        """Bulk-schedule ``(key, when)`` pairs."""
        for key, when in items:
            self.schedule(key, when)

"""Columnar serving-core primitives: struct-of-arrays request state
and the heap event clock.

The serving hot loop spends most of its wall clock on per-request Python
objects (attribute chases, one ``advance_decode`` call per request per
stage) and on linear scans for the next pending event.  This module
holds the two data structures that replace those costs:

* :class:`RequestTable` — a struct-of-arrays store of in-flight request
  state (phase, context/emitted tokens, output budget, KV residency,
  arrival and deadline) in preallocated numpy columns with a free-list.
  The scheduler registers a row per admitted request and frees it on
  release; the steady-decode fast path reads ``min_remaining`` (how many
  decode stages until the *first* completion) and advances the whole
  batch with one vector add instead of per-object mutation.  The
  :class:`~repro.serving.request.Request` objects stay authoritative for
  every scalar code path — the table refreshes its dynamic columns
  lazily (``refresh``) whenever a scalar stage has touched the batch, so
  policies, routers, and paging hooks keep their object API unchanged.

* :class:`EventClock` — a binary-heap pending-event index with lazy
  cancellation, replacing linear next-event scans; it pops events in
  exact ``(time, insertion)`` order.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigError, SchedulingError
from repro.serving.request import Request, RequestState

__all__ = ["EventClock", "RequestTable"]

#: Phase codes of the ``phase`` column (RequestState is not orderable).
PHASE_CODES: dict[RequestState, int] = {state: i for i, state in enumerate(RequestState)}


class RequestTable:
    """Struct-of-arrays mirror of a scheduler's in-flight requests.

    Rows live in preallocated numpy columns; a LIFO free-list recycles
    slots so a steady-state batch churns through the same rows without
    reallocating.  Static columns (lengths, arrival, deadline) are
    written once at registration; dynamic columns (phase, context,
    emitted tokens, KV residency) are refreshed in bulk from the object
    layer right before a vectorized decode run and advanced columnar
    afterwards.

    Args:
        capacity: initial row count (grows by doubling when exceeded).
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ConfigError("RequestTable capacity must be at least 1")
        self._capacity = capacity
        self._allocate(capacity)
        self._free: list[int] = list(range(capacity - 1, -1, -1))
        self._slots: dict[int, int] = {}
        #: True when a scalar code path may have mutated request state
        #: since the dynamic columns were last refreshed.
        self.dirty = True
        self._run_slots: np.ndarray = np.empty(0, dtype=np.int64)

    def _allocate(self, capacity: int) -> None:
        self.request_id = np.full(capacity, -1, dtype=np.int64)
        self.phase = np.zeros(capacity, dtype=np.int8)
        self.context_len = np.zeros(capacity, dtype=np.int64)
        self.tokens_generated = np.zeros(capacity, dtype=np.int64)
        self.input_len = np.zeros(capacity, dtype=np.int64)
        self.output_len = np.zeros(capacity, dtype=np.int64)
        self.total_seq_len = np.zeros(capacity, dtype=np.int64)
        self.arrival_s = np.zeros(capacity, dtype=np.float64)
        self.deadline_s = np.full(capacity, np.nan, dtype=np.float64)
        self.kv_resident = np.zeros(capacity, dtype=bool)

    def _grow(self) -> None:
        old = self._capacity
        new = old * 2
        for name in (
            "request_id",
            "phase",
            "context_len",
            "tokens_generated",
            "input_len",
            "output_len",
            "total_seq_len",
            "arrival_s",
            "deadline_s",
            "kv_resident",
        ):
            column = getattr(self, name)
            grown = np.empty(new, dtype=column.dtype)
            grown[:old] = column
            if name == "request_id":
                grown[old:] = -1
            elif name == "deadline_s":
                grown[old:] = np.nan
            else:
                grown[old:] = 0
            setattr(self, name, grown)
        self._free.extend(range(new - 1, old - 1, -1))
        self._capacity = new

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, request_id: int) -> bool:
        return request_id in self._slots

    @property
    def capacity(self) -> int:
        return self._capacity

    def slot_of(self, request_id: int) -> int:
        return self._slots[request_id]

    def add(self, request: Request) -> int:
        """Register one in-flight request; returns its row slot."""
        if request.request_id in self._slots:
            raise SchedulingError(
                f"request {request.request_id} is already registered in the table"
            )
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self._slots[request.request_id] = slot
        self.request_id[slot] = request.request_id
        self.phase[slot] = PHASE_CODES[request.state]
        self.context_len[slot] = request.context_len
        self.tokens_generated[slot] = request.tokens_generated
        self.input_len[slot] = request.input_len
        self.output_len[slot] = request.output_len
        self.total_seq_len[slot] = request.total_seq_len
        self.arrival_s[slot] = request.arrival_time_s
        self.deadline_s[slot] = (
            request.t2ft_slo_s if request.t2ft_slo_s is not None else np.nan
        )
        self.kv_resident[slot] = True
        return slot

    def free(self, request_id: int) -> None:
        """Release one request's row back to the free-list."""
        slot = self._slots.pop(request_id, None)
        if slot is None:
            return
        self.request_id[slot] = -1
        self.kv_resident[slot] = False
        self._free.append(slot)

    def set_residency(self, request_id: int, resident: bool) -> None:
        """Flip the KV-residency flag (paging evict/resume bookkeeping)."""
        slot = self._slots.get(request_id)
        if slot is not None:
            self.kv_resident[slot] = resident

    # ------------------------------------------------------------------
    # the columnar hot path
    # ------------------------------------------------------------------
    def refresh(self, running: Sequence[Request]) -> np.ndarray:
        """Resync dynamic columns from the object layer.

        Returns the slot indices of ``running`` in batch order (also
        cached for :meth:`min_remaining` / :meth:`advance_decode`).
        Cheap no-op when nothing scalar has run since the last refresh.
        """
        slots = np.fromiter(
            (self._slots[r.request_id] for r in running),
            dtype=np.int64,
            count=len(running),
        )
        self._run_slots = slots
        if self.dirty:
            self.phase[slots] = np.fromiter(
                (PHASE_CODES[r.state] for r in running), dtype=np.int8, count=len(running)
            )
            self.context_len[slots] = np.fromiter(
                (r.context_len for r in running), dtype=np.int64, count=len(running)
            )
            self.tokens_generated[slots] = np.fromiter(
                (r.tokens_generated for r in running), dtype=np.int64, count=len(running)
            )
            self.dirty = False
        return slots

    def min_remaining(self) -> int:
        """Decode stages until the first refreshed request completes."""
        slots = self._run_slots
        if slots.size == 0:
            return 0
        remaining = self.output_len[slots] - self.tokens_generated[slots]
        return int(remaining.min())

    def advance_decode(self, n: int) -> None:
        """Advance every refreshed row by ``n`` decode stages, columnar."""
        slots = self._run_slots
        self.context_len[slots] += n
        self.tokens_generated[slots] += n


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

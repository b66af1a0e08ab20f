"""Request sources: synthetic generation, and the source protocol.

Input and output lengths are sampled from Gaussian distributions (the paper
reports the means as the (Lin, Lout) labels); arrivals are either
*closed-loop* — a new request is ready the moment a batch slot frees up,
which is how the throughput figures are measured — or *Poisson* with a given
queries-per-second rate (Fig. 13).

Anything satisfying :class:`RequestSource` can feed a scheduler or the
:class:`~repro.serving.simulator.ServingSimulator`: the synthetic
:class:`RequestGenerator` here, the trace replayer in
:mod:`repro.serving.trace`, or the per-replica :class:`QueueSource` a
cluster router pushes into.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import ConfigError, SchedulingError
from repro.serving.request import Request


@runtime_checkable
class RequestSource(Protocol):
    """What schedulers need from a stream of requests.

    ``peek`` materialises (without consuming) the next request so admission
    control can inspect its lengths; ``peek_arrival`` supports idle-time
    advancement; ``take`` consumes it.  An exhausted source returns None
    from ``peek`` and infinity from ``peek_arrival``.
    """

    @property
    def closed_loop(self) -> bool:
        """True when a fresh request is always ready (unbounded supply)."""
        ...

    def peek(self) -> Request | None:
        """The next request, or None when the source is exhausted."""
        ...

    def peek_arrival(self) -> float:
        """Arrival time of the next request (inf when exhausted)."""
        ...

    def has_request_at(self, now_s: float) -> bool:
        """True when a request has arrived by ``now_s``."""
        ...

    def take(self, now_s: float) -> Request:
        """Pop the next request."""
        ...


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of the synthetic workload.

    Attributes:
        lin_mean: mean input length (tokens).
        lout_mean: mean output length (tokens).
        lin_cv: coefficient of variation of input lengths (0 = fixed).
        lout_cv: coefficient of variation of output lengths (0 = fixed).
        qps: Poisson arrival rate; None = closed loop.
        min_len: floor applied to sampled lengths.
    """

    lin_mean: float
    lout_mean: float
    lin_cv: float = 0.0
    lout_cv: float = 0.0
    qps: float | None = None
    min_len: int = 4

    def __post_init__(self) -> None:
        if self.lin_mean < 1 or self.lout_mean < 1:
            raise ConfigError("mean lengths must be at least one token")
        if self.lin_cv < 0 or self.lout_cv < 0:
            raise ConfigError("coefficients of variation must be non-negative")
        if self.qps is not None and self.qps <= 0:
            raise ConfigError("qps must be positive (or None for closed loop)")
        if self.min_len < 1:
            raise ConfigError("min_len must be at least one token")

    @property
    def closed_loop(self) -> bool:
        return self.qps is None


class RequestGenerator:
    """Streams :class:`Request` objects according to a :class:`WorkloadSpec`.

    Args:
        spec: workload shape.
        seed: RNG seed.
    """

    def __init__(self, spec: WorkloadSpec, seed: int | None = 0) -> None:
        self.spec = spec
        self._rng = np.random.default_rng(seed)
        self._next_id = 0
        self._next_arrival_s = 0.0
        self._pending: Request | None = None

    @property
    def closed_loop(self) -> bool:
        """True when a fresh request is always ready (unbounded supply)."""
        return self.spec.closed_loop

    # ------------------------------------------------------------------
    # queue interface
    # ------------------------------------------------------------------
    def peek(self) -> Request | None:
        """Materialise the next request without consuming it.

        The generator samples lazily; peeking fixes the pending request's
        lengths so admission control can inspect them before :meth:`take`.
        A synthetic stream never runs out, so this never returns None.
        """
        self._ensure_pending()
        return self._pending

    def peek_arrival(self) -> float:
        """Arrival time of the next request (for idle-time advancement)."""
        self._ensure_pending()
        assert self._pending is not None
        return self._pending.arrival_time_s

    def has_request_at(self, now_s: float) -> bool:
        """True when a request has arrived by ``now_s``.

        Closed-loop workloads always have one ready.
        """
        if self.spec.closed_loop:
            return True
        self._ensure_pending()
        assert self._pending is not None
        return self._pending.arrival_time_s <= now_s

    def take(self, now_s: float) -> Request:
        """Pop the next request; closed-loop requests arrive exactly now."""
        self._ensure_pending()
        assert self._pending is not None
        request = self._pending
        self._pending = None
        if self.spec.closed_loop:
            request.arrival_time_s = now_s
        return request

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def _ensure_pending(self) -> None:
        if self._pending is not None:
            return
        spec = self.spec
        if spec.closed_loop:
            arrival = 0.0
        else:
            assert spec.qps is not None
            self._next_arrival_s += float(self._rng.exponential(1.0 / spec.qps))
            arrival = self._next_arrival_s
        self._pending = Request(
            request_id=self._next_id,
            arrival_time_s=arrival,
            input_len=self._sample_length(spec.lin_mean, spec.lin_cv),
            output_len=self._sample_length(spec.lout_mean, spec.lout_cv),
        )
        self._next_id += 1

    def _sample_length(self, mean: float, cv: float) -> int:
        if cv == 0.0:
            return max(self.spec.min_len, int(round(mean)))
        sampled = self._rng.normal(mean, cv * mean)
        return max(self.spec.min_len, int(round(sampled)))


def resolve_source(
    workload: "WorkloadSpec | RequestSource",
    seed: int | None,
    worst_case_tokens: int | None,
) -> tuple[RequestSource, int]:
    """Turn a workload spec or request source into (source, worst-case tokens).

    The worst case sizes the KV-capacity-limited batch: for a spec it is
    the 3-sigma input+output length; a source may report its own via a
    ``worst_case_tokens()`` method, or the caller passes an override.
    """
    if isinstance(workload, WorkloadSpec):
        worst_seq = worst_case_tokens or int(
            workload.lin_mean * (1 + 3 * workload.lin_cv)
            + workload.lout_mean * (1 + 3 * workload.lout_cv)
        )
        return RequestGenerator(workload, seed=seed), worst_seq
    if worst_case_tokens is not None:
        return workload, worst_case_tokens
    if hasattr(workload, "worst_case_tokens"):
        return workload, workload.worst_case_tokens()
    raise ConfigError("pass worst_case_tokens when the request source cannot report its own")


class QueueSource:
    """A push-fed :class:`RequestSource` (one cluster replica's inbox).

    A router pushes routed requests in arrival order; the replica's
    scheduler consumes them through the standard source protocol.  Empty
    means *currently* empty, not finished — more requests may be pushed
    between stages.
    """

    def __init__(self) -> None:
        self._queue: deque[Request] = deque()
        self._accepted = 0

    def push(self, request: Request) -> None:
        """Enqueue a routed request (must not arrive before the tail)."""
        if self._queue and request.arrival_time_s < self._queue[-1].arrival_time_s:
            raise SchedulingError("routed requests must be pushed in arrival order")
        self._queue.append(request)
        self._accepted += 1

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def closed_loop(self) -> bool:
        return False

    @property
    def accepted(self) -> int:
        """Requests ever pushed (routing counter, not current depth)."""
        return self._accepted

    @property
    def queued_tokens(self) -> int:
        """Worst-case KV tokens of everything still queued (router load signal)."""
        return sum(request.total_seq_len for request in self._queue)

    def peek(self) -> Request | None:
        return self._queue[0] if self._queue else None

    def peek_arrival(self) -> float:
        return self._queue[0].arrival_time_s if self._queue else float("inf")

    def has_request_at(self, now_s: float) -> bool:
        return bool(self._queue) and self._queue[0].arrival_time_s <= now_s

    def take(self, now_s: float) -> Request:
        if not self._queue:
            raise SchedulingError("queue source is empty")
        return self._queue.popleft()

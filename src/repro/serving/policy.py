"""Pluggable scheduling policies for the continuous-batching scheduler.

The :class:`~repro.serving.scheduler.ContinuousBatchingScheduler` owns the
*mechanics* of stage-level batching (KV accounting, request lifecycle, the
stage clock); a :class:`SchedulingPolicy` owns the *decisions*: in what
order waiting requests are admitted, whether a candidate may join the batch
right now, which queued requests to give up on, and how many prefill tokens
a single stage may carry.

Three policies ship here:

* :class:`FcfsPolicy` — the paper's ORCA-style behaviour: admit in arrival
  order whenever a slot and KV capacity are free (the seed scheduler's
  hard-wired policy, now extracted).
* :class:`ChunkedPrefillPolicy` — caps prefill tokens per stage so a long
  prompt is processed in chunks across stages instead of one huge mixed
  stage; this bounds the mixed-stage latency that ongoing decodes see
  (their TBT), at the cost of slower first tokens (Sarathi/vLLM-style).
* :class:`SloAwarePolicy` — deadline-driven admission: orders the queue by
  T2FT deadline (optionally preferring short prompts, which prefill
  fastest), and sheds requests whose deadline has already passed so a
  saturated system spends capacity only on requests that can still meet
  their SLO.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass
from typing import ClassVar

from repro.errors import ConfigError
from repro.serving.request import Request


@dataclass(frozen=True)
class AdmissionView:
    """Scheduler state a policy sees when judging one admission.

    Attributes:
        now_s: the scheduler clock.
        running: requests currently in the batch.
        max_batch: batch-size cap.
        committed_tokens: KV tokens reserved by running requests.
        capacity_tokens: total KV tokens that fit (None = unbounded).
    """

    now_s: float
    running: int
    max_batch: int
    committed_tokens: int
    capacity_tokens: int | None


class SchedulingPolicy(ABC):
    """Decision hooks the scheduler calls at every stage boundary.

    The base class implements FCFS-compatible defaults; subclasses override
    only the decisions they change.  Policies may keep per-run state (e.g. a
    rotation counter), so schedulers must not share one instance.
    """

    name: ClassVar[str] = "policy"

    @property
    def queue_ignores_clock(self) -> bool:
        """Whether :meth:`shed` and :meth:`order_waiting` ignore ``now_s``.

        When they do, the queue a full batch builds up comes out the same
        whether the scheduler sheds and orders it at every stage boundary
        or once at the last one, so the scheduler keeps a full batch on
        the steady-run fast path while requests queue.  The base class's
        do-nothing hooks ignore it; a subclass whose hooks read the clock
        must return False.
        """
        return True

    def order_waiting(self, waiting: list[Request], now_s: float) -> None:
        """Reorder the arrived-but-not-admitted queue in place."""

    def shed(self, waiting: list[Request], now_s: float) -> list[Request]:
        """Return queued requests to reject outright (subset of ``waiting``)."""
        return []

    def may_admit(self, view: AdmissionView, candidate: Request) -> bool:
        """Whether ``candidate`` may join the batch this stage boundary.

        Called only after the scheduler has checked slot and KV capacity;
        returning False ends admission for this stage (head-of-line order
        is preserved).
        """
        return True

    def prefill_budget(self) -> int | None:
        """Max prefill tokens a single stage may carry (None = unlimited)."""
        return None

    def preemption_order(self, running: list[Request], now_s: float) -> list[Request]:
        """Preferred KV-preemption victims, most preemptible first.

        Consulted by a paging-enabled scheduler when an arrival does not
        fit in device KV: victims are evicted in this order (all or
        nothing per request) until the arrival fits.  Requests left off
        the list are protected and never preempted.  The default is
        FCFS-youngest-first — the most recently arrived request parks
        first, so work that has waited longest keeps its residency.
        """
        return sorted(
            running, key=lambda r: (r.arrival_time_s, r.request_id), reverse=True
        )


class FcfsPolicy(SchedulingPolicy):
    """First-come-first-served admission — the seed scheduler's behaviour."""

    name: ClassVar[str] = "fcfs"


class ChunkedPrefillPolicy(SchedulingPolicy):
    """FCFS admission with a per-stage prefill-token budget.

    Args:
        max_prefill_tokens: prefill tokens one stage may process.  A request
            whose (remaining) input exceeds the budget prefills over several
            stages; the scheduler guarantees at least one request makes
            progress per stage, so the budget bounds mixed-stage latency
            without risking livelock.
    """

    name: ClassVar[str] = "chunked-prefill"

    def __init__(self, max_prefill_tokens: int = 512) -> None:
        if max_prefill_tokens < 1:
            raise ConfigError("the prefill budget must be at least one token")
        self.max_prefill_tokens = max_prefill_tokens

    def prefill_budget(self) -> int | None:
        return self.max_prefill_tokens


class SloAwarePolicy(SchedulingPolicy):
    """Deadline-ordered admission with expired-request shedding.

    Every request carries an implicit first-token deadline
    ``arrival + t2ft_slo_s``; a request with its own ``t2ft_slo_s`` (a
    multi-tenant scenario's per-tenant SLO) uses that instead of the
    policy default.  The queue is served earliest-deadline-first
    (with uniform SLOs this equals arrival order, so the ``prefer_short_inputs``
    tiebreak is what reorders: short prompts prefill fastest and therefore
    maximise the number of deadlines met).  When ``shed_expired`` is set,
    requests whose deadline has already passed are rejected instead of
    admitted — under overload this stops the queue from dragging every
    later arrival past its SLO too.

    Under KV paging the policy is also deadline-aware about *preemption*:
    a request that has not yet produced its first token and whose T2FT
    deadline is close (within ``preemption_guard_s``, default half its
    SLO) is protected from eviction — parking it now would turn a
    still-meetable deadline into a certain miss.

    Args:
        t2ft_slo_s: time-to-first-token objective.
        shed_expired: reject requests that can no longer meet the deadline.
        prefer_short_inputs: among equal deadlines, admit shorter prompts
            first (shortest-job-first prefill).
        preemption_guard_s: protect pre-first-token requests whose T2FT
            deadline is within this window from preemption (None = half
            the request's SLO).
    """

    name: ClassVar[str] = "slo-aware"

    def __init__(
        self,
        t2ft_slo_s: float,
        shed_expired: bool = True,
        prefer_short_inputs: bool = False,
        preemption_guard_s: float | None = None,
    ) -> None:
        if t2ft_slo_s <= 0:
            raise ConfigError("the T2FT SLO must be positive")
        if preemption_guard_s is not None and preemption_guard_s < 0:
            raise ConfigError("the preemption guard must be non-negative")
        self.t2ft_slo_s = t2ft_slo_s
        self.shed_expired = shed_expired
        self.prefer_short_inputs = prefer_short_inputs
        self.preemption_guard_s = preemption_guard_s

    @property
    def queue_ignores_clock(self) -> bool:
        # The deadline sort is a total order fixed at arrival; only expiry
        # shedding reads the clock.
        return not self.shed_expired

    def deadline(self, request: Request) -> float:
        slo = request.t2ft_slo_s if request.t2ft_slo_s is not None else self.t2ft_slo_s
        return request.arrival_time_s + slo

    def order_waiting(self, waiting: list[Request], now_s: float) -> None:
        if self.prefer_short_inputs:
            waiting.sort(key=lambda r: (self.deadline(r), r.input_len, r.request_id))
        else:
            waiting.sort(key=lambda r: (self.deadline(r), r.request_id))

    def shed(self, waiting: list[Request], now_s: float) -> list[Request]:
        if not self.shed_expired:
            return []
        return [request for request in waiting if self.deadline(request) < now_s]

    def _preemption_guard(self, request: Request) -> float:
        if self.preemption_guard_s is not None:
            return self.preemption_guard_s
        slo = request.t2ft_slo_s if request.t2ft_slo_s is not None else self.t2ft_slo_s
        return 0.5 * slo

    def preemption_order(self, running: list[Request], now_s: float) -> list[Request]:
        """Youngest-first, but never a request racing its T2FT deadline.

        Protection applies only to deadlines that are close *and still
        meetable*: a pre-first-token request whose deadline has already
        passed is a certain miss, so parking it costs nothing — keeping
        it resident would evict healthy requests in its stead.
        """

        def preemptible(request: Request) -> bool:
            if request.first_token_time_s is not None:
                return True  # T2FT already settled; only E2E at stake
            remaining = self.deadline(request) - now_s
            return remaining <= 0 or remaining > self._preemption_guard(request)

        return sorted(
            (request for request in running if preemptible(request)),
            key=lambda r: (r.arrival_time_s, r.request_id),
            reverse=True,
        )

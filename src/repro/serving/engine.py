"""The discrete-event serving core.

Every serving simulation in this library — the single-system
:class:`~repro.serving.simulator.ServingSimulator`, the two-partition
:class:`~repro.serving.split.SplitServingSimulator`, and each replica of
the :class:`~repro.serving.cluster.ClusterSimulator` fleet — is a thin
configuration of one :class:`ServingEngine`:

* a **virtual clock** (the scheduler's ``now_s``) advanced in
  stage-latency jumps, idle gaps, or externally imposed targets;
* **admission** delegated to a
  :class:`~repro.serving.scheduler.ContinuousBatchingScheduler` pulling
  from any :class:`~repro.serving.generator.RequestSource`;
* an **event feed** (:class:`TransferFeed`) for requests that materialise
  at a future instant — KV blocks landing after a transfer link delay;
* **shed/complete bookkeeping** (``finished_ids``, ``handed_off_ids``,
  the scheduler's ``rejected`` and ``admitted_log``) that invariant tests
  audit through :class:`StageEvent` observers.

Engines compose: the split deployment is a prefill-partition engine whose
``handoff`` hook pushes each freshly prefilled request into a
:class:`TransferFeed` that a second, decode-partition engine consumes as
its request source.  A cluster replica is an engine whose source is the
:class:`~repro.serving.generator.QueueSource` a router pushes into.

One driving loop per driver (an engine, or the split pipeline):
``drain_until(t)`` is the loop, ``advance_to(t)`` is the loop then a wait
at ``t``, and ``run`` is the loop to ``inf`` with the stop rule.  Every
engine steps alike: a steady run where the batch allows, else one stage.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from repro.core.executor import DecodeRunPricing, StageExecutor, StageResult, StageWorkload
from repro.errors import ConfigError, SchedulingError
from repro.serving.metrics import (
    _COMPUTE_KEYS,
    _DRAM_KEYS,
    MetricsCollector,
    ServingReport,
)
from repro.serving.paging import EvictionOutcome, EvictionPolicy, PagedKvManager
from repro.serving.request import Request, RequestState
from repro.serving.scheduler import ContinuousBatchingScheduler

#: Longest steady decode run collapsed into one vectorized commit.  Caps
#: per-run numpy working-set size; runs longer than this simply commit in
#: back-to-back chunks with identical results.  256 amortizes the fixed
#: per-run cost (routing draws, LUT lookups) over enough stages that the
#: vectorized path clears its 5x target on long-decode workloads while
#: keeping the working set (a few n_run x n_experts float64 matrices)
#: comfortably in cache.
_RUN_CAP = 256


@dataclass(frozen=True)
class SimulationLimits:
    """When a simulation stops and what it measures.

    Attributes:
        max_stages: hard stage budget (post warm-up).
        warmup_stages: stages executed but not recorded.
        target_completions: stop once this many requests finish in the
            measured window (None = run out the stage budget).
        max_sim_time_s: stop once the simulated clock passes this.
    """

    max_stages: int = 2000
    warmup_stages: int = 16
    target_completions: int | None = None
    max_sim_time_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_stages < 1:
            raise ConfigError("max_stages must be positive")
        if self.warmup_stages < 0:
            raise ConfigError("warmup_stages must be non-negative")


class StageObserver(Protocol):
    """Callback invoked after every executed stage (invariant probes)."""

    def __call__(self, event: "StageEvent") -> None: ...


@dataclass(frozen=True, slots=True)
class StageEvent:
    """Everything an invariant checker needs to audit one stage.

    Attributes:
        engine: the emitting engine's label.
        now_s: the engine clock *after* the stage.
        latency_s: stage latency.
        decode_ids: requests that decoded one token this stage.
        prefill_chunks: (request id, prefill tokens booked) this stage.
        admitted: requests admitted at this stage boundary.
        first_tokens: requests whose prefill completed this stage.
        finished: requests that completed this stage.
        handed_off: requests handed off to a downstream partition.
        committed_tokens: KV tokens reserved after the stage.
        capacity_tokens: the KV capacity those reservations live under.
        measured: whether the stage landed in the measured window.
        preempted: requests evicted from device KV at this stage boundary
            (paging-enabled engines only).
        resumed: previously evicted requests that rejoined the batch at
            this stage boundary (their KV landed / prefill replayed).
    """

    engine: str
    now_s: float
    latency_s: float
    decode_ids: tuple[int, ...]
    prefill_chunks: tuple[tuple[int, int], ...]
    admitted: tuple[int, ...]
    first_tokens: tuple[int, ...]
    finished: tuple[int, ...]
    handed_off: tuple[int, ...]
    committed_tokens: int
    capacity_tokens: int | None
    measured: bool
    preempted: tuple[int, ...] = ()
    resumed: tuple[int, ...] = ()


class TransferFeed:
    """A time-ordered event feed of requests materialising in the future.

    The split deployment's KV-transfer link: the prefill partition pushes
    a request with the instant its KV lands on the decode partition, and
    the decode engine consumes it through the standard
    :class:`~repro.serving.generator.RequestSource` protocol.  Push order
    breaks ties (a deterministic heap), so same-instant transfers admit in
    prefill-completion order.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Request]] = []
        self._pushed = 0
        self._queued_tokens = 0

    def push(self, ready_s: float, request: Request) -> None:
        """Schedule ``request`` to become available at ``ready_s``."""
        heapq.heappush(self._heap, (ready_s, self._pushed, request))
        self._pushed += 1
        self._queued_tokens += request.total_seq_len

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def closed_loop(self) -> bool:
        return False

    @property
    def queued_tokens(self) -> int:
        """Worst-case KV tokens still in flight (router load signal).

        Maintained as a running counter in :meth:`push`/:meth:`take` —
        routers read this per routing decision, so an O(n) heap walk here
        was a per-arrival hot spot.
        """
        return self._queued_tokens

    def peek(self) -> Request | None:
        return self._heap[0][2] if self._heap else None

    def peek_arrival(self) -> float:
        return self._heap[0][0] if self._heap else float("inf")

    def has_request_at(self, now_s: float) -> bool:
        return bool(self._heap) and self._heap[0][0] <= now_s

    def take(self, now_s: float) -> Request:
        if not self._heap:
            raise SchedulingError("transfer feed is empty")
        request = heapq.heappop(self._heap)[2]
        self._queued_tokens -= request.total_seq_len
        return request


class KvPagingCoordinator:
    """Live KV paging for one engine: parks victims, prices their return.

    The glue between the accounting-only
    :class:`~repro.serving.paging.PagedKvManager` and the serving loop.
    A paging-enabled :class:`~repro.serving.scheduler.ContinuousBatchingScheduler`
    evicts victims through :meth:`evict` (the request leaves the batch and
    parks here), initiates resumes through :meth:`resume_next` once device
    KV frees up, and collects landed requests through :meth:`take_ready`.

    Costs are priced with the same machinery as everything else:

    * **MIGRATE** round-trips are host-link transfers whose completion
      instants flow through a standard :class:`TransferFeed` — the evicted
      KV must finish streaming out before it can stream back in, and the
      request rejoins the batch only when the in-transfer lands.  Each
      link direction is a serial resource (a busy cursor): concurrent
      evictions queue behind each other on the outbound link, concurrent
      resumes on the inbound one, so N simultaneous migrations cost N
      transfer times of wall clock, not one;
    * **RECOMPUTE** resumes replay the evicted context as a prefill priced
      by the engine's own :class:`~repro.core.executor.StageExecutor`
      (same operators, same energy accounting); replays serialize on one
      busy cursor, delay the victim's rejoin, and record their energy
      against the run.  Modeling assumption: the replay runs alongside
      the serving batch (spare accelerator capacity) — contention with
      in-flight decode stages is *not* modeled, so recomputation's cost
      shows up in victim latency and energy, not in batch throughput.

    Attributes:
        manager: the token-accounting capacity manager.
        resume_feed: in-flight resumes (request available when KV lands).
        metrics: collector paging activity is recorded into (wired by the
            owning :class:`ServingEngine`).
    """

    def __init__(self, manager: PagedKvManager, executor: StageExecutor) -> None:
        self.manager = manager
        self.executor = executor
        self.resume_feed = TransferFeed()
        self.metrics: MetricsCollector | None = None
        #: Optional host-link degradation hook (interconnect faults): a
        #: ``t -> multiplier`` callable scaling transfer times.  None (the
        #: default) prices transfers exactly as configured.
        self.link_scale: Callable[[float], float] | None = None
        #: Parked victims in eviction order: (request, cached KV tokens,
        #: instant the evicted KV has fully left the device).
        self._parked: list[tuple[Request, int, float]] = []
        self._replay_cache: dict[int, StageResult] = {}
        # Serial-resource busy cursors: a transfer/replay starts no
        # earlier than the previous one on the same resource finished.
        self._link_out_free_s = 0.0
        self._link_in_free_s = 0.0
        self._replay_free_s = 0.0

    # ------------------------------------------------------------------
    # occupancy views (scheduler bookkeeping and router load signals)
    # ------------------------------------------------------------------
    @property
    def parked_count(self) -> int:
        """Evicted requests waiting for device KV to free up."""
        return len(self._parked)

    @property
    def in_transit_count(self) -> int:
        """Resumes initiated but not yet landed (device KV reserved)."""
        return len(self.resume_feed)

    @property
    def paged_count(self) -> int:
        """Requests out of the batch because of paging (parked or landing)."""
        return len(self._parked) + len(self.resume_feed)

    @property
    def evicted_tokens(self) -> int:
        """Reserved tokens of parked requests (future work, off device)."""
        return self.manager.evicted_tokens

    def next_ready_s(self) -> float:
        """Next instant a resuming request lands (inf = none in flight)."""
        return self.resume_feed.peek_arrival()

    # ------------------------------------------------------------------
    # admission mirroring (keeps the manager and the scheduler in sync)
    # ------------------------------------------------------------------
    def on_admit(self, request: Request) -> None:
        # With prefix dedup, the pool holds the shared span; the manager
        # accounts only the request's private remainder (equal to the full
        # sequence whenever dedup is off).
        self.manager.admit(request.request_id, request.unique_seq_len)

    def on_release(self, request: Request) -> None:
        self.manager.release(request.request_id)

    # ------------------------------------------------------------------
    # evict / resume
    # ------------------------------------------------------------------
    def evict(self, request: Request, now_s: float) -> EvictionOutcome:
        """Park a running victim; prices the outbound migration if any."""
        cached = (
            request.context_len
            if request.state is RequestState.DECODING
            else request.prefilled_tokens
        )
        if request.prefix_shared_tokens:
            # Only the privately held KV moves or replays: the shared span
            # lives in the prefix pool, whose fate the scheduler settles
            # (clamped because a cache hit starts prefilled_tokens inside
            # the shared span).
            cached = max(0, cached - request.prefix_shared_tokens)
        outcome = self.manager.evict(request.request_id, cached)
        transfer_s = outcome.transfer_time_s
        if transfer_s and self.link_scale is not None:
            transfer_s *= self.link_scale(now_s)
        if transfer_s:
            started = max(now_s, self._link_out_free_s)
            kv_clear_s = started + transfer_s
            self._link_out_free_s = kv_clear_s
        else:
            kv_clear_s = now_s
        self._parked.append((request, cached, kv_clear_s))
        if self.metrics is not None:
            migrated = cached if self.manager.policy is EvictionPolicy.MIGRATE else 0
            self.metrics.record_preemption(
                migrated_tokens=migrated, host_link_s=transfer_s
            )
        return outcome

    def peek_parked(self) -> Request | None:
        """The next request to resume (eviction order — no overtaking)."""
        return self._parked[0][0] if self._parked else None

    def resume_next(self, now_s: float, replay_prefix_tokens: int = 0) -> Request:
        """Start bringing the head-of-line parked request back.

        The caller must have verified device room (the manager re-checks).
        Returns the request; it lands on :attr:`resume_feed` after the
        inbound transfer (MIGRATE) or the replayed prefill (RECOMPUTE).

        Args:
            replay_prefix_tokens: shared-prefix tokens whose pool blocks
                were reclaimed while the request was parked; they are
                recomputed on the way back in (after the KV stream under
                MIGRATE, folded into the replay under RECOMPUTE).
        """
        if not self._parked:
            raise SchedulingError("no evicted request to resume")
        request, cached, kv_clear_s = self._parked.pop(0)
        outcome = self.manager.resume(request.request_id, cached)
        ready_s = max(now_s, kv_clear_s)
        if self.manager.policy is EvictionPolicy.RECOMPUTE:
            replay_tokens = outcome.recompute_tokens + replay_prefix_tokens
            replay = self._price_replay(replay_tokens)
            replay_s = replay.latency_s if replay is not None else 0.0
            if replay_s:
                started = max(ready_s, self._replay_free_s)
                ready_s = started + replay_s
                self._replay_free_s = ready_s
            if self.metrics is not None:
                self.metrics.record_paging_resume(
                    recomputed_tokens=replay_tokens,
                    replay_s=replay_s,
                    dram_energy=replay.dram_energy_by_category if replay else None,
                    compute_energy=replay.compute_energy_by_category if replay else None,
                    comm_energy_j=replay.comm_energy_j if replay else 0.0,
                )
        else:
            transfer_s = outcome.transfer_time_s
            if transfer_s and self.link_scale is not None:
                transfer_s *= self.link_scale(ready_s)
            if transfer_s:
                started = max(ready_s, self._link_in_free_s)
                ready_s = started + transfer_s
                self._link_in_free_s = ready_s
            replay = (
                self._price_replay(replay_prefix_tokens) if replay_prefix_tokens else None
            )
            replay_s = replay.latency_s if replay is not None else 0.0
            if replay_s:
                # Lost prefix blocks replay on the same serial resource
                # RECOMPUTE uses, after the private KV finishes streaming.
                started = max(ready_s, self._replay_free_s)
                ready_s = started + replay_s
                self._replay_free_s = ready_s
            if self.metrics is not None:
                self.metrics.record_paging_resume(
                    migrated_tokens=cached,
                    host_link_s=transfer_s,
                    recomputed_tokens=replay_prefix_tokens,
                    replay_s=replay_s,
                    dram_energy=replay.dram_energy_by_category if replay else None,
                    compute_energy=replay.compute_energy_by_category if replay else None,
                    comm_energy_j=replay.comm_energy_j if replay else 0.0,
                )
        self.resume_feed.push(ready_s, request)
        return request

    def take_ready(self, now_s: float) -> list[Request]:
        """Requests whose KV has landed — ready to rejoin the batch."""
        landed: list[Request] = []
        while self.resume_feed.has_request_at(now_s):
            landed.append(self.resume_feed.take(now_s))
        return landed

    # ------------------------------------------------------------------
    # failure recovery (crash harvest / failover adoption)
    # ------------------------------------------------------------------
    def adopt(self, request: Request, cached: int, now_s: float) -> None:
        """Adopt a parked request whose host-side KV survived a crash.

        Failure recovery for MIGRATE-paged requests: the device KV died
        with the old replica, but the paged-out copy lives in host
        memory, so the request re-enters *this* replica's parked queue
        and resumes through the normal MIGRATE in-transfer — paying the
        host-link price instead of a full prefill replay.
        """
        self.manager.adopt_evicted(request.request_id, request.unique_seq_len)
        self._parked.append((request, cached, now_s))

    def abandon_all(self) -> tuple[list[tuple[Request, int]], list[Request]]:
        """Strip all paging state off a crashed replica.

        Returns ``(parked, in_transit)``: parked victims with their
        cached token counts (under MIGRATE the host copy survives and
        can be adopted elsewhere), and requests mid-resume — their KV
        was in flight to the dead device, so they are lost either way.
        The manager forgets every abandoned reservation so an in-place
        repair starts from clean accounting (and a retried request can
        be routed back here without a phantom-id collision).
        """
        parked = [(request, cached) for request, cached, _ in self._parked]
        self._parked.clear()
        in_transit: list[Request] = []
        while len(self.resume_feed):
            in_transit.append(self.resume_feed.take(float("inf")))
        for request, _ in parked:
            self.manager.forget(request.request_id)
        for request in in_transit:
            self.manager.forget(request.request_id)
        return parked, in_transit

    def _price_replay(self, tokens: int) -> StageResult | None:
        """Price the replayed prefill of ``tokens`` cached tokens.

        Cached per token count: replays of equal length cost the same, and
        caching keeps the engine's expert-routing RNG stream untouched by
        repeat evictions of same-sized requests.
        """
        if tokens < 1:
            return None
        result = self._replay_cache.get(tokens)
        if result is None:
            workload = StageWorkload(
                decode_context_lengths=np.asarray([], dtype=np.int64),
                prefill_lengths=(tokens,),
            )
            result = self.executor.run_stage(workload)
            self._replay_cache[tokens] = result
        return result


class ServingEngine:
    """One event-driven serving partition: scheduler + executor + metrics.

    Args:
        scheduler: the stage-level scheduler (owns the virtual clock).
        executor: prices each stage the scheduler builds.
        metrics: collector to record into; partitions of one deployment
            share a collector (the split system reports as one system).
        label: name used in :class:`StageEvent` and error messages.
        record_gate: overrides the warm-up gate deciding whether a stage
            is recorded (the split prefill partition records once the
            *decode* partition has warmed up).  None = the standard
            ``stages > warmup_stages`` gate on this engine's own counter.
        handoff: when set, a request leaving prefill is released from this
            engine's batch and passed to the callback with the current
            clock — the KV-transfer hook that chains partitions.
        columnar: enable the columnar steady-run fast path (default).
            Provably steady decode runs are then priced, committed, and
            recorded as vectorized batches — bit-identical results, one
            Python-level iteration per *run* instead of per stage.  The
            path disarms itself whenever anything could observe
            individual stages (observers attached, a handoff or record
            gate installed); pass False to
            force the scalar per-stage loop everywhere — the oracle the
            property suite compares against.
    """

    def __init__(
        self,
        scheduler: ContinuousBatchingScheduler,
        executor: StageExecutor,
        metrics: MetricsCollector | None = None,
        label: str = "engine",
        record_gate: Callable[[SimulationLimits], bool] | None = None,
        handoff: Callable[[Request, float], None] | None = None,
        columnar: bool = True,
    ) -> None:
        self.scheduler = scheduler
        self.executor = executor
        self.columnar = columnar
        #: Unscaled latency of the last decode-only stage: sizes a run's
        #: pre-truncation estimate (runs start outside straggler windows,
        #: and a prefill stage's latency says nothing about decode stages).
        self._last_decode_latency_s = 0.0
        #: The last priced steady run, if stages of it are left uncommitted
        #: (the driving loop's horizon came first): (pricing, clock
        #: boundaries, stages committed).  A run attempt at the clock it
        #: reached commits more of it instead of pricing again; the next
        #: scalar stage drops it.
        self._held_run: tuple[DecodeRunPricing, np.ndarray, int] | None = None
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.label = label
        self.record_gate = record_gate
        self.handoff = handoff
        self.stages = 0
        self.measured = 0
        self.completions = 0
        #: Membership-only exclusion set: warm-start synthetics whose
        #: metrics are meaningless (never iterated — ordering-safe).
        self.synthetic_ids: set[int] = set()
        #: Completion/handoff ledgers in event order (invariant audits).
        self.finished_ids: list[int] = []
        self.handed_off_ids: list[int] = []
        self.observers: list[StageObserver] = []
        #: Optional straggler profile (transient slowdown fault): a
        #: :class:`~repro.serving.faults.StageTimeProfile` multiplying
        #: stage latencies inside its windows.  Set post-construction by
        #: the cluster's fault wiring; None costs nothing.
        self.fault_profile = None
        self._admitted_seen = 0  # admitted_log cursor for StageEvent attribution
        paging = scheduler.paging
        if paging is not None and paging.metrics is None:
            paging.metrics = self.metrics
        #: Prefix-dedup attribution: when the scheduler carries a
        #: PrefixIndex, cache-hit admissions are priced counterfactually
        #: (what would the skipped prefill have cost?) through the real
        #: executor, cached per token count like the paging replay cache.
        self._prefix_enabled = scheduler.prefix is not None
        self._prefix_price_cache: dict[int, StageResult] = {}

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now_s(self) -> float:
        return self.scheduler.now_s

    def jump_to(self, t: float) -> None:
        """Advance the clock without recording idle time (event waits)."""
        self.scheduler.now_s = max(self.scheduler.now_s, t)

    def idle_until(self, t: float, limits: SimulationLimits) -> None:
        """Advance the clock through an idle gap, recording it if measured
        (warm-up over, stage budget left)."""
        gap = t - self.now_s
        if gap > 0:
            if self.stages >= limits.warmup_stages and not self.budget_spent(limits):
                self.metrics.record_idle(gap)
            self.scheduler.now_s = t

    # ------------------------------------------------------------------
    # budget
    # ------------------------------------------------------------------
    def budget_spent(self, limits: SimulationLimits) -> bool:
        """Whether the stage budget (measured or total) is exhausted.

        The driving loops ask, not :meth:`step`: only decode stages bound a
        split run (as the paper counts them), and its prefill partition is
        stepped only by the pipeline.
        """
        return (
            self.measured >= limits.max_stages
            or self.stages >= limits.warmup_stages + limits.max_stages
        )

    # ------------------------------------------------------------------
    # one stage
    # ------------------------------------------------------------------
    def step(self, limits: SimulationLimits, admit: bool = True) -> bool:
        """Run one stage if work is available; True when one ran.

        The caller checks the stage budget first (see :meth:`budget_spent`).

        Args:
            admit: run admission inside stage construction (default); the
                split prefill partition admits separately at decode time.
        """
        # Any change to the batch goes through a scalar stage, so a held
        # run never outlives the batch it priced.
        self._held_run = None
        scheduler = self.scheduler
        workload = scheduler.build_stage(admit=admit)
        if workload is None:
            return False
        # The scheduler partitioned the batch while building the stage; no
        # re-filtering of `running` per stage.
        decoding, prefilling = scheduler.stage_partitions
        observing = bool(self.observers)
        if observing:
            # Attribute every admission since the last stage event to this
            # one — including admissions made outside step() (warm start,
            # the split prefill partition's decode-time admit()).
            admitted = tuple(scheduler.admitted_log[self._admitted_seen :])
            decode_ids = tuple(r.request_id for r in decoding)
            chunks = tuple(scheduler.pending_chunks.items())
        self._admitted_seen = len(scheduler.admitted_log)
        preempted, resumed = scheduler.drain_paging_events()
        if self._prefix_enabled:
            self._record_prefix_admissions()
        result = self.executor.run_stage(workload)
        latency_s = result.latency_s
        if not prefilling:
            self._last_decode_latency_s = latency_s
        if self.fault_profile is not None:
            # Straggler windows stretch wall-clock, not energy: a
            # throttled device produces the same tokens for the same
            # joules, just later.
            latency_s *= self.fault_profile.scale_at(self.now_s)
        finished = scheduler.complete_stage(latency_s)
        self.stages += 1
        first_tokens = [r for r in prefilling if r.state is not RequestState.PREFILLING]
        in_window = self.stages > limits.warmup_stages
        if in_window:
            self.measured += 1
        recording = self.record_gate(limits) if self.record_gate is not None else in_window
        if recording:
            self.metrics.record_stage(
                latency_s=latency_s,
                is_mixed=result.is_mixed,
                decode_tokens=workload.n_decode,
                total_tokens_generated=workload.n_decode + len(first_tokens),
                dram_energy=result.dram_energy_by_category,
                compute_energy=result.compute_energy_by_category,
                comm_energy_j=result.comm_energy_j,
            )
            for request in first_tokens:
                if request.request_id not in self.synthetic_ids:
                    self.metrics.record_first_token(
                        request.t2ft_s, tenant=request.tenant, slo_s=request.t2ft_slo_s
                    )
        for request in finished:
            self.finished_ids.append(request.request_id)
            if request.request_id in self.synthetic_ids:
                self.synthetic_ids.discard(request.request_id)
                continue
            if recording:
                self.metrics.record_completion(request.e2e_s, tenant=request.tenant)
                self.completions += 1
        handed_off: list[int] = []
        if self.handoff is not None:
            for request in first_tokens:
                if request.state is RequestState.FINISHED:
                    continue  # single-token output: done at prefill
                scheduler.release(request)
                handed_off.append(request.request_id)
                self.handed_off_ids.append(request.request_id)
                self.handoff(request, self.now_s)
        if observing:
            event = StageEvent(
                engine=self.label,
                now_s=self.now_s,
                latency_s=latency_s,
                decode_ids=decode_ids,
                prefill_chunks=chunks,
                admitted=admitted,
                first_tokens=tuple(r.request_id for r in first_tokens),
                finished=tuple(r.request_id for r in finished),
                handed_off=tuple(handed_off),
                committed_tokens=scheduler.committed_tokens,
                capacity_tokens=scheduler.capacity_tokens,
                measured=recording,
                preempted=preempted,
                resumed=resumed,
            )
            for observer in self.observers:
                observer(event)
        return True

    def _record_prefix_admissions(self) -> None:
        """Attribute this boundary's prefix-carrying admissions to metrics.

        Each cache hit's saved prefill is priced as the stage the request
        did *not* run: a ``(hit,)``-token prefill through the engine's own
        executor.  Pricing is cached per token count (session turns repeat
        the same prefix lengths), so the counterfactual costs one real
        stage evaluation per distinct hit size.
        """
        scheduler = self.scheduler
        events = scheduler.drain_prefix_admissions()
        if not events:
            return
        for hit, miss in events:
            saved_s = 0.0
            saved_j = 0.0
            if hit:
                result = self._prefix_price_cache.get(hit)
                if result is None:
                    workload = StageWorkload(
                        decode_context_lengths=np.asarray([], dtype=np.int64),
                        prefill_lengths=(hit,),
                    )
                    result = self.executor.run_stage(workload)
                    self._prefix_price_cache[hit] = result
                saved_s = result.latency_s
                saved_j = (
                    sum(result.dram_energy_by_category.values())
                    + sum(result.compute_energy_by_category.values())
                    + result.comm_energy_j
                )
            self.metrics.record_prefix_admission(
                hit_tokens=hit, miss_tokens=miss, saved_s=saved_s, saved_energy_j=saved_j
            )
        self.metrics.record_prefix_residency(scheduler.prefix.peak_resident_tokens)

    # ------------------------------------------------------------------
    # the columnar steady-run fast path
    # ------------------------------------------------------------------
    def _attempt_steady_run(
        self,
        limits: SimulationLimits,
        horizon_s: float = float("inf"),
        sim_time_s: float | None = None,
    ) -> int:
        """Collapse a provably steady decode run into one vectorized commit.

        Returns the number of stages committed (0 = take the scalar
        :meth:`step`).  A run happens only when nothing can observe or
        perturb the intermediate stages — no observers, handoff, or
        record-gate override — and the scheduler proves admission is a
        no-op until a threshold instant.  Stage latencies, energies, the
        clock trajectory, the metrics accumulators, and the gating RNG
        stream all land bit-identical to stepping the same stages
        scalar-wise: the caps below guarantee a run never straddles the
        warm-up gate, the stage budget, or the first in-batch completion.

        A run is sized by the engine's own threshold (the next arrival,
        paging landing or straggler-window edge) and commits the stages
        that start before it and before the driving loop's ``horizon_s``;
        ``sim_time_s`` applies :meth:`run`'s stopping rule.  A run is
        priced only when its first stage starts before both, and every
        priced run commits, down to a single stage (the scalar stage bit
        for bit).  Stages left past the horizon are held: while the batch
        stays unchanged, the next attempt at the clock the run reached
        commits more of them instead of pricing the batch again — a fleet
        replica prices a run once across the cluster's routing horizons.
        Whenever this returns, the gating RNG sits at the committed stage.
        """
        if (
            not self.columnar
            or self.handoff is not None
            or self.record_gate is not None
            or self.observers
            or self.budget_spent(limits)
        ):
            return 0
        scheduler = self.scheduler
        threshold = scheduler.steady_run_threshold()
        if threshold is None:
            return 0
        now = self.now_s
        profile = self.fault_profile
        if profile is not None:
            # Inside a straggler window every stage latency is scaled —
            # the scalar step applies the multiplier, so the vectorized
            # path stands down.  Outside a window, cap the run at the
            # next window edge; a quiescent profile (no windows) costs
            # exactly these two calls and disarms nothing.
            if profile.scale_at(now) != 1.0:
                return 0
            threshold = min(threshold, profile.next_change_s(now))
        stop = min(threshold, horizon_s)
        if stop <= now:
            # An arrival or landing is already due: the scalar stage admits
            # it.  Past this check the first stage starts before the
            # threshold, so every priced run commits at least one stage.
            return 0
        stages = self.stages
        warmup = limits.warmup_stages
        held = self._held_run
        if held is not None and held[1][held[2]] == now:
            pricing, boundaries, start = held
        else:
            cap = min(scheduler.steady_min_remaining(), _RUN_CAP)
            if stages < warmup:
                cap = min(cap, warmup - stages)  # runs never straddle warm-up
            cap = min(
                cap, limits.max_stages - self.measured, warmup + limits.max_stages - stages
            )
            if threshold != float("inf") and self._last_decode_latency_s > 0.0:
                # Cheap pre-truncation so a near-threshold attempt does not
                # price stages that cannot fit (any cap is exact — this only
                # sizes the batch, the searchsorted below decides
                # membership).  The horizon does not size it: stages past
                # the horizon are held, not thrown away.
                estimate = int((threshold - now) / self._last_decode_latency_s) + 2
                cap = min(cap, estimate)
            pricing = self.executor.price_decode_run(scheduler.steady_context_base(), cap)
            if pricing is None:
                return 0
            # boundaries[k] is the clock after stage k; the seeded
            # cumulative sum reproduces the scalar `now_s += latency` chain
            # bit for bit.
            boundaries = np.concatenate(([now], pricing.latencies)).cumsum()
            start = 0
        end = pricing.n_stages
        if stop != float("inf"):
            # A stage joins the run iff it *starts* strictly before the
            # threshold — at the threshold instant the scalar loop would
            # drain an arrival / land a resume at that stage boundary.
            end = min(end, int(np.searchsorted(boundaries[:-1], stop, side="left")))
        if sim_time_s is not None and stages >= warmup:
            # run() stops after the first stage whose *end* reaches the
            # simulated-time limit — that stage itself still executes.
            ends = boundaries[start + 1 :]
            end = min(end, start + 1 + int(np.searchsorted(ends, sim_time_s, side="left")))
        if start:
            self.executor.replay_decode_run(pricing, end - start)
        elif end < pricing.n_stages:
            self.executor.rewind_decode_run(pricing, end)
        self._held_run = (pricing, boundaries, end) if end < pricing.n_stages else None
        n = end - start
        final_now = float(boundaries[end])
        decode_tokens = len(scheduler.running)
        # A full batch may have queued arrivals meanwhile: leave them where
        # the per-stage admissions would, as of the last stage's start.
        scheduler.queue_arrivals(float(boundaries[end - 1]))
        finished = scheduler.commit_steady_run(n, final_now)
        self.stages += n
        self._last_decode_latency_s = float(pricing.latencies[end - 1])
        # No straddling: the whole run is measured, or none of it is.
        in_window = stages >= warmup
        if in_window:
            self.measured += n
            components = [
                (_DRAM_KEYS[category], joules[start:end])
                for category, joules in zip(pricing.categories, pricing.dram, strict=True)
            ]
            components += [
                (_COMPUTE_KEYS[category], joules[start:end])
                for category, joules in zip(pricing.categories, pricing.compute, strict=True)
            ]
            self.metrics.record_decode_run(
                latencies=pricing.latencies[start:end],
                decode_tokens=decode_tokens,
                energy_components=components,
                comm_energy_per_stage_j=pricing.comm_energy_j,
            )
        for request in finished:
            self.finished_ids.append(request.request_id)
            if request.request_id in self.synthetic_ids:
                self.synthetic_ids.discard(request.request_id)
                continue
            if in_window:
                self.metrics.record_completion(request.e2e_s, tenant=request.tenant)
                self.completions += 1
        return n

    # ------------------------------------------------------------------
    # the driving loop
    # ------------------------------------------------------------------
    def _stop_reached(self, limits: SimulationLimits) -> bool:
        """:meth:`run`'s stop rule, asked after each stage or run (the split
        pipeline asks its decode engine)."""
        target, end_s = limits.target_completions, limits.max_sim_time_s
        return self.stages > limits.warmup_stages and (
            (target is not None and self.completions >= target)
            or (end_s is not None and self.now_s >= end_s)
        )

    def _drive(self, t: float, limits: SimulationLimits, stop: bool) -> None:
        """The driving loop: a steady run or one scalar stage per pass until
        the clock reaches ``t`` (stages may overshoot), the stage budget is
        spent, nothing can happen by ``t`` (an idle engine advances to the
        next arrival or resume landing), or ``stop`` and the stop rule."""
        sim_time_s = limits.max_sim_time_s if stop else None
        while self.now_s < t and not self.budget_spent(limits):
            if self._attempt_steady_run(limits, t, sim_time_s) or self.step(limits):
                if stop and self._stop_reached(limits):
                    return
                continue
            scheduler = self.scheduler
            next_event = min(scheduler.source.peek_arrival(), scheduler.next_paging_ready_s)
            if next_event == float("inf") or next_event > t:
                return
            self.idle_until(next_event, limits)

    def run(self, limits: SimulationLimits) -> ServingReport:
        """Run to the limits (or source exhaustion) and return the report."""
        self._drive(float("inf"), limits, stop=True)
        return self.metrics.report()

    def advance_to(self, t: float, limits: SimulationLimits) -> None:
        """Simulate until the clock reaches ``t`` (stages may overshoot),
        then wait there."""
        self._drive(t, limits, stop=False)
        self.idle_until(t, limits)

    def drain_until(self, t: float, limits: SimulationLimits) -> None:
        """Drain work until the clock reaches ``t`` (stages may overshoot).

        ``t = inf`` finishes everything queued here (until the stage
        budget runs out).  A sequence of slices executes exactly the
        stage sequence (and the same idle-gap recordings — each gap
        advances to the same arrival instant) one unbounded call would,
        stopping early only at the slice boundary.  The cluster's
        cadence-sampled fleet drain depends on that equivalence.  An
        arrival beyond ``t`` is left for a later slice.
        """
        self._drive(t, limits, stop=False)

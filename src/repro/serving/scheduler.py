"""Batch schedulers.

:class:`ContinuousBatchingScheduler` implements ORCA-style stage-level
scheduling (Section II-C): at every stage boundary it admits newly arrived
requests (capacity and batch-size permitting), so prefills of new requests
batch with decodes of ongoing ones (*mixed* stages); with nothing new to
admit the stage is *decoding-only*.  The admission *decisions* — order,
eligibility, shedding, and the per-stage prefill budget — are delegated to
a pluggable :class:`~repro.serving.policy.SchedulingPolicy`; the scheduler
keeps the mechanics (KV accounting, chunk bookkeeping, the stage clock).

:class:`StaticBatchingScheduler` is the request-level baseline of Fig. 2(a):
a batch runs prefill together and decodes until the longest member finishes;
nothing joins mid-flight.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.executor import StageWorkload
from repro.errors import CapacityError, ConfigError, SchedulingError
from repro.serving.generator import RequestSource
from repro.serving.paging import EvictionPolicy, PrefixIndex
from repro.serving.policy import AdmissionView, FcfsPolicy, SchedulingPolicy
from repro.serving.request import Request, RequestState

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.serving.engine import KvPagingCoordinator


class ContinuousBatchingScheduler:
    """Stage-level scheduler with KV-capacity admission control.

    With a :class:`~repro.serving.engine.KvPagingCoordinator` attached,
    admission goes *beyond* ``capacity_tokens``: an arrival that does not
    fit preempts running victims — chosen by the policy's
    :meth:`~repro.serving.policy.SchedulingPolicy.preemption_order` through
    :meth:`~repro.serving.paging.PagedKvManager.pick_victims` — instead of
    queueing.  Victims park on the coordinator, resume in eviction order
    once device KV frees up, and rejoin the batch when their KV lands
    (migration) or their prefill replay completes (recomputation).

    Args:
        source: source of requests (synthetic generator, trace replayer, or
            a cluster replica's queue).
        max_batch: maximum requests per stage.
        capacity_tokens: cluster-wide cached tokens that fit in memory;
            a request reserves ``input_len + output_len`` on admission.
        policy: admission/shaping policy; defaults to FCFS (the paper's
            ORCA-style behaviour).
        paging: live KV-paging coordinator; None (default) keeps the
            classic behaviour — arrivals queue when capacity is full.
        prefix: shared-prefix dedup index; None (default) keeps every
            request's KV private.  With an index attached, requests that
            declare :attr:`~repro.serving.request.Request.prefix_blocks`
            share one pool copy of their common prefix, reserve only
            their unique remainder against ``capacity_tokens``, and skip
            the prefill of cached (ready) prefix tokens.
    """

    def __init__(
        self,
        source: RequestSource,
        max_batch: int,
        capacity_tokens: int | None = None,
        policy: SchedulingPolicy | None = None,
        paging: "KvPagingCoordinator | None" = None,
        prefix: PrefixIndex | None = None,
    ) -> None:
        if max_batch < 1:
            raise ConfigError("max_batch must be at least 1")
        if paging is not None:
            if capacity_tokens is None:
                raise ConfigError("paging needs a finite capacity_tokens")
            if paging.manager.capacity_tokens != capacity_tokens:
                raise ConfigError(
                    "the paging manager and the scheduler disagree on KV capacity"
                )
        if prefix is not None and capacity_tokens is None:
            raise ConfigError("prefix dedup needs a finite capacity_tokens")
        self.source = source
        self.max_batch = max_batch
        self.capacity_tokens = capacity_tokens
        self.policy = policy if policy is not None else FcfsPolicy()
        self.paging = paging
        self.prefix = prefix
        #: (hit, miss) prefill-token pairs of prefix-carrying admissions
        #: since the engine last drained them (metrics attribution).
        self._prefix_admissions: list[tuple[int, int]] = []
        self._stage_preempted: list[int] = []
        self._stage_resumed: list[int] = []
        self.now_s = 0.0
        self.running: list[Request] = []
        self.waiting: list[Request] = []
        self.rejected: list[Request] = []
        #: Request ids in admission order (shed/complete bookkeeping for
        #: the engine's invariant probes; warm-start synthetics included).
        self.admitted_log: list[int] = []
        self._committed_tokens = 0
        self._stage_chunks: dict[int, int] = {}
        self._stage_decoding: list[Request] = []
        self._stage_prefilling: list[Request] = []
        # Steady-decode fast path: while everything in the batch decodes,
        # the next stage's composition is exactly the previous context
        # vector plus one — no re-partitioning, no per-request array
        # rebuild.  The batch is steady exactly when this vector is set.
        # A finished prefill or a completion re-derives it from the
        # survivors (when they all decode); an admission, a resume
        # landing, a preemption, a release, or a request still prefilling
        # invalidates it.
        self._steady_ctx: np.ndarray | None = None
        #: Whether a steady run may pass in-batch completions, as of the
        #: last :meth:`steady_run_threshold` that returned a threshold.
        self.completions_admit_nothing = False

    # ------------------------------------------------------------------
    # stage construction
    # ------------------------------------------------------------------
    def build_stage(self, admit: bool = True) -> StageWorkload | None:
        """Admit what can be admitted and describe the next stage.

        Args:
            admit: run admission first (default); pass False when the
                caller already ran :meth:`admit` at a different timestamp
                (the split prefill partition admits at decode time but
                executes when the partition frees up).

        Returns:
            The stage workload, or None when the system is idle (nothing
            running and nothing arrived yet) — the caller should advance
            time to the next arrival.
        """
        if admit:
            self.admit()
        self._stage_chunks = {}
        if self._steady_ctx is not None and self.running:
            # Nothing joined since the last stage and everything decodes:
            # contexts are the carried vector plus one token each
            # (bit-identical to the rebuilt array — the carried vector is
            # every request's context_len - 1).
            decode_ctx = self._steady_ctx + 1
            self._steady_ctx = decode_ctx
            self._stage_decoding = self.running
            self._stage_prefilling = []
            return StageWorkload.trusted(decode_ctx)
        decoding: list[Request] = []
        prefilling: list[Request] = []
        self._stage_decoding = decoding
        self._stage_prefilling = prefilling
        if not self.running:
            self._steady_ctx = None
            return None
        # One pass over the batch partitions it by state (the engine reuses
        # the partitions instead of re-filtering the batch per stage).
        for request in self.running:
            state = request.state
            if state is RequestState.DECODING:
                decoding.append(request)
            elif state is RequestState.PREFILLING:
                prefilling.append(request)
        decode_ctx = np.array([r.context_len for r in decoding], dtype=np.int64)
        if prefilling:
            self._steady_ctx = None
        else:
            # Candidate for the fast path: if this stage completes with no
            # exits, the next one is this composition shifted by +1.
            self._steady_ctx = decode_ctx
        prefill_lengths: list[int] = []
        prefill_contexts: list[int] = []
        budget = self.policy.prefill_budget()
        remaining_budget = budget
        for request in prefilling:
            if remaining_budget is None:
                chunk = request.remaining_prefill
            else:
                # The first prefill always progresses, so a small budget
                # throttles rather than livelocks.
                if remaining_budget <= 0 and prefill_lengths:
                    continue
                chunk = min(request.remaining_prefill, max(1, remaining_budget))
                remaining_budget -= chunk
            self._stage_chunks[request.request_id] = chunk
            prefill_lengths.append(chunk)
            prefill_contexts.append(request.prefilled_tokens)
        # A non-empty batch always yields a stage: the first prefill gets a
        # chunk even under a tiny budget, so StageWorkload cannot be empty.
        # Trusted construction: contexts/chunks here are valid by the
        # request state machine, so per-stage re-validation is skipped.
        return StageWorkload.trusted(
            decode_ctx,
            tuple(prefill_lengths),
            tuple(prefill_contexts),
        )

    def admit(self) -> None:
        """Shed, order, and admit waiting/arrived requests into the batch.

        Requests normally arrive :attr:`~RequestState.QUEUED` and start
        prefilling on admission; a request already in
        :attr:`~RequestState.DECODING` (its KV arrived over a transfer
        link — the split deployment's decode partition) joins the batch
        as-is.
        """
        if self.paging is not None:
            self._paging_boundary()
        self.queue_arrivals(self.now_s)
        resuming = self.paging.in_transit_count if self.paging is not None else 0
        while len(self.running) + resuming < self.max_batch:
            candidate = self.waiting[0] if self.waiting else self._peek_source()
            if candidate is None:
                break
            tokens = candidate.total_seq_len
            acquisition = None
            needs_preemption = False
            if self.capacity_tokens is not None:
                if tokens > self.capacity_tokens:
                    raise SchedulingError(
                        "a single request exceeds the KV capacity of the system"
                    )
                if self.prefix is not None:
                    # Acquire before the fit check so the candidate's own
                    # path is pinned: cache relief below can never evict
                    # the very blocks it is about to hit.
                    if candidate.prefix_blocks is not None:
                        acquisition = self.prefix.acquire(
                            candidate.request_id, candidate.prefix_blocks
                        )
                        tokens -= acquisition.shared_tokens
                    pool = self.prefix.resident_tokens
                    if self._committed_tokens + pool + tokens > self.capacity_tokens:
                        self.prefix.evict_cached(
                            self._committed_tokens + pool + tokens - self.capacity_tokens
                        )
                        pool = self.prefix.resident_tokens
                    if self._committed_tokens + pool + tokens > self.capacity_tokens:
                        if self.paging is None:
                            if acquisition is not None:
                                self.prefix.forget(candidate.request_id)
                            break  # full: wait for completions to release KV
                        needs_preemption = True
                elif self._committed_tokens + tokens > self.capacity_tokens:
                    if self.paging is None:
                        break  # full: wait for completions to release KV
                    needs_preemption = True
            view = AdmissionView(
                now_s=self.now_s,
                running=len(self.running),
                max_batch=self.max_batch,
                committed_tokens=self._committed_tokens,
                capacity_tokens=self.capacity_tokens,
            )
            if not self.policy.may_admit(view, candidate):
                if acquisition is not None:
                    self.prefix.forget(candidate.request_id)
                break
            if needs_preemption and not self._preempt_for(tokens):
                if acquisition is not None:
                    self.prefix.forget(candidate.request_id)
                break  # nothing (eligible) to evict: queue after all
            if self.waiting:
                self.waiting.pop(0)
            else:
                taken = self.source.take(self.now_s)
                assert taken is candidate
            if candidate.state is RequestState.QUEUED:
                candidate.start_prefill()
            elif candidate.state is not RequestState.DECODING:
                raise SchedulingError(
                    f"request {candidate.request_id} admitted in state {candidate.state}"
                )
            if acquisition is not None:
                candidate.prefix_shared_tokens = acquisition.shared_tokens
                hit_eff = 0
                if candidate.state is RequestState.PREFILLING:
                    # One token always prefills, so the first output token
                    # still comes out of the normal prefill machinery.
                    hit_eff = min(acquisition.hit_tokens, candidate.input_len - 1)
                candidate.prefix_hit_tokens = hit_eff
                if hit_eff:
                    candidate.prefilled_tokens = hit_eff
                declared = sum(count for _, count in candidate.prefix_blocks)
                self._prefix_admissions.append((hit_eff, declared - hit_eff))
            self.running.append(candidate)
            self.admitted_log.append(candidate.request_id)
            self._committed_tokens += tokens
            if self.paging is not None:
                self.paging.on_admit(candidate)
            self._steady_ctx = None

    # ------------------------------------------------------------------
    # KV paging (evict / resume under memory pressure)
    # ------------------------------------------------------------------
    def _paging_boundary(self) -> None:
        """Stage-boundary paging work: land resumes, start new ones.

        Landed requests rejoin the batch in their parked state (decoding
        or mid-prefill); then parked victims resume strictly in eviction
        order — head-of-line, no overtaking — as long as device KV and a
        batch slot are free for each.
        """
        paging = self.paging
        assert paging is not None
        for request in paging.take_ready(self.now_s):
            self.running.append(request)
            if self.prefix is not None and request.prefix_shared_tokens:
                # The landing carried the resume replay (if any): every
                # pool block on the request's path is computed again.
                self.prefix.commit(request.request_id)
            self._stage_resumed.append(request.request_id)
            self._steady_ctx = None
        assert self.capacity_tokens is not None
        while True:
            head = paging.peek_parked()
            if head is None:
                break
            if len(self.running) + paging.in_transit_count >= self.max_batch:
                break
            if not self._parked_head_fits(head):
                break
            if self.prefix is not None and head.prefix_shared_tokens:
                assert head.prefix_blocks is not None
                ready_hit, _ = self.prefix.probe_resume(
                    head.prefix_blocks, head.prefix_shared_tokens
                )
                self.prefix.reacquire(
                    head.request_id, head.prefix_blocks, head.prefix_shared_tokens
                )
                # Pool blocks evicted while the request was parked must be
                # recomputed on the way back in.
                paging.resume_next(
                    self.now_s,
                    replay_prefix_tokens=head.prefix_shared_tokens - ready_hit,
                )
            else:
                paging.resume_next(self.now_s)
            self._committed_tokens += head.unique_seq_len

    def _parked_head_fits(self, head: Request) -> bool:
        """Device room for resuming the parked head right now.

        Mirrored exactly by :meth:`steady_run_threshold`'s parked-head
        check so a steady run is never entered while a resume is due.
        """
        assert self.capacity_tokens is not None
        tokens = head.unique_seq_len
        if self.prefix is None:
            return self._committed_tokens + tokens <= self.capacity_tokens
        missing = 0
        if head.prefix_shared_tokens:
            assert head.prefix_blocks is not None
            _, missing = self.prefix.probe_resume(
                head.prefix_blocks, head.prefix_shared_tokens
            )
        return (
            self._committed_tokens + self.prefix.resident_tokens + missing + tokens
            <= self.capacity_tokens
        )

    def _preempt_for(self, needed_tokens: int) -> bool:
        """Evict policy-chosen victims until ``needed_tokens`` fit.

        Returns False (and evicts nothing) when the eligible victims
        cannot free enough KV — the candidate then queues exactly as it
        would without paging.
        """
        paging = self.paging
        assert paging is not None
        order = [
            request.request_id
            for request in self.policy.preemption_order(list(self.running), self.now_s)
        ]
        if self.prefix is not None:
            victim_ids = self._pick_prefix_victims(needed_tokens, order)
            if victim_ids is None:
                return False
        else:
            try:
                victim_ids = paging.manager.pick_victims(needed_tokens, order=order)
            except CapacityError:
                return False
        by_id = {request.request_id: request for request in self.running}
        host_budget = paging.manager.host_capacity_tokens
        if host_budget is not None and paging.manager.policy is EvictionPolicy.MIGRATE:
            # A full host must degrade to queueing, not crash mid-eviction.
            parked = paging.manager.evicted_tokens
            moving = sum(by_id[request_id].unique_seq_len for request_id in victim_ids)
            if parked + moving > host_budget:
                return False
        for request_id in victim_ids:
            victim = by_id[request_id]
            paging.evict(victim, self.now_s)
            self.running.remove(victim)
            self._committed_tokens -= victim.unique_seq_len
            if self.prefix is not None:
                # The victim's pool pins drop with it: once the last
                # running holder of a shared prefix is evicted, the whole
                # family's blocks go zero-ref and the sweep below may
                # reclaim them — "evicting a shared prefix preempts the
                # whole session family".
                self.prefix.forget(request_id)
            self._stage_preempted.append(request_id)
        if victim_ids:
            if self.prefix is not None:
                shortfall = needed_tokens - (
                    self.capacity_tokens
                    - self._committed_tokens
                    - self.prefix.resident_tokens
                )
                self.prefix.evict_cached(shortfall)
            self._steady_ctx = None
        return True

    def _pick_prefix_victims(self, needed_tokens: int, order: list[int]) -> list[int] | None:
        """Victim set freeing ``needed_tokens`` with pool tokens counted once.

        Walks the policy's preemption order accumulating each victim's
        private reservation plus the pool blocks its release would unpin —
        a block counts only when the *last* simulated holder releases it,
        so shared prefixes are charged exactly once, to the final family
        member evicted.  Returns None when even the full order cannot free
        enough (the candidate then queues, mirroring
        :meth:`~repro.serving.paging.PagedKvManager.pick_victims`).
        """
        assert self.prefix is not None and self.capacity_tokens is not None
        free = (
            self.capacity_tokens - self._committed_tokens - self.prefix.resident_tokens
        )
        by_id = {request.request_id: request for request in self.running}
        sim = self.prefix.release_simulator()
        victims: list[int] = []
        freed = 0
        for request_id in order:
            if free + freed >= needed_tokens:
                break
            victim = by_id[request_id]
            freed += victim.unique_seq_len + sim.release(request_id)
            victims.append(request_id)
        if free + freed < needed_tokens:
            return None
        return victims

    def drain_paging_events(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(preempted, resumed) request ids since the last drain (cleared)."""
        if not self._stage_preempted and not self._stage_resumed:
            return (), ()
        events = (tuple(self._stage_preempted), tuple(self._stage_resumed))
        self._stage_preempted = []
        self._stage_resumed = []
        return events

    def drain_prefix_admissions(self) -> list[tuple[int, int]]:
        """(hit, miss) prefill-token pairs of prefix-carrying admissions
        since the last drain (cleared) — the engine prices the saved
        prefill from these."""
        if not self._prefix_admissions:
            return self._prefix_admissions
        events = self._prefix_admissions
        self._prefix_admissions = []
        return events

    @property
    def prefix_resident_tokens(self) -> int:
        """Tokens held by the shared-prefix pool (0 without dedup)."""
        return self.prefix.resident_tokens if self.prefix is not None else 0

    @property
    def next_paging_ready_s(self) -> float:
        """Next instant a resuming request lands (inf without paging)."""
        return self.paging.next_ready_s() if self.paging is not None else float("inf")

    @property
    def paged_count(self) -> int:
        """Requests out of the batch because of paging (0 without paging)."""
        return self.paging.paged_count if self.paging is not None else 0

    def queue_arrivals(self, now_s: float) -> None:
        """Move every request arrived by ``now_s`` into the waiting queue,
        then let the policy shed and order it.

        :meth:`admit` runs this at every stage boundary; the engine runs
        it once per steady run, at the run's last stage start.  Only a
        full batch under a policy whose hooks ignore the clock runs while
        requests arrive (see :meth:`steady_run_threshold`), and it admits
        nothing meanwhile, so the source and the queue end exactly where
        the per-stage admissions would leave them.

        Closed-loop sources have an unbounded supply — a fresh request is
        ready the moment a slot frees — so there is no queue to drain;
        admission peeks them directly.
        """
        if not self.source.closed_loop:
            while self.source.has_request_at(now_s):
                self.waiting.append(self.source.take(now_s))
        if self.waiting:  # policies only shed/order what is actually queued
            for request in self.policy.shed(self.waiting, now_s):
                self.waiting.remove(request)
                self.rejected.append(request)
            self.policy.order_waiting(self.waiting, now_s)

    def _peek_source(self) -> Request | None:
        # Peeking forces the lazily materialised request so its lengths are
        # fixed before admission (the public face of the old `_pending` leak).
        if not self.source.has_request_at(self.now_s):
            return None
        return self.source.peek()

    # ------------------------------------------------------------------
    # stage completion
    # ------------------------------------------------------------------
    def complete_stage(self, latency_s: float) -> list[Request]:
        """Advance time and request states; return requests that finished."""
        if latency_s <= 0:
            raise SchedulingError("stage latency must be positive")
        if not self.running:
            raise SchedulingError("no stage in flight")
        self.now_s += latency_s
        now_s = self.now_s
        finished: list[Request] = []
        still_running: list[Request] = []
        chunks = self._stage_chunks
        still_prefilling = False
        for request in self.running:
            state = request.state
            if state is RequestState.DECODING:
                # Inlined Request.advance_decode (state already verified):
                # one attribute-level step per running request per stage is
                # the scheduler's hottest loop.
                request.context_len += 1
                generated = request.tokens_generated + 1
                request.tokens_generated = generated
                if generated >= request.output_len:
                    request.finish(now_s)
                    finished.append(request)
                    self._committed_tokens -= request.unique_seq_len
                else:
                    still_running.append(request)
                continue
            if state is RequestState.PREFILLING:
                chunk = chunks.get(request.request_id)
                if chunk is None:
                    still_running.append(request)  # waited out this stage's budget
                    still_prefilling = True
                    continue
                request.advance_prefill(chunk, now_s)
                if (
                    self.prefix is not None
                    and request.prefix_shared_tokens
                    and request.state is not RequestState.PREFILLING
                ):
                    # Prefill done: the KV for the request's pending pool
                    # blocks now exists — they become hit-able.
                    self.prefix.commit(request.request_id)
            else:
                raise SchedulingError(f"request {request.request_id} in state {request.state}")
            if request.state is RequestState.FINISHED:
                finished.append(request)
                self._committed_tokens -= request.unique_seq_len
            else:
                still_running.append(request)
                if request.state is RequestState.PREFILLING:
                    still_prefilling = True  # chunked prefill continues
        self.running = still_running
        self._stage_chunks = {}
        if finished:
            if self.prefix is not None:
                for request in finished:
                    # Unpin; ready blocks stay cached for the next turn.
                    self.prefix.forget(request.request_id)
            if self.paging is not None:
                for request in finished:
                    self.paging.on_release(request)
        if finished or chunks:
            # The composition changed; if every survivor decodes, the next
            # stage is steady again.  Its contexts are what build_stage would
            # rebuild, minus the +1 its fast path adds.
            if still_running and not still_prefilling:
                self._steady_ctx = np.array(
                    [r.context_len - 1 for r in still_running], dtype=np.int64
                )
            else:
                self._steady_ctx = None
        return finished

    # ------------------------------------------------------------------
    # steady-decode runs (the columnar fast path)
    # ------------------------------------------------------------------
    def steady_run_threshold(self) -> float | None:
        """Latest-exclusive start time up to which decode stages are steady.

        A *steady run* is a sequence of stages over which admission is a
        guaranteed no-op: the whole batch decodes, and no arrival, paging
        landing, or parked-resume can change membership before the
        returned instant.  Returns None when the next stage is not
        provably steady (the engine falls back to one scalar stage);
        otherwise every stage whose *start* time is strictly before the
        threshold is safe to collapse into a vectorized run.

        Nothing joins the batch mid-run, so mid-run blockages are
        time-invariant: a full batch stays full and an over-capacity
        parked head stays parked until the first completion.  Admission,
        parked-head resumes and preemption all need a free slot, so a
        full batch may run while requests queue, as long as the policy's
        ``shed`` and ``order_waiting`` ignore the clock
        (:attr:`~repro.serving.policy.SchedulingPolicy.queue_ignores_clock`);
        arrivals then do not bound the run, and the engine queues them
        with :meth:`queue_arrivals` before committing it.  Otherwise
        nothing may be waiting and the next arrival bounds the run.  The
        steady state survives finished prefills and completions (see
        :meth:`complete_stage`), so a run can start at the first stage
        after either; a threshold at or before ``now_s`` means an arrival
        or landing is already due.

        Alongside a threshold, this records
        :attr:`completions_admit_nothing`: whether no in-batch completion
        before the threshold can admit anything, so a run may continue
        through completions, requests simply leaving the batch.  That
        holds for a batch with room (then the source is open-loop, nothing
        waits and the next arrival bounds the run; a completion in a full
        batch would admit a queued head) and no paged-out request parked
        (a completion could let it resume).  Otherwise a run ends at its
        first in-batch completion.
        """
        if self._steady_ctx is None or not self.running:
            return None
        paging = self.paging
        threshold = float("inf")
        batch_full = (
            len(self.running) + (paging.in_transit_count if paging is not None else 0)
            >= self.max_batch
        )
        queue_frozen = batch_full and self.policy.queue_ignores_clock
        if self.waiting and not queue_frozen:
            return None
        parked = False
        if paging is not None:
            head = paging.peek_parked()
            if head is not None and not batch_full and self._parked_head_fits(head):
                return None  # a parked victim would resume right now
            parked = head is not None
            threshold = paging.next_ready_s()
        if self.source.closed_loop:
            # Closed-loop sources always have a request ready (peek_arrival
            # is 0.0, not a future instant): steady only while the batch is
            # full, and then with no time bound from arrivals.
            if not batch_full:
                return None
        elif not queue_frozen:
            threshold = min(threshold, self.source.peek_arrival())
        self.completions_admit_nothing = not (batch_full or parked)
        return threshold

    def steady_context_base(self) -> np.ndarray:
        """Context-length vector of the last built stage (run stage k
        prices at ``base + k``, 1-based)."""
        assert self._steady_ctx is not None
        return self._steady_ctx

    def steady_remaining(self) -> list[int]:
        """Decode stages each running request has left, in batch order: its
        minimum is the next run's first in-batch completion (only asked of
        a steady, non-empty batch)."""
        return [r.output_len - r.tokens_generated for r in self.running]

    def commit_steady_run(self, n_stages: int, boundaries: np.ndarray) -> list[Request]:
        """Apply ``n_stages`` collapsed decode stages in one mutation.

        Equivalent to ``n_stages`` build/complete cycles of an all-decode
        batch whose finished requests leave it: ``boundaries[k]`` is the
        clock after stage ``k`` (``boundaries[0]`` is now, the engine's
        exact cumulative-latency chain).  A request with ``left <=
        n_stages`` decode stages to go emits ``left`` tokens and finishes
        at ``boundaries[left]``; every other request emits ``n_stages``.
        Finished requests come back — and unpin their prefix blocks and
        release their paged KV — in the scalar loop's order: by finishing
        stage, then by batch order.  The survivors all decode, so the
        batch stays steady with their contexts ``base + n_stages``, in
        batch order.
        """
        ctx = self._steady_ctx
        assert ctx is not None
        self.now_s = float(boundaries[n_stages])
        finishing: list[tuple[int, Request]] = []
        still_running: list[Request] = []
        running = self.running
        for request in running:
            left = request.output_len - request.tokens_generated
            if left <= n_stages:
                request.context_len += left
                request.tokens_generated += left
                finishing.append((left, request))
            else:
                request.context_len += n_stages
                request.tokens_generated += n_stages
                still_running.append(request)
        self.running = still_running
        self._steady_ctx = ctx + n_stages
        if not finishing:
            return []
        finishing.sort(key=lambda item: item[0])  # stable: batch order per stage
        finished = [request for _, request in finishing]
        for left, request in finishing:
            request.finish(float(boundaries[left]))
            self._committed_tokens -= request.unique_seq_len
        if self.prefix is not None:
            for request in finished:
                self.prefix.forget(request.request_id)
        if self.paging is not None:
            for request in finished:
                self.paging.on_release(request)
        if still_running:
            survivors = [r.state is not RequestState.FINISHED for r in running]
            self._steady_ctx = self._steady_ctx[survivors]
        else:
            self._steady_ctx = None
        return finished

    def uncommit(self, request: Request) -> None:
        """Drop the KV reservation of a mid-resume request (crash harvest).

        A request whose resume was in flight when its replica crashed is
        not in ``running``, but its reservation was re-committed at
        :meth:`~repro.serving.engine.KvPagingCoordinator.resume_next`
        time; a repaired replica must not inherit that phantom commitment.
        """
        self._committed_tokens -= request.unique_seq_len

    def release(self, request: Request) -> None:
        """Remove an in-flight request and free its reserved KV.

        The split deployment's prefill partition hands a request off to the
        decode partition the moment its prefill lands: the request leaves
        this scheduler's batch and its KV reservation travels with it.
        """
        self.running.remove(request)
        self._committed_tokens -= request.unique_seq_len
        if self.prefix is not None:
            self.prefix.forget(request.request_id)
        if self.paging is not None:
            self.paging.on_release(request)
        self._steady_ctx = None

    @property
    def pending_chunks(self) -> dict[int, int]:
        """Prefill tokens planned per request id for the stage just built.

        The live dict, not a copy: ``build_stage`` replaces (never mutates)
        it, and per-stage defensive copies were a measurable allocation in
        the hot loop.
        """
        return self._stage_chunks

    @property
    def stage_partitions(self) -> tuple[list[Request], list[Request]]:
        """(decoding, prefilling) requests of the stage just built.

        Built in :meth:`build_stage`'s single pass over the batch, in batch
        order, so the engine never re-filters ``running`` per stage.  Valid
        until the next :meth:`build_stage` call.
        """
        return self._stage_decoding, self._stage_prefilling

    # ------------------------------------------------------------------
    # load signals (cluster routing)
    # ------------------------------------------------------------------
    @property
    def committed_tokens(self) -> int:
        """KV tokens reserved by the running batch."""
        return self._committed_tokens

    @property
    def outstanding_tokens(self) -> int:
        """KV tokens of everything admitted, queued, or paged out
        (router load signal) — evicted requests are still future work."""
        evicted = self.paging.evicted_tokens if self.paging is not None else 0
        return self._committed_tokens + evicted + sum(r.total_seq_len for r in self.waiting)

    # ------------------------------------------------------------------
    # warm start
    # ------------------------------------------------------------------
    def warm_start(self, batch: int) -> list[Request]:
        """Pre-populate the batch with staggered mid-flight requests.

        Closed-loop throughput measurements start from the steady state the
        paper assumes (one request finishing at a time, not a lock-stepped
        cohort): request k is ``k/batch`` of the way through its output.

        Returns:
            The synthetic requests (their completion metrics are not
            meaningful and should not be recorded).
        """
        if self.running:
            raise SchedulingError("warm start requires an empty system")
        if batch < 1:
            raise ConfigError("warm start needs at least one request")
        synthetic: list[Request] = []
        for slot in range(min(batch, self.max_batch)):
            request = self.source.take(self.now_s)
            request.start_prefill()
            request.finish_prefill(self.now_s)
            if request.state is RequestState.FINISHED:
                continue  # single-token output: nothing to stagger
            progress = int(slot * request.output_len / max(1, batch))
            progress = min(progress, request.output_len - 2)
            request.context_len = request.input_len + max(0, progress)
            request.tokens_generated = 1 + max(0, progress)
            if self.capacity_tokens is not None and (
                self._committed_tokens + request.total_seq_len > self.capacity_tokens
            ):
                break
            self.running.append(request)
            self.admitted_log.append(request.request_id)
            self._committed_tokens += request.total_seq_len
            if self.paging is not None:
                self.paging.on_admit(request)
            synthetic.append(request)
        return synthetic


class StaticBatchingScheduler:
    """Request-level batching (the paper's Fig. 2(a) baseline).

    A cohort of up to ``max_batch`` requests prefills together and decodes
    in lock-step until the *longest* output finishes; only then is the next
    cohort admitted.  Requests that finish early stop contributing tokens
    but their slots stay blocked — exactly the inefficiency continuous
    batching removes.
    """

    def __init__(
        self, source: RequestSource, max_batch: int, capacity_tokens: int | None = None
    ) -> None:
        if max_batch < 1:
            raise ConfigError("max_batch must be at least 1")
        self.source = source
        self.max_batch = max_batch
        self.capacity_tokens = capacity_tokens
        self.now_s = 0.0
        self.running: list[Request] = []

    def build_stage(self) -> StageWorkload | None:
        if not self._active():
            self._admit_cohort()
        active = self._active()
        if not active:
            return None
        decode_ctx = np.asarray(
            [r.context_len for r in active if r.state is RequestState.DECODING], dtype=np.int64
        )
        prefill = tuple(r.input_len for r in active if r.state is RequestState.PREFILLING)
        return StageWorkload(decode_context_lengths=decode_ctx, prefill_lengths=prefill)

    def _active(self) -> list[Request]:
        return [r for r in self.running if r.state is not RequestState.FINISHED]

    def _admit_cohort(self) -> None:
        self.running = []
        committed = 0
        while len(self.running) < self.max_batch and self.source.has_request_at(self.now_s):
            candidate = self.source.peek()
            assert candidate is not None
            if (
                self.capacity_tokens is not None
                and committed + candidate.total_seq_len > self.capacity_tokens
            ):
                break
            request = self.source.take(self.now_s)
            request.start_prefill()
            self.running.append(request)
            committed += request.total_seq_len

    def complete_stage(self, latency_s: float) -> list[Request]:
        if latency_s <= 0:
            raise SchedulingError("stage latency must be positive")
        self.now_s += latency_s
        finished = []
        for request in self._active():
            if request.state is RequestState.PREFILLING:
                request.finish_prefill(self.now_s)
            else:
                request.advance_decode(self.now_s)
            if request.state is RequestState.FINISHED:
                finished.append(request)
        return finished

"""The inference-request lifecycle.

A request arrives with an input of ``input_len`` tokens, is admitted to a
batch, runs one prefill stage (producing its first token), then ``output_len
- 1`` decoding stages.  The timestamps recorded along the way yield the
paper's three latency metrics: T2FT (arrival to first token), TBT (between
consecutive tokens), and E2E (arrival to completion) — Fig. 2.

Under a chunked-prefill policy the prefill is spread over several stages:
each stage advances ``prefilled_tokens`` by that stage's chunk, and the
first token appears only when the whole input has been processed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigError, SchedulingError


class RequestState(enum.Enum):
    QUEUED = "queued"
    PREFILLING = "prefilling"
    DECODING = "decoding"
    FINISHED = "finished"


@dataclass(slots=True, eq=False)
class Request:
    """One inference request.

    Requests compare by identity: one object is one request through its
    whole lifecycle, so two live requests are never interchangeable.

    Attributes:
        request_id: unique id.
        arrival_time_s: when the request entered the system.
        input_len: prompt tokens (Lin).
        output_len: tokens to generate (Lout).
        tenant: workload tenant the request belongs to (multi-tenant
            scenarios; None for single-tenant workloads).
        t2ft_slo_s: per-request time-to-first-token objective (None = no
            per-request SLO; SLO-aware policies then fall back to their
            own default).
        attempts: admission attempts so far (1 = the original routing;
            failure retries increment it — see
            :class:`~repro.serving.faults.RetryPolicy`).
        first_arrival_s: the *original* submission instant, preserved
            across failure re-routes (None until the first
            :meth:`requeue` — latency metrics then measure from it, so
            retried requests pay their full queueing + failure penalty).
        prefix_blocks: the request's shareable prompt prefix as ordered
            ``(segment id, token count)`` blocks (a root-to-leaf path in a
            :class:`~repro.serving.paging.PrefixIndex`; None = nothing
            shareable).  Declarative only — it has no effect unless the
            scheduler runs with prefix dedup enabled.
        prefix_shared_tokens: prefix tokens the pool actually holds for
            this request (set at admission; the request's private KV
            reservation is :attr:`unique_seq_len`).
        prefix_hit_tokens: prefill tokens skipped thanks to a cache hit
            (set at admission).
    """

    request_id: int
    arrival_time_s: float
    input_len: int
    output_len: int
    tenant: str | None = None
    t2ft_slo_s: float | None = None
    state: RequestState = RequestState.QUEUED
    context_len: int = 0
    tokens_generated: int = 0
    prefilled_tokens: int = 0
    first_token_time_s: float | None = field(default=None, repr=False)
    completion_time_s: float | None = field(default=None, repr=False)
    attempts: int = field(default=1, repr=False)
    first_arrival_s: float | None = field(default=None, repr=False)
    prefix_blocks: tuple[tuple[int, int], ...] | None = field(default=None, repr=False)
    prefix_shared_tokens: int = field(default=0, repr=False)
    prefix_hit_tokens: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.input_len < 1 or self.output_len < 1:
            raise ConfigError("requests need at least one input and one output token")
        if self.arrival_time_s < 0:
            raise ConfigError("arrival time must be non-negative")
        if self.t2ft_slo_s is not None and self.t2ft_slo_s <= 0:
            raise ConfigError("a per-request T2FT SLO must be positive")
        if self.prefix_blocks is not None:
            if not self.prefix_blocks:
                raise ConfigError("prefix blocks must be non-empty (or None)")
            if any(tokens < 1 for _, tokens in self.prefix_blocks):
                raise ConfigError("every prefix block holds at least one token")
            if sum(tokens for _, tokens in self.prefix_blocks) > self.input_len:
                raise ConfigError("a prefix cannot exceed the input length")

    # ------------------------------------------------------------------
    # lifecycle transitions
    # ------------------------------------------------------------------
    def start_prefill(self) -> None:
        if self.state is not RequestState.QUEUED:
            raise SchedulingError(f"request {self.request_id}: prefill from {self.state}")
        self.state = RequestState.PREFILLING

    def finish_prefill(self, now_s: float) -> None:
        """The prefill stage produced the first output token."""
        if self.state is not RequestState.PREFILLING:
            raise SchedulingError(f"request {self.request_id}: finish_prefill from {self.state}")
        self.state = RequestState.DECODING
        self.prefilled_tokens = self.input_len
        self.context_len = self.input_len
        self.tokens_generated = 1
        self.first_token_time_s = now_s
        if self.is_complete:
            self.finish(now_s)

    def advance_prefill(self, chunk_tokens: int, now_s: float) -> None:
        """One stage processed ``chunk_tokens`` of the input (chunked prefill).

        When the chunk completes the input, the stage also produced the
        first output token (equivalent to :meth:`finish_prefill`).
        """
        if self.state is not RequestState.PREFILLING:
            raise SchedulingError(f"request {self.request_id}: prefill chunk from {self.state}")
        if chunk_tokens < 1 or chunk_tokens > self.remaining_prefill:
            raise SchedulingError(
                f"request {self.request_id}: chunk of {chunk_tokens} with "
                f"{self.remaining_prefill} input tokens remaining"
            )
        self.prefilled_tokens += chunk_tokens
        if self.prefilled_tokens >= self.input_len:
            self.state = RequestState.DECODING
            self.context_len = self.input_len
            self.tokens_generated = 1
            self.first_token_time_s = now_s
            if self.is_complete:
                self.finish(now_s)

    def advance_decode(self, now_s: float) -> None:
        """One decoding stage produced one more token."""
        if self.state is not RequestState.DECODING:
            raise SchedulingError(f"request {self.request_id}: decode from {self.state}")
        self.context_len += 1
        self.tokens_generated += 1
        if self.is_complete:
            self.finish(now_s)

    def finish(self, now_s: float) -> None:
        self.state = RequestState.FINISHED
        self.completion_time_s = now_s

    def requeue(self, now_s: float) -> None:
        """Return to QUEUED for re-admission after a failure or handoff.

        Progress made on the dead replica (prefilled tokens, generated
        tokens, the first-token timestamp) is discarded — the KV is gone
        and the work re-runs from scratch — but the original submission
        instant survives in :attr:`first_arrival_s` so T2FT/E2E keep
        measuring from when the user actually submitted.
        ``arrival_time_s`` becomes the resubmission instant, which keeps
        the receiving :class:`~repro.serving.generator.QueueSource`'s
        arrival-order invariant intact.
        """
        if self.state is RequestState.FINISHED:
            raise SchedulingError(f"request {self.request_id} already finished")
        if self.first_arrival_s is None:
            self.first_arrival_s = self.arrival_time_s
        self.arrival_time_s = now_s
        self.state = RequestState.QUEUED
        self.context_len = 0
        self.tokens_generated = 0
        self.prefilled_tokens = 0
        self.first_token_time_s = None
        # Shared-prefix state is per-admission: the KV (and any pool pins)
        # died with the old placement, so the next admission renegotiates.
        self.prefix_shared_tokens = 0
        self.prefix_hit_tokens = 0

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def is_complete(self) -> bool:
        return self.tokens_generated >= self.output_len

    @property
    def remaining_prefill(self) -> int:
        """Input tokens not yet processed (non-zero only while prefilling)."""
        return self.input_len - self.prefilled_tokens

    @property
    def total_seq_len(self) -> int:
        """Worst-case cached tokens (what capacity is reserved for)."""
        return self.input_len + self.output_len

    @property
    def unique_seq_len(self) -> int:
        """Privately reserved KV tokens: the total minus the shared-pool
        span.  Equals :attr:`total_seq_len` whenever prefix dedup is off
        or the request shares nothing."""
        return self.input_len + self.output_len - self.prefix_shared_tokens

    @property
    def submitted_s(self) -> float:
        """Original submission instant (failure re-routes preserve it)."""
        return self.arrival_time_s if self.first_arrival_s is None else self.first_arrival_s

    @property
    def t2ft_s(self) -> float:
        """Time to first token (requires the first token to exist)."""
        if self.first_token_time_s is None:
            raise SchedulingError(f"request {self.request_id} has no first token yet")
        return self.first_token_time_s - self.submitted_s

    @property
    def e2e_s(self) -> float:
        """End-to-end latency (requires completion)."""
        if self.completion_time_s is None:
            raise SchedulingError(f"request {self.request_id} is not finished")
        return self.completion_time_s - self.submitted_s

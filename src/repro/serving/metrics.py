"""Serving metrics: the paper's TBT / T2FT / E2E, throughput, and energy.

TBT samples are weighted (one stage latency counts once per decode token it
produced), so percentiles are computed over the token population exactly as
a per-token trace would give, without storing one entry per token.

TBT samples live in two float64 columns, per-stage latency and token
weight, grown by amortized doubling: a scalar stage writes one element and
a vectorized decode run writes one slice.  Percentiles and SLO attainment
read the filled prefix; weights are integer-valued token counts, so every
partial weight sum is exact and the results do not depend on how samples
with equal latency are grouped.  The autoscaling controller polls the same
columns through the :meth:`MetricsCollector.tbt_samples_since` cursor.

Per-request T2FT/E2E samples stay as lists — they are bounded by request
count, not stage count, and the report needs their medians.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.models.ops import OpCategory

#: Energy-component labels, precomputed per category (f-string construction
#: on every recorded stage was a measurable per-stage cost).
_DRAM_KEYS = {category: f"{category.value}:dram" for category in OpCategory}
_COMPUTE_KEYS = {category: f"{category.value}:compute" for category in OpCategory}


def weighted_percentile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    """Percentile ``q`` (0-100) of a weighted sample.

    Uses the cumulative-weight definition: the smallest value whose
    cumulative weight share reaches ``q``.  Zero-weight entries are
    dropped before the cumulative sum — they own no probability mass, so
    they must never be returned (with ``side="left"`` a zero-weight
    smallest value would otherwise win every low percentile).  Negative
    weights, mismatched array sizes, and an all-zero weight vector are
    rejected.
    """
    if not 0 <= q <= 100:
        raise ConfigError("percentile must be within 0..100")
    if values.size == 0:
        raise SimulationError("cannot take a percentile of an empty sample")
    if weights.size != values.size:
        raise ConfigError("weights must parallel values")
    if (weights < 0).any():
        raise ConfigError("percentile weights must be non-negative")
    if (weights == 0).any():
        keep = weights > 0
        values = values[keep]
        weights = weights[keep]
        if values.size == 0:
            raise SimulationError("cannot take a percentile of an all-zero-weight sample")
    order = np.argsort(values)
    sorted_values = values[order]
    cumulative = np.cumsum(weights[order])
    threshold = q / 100.0 * cumulative[-1]
    index = int(np.searchsorted(cumulative, threshold, side="left"))
    return float(sorted_values[min(index, sorted_values.size - 1)])


@dataclass(frozen=True)
class ServingReport:
    """Summary of one serving simulation.

    Attributes:
        tokens_generated: output tokens produced in the measured window.
        elapsed_s: measured wall-clock time.
        throughput_tokens_per_s: tokens / elapsed.
        tbt_p50_s / tbt_p90_s / tbt_p99_s: token-between-token percentiles.
        t2ft_p50_s: median time-to-first-token.
        e2e_p50_s: median end-to-end latency.
        decoding_only_stage_ratio: share of stages with no prefill (Fig. 5(a)).
        energy_per_token_j: total energy / tokens generated.
        energy_by_component: (category, dram|compute) -> joules.
        requests_completed: finished requests in the window.
        effective_batch: capacity-limited batch actually used.
        per_tenant: tenant name -> summary dict (``requests_completed``,
            ``t2ft_p50_s``, ``e2e_p50_s``, and — when requests carried a
            per-request SLO — ``t2ft_slo_attainment``); empty for
            single-tenant workloads.
        paging: KV-paging activity summary (``preemptions``, ``resumes``,
            ``migrated_out_tokens``, ``migrated_in_tokens``,
            ``recomputed_tokens``, ``host_link_s``, ``replay_s``); empty
            when the run never paged (paging disabled, or never under
            pressure).
        faults: failure/recovery summary (``crashes``,
            ``device_failures``, ``retries``, ``migrate_recoveries``,
            ``requests_lost``, ``lost_generated_tokens``,
            ``lost_prefill_tokens``, ``re_prefill_s``,
            ``re_prefill_energy_j``, ``retry_backoff_s``,
            ``unavailability_s``); empty when no fault was ever injected
            — a faults-off run reports byte-identically to one predating
            the fault subsystem.
        prefix: shared-prefix dedup summary (``hit_tokens``,
            ``miss_tokens``, ``saved_prefill_s``, ``saved_energy_j``,
            ``peak_shared_tokens``); empty when no prefix-carrying request
            was ever admitted — a dedup-off run reports byte-identically
            to one predating the prefix subsystem.
    """

    tokens_generated: int
    elapsed_s: float
    throughput_tokens_per_s: float
    tbt_p50_s: float
    tbt_p90_s: float
    tbt_p99_s: float
    t2ft_p50_s: float
    e2e_p50_s: float
    decoding_only_stage_ratio: float
    energy_per_token_j: float
    energy_by_component: dict[str, float]
    requests_completed: int
    effective_batch: int
    per_tenant: dict[str, dict[str, float]] = field(default_factory=dict)
    paging: dict[str, float] = field(default_factory=dict)
    faults: dict[str, float] = field(default_factory=dict)
    prefix: dict[str, float] = field(default_factory=dict)


#: Initial length of the TBT columns (they double whenever they fill).
_TBT_INITIAL_CAPACITY = 256


@dataclass
class MetricsCollector:
    """Accumulates per-stage and per-request measurements."""

    _tbt_values: np.ndarray = field(
        default_factory=lambda: np.empty(_TBT_INITIAL_CAPACITY), repr=False
    )
    _tbt_weights: np.ndarray = field(
        default_factory=lambda: np.empty(_TBT_INITIAL_CAPACITY), repr=False
    )
    _tbt_count: int = 0
    _t2ft: list[float] = field(default_factory=list)
    _e2e: list[float] = field(default_factory=list)
    _stages_total: int = 0
    _stages_mixed: int = 0
    _tokens: int = 0
    _elapsed_s: float = 0.0
    _busy_s: float = 0.0
    _energy_by_component: dict[str, float] = field(default_factory=dict)
    _requests_completed: int = 0
    _tenant_t2ft: dict[str, list[float]] = field(default_factory=dict)
    _tenant_t2ft_slo_met: dict[str, int] = field(default_factory=dict)
    _tenant_t2ft_slo_total: dict[str, int] = field(default_factory=dict)
    _tenant_e2e: dict[str, list[float]] = field(default_factory=dict)
    _preemptions: int = 0
    _paging_resumes: int = 0
    _migrated_out_tokens: int = 0
    _migrated_in_tokens: int = 0
    _recomputed_tokens: int = 0
    _host_link_s: float = 0.0
    _replay_s: float = 0.0
    _crashes: int = 0
    _device_failures: int = 0
    _retries: int = 0
    _migrate_recoveries: int = 0
    _requests_lost: int = 0
    _lost_generated_tokens: int = 0
    _lost_prefill_tokens: int = 0
    _re_prefill_s: float = 0.0
    _re_prefill_energy_j: float = 0.0
    _retry_backoff_s: float = 0.0
    _unavailability_s: float = 0.0
    _tenant_retries: dict[str, int] = field(default_factory=dict)
    _tenant_requests_lost: dict[str, int] = field(default_factory=dict)
    _prefix_admissions: int = 0
    _prefix_hit_tokens: int = 0
    _prefix_miss_tokens: int = 0
    _prefix_saved_s: float = 0.0
    _prefix_saved_energy_j: float = 0.0
    _prefix_peak_shared_tokens: int = 0
    effective_batch: int = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_stage(
        self,
        latency_s: float,
        is_mixed: bool,
        decode_tokens: int,
        total_tokens_generated: int,
        dram_energy: dict[OpCategory, float],
        compute_energy: dict[OpCategory, float],
        comm_energy_j: float,
    ) -> None:
        """Record one executed stage.

        Args:
            latency_s: stage latency.
            is_mixed: whether a prefill participated.
            decode_tokens: tokens produced by ongoing decodes (TBT samples).
            total_tokens_generated: all tokens produced (decode + first
                tokens of prefills).
            dram_energy / compute_energy / comm_energy_j: stage energy split.
        """
        if latency_s <= 0:
            raise SimulationError("stage latency must be positive")
        self._stages_total += 1
        if is_mixed:
            self._stages_mixed += 1
        if decode_tokens > 0:
            index = self._reserve_tbt(1)
            self._tbt_values[index] = latency_s
            self._tbt_weights[index] = decode_tokens
        self._tokens += total_tokens_generated
        self._elapsed_s += latency_s
        self._busy_s += latency_s
        self._add_energy(dram_energy, compute_energy, comm_energy_j)

    def _reserve_tbt(self, n: int) -> int:
        """Claim ``n`` TBT slots past the filled prefix; return the first."""
        start = self._tbt_count
        end = start + n
        if end > self._tbt_values.size:
            capacity = max(end, 2 * self._tbt_values.size)
            values = np.empty(capacity)
            values[:start] = self._tbt_values[:start]
            weights = np.empty(capacity)
            weights[:start] = self._tbt_weights[:start]
            self._tbt_values, self._tbt_weights = values, weights
        self._tbt_count = end
        return start

    def _tbt_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(latency, token weight) views of every TBT sample, in record order."""
        count = self._tbt_count
        return self._tbt_values[:count], self._tbt_weights[:count]

    def record_decode_run(
        self,
        latencies: np.ndarray,
        decode_tokens: int,
        energy_components: Sequence[tuple[str, np.ndarray]],
        comm_energy_per_stage_j: float,
    ) -> None:
        """Record a run of consecutive decode-only stages in one call.

        The batched twin of per-stage :meth:`record_stage` for the
        columnar fast path: every accumulator lands on the exact floats
        ``n`` sequential ``record_stage`` calls would produce (seeded
        cumulative sums reproduce left-to-right addition order bit for
        bit; the TBT columns receive the same samples in the same order).

        Args:
            latencies: per-stage latencies of the run, in stage order.
            decode_tokens: decode tokens per stage (the batch width; in a
                steady decode run it is also the total generated per
                stage).
            energy_components: ordered ``(component key, per-stage
                joules vector)`` pairs, in the key order sequential
                stages would first insert them.
            comm_energy_per_stage_j: constant per-stage fabric energy
                (0.0 records nothing, matching the scalar truthiness
                gate).
        """
        n = int(latencies.size)
        if n == 0:
            return
        if float(latencies.min()) <= 0:
            raise SimulationError("stage latency must be positive")
        self._stages_total += n
        self._tokens += decode_tokens * n
        self._elapsed_s = float(
            np.concatenate(([self._elapsed_s], latencies)).cumsum()[-1]
        )
        self._busy_s = float(np.concatenate(([self._busy_s], latencies)).cumsum()[-1])
        if decode_tokens > 0:
            start = self._reserve_tbt(n)
            self._tbt_values[start : start + n] = latencies
            self._tbt_weights[start : start + n] = decode_tokens
        components = self._energy_by_component
        for key, joules in energy_components:
            components[key] = float(
                np.concatenate(([components.get(key, 0.0)], joules)).cumsum()[-1]
            )
        if comm_energy_per_stage_j:
            fabric = np.full(n, comm_energy_per_stage_j)
            components["fabric"] = float(
                np.concatenate(([components.get("fabric", 0.0)], fabric)).cumsum()[-1]
            )

    def _add_energy(
        self,
        dram_energy: dict[OpCategory, float],
        compute_energy: dict[OpCategory, float],
        comm_energy_j: float,
    ) -> None:
        components = self._energy_by_component
        for category, joules in dram_energy.items():
            key = _DRAM_KEYS[category]
            components[key] = components.get(key, 0.0) + joules
        for category, joules in compute_energy.items():
            key = _COMPUTE_KEYS[category]
            components[key] = components.get(key, 0.0) + joules
        if comm_energy_j:
            components["fabric"] = components.get("fabric", 0.0) + comm_energy_j

    # ------------------------------------------------------------------
    # KV paging (evict/resume under memory pressure)
    # ------------------------------------------------------------------
    def record_preemption(self, migrated_tokens: int, host_link_s: float) -> None:
        """Record one KV eviction (tokens leave the device under MIGRATE)."""
        self._preemptions += 1
        self._migrated_out_tokens += migrated_tokens
        self._host_link_s += host_link_s

    def record_paging_resume(
        self,
        migrated_tokens: int = 0,
        recomputed_tokens: int = 0,
        host_link_s: float = 0.0,
        replay_s: float = 0.0,
        dram_energy: dict[OpCategory, float] | None = None,
        compute_energy: dict[OpCategory, float] | None = None,
        comm_energy_j: float = 0.0,
    ) -> None:
        """Record one resume: KV streaming back, or a replayed prefill.

        A RECOMPUTE resume carries the replayed prefill's energy (the
        real cost of dropping KV), which folds into the same per-category
        energy components regular stages use — so ``energy_per_token_j``
        honestly reflects recomputation.
        """
        self._paging_resumes += 1
        self._migrated_in_tokens += migrated_tokens
        self._recomputed_tokens += recomputed_tokens
        self._host_link_s += host_link_s
        self._replay_s += replay_s
        if dram_energy or compute_energy or comm_energy_j:
            self._add_energy(dram_energy or {}, compute_energy or {}, comm_energy_j)

    def _paging_summary(self) -> dict[str, float]:
        """Paging counters for the report (empty when nothing ever paged)."""
        if not self._preemptions and not self._paging_resumes:
            return {}
        return {
            "preemptions": float(self._preemptions),
            "resumes": float(self._paging_resumes),
            "migrated_out_tokens": float(self._migrated_out_tokens),
            "migrated_in_tokens": float(self._migrated_in_tokens),
            "recomputed_tokens": float(self._recomputed_tokens),
            "host_link_s": self._host_link_s,
            "replay_s": self._replay_s,
        }

    # ------------------------------------------------------------------
    # shared-prefix dedup (radix KV cache)
    # ------------------------------------------------------------------
    def record_prefix_admission(
        self,
        hit_tokens: int,
        miss_tokens: int,
        saved_s: float = 0.0,
        saved_energy_j: float = 0.0,
    ) -> None:
        """Record one prefix-carrying admission.

        Args:
            hit_tokens: prefill tokens skipped (the cached span).
            miss_tokens: declared prefix tokens the request still had to
                compute itself (cold blocks it inserts for later turns).
            saved_s / saved_energy_j: the counterfactual cost of the
                skipped prefill, priced by the owning engine's executor.
        """
        self._prefix_admissions += 1
        self._prefix_hit_tokens += hit_tokens
        self._prefix_miss_tokens += miss_tokens
        self._prefix_saved_s += saved_s
        self._prefix_saved_energy_j += saved_energy_j

    def record_prefix_residency(self, peak_tokens: int) -> None:
        """Track the shared pool's high-water mark (monotone max)."""
        if peak_tokens > self._prefix_peak_shared_tokens:
            self._prefix_peak_shared_tokens = peak_tokens

    def _prefix_summary(self) -> dict[str, float]:
        """Prefix counters for the report (empty when dedup never fired)."""
        if not self._prefix_admissions:
            return {}
        return {
            "admissions": float(self._prefix_admissions),
            "hit_tokens": float(self._prefix_hit_tokens),
            "miss_tokens": float(self._prefix_miss_tokens),
            "saved_prefill_s": self._prefix_saved_s,
            "saved_energy_j": self._prefix_saved_energy_j,
            "peak_shared_tokens": float(self._prefix_peak_shared_tokens),
        }

    # ------------------------------------------------------------------
    # failures and recovery (the fault-injection subsystem)
    # ------------------------------------------------------------------
    def record_crash(self, device_level: bool = False) -> None:
        """Record one replica crash (``device_level`` when a single device
        failure took the whole replica down)."""
        self._crashes += 1
        if device_level:
            self._device_failures += 1

    def record_lost_work(
        self,
        generated_tokens: int,
        prefill_tokens: int,
        replay_s: float = 0.0,
        replay_energy_j: float = 0.0,
    ) -> None:
        """Record one in-flight request's KV lost to a crash.

        ``replay_s``/``replay_energy_j`` estimate what re-running the
        lost prefill will cost on the retry target — the honest price of
        the crash, attributed where the work was lost.
        """
        self._lost_generated_tokens += generated_tokens
        self._lost_prefill_tokens += prefill_tokens
        self._re_prefill_s += replay_s
        self._re_prefill_energy_j += replay_energy_j

    def record_retry(
        self,
        tenant: str | None = None,
        backoff_s: float = 0.0,
        migrate_recovery: bool = False,
    ) -> None:
        """Record one re-admission of a request lost by a crash.

        ``migrate_recovery`` marks retries that resumed from a surviving
        host-side KV copy instead of re-running the prefill.
        """
        self._retries += 1
        self._retry_backoff_s += backoff_s
        if migrate_recovery:
            self._migrate_recoveries += 1
        if tenant is not None:
            self._tenant_retries[tenant] = self._tenant_retries.get(tenant, 0) + 1

    def record_request_lost(self, tenant: str | None = None) -> None:
        """Record one request permanently lost (retry budget exhausted)."""
        self._requests_lost += 1
        if tenant is not None:
            self._tenant_requests_lost[tenant] = (
                self._tenant_requests_lost.get(tenant, 0) + 1
            )

    def record_unavailability(self, seconds: float) -> None:
        """Record fleet capacity-outage time (crash to replacement/repair)."""
        if seconds < 0:
            raise SimulationError("unavailability cannot be negative")
        self._unavailability_s += seconds

    def retract_first_token(
        self, t2ft_s: float, tenant: str | None = None, slo_s: float | None = None
    ) -> None:
        """Reverse one :meth:`record_first_token` (crash harvest).

        A crashed replica may have produced a request's first token
        before dying; the request re-runs elsewhere and will re-record a
        (later, honest) T2FT, so the dead replica's sample must come
        out — including its tenant SLO tally.  A sample never recorded
        (warm-up gated) retracts to a no-op.
        """
        try:
            self._t2ft.remove(t2ft_s)
        except ValueError:
            return  # never recorded (warm-up gate): nothing to reverse
        if tenant is not None:
            samples = self._tenant_t2ft.get(tenant)
            if samples is not None:
                with contextlib.suppress(ValueError):
                    samples.remove(t2ft_s)
            if slo_s is not None and self._tenant_t2ft_slo_total.get(tenant, 0) > 0:
                self._tenant_t2ft_slo_total[tenant] -= 1
                if t2ft_s <= slo_s and self._tenant_t2ft_slo_met.get(tenant, 0) > 0:
                    self._tenant_t2ft_slo_met[tenant] -= 1

    @property
    def fault_activity(self) -> bool:
        """Whether any failure/recovery event was ever recorded."""
        return bool(
            self._crashes
            or self._retries
            or self._requests_lost
            or self._unavailability_s
        )

    def _fault_summary(self) -> dict[str, float]:
        """Failure counters for the report (empty when nothing failed)."""
        if not self.fault_activity:
            return {}
        return {
            "crashes": float(self._crashes),
            "device_failures": float(self._device_failures),
            "retries": float(self._retries),
            "migrate_recoveries": float(self._migrate_recoveries),
            "requests_lost": float(self._requests_lost),
            "lost_generated_tokens": float(self._lost_generated_tokens),
            "lost_prefill_tokens": float(self._lost_prefill_tokens),
            "re_prefill_s": self._re_prefill_s,
            "re_prefill_energy_j": self._re_prefill_energy_j,
            "retry_backoff_s": self._retry_backoff_s,
            "unavailability_s": self._unavailability_s,
        }

    def record_first_token(
        self, t2ft_s: float, tenant: str | None = None, slo_s: float | None = None
    ) -> None:
        """Record a T2FT sample (known at first token, before completion).

        Args:
            tenant: tenant the request belongs to (multi-tenant scenarios).
            slo_s: the request's own T2FT objective; tenant SLO attainment
                is the share of a tenant's samples meeting their carried SLO.
        """
        self._t2ft.append(t2ft_s)
        if tenant is not None:
            self._tenant_t2ft.setdefault(tenant, []).append(t2ft_s)
            if slo_s is not None:
                self._tenant_t2ft_slo_total[tenant] = (
                    self._tenant_t2ft_slo_total.get(tenant, 0) + 1
                )
                if t2ft_s <= slo_s:
                    self._tenant_t2ft_slo_met[tenant] = (
                        self._tenant_t2ft_slo_met.get(tenant, 0) + 1
                    )

    def record_completion(self, e2e_s: float, tenant: str | None = None) -> None:
        """Record an E2E sample (the request's T2FT was recorded earlier)."""
        self._e2e.append(e2e_s)
        self._requests_completed += 1
        if tenant is not None:
            self._tenant_e2e.setdefault(tenant, []).append(e2e_s)

    def record_idle(self, seconds: float) -> None:
        """Advance measured time without work (open-loop idle gaps)."""
        if seconds < 0:
            raise SimulationError("idle time cannot be negative")
        self._elapsed_s += seconds

    # ------------------------------------------------------------------
    # fleet aggregation
    # ------------------------------------------------------------------
    @classmethod
    def merged(cls, collectors: Sequence[MetricsCollector]) -> MetricsCollector:
        """Pool several replicas' samples into one fleet-level collector.

        Latency samples, tokens, stage counts, and energy are concatenated/
        summed; elapsed time is the *maximum* across replicas, because
        replicas serve concurrently — fleet throughput is total tokens over
        the fleet's wall clock, not over the sum of per-replica clocks.
        """
        fleet = cls()
        if collectors:
            columns = [collector._tbt_columns() for collector in collectors]
            fleet._tbt_values = np.concatenate([values for values, _ in columns])
            fleet._tbt_weights = np.concatenate([weights for _, weights in columns])
            fleet._tbt_count = fleet._tbt_values.size
        for collector in collectors:
            fleet._t2ft.extend(collector._t2ft)
            fleet._e2e.extend(collector._e2e)
            fleet._stages_total += collector._stages_total
            fleet._stages_mixed += collector._stages_mixed
            fleet._tokens += collector._tokens
            fleet._elapsed_s = max(fleet._elapsed_s, collector._elapsed_s)
            fleet._busy_s += collector._busy_s
            fleet._requests_completed += collector._requests_completed
            fleet._preemptions += collector._preemptions
            fleet._paging_resumes += collector._paging_resumes
            fleet._migrated_out_tokens += collector._migrated_out_tokens
            fleet._migrated_in_tokens += collector._migrated_in_tokens
            fleet._recomputed_tokens += collector._recomputed_tokens
            fleet._host_link_s += collector._host_link_s
            fleet._replay_s += collector._replay_s
            fleet._crashes += collector._crashes
            fleet._device_failures += collector._device_failures
            fleet._retries += collector._retries
            fleet._migrate_recoveries += collector._migrate_recoveries
            fleet._requests_lost += collector._requests_lost
            fleet._lost_generated_tokens += collector._lost_generated_tokens
            fleet._lost_prefill_tokens += collector._lost_prefill_tokens
            fleet._re_prefill_s += collector._re_prefill_s
            fleet._re_prefill_energy_j += collector._re_prefill_energy_j
            fleet._retry_backoff_s += collector._retry_backoff_s
            fleet._unavailability_s += collector._unavailability_s
            fleet._prefix_admissions += collector._prefix_admissions
            fleet._prefix_hit_tokens += collector._prefix_hit_tokens
            fleet._prefix_miss_tokens += collector._prefix_miss_tokens
            fleet._prefix_saved_s += collector._prefix_saved_s
            fleet._prefix_saved_energy_j += collector._prefix_saved_energy_j
            # Summed, not maxed: each replica owns a distinct pool, so the
            # fleet's shared-residency footprint is the sum of per-replica
            # high-water marks (an upper bound on concurrent usage).
            fleet._prefix_peak_shared_tokens += collector._prefix_peak_shared_tokens
            for tenant, count in collector._tenant_retries.items():
                fleet._tenant_retries[tenant] = (
                    fleet._tenant_retries.get(tenant, 0) + count
                )
            for tenant, count in collector._tenant_requests_lost.items():
                fleet._tenant_requests_lost[tenant] = (
                    fleet._tenant_requests_lost.get(tenant, 0) + count
                )
            fleet.effective_batch += collector.effective_batch
            for key, joules in collector._energy_by_component.items():
                fleet._energy_by_component[key] = (
                    fleet._energy_by_component.get(key, 0.0) + joules
                )
            for tenant, samples in collector._tenant_t2ft.items():
                fleet._tenant_t2ft.setdefault(tenant, []).extend(samples)
            for tenant, samples in collector._tenant_e2e.items():
                fleet._tenant_e2e.setdefault(tenant, []).extend(samples)
            for tenant, met in collector._tenant_t2ft_slo_met.items():
                fleet._tenant_t2ft_slo_met[tenant] = (
                    fleet._tenant_t2ft_slo_met.get(tenant, 0) + met
                )
            for tenant, total in collector._tenant_t2ft_slo_total.items():
                fleet._tenant_t2ft_slo_total[tenant] = (
                    fleet._tenant_t2ft_slo_total.get(tenant, 0) + total
                )
        return fleet

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def stages_recorded(self) -> int:
        return self._stages_total

    @property
    def busy_s(self) -> float:
        """Recorded stage time, idle excluded (utilization numerator).

        Merged fleet collectors *sum* busy time (total work done) while
        ``elapsed`` takes the max (wall clock), so a fleet's mean
        utilization is ``busy_s / (n * elapsed)``.
        """
        return self._busy_s

    @property
    def elapsed_s(self) -> float:
        """Recorded wall-clock time so far (stage latencies plus idle)."""
        return self._elapsed_s

    @property
    def t2ft_samples(self) -> Sequence[float]:
        """T2FT samples recorded so far, in record order (read-only).

        The autoscaling controller polls this incrementally (a cursor per
        replica) to maintain rolling SLO-attainment windows without the
        collector having to timestamp every sample.
        """
        return self._t2ft

    def tbt_samples_since(
        self, cursor: int, max_samples: int
    ) -> tuple[list[float], list[float], int]:
        """Incremental TBT poll: the newest samples recorded after ``cursor``.

        Returns ``(values, weights, new_cursor)`` where the cursor is an
        opaque monotone sample count (start from 0).  At most the newest
        ``max_samples`` samples are returned: a sliding-window consumer
        passes its window length, since older samples would be evicted
        from its window anyway.
        """
        count = self._tbt_count
        start = max(cursor, count - max_samples)
        if start >= count:
            return [], [], count
        return (
            self._tbt_values[start:count].tolist(),
            self._tbt_weights[start:count].tolist(),
            count,
        )

    def tbt_slo_attainment(self, slo_s: float) -> float:
        """Fraction of generated tokens whose TBT met ``slo_s``.

        The service-level objective the paper's Section III invokes when
        bounding practical batch sizes.
        """
        if slo_s <= 0:
            raise ConfigError("SLO must be positive")
        if not self._tbt_count:
            raise SimulationError("no TBT samples recorded")
        values, weights = self._tbt_columns()
        met = weights[values <= slo_s].sum()
        return float(met / weights.sum())

    def t2ft_slo_attainment(self, slo_s: float) -> float:
        """Fraction of requests whose time-to-first-token met ``slo_s``."""
        if slo_s <= 0:
            raise ConfigError("SLO must be positive")
        if not self._t2ft:
            raise SimulationError("no T2FT samples recorded")
        met = sum(1 for value in self._t2ft if value <= slo_s)
        return met / len(self._t2ft)

    def _per_tenant_summary(self) -> dict[str, dict[str, float]]:
        """Tenant name -> summary, with names sorted for determinism."""
        names = sorted(
            set(self._tenant_t2ft)
            | set(self._tenant_e2e)
            | set(self._tenant_retries)
            | set(self._tenant_requests_lost)
        )
        summary: dict[str, dict[str, float]] = {}
        for name in names:
            t2ft = self._tenant_t2ft.get(name, [])
            e2e = self._tenant_e2e.get(name, [])
            entry: dict[str, float] = {
                "requests_completed": float(len(e2e)),
                "t2ft_p50_s": float(np.median(t2ft)) if t2ft else 0.0,
                "e2e_p50_s": float(np.median(e2e)) if e2e else 0.0,
            }
            total = self._tenant_t2ft_slo_total.get(name, 0)
            if total:
                entry["t2ft_slo_attainment"] = (
                    self._tenant_t2ft_slo_met.get(name, 0) / total
                )
            # Failure-recovery keys appear only when the tenant was ever
            # touched by a fault — faults-off summaries stay byte-stable.
            retries = self._tenant_retries.get(name, 0)
            if retries:
                entry["retries"] = float(retries)
            lost = self._tenant_requests_lost.get(name, 0)
            if lost:
                entry["requests_lost"] = float(lost)
            summary[name] = entry
        return summary

    def report(self) -> ServingReport:
        """Summarise everything recorded so far."""
        if self._stages_total == 0:
            raise SimulationError("no stages recorded")
        tbt_values, tbt_weights = self._tbt_columns()
        if tbt_values.size == 0:
            tbt_values = np.asarray([0.0])
            tbt_weights = np.asarray([1.0])
        total_energy = sum(self._energy_by_component.values())
        return ServingReport(
            tokens_generated=self._tokens,
            elapsed_s=self._elapsed_s,
            throughput_tokens_per_s=self._tokens / self._elapsed_s if self._elapsed_s > 0 else 0.0,
            tbt_p50_s=weighted_percentile(tbt_values, tbt_weights, 50),
            tbt_p90_s=weighted_percentile(tbt_values, tbt_weights, 90),
            tbt_p99_s=weighted_percentile(tbt_values, tbt_weights, 99),
            t2ft_p50_s=float(np.median(self._t2ft)) if self._t2ft else 0.0,
            e2e_p50_s=float(np.median(self._e2e)) if self._e2e else 0.0,
            decoding_only_stage_ratio=1.0 - self._stages_mixed / self._stages_total,
            energy_per_token_j=total_energy / self._tokens if self._tokens else 0.0,
            energy_by_component=dict(self._energy_by_component),
            requests_completed=self._requests_completed,
            effective_batch=self.effective_batch,
            per_tenant=self._per_tenant_summary(),
            paging=self._paging_summary(),
            faults=self._fault_summary(),
            prefix=self._prefix_summary(),
        )

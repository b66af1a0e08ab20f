"""Fault-tolerance tests (marked ``chaos``).

Five layers:

* unit tests — RNG stream derivation, stage-time profiles, config
  validation, crash sampling (trace precedence, device blast radius);
* the stream-isolation regression — an armed-but-quiescent
  :class:`FaultInjector` (empty schedule, or a crash trace beyond the
  simulated horizon) leaves every report field byte-identical to a run
  with no injector at all;
* recovery units — host-KV adoption and crash-harvest bookkeeping on the
  :class:`PagedKvManager`;
* the replica crash harvest — a split replica stopped mid-pipeline and a
  MIGRATE-paged replica hand back every unfinished request exactly once
  and leave clean accounting;
* the end-to-end acceptance scenario — a fixed seeded crash schedule
  against a two-replica fleet: the retry stack completes every retryable
  request (zero permanently lost), conserves generated tokens against
  the lost-work ledger, prices the outage window exactly, and beats the
  no-retry baseline, whose tail latency diverges once lost requests are
  counted as unbounded samples.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.system import duplex_system
from repro.errors import CapacityError, ConfigError, SchedulingError
from repro.experiments.chaos import _p99_with_lost
from repro.models.config import mixtral
from repro.serving.cluster import (
    ClusterSimulator,
    MonolithicReplicaSpec,
    ReplicaState,
    SplitReplicaSpec,
)
from repro.serving.faults import (
    FaultConfig,
    FaultInjector,
    RetryPolicy,
    StageTimeProfile,
    stream_seed,
)
from repro.serving.generator import WorkloadSpec
from repro.serving.metrics import MetricsCollector
from repro.serving.paging import PagedKvManager, PagingConfig
from repro.serving.simulator import SimulationLimits
from repro.serving.trace import TraceRecord, TraceReplayGenerator

pytestmark = pytest.mark.chaos

MODEL = mixtral()
SYSTEM = duplex_system(MODEL, co_processing=True, expert_tensor_parallel=True)


# ----------------------------------------------------------------------
# RNG stream derivation
# ----------------------------------------------------------------------
class TestStreamSeed:
    def test_none_passes_through(self):
        assert stream_seed(None, "faults") is None

    def test_reproducible(self):
        assert stream_seed(7, "faults") == stream_seed(7, "faults")

    def test_distinct_names_distinct_streams(self):
        names = ("faults", "workload", "router", "gating")
        seeds = {stream_seed(7, name) for name in names}
        assert len(seeds) == len(names)

    def test_distinct_seeds_distinct_streams(self):
        assert stream_seed(7, "faults") != stream_seed(8, "faults")

    def test_not_the_raw_seed(self):
        # The child stream must not alias the root stream.
        assert stream_seed(7, "faults") != 7


# ----------------------------------------------------------------------
# stage-time profiles
# ----------------------------------------------------------------------
class TestStageTimeProfile:
    def test_empty_profile_is_identity(self):
        profile = StageTimeProfile(())
        assert profile.scale_at(0.0) == 1.0
        assert profile.scale_at(1e9) == 1.0
        assert profile.next_change_s(0.0) == float("inf")

    def test_windows_scale_inside_only(self):
        profile = StageTimeProfile(((1.0, 2.0, 3.0), (5.0, 6.0, 2.0)))
        assert profile.scale_at(0.5) == 1.0
        assert profile.scale_at(1.0) == 3.0
        assert profile.scale_at(1.999) == 3.0
        assert profile.scale_at(2.0) == 1.0  # end-exclusive
        assert profile.scale_at(5.5) == 2.0
        assert profile.scale_at(10.0) == 1.0

    def test_next_change_is_start_outside_end_inside(self):
        profile = StageTimeProfile(((1.0, 2.0, 3.0),))
        assert profile.next_change_s(0.5) == 1.0
        assert profile.next_change_s(1.5) == 2.0
        assert profile.next_change_s(2.5) == float("inf")

    def test_cursor_survives_repeated_reads(self):
        profile = StageTimeProfile(((1.0, 2.0, 3.0), (5.0, 6.0, 2.0)))
        # Monotone reads (the engine clock never goes backwards).
        assert [profile.scale_at(t) for t in (0.0, 1.5, 1.5, 3.0, 5.0, 7.0)] == [
            1.0, 3.0, 3.0, 1.0, 2.0, 1.0,
        ]


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
class TestFaultConfigValidation:
    def test_rates_must_be_positive(self):
        with pytest.raises(ConfigError):
            FaultConfig(crash_mtbf_s=0.0)
        with pytest.raises(ConfigError):
            FaultConfig(device_mtbf_s=-1.0)
        with pytest.raises(ConfigError):
            FaultConfig(crash_mttr_s=0.0)

    def test_detection_latency_non_negative(self):
        with pytest.raises(ConfigError):
            FaultConfig(detection_latency_s=-0.1)
        FaultConfig(detection_latency_s=0.0)  # instant detection is legal

    def test_factors_are_slowdowns(self):
        with pytest.raises(ConfigError):
            FaultConfig(straggler_mtbf_s=10.0, straggler_factor=0.5, horizon_s=100.0)
        with pytest.raises(ConfigError):
            FaultConfig(link_mtbf_s=10.0, link_factor=0.9, horizon_s=100.0)

    def test_window_schedules_require_horizon(self):
        with pytest.raises(ConfigError, match="horizon"):
            FaultConfig(straggler_mtbf_s=10.0)
        with pytest.raises(ConfigError, match="horizon"):
            FaultConfig(link_mtbf_s=10.0)

    def test_crash_trace_entries_validated_and_normalized(self):
        with pytest.raises(ConfigError):
            FaultConfig(crash_times=((-1.0, 0),))
        with pytest.raises(ConfigError):
            FaultConfig(crash_times=((1.0, -2),))
        assert FaultConfig(crash_times=((1, 0),)).crash_times == ((1.0, 0),)


class TestRetryPolicyValidation:
    def test_bounds(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_base_s=0.0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter_fraction=1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(per_tenant_budget=-1)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_multiplier=2.0, jitter_fraction=0.0)
        assert policy.delay_s(2) == pytest.approx(0.1)
        assert policy.delay_s(3) == pytest.approx(0.2)
        assert policy.delay_s(4) == pytest.approx(0.4)

    def test_jitter_stays_inside_fraction(self):
        policy = RetryPolicy(backoff_base_s=0.1, jitter_fraction=0.25)
        rng = np.random.default_rng(0)
        delays = [policy.delay_s(2, rng) for _ in range(200)]
        assert all(0.075 <= d <= 0.125 for d in delays)
        assert len(set(delays)) > 1  # the jitter actually draws


# ----------------------------------------------------------------------
# crash sampling
# ----------------------------------------------------------------------
class TestSampleCrash:
    def test_no_sources_schedules_nothing(self):
        injector = FaultInjector(FaultConfig(), seed=0)
        assert injector.sample_crash(0, 0.0) is None

    def test_trace_is_replayed_per_index(self):
        injector = FaultInjector(
            FaultConfig(crash_times=((4.0, 0), (9.0, 1))), seed=0
        )
        assert injector.sample_crash(0, 0.0) == (4.0, "replica")
        assert injector.sample_crash(1, 0.0) == (9.0, "replica")
        assert injector.sample_crash(2, 0.0) is None

    def test_trace_respects_activation_instant(self):
        # A crash scheduled before the replica existed never fires on it.
        injector = FaultInjector(FaultConfig(crash_times=((4.0, 0),)), seed=0)
        assert injector.sample_crash(0, 5.0) is None

    def test_trace_beats_a_later_mtbf_draw(self):
        injector = FaultInjector(
            FaultConfig(crash_mtbf_s=1e12, crash_times=((4.0, 0),)), seed=0
        )
        assert injector.sample_crash(0, 0.0) == (4.0, "replica")

    def test_horizon_bounds_sampled_crashes(self):
        injector = FaultInjector(FaultConfig(crash_mtbf_s=1e9, horizon_s=1.0), seed=0)
        assert injector.sample_crash(0, 0.0) is None

    def test_device_only_failures_are_device_caused(self):
        injector = FaultInjector(FaultConfig(device_mtbf_s=100.0), seed=0)
        sampled = injector.sample_crash(0, 0.0, n_devices=4)
        assert sampled is not None and sampled[1] == "device"

    def test_wider_replicas_fail_proportionally_sooner(self):
        # The device-failure rate scales with the device footprint: the
        # blast-radius asymmetry the chaos sweep quantifies.
        narrow = FaultInjector(FaultConfig(device_mtbf_s=1000.0), seed=3)
        wide = FaultInjector(FaultConfig(device_mtbf_s=1000.0), seed=3)
        mean_narrow = np.mean([narrow.sample_crash(0, 0.0, 1)[0] for _ in range(300)])
        mean_wide = np.mean([wide.sample_crash(0, 0.0, 8)[0] for _ in range(300)])
        assert mean_wide == pytest.approx(mean_narrow / 8.0)

    def test_unseeded_injector_binds_once(self):
        injector = FaultInjector(FaultConfig(crash_mtbf_s=10.0))
        injector.bind(5)
        injector.bind(99)  # no-op: already bound
        reference = FaultInjector(FaultConfig(crash_mtbf_s=10.0), seed=5)
        assert injector.sample_crash(0, 0.0) == reference.sample_crash(0, 0.0)


class TestWindowSchedules:
    def test_straggler_windows_cached_per_replica(self):
        injector = FaultInjector(
            FaultConfig(straggler_mtbf_s=20.0, straggler_duration_s=5.0,
                        straggler_factor=2.0, horizon_s=200.0),
            seed=0,
        )
        first = injector.straggler_windows(0)
        assert injector.straggler_windows(0) == first  # sampled once
        assert first, "a 200s horizon at 20s MTBF should sample windows"
        for start, end, factor in first:
            assert 0.0 <= start < 200.0
            assert end == pytest.approx(start + 5.0)
            assert factor == 2.0
        # Sorted and non-overlapping.
        for (_, prev_end, _), (start, _, _) in zip(first, first[1:], strict=False):
            assert start >= prev_end

    def test_link_windows_shared_with_per_replica_cursors(self):
        injector = FaultInjector(
            FaultConfig(link_mtbf_s=20.0, link_duration_s=10.0,
                        link_factor=4.0, horizon_s=200.0),
            seed=0,
        )
        assert injector.link_windows() == injector.link_windows()
        a, b = injector.link_profile(), injector.link_profile()
        assert a is not b  # independent cursors (replica clocks diverge)
        assert a.windows == b.windows  # over one shared schedule

    def test_disabled_schedules_sample_nothing(self):
        injector = FaultInjector(FaultConfig(), seed=0)
        assert injector.straggler_windows(0) == ()
        assert injector.straggler_profile(0) is None
        assert injector.link_windows() == ()
        assert injector.link_profile() is None


# ----------------------------------------------------------------------
# the stream-isolation regression (satellite of the failure model)
# ----------------------------------------------------------------------
QUIET_LIMITS = SimulationLimits(max_stages=300, warmup_stages=20)


def quiet_cluster(**kwargs):
    spec = WorkloadSpec(lin_mean=1024, lout_mean=128, lin_cv=0.5, lout_cv=0.5, qps=40.0)
    return ClusterSimulator(
        SYSTEM, MODEL, spec, n_replicas=2, max_batch=8, seed=3, max_requests=60, **kwargs
    )


def assert_reports_identical(a, b):
    for field in dataclasses.fields(a):
        assert getattr(a, field.name) == getattr(b, field.name), (
            f"field {field.name} diverges under an armed-but-quiescent injector"
        )


class TestQuiescentByteIdentity:
    """Arming an injector that injects nothing must not perturb the run."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return quiet_cluster().run(QUIET_LIMITS)

    def test_empty_schedule_is_byte_identical(self, baseline):
        armed = quiet_cluster(
            faults=FaultInjector(FaultConfig()), retry=RetryPolicy()
        ).run(QUIET_LIMITS)
        assert_reports_identical(baseline, armed)
        assert armed.fleet.faults == {}

    def test_beyond_horizon_trace_is_byte_identical(self, baseline):
        # The crash is armed (heap entry, capped advances) but never
        # fires inside the simulated work — still byte-identical.
        faults = FaultInjector(
            FaultConfig(crash_times=((1e9, 0),), crash_mttr_s=5.0)
        )
        armed = quiet_cluster(faults=faults, retry=RetryPolicy()).run(QUIET_LIMITS)
        assert_reports_identical(baseline, armed)
        assert armed.fleet.faults == {}


# ----------------------------------------------------------------------
# recovery units: host-KV adoption on the capacity manager
# ----------------------------------------------------------------------
class TestManagerCrashRecovery:
    def _manager(self, **kwargs):
        return PagedKvManager(capacity_tokens=1000, kv_bytes_per_token=2.0, **kwargs)

    def test_forget_drops_resident_and_evicted(self):
        manager = self._manager()
        manager.admit(1, 100)
        manager.admit(2, 200)
        manager.evict(2, 150)
        manager.forget(1)
        manager.forget(2)
        manager.forget(99)  # unknown ids tolerated: crash harvest, not bookkeeping
        assert manager.resident_tokens == 0
        assert manager.evicted_tokens == 0
        manager.admit(1, 100)  # no phantom-id collision after forget

    def test_adopt_registers_without_pricing_a_transfer(self):
        manager = self._manager()
        manager.adopt_evicted(5, 300)
        assert manager.evicted_tokens == 300
        assert manager.stats.migrated_in_bytes == 0.0  # the copy is already host-side
        outcome = manager.resume(5, 250)
        assert manager.resident_tokens == 300
        assert outcome.transfer_time_s > 0.0  # the inbound leg is priced normally

    def test_adopt_validates(self):
        manager = self._manager()
        with pytest.raises(ConfigError):
            manager.adopt_evicted(5, 0)
        manager.admit(1, 100)
        with pytest.raises(SchedulingError):
            manager.adopt_evicted(1, 100)  # already tracked here
        bounded = self._manager(host_capacity_tokens=200)
        with pytest.raises(CapacityError, match="adopted"):
            bounded.adopt_evicted(5, 300)


# ----------------------------------------------------------------------
# crash harvest: every unfinished request comes back exactly once
# ----------------------------------------------------------------------
HARVEST_LIMITS = SimulationLimits(max_stages=60_000, warmup_stages=0)

#: case -> (replica spec, n requests, input/output length, arrival
#: spacing, max batch, stop instant, paging).
HARVEST_CASES = {
    # Stopped mid-pipeline: a request in the inbox, KV transfers in
    # flight between the partitions, and a request decoding.
    "split": (SplitReplicaSpec(), 40, 2048, 64, 0.01, 16, 0.05, None),
    # Stopped with requests decoding and others MIGRATE-parked on host
    # memory (their KV survives the crash).
    "paged-migrate": (
        MonolithicReplicaSpec(), 24, 150_000, 300, 0.05, 16, 4.0, PagingConfig()
    ),
}


def stopped_replica(case):
    """A one-replica cluster routed and advanced to the case's stop instant."""
    spec, n, input_len, output_len, spacing_s, max_batch, stop_s, paging = HARVEST_CASES[case]
    trace = TraceReplayGenerator(
        [
            TraceRecord(arrival_s=i * spacing_s, input_len=input_len, output_len=output_len)
            for i in range(n)
        ]
    )
    sim = ClusterSimulator(
        SYSTEM, MODEL, trace, replicas=(spec,), max_batch=max_batch, seed=1, paging=paging
    )
    sim._begin_run(HARVEST_LIMITS)
    while sim.source.peek_arrival() <= stop_s:
        sim._route_arrival(sim.source.peek_arrival())
    handle = sim.handles[0]
    handle.driver.advance_to(stop_s, HARVEST_LIMITS)
    return handle


class TestCrashHarvest:
    @pytest.mark.parametrize("case", sorted(HARVEST_CASES))
    def test_every_unfinished_request_comes_back_once(self, case):
        handle = stopped_replica(case)
        first, last = handle.engines[0].scheduler, handle.engines[-1].scheduler
        # Trace request ids count up from 0 in arrival order.
        finished = {rid for engine in handle.engines for rid in engine.finished_ids}
        unfinished = set(range(handle.inbox.accepted)) - finished
        expected_queued = list(first.waiting) + list(handle.inbox._queue)
        first_running = list(first.running)
        last_running = list(last.running)
        if case == "split":
            assert len(handle.inbox) and len(last.source) and last_running
        else:
            assert last_running and first.paged_count

        queued, active, parked = handle.harvest_in_flight()

        returned = [r.request_id for r in queued + active] + [r.request_id for r, _ in parked]
        assert sorted(returned) == sorted(unfinished)  # each exactly once
        assert queued == expected_queued
        # Pipeline order: the first engine's batch leads; a split
        # replica's decode batch closes the list.
        assert active[: len(first_running)] == first_running
        if case == "split":
            assert active[len(active) - len(last_running) :] == last_running
        if case == "paged-migrate":
            assert parked
            manager = first.paging.manager
            assert manager.resident_tokens == 0
            assert manager.evicted_tokens == 0
        else:
            assert parked == []
        assert handle.in_flight == 0
        assert all(s.committed_tokens == 0 for s in (first, last))

    def test_queued_requests_come_back_in_arrival_order(self):
        """The queue holds earlier arrivals than the inbox, so it leads.

        Batch 1: the first stage admits request 0 and queues 1 and 2;
        request 3 arrives during that stage and waits in the inbox.
        """
        trace = TraceReplayGenerator(
            [
                TraceRecord(arrival_s=arrival_s, input_len=512, output_len=64)
                for arrival_s in (0.0, 0.0, 0.0, 0.001)
            ]
        )
        sim = ClusterSimulator(SYSTEM, MODEL, trace, n_replicas=1, max_batch=1, seed=1)
        sim._begin_run(HARVEST_LIMITS)
        while sim.source.peek_arrival() < float("inf"):
            sim._route_arrival(sim.source.peek_arrival())
        handle = sim.handles[0]
        assert len(handle.inbox) == 1

        queued, active, _ = handle.harvest_in_flight()

        assert [r.request_id for r in queued] == [1, 2, 3]
        assert [r.request_id for r in active] == [0]


# ----------------------------------------------------------------------
# the fleet calendar: the control tick fires last at its instant
# ----------------------------------------------------------------------
class TestFleetCalendar:
    def test_cadence_sample_sees_every_event_of_its_instant(self):
        """A repair, eight held arrivals and a grid tick all due at 1 s.

        The lone replica crashes at 0.4 s and is detected at 0.5 s, so
        every arrival from 0.55 s on is held for the 1 s repair.  The
        calendar fires the repair and the eight re-routes first; the
        cadence sample of the 1 s tick comes last and reads all eight
        queued.
        """
        trace = TraceReplayGenerator(
            [TraceRecord(arrival_s=0.55 + 0.05 * i, input_len=512, output_len=32) for i in range(8)]
        )
        faults = FaultInjector(
            FaultConfig(crash_times=((0.4, 0),), crash_mttr_s=0.5, detection_latency_s=0.1)
        )
        sim = ClusterSimulator(SYSTEM, MODEL, trace, n_replicas=1, seed=1, faults=faults)
        report = sim.run(SimulationLimits(max_stages=20_000, warmup_stages=0))

        at_repair = [s for s in report.queue_depth_samples if s.time_s == 1.0]
        assert [s.kind for s in at_repair] == ["routing"] * 8 + ["cadence"]
        assert at_repair[-1].depths == (8,)
        assert report.fleet.requests_completed == 8


# ----------------------------------------------------------------------
# straggler windows stretch wall-clock, never energy
# ----------------------------------------------------------------------
STRAGGLER_LIMITS = SimulationLimits(max_stages=20_000, warmup_stages=0)


def straggler_trace():
    # Every request arrives at t=0: admission decisions then depend only
    # on stage boundaries, never on wall-clock, so a stage-time
    # multiplier must scale elapsed time exactly and leave the stage /
    # batch sequence (and with it the energy ledger) untouched.
    return TraceReplayGenerator(
        [TraceRecord(arrival_s=0.0, input_len=512, output_len=32) for _ in range(12)]
    )


def one_replica_cluster():
    return ClusterSimulator(
        SYSTEM, MODEL, straggler_trace(), n_replicas=1, max_batch=8, seed=1
    )


class TestStragglerProfile:
    @pytest.fixture(scope="class")
    def baseline(self):
        return one_replica_cluster().run(STRAGGLER_LIMITS)

    def test_slowdown_stretches_elapsed_not_energy(self, baseline):
        sim = one_replica_cluster()
        for engine in sim.handles[0].engines:
            engine.fault_profile = StageTimeProfile(((0.0, 1e9, 2.0),))
        slow = sim.run(STRAGGLER_LIMITS)
        assert slow.fleet.tokens_generated == baseline.fleet.tokens_generated
        assert slow.fleet.elapsed_s == pytest.approx(2.0 * baseline.fleet.elapsed_s)
        # A straggler wastes wall-clock, not joules per token.
        assert slow.fleet.energy_per_token_j == pytest.approx(
            baseline.fleet.energy_per_token_j
        )

    def test_quiescent_profile_is_byte_identical(self, baseline):
        sim = one_replica_cluster()
        for engine in sim.handles[0].engines:
            engine.fault_profile = StageTimeProfile(())
        assert_reports_identical(baseline, sim.run(STRAGGLER_LIMITS))


# ----------------------------------------------------------------------
# the end-to-end acceptance scenario
# ----------------------------------------------------------------------
N_REQUESTS = 40
OUTPUT_LEN = 128
CRASH_S = 0.5
DETECT_S = 0.2
MTTR_S = 0.5
E2E_LIMITS = SimulationLimits(max_stages=60_000, warmup_stages=0)


def burst_trace():
    return TraceReplayGenerator(
        [
            TraceRecord(arrival_s=i * 0.02, input_len=2048, output_len=OUTPUT_LEN)
            for i in range(N_REQUESTS)
        ]
    )


def crash_cluster(max_attempts, mttr_s=MTTR_S):
    faults = FaultInjector(
        FaultConfig(
            crash_times=((CRASH_S, 0),),
            crash_mttr_s=mttr_s,
            detection_latency_s=DETECT_S,
        )
    )
    return ClusterSimulator(
        SYSTEM, MODEL, burst_trace(), n_replicas=2, max_batch=8, seed=1,
        faults=faults, retry=RetryPolicy(max_attempts=max_attempts, backoff_base_s=0.05),
    )


@pytest.fixture(scope="module")
def crash_runs():
    """One crash schedule, two recovery stacks (full retry vs none)."""
    retry_sim = crash_cluster(max_attempts=4)
    retry_report = retry_sim.run(E2E_LIMITS)
    none_sim = crash_cluster(max_attempts=1)
    none_report = none_sim.run(E2E_LIMITS)
    return (retry_sim, retry_report), (none_sim, none_report)


class TestCrashRecoveryEndToEnd:
    def test_crash_detected_then_repaired_in_place(self, crash_runs):
        (sim, report), _ = crash_runs
        transitions = sim.handles[0].transitions
        assert transitions[0] == (0.0, ReplicaState.ACTIVE)
        assert transitions[1] == (pytest.approx(CRASH_S + DETECT_S), ReplicaState.FAILED)
        assert transitions[2] == (
            pytest.approx(CRASH_S + DETECT_S + MTTR_S),
            ReplicaState.ACTIVE,
        )
        faults = report.fleet.faults
        assert int(faults["crashes"]) == 1
        assert int(faults.get("device_failures", 0)) == 0

    def test_crash_stranded_real_work(self, crash_runs):
        # The schedule is only a recovery test if the crash caught
        # admitted requests mid-flight.
        (_, report), _ = crash_runs
        faults = report.fleet.faults
        assert int(faults["retries"]) > 0
        assert int(faults["lost_prefill_tokens"]) > 0
        assert faults["re_prefill_s"] > 0.0
        assert faults["retry_backoff_s"] > 0.0

    def test_retry_completes_every_retryable_request(self, crash_runs):
        (_, report), _ = crash_runs
        assert int(report.fleet.faults["requests_lost"]) == 0
        assert report.fleet.requests_completed == N_REQUESTS

    def test_outage_window_priced_exactly(self, crash_runs):
        (_, report), _ = crash_runs
        # The outage opens at the crash itself and closes at repair:
        # detection latency plus the repair dwell.
        assert report.fleet.faults["unavailability_s"] == pytest.approx(
            DETECT_S + MTTR_S
        )

    @pytest.mark.parametrize("which", ["retry", "none"])
    def test_generated_tokens_conserved(self, crash_runs, which):
        (_, retry_report), (_, none_report) = crash_runs
        report = retry_report if which == "retry" else none_report
        # Every token the fleet priced is either owned by a completed
        # request or charged to the lost-work ledger — nothing double
        # counted, nothing vanishing.
        lost_generated = int(report.fleet.faults["lost_generated_tokens"])
        assert report.fleet.tokens_generated == (
            report.fleet.requests_completed * OUTPUT_LEN + lost_generated
        )

    def test_first_token_ledger_balances(self, crash_runs):
        # Retraction bookkeeping: exactly one T2FT sample per completed
        # request survives, on both recovery stacks.
        for sim, report in crash_runs:
            merged = MetricsCollector.merged([h.metrics for h in sim.handles])
            assert len(merged.t2ft_samples) == report.fleet.requests_completed

    def test_retry_beats_no_retry(self, crash_runs):
        (_, retry_report), (none_sim, none_report) = crash_runs
        lost = int(none_report.fleet.faults["requests_lost"])
        assert lost > 0, "the no-retry baseline must actually lose work"
        assert none_report.fleet.requests_completed == N_REQUESTS - lost
        assert retry_report.fleet.requests_completed > none_report.fleet.requests_completed
        # Lost requests never produced a first token: counted as
        # unbounded samples, the baseline's tail diverges while the
        # retry stack's stays finite.
        merged = MetricsCollector.merged([h.metrics for h in none_sim.handles])
        assert _p99_with_lost(merged.t2ft_samples, lost) == float("inf")

    def test_retried_requests_measure_from_first_submission(self, crash_runs):
        (sim, _), _ = crash_runs
        merged = MetricsCollector.merged([h.metrics for h in sim.handles])
        # Every arrival predates the crash; a retried request's first
        # token lands only after detection, so its T2FT absorbs the
        # failure penalty rather than resetting at re-admission.
        assert max(merged.t2ft_samples) > DETECT_S


def test_outage_still_open_at_fleet_end_runs_to_fleet_end():
    """Without a repair the crashed replica stays FAILED, its requests
    complete by retry on the other one, and the report closes the open
    outage at fleet end (the last replica clock)."""
    sim = crash_cluster(max_attempts=4, mttr_s=None)
    report = sim.run(E2E_LIMITS)
    assert sim.handles[0].state is ReplicaState.FAILED
    assert report.fleet.requests_completed == N_REQUESTS
    assert int(report.fleet.faults["retries"]) > 0
    fleet_end = max(handle.now_s for handle in sim.handles)
    assert report.fleet.faults["unavailability_s"] == fleet_end - CRASH_S
    assert report.fleet.faults["unavailability_s"] == pytest.approx(2.10150, abs=5e-6)

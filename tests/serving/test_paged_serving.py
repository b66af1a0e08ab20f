"""Live KV paging in the serving engine (evict / resume under pressure).

Two layers:

* **mechanism tests** drive a paged engine with a stub executor and
  hand-fed requests, so preemption order, resume timing, StageEvent
  attribution, and accounting invariants are checked deterministically;
* an **acceptance test** runs the real Mixtral Duplex executor on an
  over-capacity long-context workload: the paged engine must complete
  every request (zero sheds) where the classic capacity-capped baseline
  sheds, with resident KV never exceeding capacity at any stage boundary
  — under both MIGRATE and RECOMPUTE.
"""

from dataclasses import dataclass, field

import pytest

from repro.core.system import duplex_system
from repro.errors import ConfigError
from repro.models.config import mixtral
from repro.serving.engine import KvPagingCoordinator, ServingEngine, SimulationLimits
from repro.serving.generator import QueueSource
from repro.serving.paging import EvictionPolicy, HostLink, PagedKvManager, PagingConfig
from repro.serving.policy import SloAwarePolicy
from repro.serving.request import Request
from repro.serving.scenarios import long_context
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.serving.simulator import ServingSimulator

pytestmark = pytest.mark.paging


# ----------------------------------------------------------------------
# stub pricing (mechanism tests need exact control, not real latencies)
# ----------------------------------------------------------------------
@dataclass
class _StubResult:
    latency_s: float
    is_mixed: bool
    dram_energy_by_category: dict = field(default_factory=dict)
    compute_energy_by_category: dict = field(default_factory=dict)
    comm_energy_j: float = 0.0


class _StubExecutor:
    """Fixed-latency pricing; records the workloads it priced."""

    def __init__(self, latency_s: float = 0.01) -> None:
        self.latency_s = latency_s
        self.replay_prefills: list[int] = []

    def run_stage(self, workload) -> _StubResult:
        if workload.n_decode == 0 and len(workload.prefill_lengths) == 1:
            self.replay_prefills.append(workload.prefill_lengths[0])
        return _StubResult(latency_s=self.latency_s, is_mixed=workload.is_mixed)

    def price_decode_run(self, context_lengths, n_stages):
        return None  # no steady runs: every stage goes through run_stage


def _request(rid: int, arrival: float, lin: int = 30, lout: int = 10) -> Request:
    return Request(request_id=rid, arrival_time_s=arrival, input_len=lin, output_len=lout)


def make_paged_engine(
    capacity: int = 100,
    max_batch: int = 8,
    policy: EvictionPolicy = EvictionPolicy.MIGRATE,
    sched_policy=None,
    host_capacity: int | None = None,
):
    source = QueueSource()
    executor = _StubExecutor()
    manager = PagedKvManager(
        capacity_tokens=capacity,
        kv_bytes_per_token=1.0,
        policy=policy,
        link=HostLink(bandwidth=1e6, latency_s=0.001),
        host_capacity_tokens=host_capacity,
    )
    coordinator = KvPagingCoordinator(manager, executor)
    scheduler = ContinuousBatchingScheduler(
        source, max_batch, capacity, policy=sched_policy, paging=coordinator
    )
    engine = ServingEngine(scheduler, executor, label="paged-test")
    return engine, scheduler, coordinator, source


LIMITS = SimulationLimits(max_stages=500, warmup_stages=0)


# ----------------------------------------------------------------------
# mechanism
# ----------------------------------------------------------------------
class TestSchedulerValidation:
    def test_paging_requires_finite_capacity(self):
        manager = PagedKvManager(capacity_tokens=100, kv_bytes_per_token=1.0)
        coordinator = KvPagingCoordinator(manager, _StubExecutor())
        with pytest.raises(ConfigError):
            ContinuousBatchingScheduler(QueueSource(), 4, None, paging=coordinator)

    def test_paging_capacity_must_match_manager(self):
        manager = PagedKvManager(capacity_tokens=100, kv_bytes_per_token=1.0)
        coordinator = KvPagingCoordinator(manager, _StubExecutor())
        with pytest.raises(ConfigError):
            ContinuousBatchingScheduler(QueueSource(), 4, 200, paging=coordinator)


class TestPreemptionMechanics:
    def test_overflow_arrival_preempts_youngest_and_everyone_finishes(self):
        engine, scheduler, coordinator, source = make_paged_engine(capacity=100)
        source.push(_request(0, 0.0, lin=30, lout=10))  # 40 tokens
        source.push(_request(1, 0.0, lin=30, lout=10))  # 40 tokens
        source.push(_request(2, 0.05, lin=30, lout=10))  # 40 tokens: overflow
        events = []
        engine.observers.append(events.append)
        engine.run(LIMITS)
        preempted = [rid for event in events for rid in event.preempted]
        resumed = [rid for event in events for rid in event.resumed]
        # Request 1 is the youngest resident when 2 arrives (FCFS default
        # breaks the arrival tie by id), parks once, and comes back.
        assert preempted == [1]
        assert resumed == [1]
        assert sorted(engine.finished_ids) == [0, 1, 2]
        # No admission was ever recorded twice.
        assert sorted(scheduler.admitted_log) == [0, 1, 2]

    def test_resident_never_exceeds_capacity_at_any_boundary(self):
        engine, scheduler, coordinator, source = make_paged_engine(
            capacity=100, max_batch=6
        )
        for rid in range(6):  # 240 demanded tokens vs 100 of capacity
            source.push(_request(rid, 0.02 * rid, lin=30, lout=10))
        events = []
        engine.observers.append(events.append)
        engine.run(LIMITS)
        assert sorted(engine.finished_ids) == list(range(6))
        manager = coordinator.manager
        for event in events:
            assert event.committed_tokens <= event.capacity_tokens
        assert manager.resident_tokens == 0
        assert manager.evicted_tokens == 0
        assert manager.stats.evictions == manager.stats.resumes

    def test_conservation_audited_per_stage(self):
        # resident + evicted must equal the reservations of every admitted,
        # unfinished request at each stage boundary.
        engine, scheduler, coordinator, source = make_paged_engine(
            capacity=120, max_batch=5
        )
        requests = [_request(rid, 0.02 * rid, lin=40, lout=8) for rid in range(5)]
        for request in requests:
            source.push(request)
        live_tokens = {r.request_id: r.total_seq_len for r in requests}
        manager = coordinator.manager

        def audit(event):
            for rid in event.finished:
                live_tokens.pop(rid)
            admitted = sum(
                live_tokens[rid]
                for rid in scheduler.admitted_log
                if rid in live_tokens
            )
            assert manager.resident_tokens + manager.evicted_tokens == admitted

        engine.observers.append(audit)
        engine.run(LIMITS)
        assert not live_tokens or set(live_tokens) == set(
            r.request_id for r in scheduler.waiting
        )

    def test_migrate_round_trip_delays_rejoin_by_link_time(self):
        engine, scheduler, coordinator, source = make_paged_engine(capacity=100)
        source.push(_request(0, 0.0))
        source.push(_request(1, 0.0))
        source.push(_request(2, 0.05))
        engine.run(LIMITS)
        stats = coordinator.manager.stats
        assert stats.evictions == 1 and stats.resumes == 1
        # Out and back over the host link, tokens conserved.
        assert stats.migrated_out_bytes == stats.migrated_in_bytes > 0
        assert stats.host_link_time_s > 0
        assert stats.recomputed_tokens == 0

    def test_concurrent_migrations_serialize_on_the_host_link(self):
        # Two victims evicted at the same boundary share one outbound
        # link: the second transfer starts when the first finishes, and
        # the resumes likewise queue on the inbound direction — N
        # migrations cost N transfer times of wall clock, not one.
        manager = PagedKvManager(
            capacity_tokens=1000,
            kv_bytes_per_token=1.0,
            link=HostLink(bandwidth=1000.0, latency_s=0.0),  # 100 tokens = 0.1s
        )
        coordinator = KvPagingCoordinator(manager, _StubExecutor())
        first = _request(0, 0.0, lin=90, lout=10)
        second = _request(1, 0.0, lin=90, lout=10)
        for request in (first, second):
            request.start_prefill()
            request.finish_prefill(0.0)  # context = 90 + first token
            coordinator.on_admit(request)
        coordinator.evict(first, now_s=0.0)  # out: 0.00 -> 0.09
        coordinator.evict(second, now_s=0.0)  # out: 0.09 -> 0.18 (queued)
        coordinator.resume_next(now_s=0.0)  # in: 0.09 -> 0.18
        coordinator.resume_next(now_s=0.0)  # in: max(0.18, 0.18) -> 0.27
        assert coordinator.resume_feed.take(1.0) is first
        assert coordinator.next_ready_s() == pytest.approx(0.27)

    def test_recompute_resume_replays_prefill_through_executor(self):
        engine, scheduler, coordinator, source = make_paged_engine(
            capacity=100, policy=EvictionPolicy.RECOMPUTE
        )
        source.push(_request(0, 0.0))
        source.push(_request(1, 0.0))
        source.push(_request(2, 0.05))
        engine.run(LIMITS)
        stats = coordinator.manager.stats
        assert stats.recomputed_tokens > 0
        assert stats.migrated_out_bytes == 0.0
        assert stats.host_link_time_s == 0.0
        # The replay was priced by the same executor as every other stage.
        assert engine.executor.replay_prefills == [stats.recomputed_tokens]
        assert sorted(engine.finished_ids) == [0, 1, 2]

    def test_full_host_degrades_to_queueing(self):
        engine, scheduler, coordinator, source = make_paged_engine(
            capacity=100, host_capacity=10
        )
        source.push(_request(0, 0.0))
        source.push(_request(1, 0.0))
        source.push(_request(2, 0.05))
        engine.run(LIMITS)
        # No reservation fits the 10-token host: nothing is ever evicted,
        # request 2 waits for free KV exactly as without paging.
        assert coordinator.manager.stats.evictions == 0
        assert sorted(engine.finished_ids) == [0, 1, 2]

    def test_paging_disabled_has_no_paging_events(self):
        source = QueueSource()
        executor = _StubExecutor()
        scheduler = ContinuousBatchingScheduler(source, 4, 100)
        engine = ServingEngine(scheduler, executor, label="plain")
        source.push(_request(0, 0.0))
        source.push(_request(1, 0.0))
        source.push(_request(2, 0.05))
        events = []
        engine.observers.append(events.append)
        engine.run(LIMITS)
        assert all(event.preempted == () and event.resumed == () for event in events)
        assert scheduler.next_paging_ready_s == float("inf")
        assert scheduler.paged_count == 0

    def test_slo_policy_protects_racing_prefills_from_preemption(self):
        # Two residents: one decoding (preemptible), one mid-prefill within
        # the preemption guard of its deadline (protected).  The overflow
        # arrival must evict the decoder even though the prefill is younger.
        engine, scheduler, coordinator, source = make_paged_engine(
            capacity=100,
            sched_policy=SloAwarePolicy(
                t2ft_slo_s=0.5, shed_expired=False, preemption_guard_s=10.0
            ),
        )
        source.push(_request(0, 0.0))  # will be decoding
        events = []
        engine.observers.append(events.append)
        engine.step(LIMITS)  # request 0 prefills -> decoding
        source.push(_request(1, scheduler.now_s, lin=30, lout=10))
        source.push(_request(2, scheduler.now_s, lin=30, lout=10))
        engine.run(LIMITS)
        preempted = [rid for event in events for rid in event.preempted]
        assert 0 in preempted  # the decoder parked
        assert 1 not in preempted  # the racing prefill never did
        assert sorted(engine.finished_ids) == [0, 1, 2]


class TestPagingReport:
    def test_report_carries_paging_summary(self):
        engine, scheduler, coordinator, source = make_paged_engine(capacity=100)
        source.push(_request(0, 0.0))
        source.push(_request(1, 0.0))
        source.push(_request(2, 0.05))
        report = engine.run(LIMITS)
        assert report.paging["preemptions"] == 1.0
        assert report.paging["resumes"] == 1.0
        assert report.paging["migrated_out_tokens"] > 0
        assert report.paging["host_link_s"] > 0

    def test_quiet_run_reports_empty_paging(self):
        engine, scheduler, coordinator, source = make_paged_engine(capacity=1000)
        source.push(_request(0, 0.0))
        report = engine.run(LIMITS)
        assert report.paging == {}


# ----------------------------------------------------------------------
# acceptance: real executor, over-capacity long-context workload
# ----------------------------------------------------------------------
MODEL = mixtral()
SYSTEM = duplex_system(MODEL, co_processing=True, expert_tensor_parallel=True)
ACCEPT_LIMITS = SimulationLimits(max_stages=100_000, warmup_stages=0)


N_REQUESTS = 60


def _over_capacity_sim(paging: PagingConfig | None) -> ServingSimulator:
    # Sustained ~45k-token mean requests at 10 QPS hold ~40+ concurrent
    # residents against the node's ~1.78M-token capacity; any single
    # request still fits (max_factor clips the tail).  The capacity-capped
    # baseline queues arrivals past their 20s first-token deadline and
    # sheds them; the paged engine admits by evicting mid-decode victims.
    scenario = long_context(
        lin_median=32768, lout_median=512, sigma=0.8, max_factor=8.0, t2ft_slo_s=20.0
    ).at_qps(10.0)
    return ServingSimulator(
        SYSTEM,
        MODEL,
        scenario.source(seed=1, max_requests=N_REQUESTS),
        max_batch=96,
        seed=1,
        policy=SloAwarePolicy(t2ft_slo_s=20.0, shed_expired=True),
        paging=paging,
    )


class TestOverCapacityAcceptance:
    @pytest.fixture(scope="class")
    def baseline(self):
        sim = _over_capacity_sim(paging=None)
        report = sim.run(ACCEPT_LIMITS)
        return sim, report

    @pytest.mark.parametrize("policy", [EvictionPolicy.MIGRATE, EvictionPolicy.RECOMPUTE])
    def test_paged_engine_completes_what_the_baseline_sheds(self, baseline, policy):
        baseline_sim, baseline_report = baseline
        baseline_shed = len(baseline_sim.scheduler.rejected)
        assert baseline_shed > 0, "baseline must be over capacity for this test"

        sim = _over_capacity_sim(paging=PagingConfig(policy=policy))
        events = []
        sim.engine.observers.append(events.append)
        report = sim.run(ACCEPT_LIMITS)
        assert len(sim.scheduler.rejected) == 0
        assert report.requests_completed == N_REQUESTS
        assert report.paging["preemptions"] > 0
        # Invariant: resident KV within capacity at every stage boundary.
        capacity = sim.scheduler.capacity_tokens
        assert events
        for event in events:
            assert event.committed_tokens <= capacity
        manager = sim.paging.manager
        assert manager.resident_tokens == 0
        assert manager.evicted_tokens == 0
        if policy is EvictionPolicy.MIGRATE:
            assert report.paging["migrated_out_tokens"] > 0
            assert report.paging["host_link_s"] > 0
        else:
            assert report.paging["recomputed_tokens"] > 0
            assert report.paging["replay_s"] > 0

"""Tests for the multi-replica cluster engine and its routers."""

import pytest

from repro.core.system import duplex_system
from repro.errors import ConfigError, SchedulingError, SimulationError
from repro.models.config import mixtral
from repro.serving.cluster import (
    _LEGAL_TRANSITIONS,
    ClusterSimulator,
    LeastOutstandingTokensRouter,
    ManagedReplica,
    MemoryPressureRouter,
    MonolithicReplicaSpec,
    PowerOfTwoChoicesRouter,
    ReplicaState,
    ReplicaView,
    RoundRobinRouter,
    SplitReplicaSpec,
)
from repro.serving.generator import QueueSource, WorkloadSpec
from repro.serving.paging import PagingConfig
from repro.serving.policy import SloAwarePolicy
from repro.serving.request import Request
from repro.serving.scenarios import long_context
from repro.serving.simulator import SimulationLimits
from repro.serving.trace import TraceRecord, TraceReplayGenerator


MODEL = mixtral()
SYSTEM = duplex_system(MODEL, co_processing=True, expert_tensor_parallel=True)
LIMITS = SimulationLimits(max_stages=300, warmup_stages=20)


def poisson_cluster(router=None, n_replicas=4, qps=40.0, seed=1, **kwargs):
    spec = WorkloadSpec(lin_mean=1024, lout_mean=128, lin_cv=0.5, lout_cv=0.5, qps=qps)
    return ClusterSimulator(
        SYSTEM, MODEL, spec, n_replicas=n_replicas, router=router,
        max_batch=24, seed=seed, max_requests=kwargs.pop("max_requests", 300), **kwargs,
    )


def resonant_trace(n=600, gap=0.01, giant=8192):
    """Every 4th request is a giant prompt — resonates with a 4-wide RR cycle."""
    return TraceReplayGenerator(
        [
            TraceRecord(arrival_s=i * gap, input_len=giant if i % 4 == 0 else 256, output_len=128)
            for i in range(n)
        ]
    )


class TestQueueSource:
    def test_fifo_and_protocol(self):
        source = QueueSource()
        assert source.peek() is None
        assert source.peek_arrival() == float("inf")
        source.push(Request(request_id=0, arrival_time_s=1.0, input_len=8, output_len=4))
        source.push(Request(request_id=1, arrival_time_s=2.0, input_len=8, output_len=4))
        assert source.peek().request_id == 0
        assert source.queued_tokens == 24
        assert not source.has_request_at(0.5)
        assert source.has_request_at(1.0)
        assert source.take(1.0).request_id == 0
        assert len(source) == 1 and source.accepted == 2

    def test_rejects_out_of_order_push(self):
        source = QueueSource()
        source.push(Request(request_id=0, arrival_time_s=2.0, input_len=8, output_len=4))
        with pytest.raises(SchedulingError):
            source.push(Request(request_id=1, arrival_time_s=1.0, input_len=8, output_len=4))

    def test_take_from_empty_rejected(self):
        with pytest.raises(SchedulingError):
            QueueSource().take(0.0)


class TestRouters:
    def _views(self, tokens):
        return [
            ReplicaView(index=i, queue_depth=0, outstanding_tokens=t, now_s=0.0)
            for i, t in enumerate(tokens)
        ]

    def _request(self):
        return Request(request_id=0, arrival_time_s=0.0, input_len=8, output_len=4)

    def test_round_robin_cycles(self):
        router = RoundRobinRouter()
        views = self._views([0, 0, 0])
        assert [router.choose(views, self._request()) for _ in range(5)] == [0, 1, 2, 0, 1]

    def test_least_outstanding_picks_lightest(self):
        router = LeastOutstandingTokensRouter()
        assert router.choose(self._views([50, 10, 30]), self._request()) == 1

    def test_power_of_two_prefers_lighter_of_sampled(self):
        router = PowerOfTwoChoicesRouter(seed=0)
        views = self._views([1000, 1000, 0, 0])
        # Over many draws the heavy replicas must lose every contested pick:
        # they win only when both samples are heavy.
        choices = [router.choose(views, self._request()) for _ in range(200)]
        heavy = sum(1 for c in choices if c in (0, 1))
        assert heavy < 60  # P(both heavy) = 1/6 ~ 33 of 200

    def test_power_of_two_breaks_ties_randomly(self):
        router = PowerOfTwoChoicesRouter(seed=0)
        views = self._views([0, 0, 0, 0])
        choices = {router.choose(views, self._request()) for _ in range(100)}
        assert len(choices) == 4  # no deterministic hot spot

    def test_power_of_two_single_replica_is_deterministic(self):
        # A fleet of one must neither sample nor consume randomness: the
        # later choice sequence stays seed-aligned once the fleet grows.
        router = PowerOfTwoChoicesRouter(seed=7)
        single = self._views([123])
        for _ in range(5):
            assert router.choose(single, self._request()) == 0
        grown = self._views([0, 0, 0])
        reference = PowerOfTwoChoicesRouter(seed=7)
        assert [router.choose(grown, self._request()) for _ in range(20)] == [
            reference.choose(grown, self._request()) for _ in range(20)
        ]

    def test_power_of_two_tie_break_is_seeded(self):
        # Equal-load ties resolve identically for identical seeds and
        # differently (somewhere in a long sequence) for different seeds.
        views = self._views([10, 10, 10, 10])
        a = PowerOfTwoChoicesRouter(seed=3)
        b = PowerOfTwoChoicesRouter(seed=3)
        seq_a = [a.choose(views, self._request()) for _ in range(50)]
        seq_b = [b.choose(views, self._request()) for _ in range(50)]
        assert seq_a == seq_b
        c = PowerOfTwoChoicesRouter(seed=4)
        assert seq_a != [c.choose(views, self._request()) for _ in range(50)]

    def test_power_of_two_handles_non_contiguous_indices(self):
        # Elastic fleets route over a filtered view list whose indices
        # have gaps; the router must return a view's own index, never a
        # position.
        views = [
            ReplicaView(index=2, queue_depth=0, outstanding_tokens=50, now_s=0.0),
            ReplicaView(index=5, queue_depth=0, outstanding_tokens=10, now_s=0.0),
        ]
        router = PowerOfTwoChoicesRouter(seed=0)
        for _ in range(20):
            assert router.choose(views, self._request()) in (2, 5)

    def test_round_robin_returns_view_indices(self):
        views = [
            ReplicaView(index=4, queue_depth=0, outstanding_tokens=0, now_s=0.0),
            ReplicaView(index=7, queue_depth=0, outstanding_tokens=0, now_s=0.0),
        ]
        router = RoundRobinRouter()
        assert [router.choose(views, self._request()) for _ in range(4)] == [4, 7, 4, 7]

    def _pressured_views(self, loads):
        return [
            ReplicaView(
                index=i,
                queue_depth=0,
                outstanding_tokens=tokens,
                now_s=0.0,
                resident_tokens=resident,
                capacity_tokens=capacity,
            )
            for i, (tokens, resident, capacity) in enumerate(loads)
        ]

    def test_memory_pressure_penalizes_full_replicas(self):
        router = MemoryPressureRouter(pressure_weight=1.0)
        # Replica 0 is slightly lighter on outstanding tokens but nearly
        # out of KV; replica 1 has headroom and wins.
        views = self._pressured_views([(90, 95, 100), (100, 10, 100)])
        assert router.choose(views, self._request()) == 1

    def test_memory_pressure_weight_zero_is_least_outstanding(self):
        blind = MemoryPressureRouter(pressure_weight=0.0)
        reference = LeastOutstandingTokensRouter()
        views = self._pressured_views([(50, 95, 100), (60, 0, 100), (40, 99, 100)])
        assert blind.choose(views, self._request()) == reference.choose(
            views, self._request()
        )

    def test_memory_pressure_handles_unknown_capacity(self):
        router = MemoryPressureRouter()
        views = [
            ReplicaView(index=0, queue_depth=0, outstanding_tokens=50, now_s=0.0),
            ReplicaView(index=1, queue_depth=0, outstanding_tokens=40, now_s=0.0),
        ]
        assert views[0].memory_pressure == 0.0
        assert router.choose(views, self._request()) == 1

    def test_memory_pressure_ties_break_low_index(self):
        router = MemoryPressureRouter()
        views = self._pressured_views([(50, 20, 100), (50, 20, 100)])
        assert router.choose(views, self._request()) == 0

    def test_negative_pressure_weight_rejected(self):
        with pytest.raises(ConfigError):
            MemoryPressureRouter(pressure_weight=-0.5)


class TestClusterSimulation:
    def test_fleet_report_under_poisson(self):
        # Acceptance: N=4 replicas under Poisson load produce a fleet report.
        report = poisson_cluster(RoundRobinRouter()).run(LIMITS)
        assert report.n_replicas == 4
        assert report.fleet.tokens_generated > 0
        assert report.fleet.tbt_p99_s >= report.fleet.tbt_p50_s > 0
        routing = [s for s in report.queue_depth_samples if s.kind == "routing"]
        assert sum(report.requests_routed) == len(routing)
        assert report.requests_rejected == 0

    def test_round_robin_spreads_requests_evenly(self):
        report = poisson_cluster(RoundRobinRouter()).run(LIMITS)
        routed = report.requests_routed
        assert max(routed) - min(routed) <= 1

    def test_fleet_pools_replica_samples(self):
        report = poisson_cluster(RoundRobinRouter()).run(LIMITS)
        per_replica = [r for r in report.replicas if r is not None]
        assert report.fleet.tokens_generated == sum(r.tokens_generated for r in per_replica)
        assert report.fleet.requests_completed == sum(r.requests_completed for r in per_replica)
        assert report.fleet.elapsed_s == max(r.elapsed_s for r in per_replica)

    def test_queue_depth_samples_are_time_ordered(self):
        report = poisson_cluster(RoundRobinRouter()).run(LIMITS)
        times = [s.time_s for s in report.queue_depth_samples]
        assert times == sorted(times)
        assert report.max_queue_depth >= 0

    def test_cadence_samples_cover_drain_and_idle(self):
        # Routing-event sampling alone leaves drain/idle periods
        # invisible; the fixed virtual-clock cadence must keep sampling
        # after the last arrival until the queues actually empty.
        report = poisson_cluster(RoundRobinRouter(), qps=80.0, max_requests=120).run(
            SimulationLimits(max_stages=2000, warmup_stages=0)
        )
        cadence = [s for s in report.queue_depth_samples if s.kind == "cadence"]
        routing = [s for s in report.queue_depth_samples if s.kind == "routing"]
        assert cadence, "cadence sampling is on by default"
        last_arrival = routing[-1].time_s
        drain_samples = [s for s in cadence if s.time_s > last_arrival]
        assert drain_samples, "the drain phase must be sampled"
        assert drain_samples[-1].total == 0, "queues visibly empty by the end"
        # max_queue_depth stays correct: the peak is never in a cadence
        # sample alone (depth peaks right after a routing push).
        assert report.max_queue_depth == max(max(s.depths) for s in routing)

    def test_cadence_sampling_does_not_perturb_metrics(self):
        on = poisson_cluster(RoundRobinRouter(), seed=5).run(LIMITS)
        off = poisson_cluster(RoundRobinRouter(), seed=5, sample_interval_s=None).run(LIMITS)
        assert on.fleet == off.fleet
        assert on.replicas == off.replicas
        assert [s for s in on.queue_depth_samples if s.kind == "routing"] == list(
            off.queue_depth_samples
        )

    def test_sample_interval_validated(self):
        with pytest.raises(ConfigError):
            poisson_cluster(RoundRobinRouter(), sample_interval_s=0.0)

    def test_reproducible_with_seed(self):
        a = poisson_cluster(RoundRobinRouter(), seed=5).run(LIMITS)
        b = poisson_cluster(RoundRobinRouter(), seed=5).run(LIMITS)
        assert a.fleet == b.fleet

    def test_single_replica_matches_cluster_of_one(self):
        report = poisson_cluster(RoundRobinRouter(), n_replicas=1, qps=10.0).run(LIMITS)
        assert report.n_replicas == 1
        routing = [s for s in report.queue_depth_samples if s.kind == "routing"]
        assert report.requests_routed[0] == len(routing)

    def test_closed_loop_workload_rejected(self):
        spec = WorkloadSpec(lin_mean=64, lout_mean=16)
        with pytest.raises(ConfigError):
            ClusterSimulator(SYSTEM, MODEL, spec, n_replicas=2)

    def test_zero_replicas_rejected(self):
        spec = WorkloadSpec(lin_mean=64, lout_mean=16, qps=1.0)
        with pytest.raises(ConfigError):
            ClusterSimulator(SYSTEM, MODEL, spec, n_replicas=0)

    def test_run_without_stages_raises_cleanly(self):
        # max_requests=0 routes nothing: the fleet report must fail with an
        # explanation, not a crash from deep inside MetricsCollector.
        with pytest.raises(SimulationError, match="no stages"):
            poisson_cluster(RoundRobinRouter(), max_requests=0).run(LIMITS)

    def test_trace_source_drives_cluster(self):
        trace = resonant_trace(n=100)
        report = ClusterSimulator(
            SYSTEM, MODEL, trace, n_replicas=4, router=RoundRobinRouter(),
            max_batch=24, seed=0,
        ).run(LIMITS)
        assert sum(report.requests_routed) == 100
        assert report.fleet.requests_completed > 0

    def test_slo_policy_plugs_into_replicas(self):
        report = poisson_cluster(
            RoundRobinRouter(), qps=400.0,
            policy_factory=lambda: SloAwarePolicy(t2ft_slo_s=0.25),
        ).run(LIMITS)
        assert report.requests_rejected > 0


class TestHeterogeneousFleet:
    def _hetero(self, router=None, qps=30.0, seed=1, **kwargs):
        spec = WorkloadSpec(lin_mean=1024, lout_mean=96, lin_cv=0.3, lout_cv=0.3, qps=qps)
        return ClusterSimulator(
            SYSTEM, MODEL, spec, router=router, max_batch=16, seed=seed,
            max_requests=kwargs.pop("max_requests", 120),
            replicas=(MonolithicReplicaSpec(), MonolithicReplicaSpec(), SplitReplicaSpec()),
            **kwargs,
        )

    def test_mixed_fleet_serves_end_to_end(self):
        report = self._hetero(RoundRobinRouter()).run(LIMITS)
        assert report.n_replicas == 3
        assert report.replica_kinds == ("monolithic", "monolithic", "split")
        assert report.fleet.requests_completed > 0
        # Every replica flavour took traffic and produced tokens.
        assert all(routed > 0 for routed in report.requests_routed)
        per_replica = [r for r in report.replicas if r is not None]
        assert len(per_replica) == 3
        assert all(r.tokens_generated > 0 for r in per_replica)

    def test_split_replica_runs_decode_only_stages(self):
        report = self._hetero(RoundRobinRouter()).run(LIMITS)
        split_report = report.replicas[2]
        # The split replica's decode partition never mixes prefills into
        # decode stages, but its prefill stages are recorded as mixed —
        # so its decoding-only ratio sits strictly between the two.
        assert split_report is not None
        assert 0.0 < split_report.decoding_only_stage_ratio < 1.0

    def test_router_views_expose_replica_kinds(self):
        sim = self._hetero(RoundRobinRouter())
        kinds = [handle.view().kind for handle in sim.handles]
        assert kinds == ["monolithic", "monolithic", "split"]

    def test_load_aware_router_balances_mixed_fleet(self):
        report = self._hetero(LeastOutstandingTokensRouter()).run(LIMITS)
        assert report.fleet.requests_completed > 0
        # Routing stops when every replica's stage budget is spent, so not
        # all 120 offered requests necessarily route — but each routing
        # event must be sampled, and every replica must participate.
        routing = [s for s in report.queue_depth_samples if s.kind == "routing"]
        assert sum(report.requests_routed) == len(routing)
        assert all(routed > 0 for routed in report.requests_routed)

    def test_replica_spec_overrides_batch(self):
        spec = WorkloadSpec(lin_mean=256, lout_mean=32, qps=10.0)
        sim = ClusterSimulator(
            SYSTEM, MODEL, spec, seed=0,
            replicas=(MonolithicReplicaSpec(max_batch=2), MonolithicReplicaSpec(max_batch=8)),
        )
        assert sim.handles[0].metrics.effective_batch == 2
        assert sim.handles[1].metrics.effective_batch == 8

    def test_spec_list_and_n_replicas_must_agree(self):
        spec = WorkloadSpec(lin_mean=256, lout_mean=32, qps=10.0)
        with pytest.raises(ConfigError):
            ClusterSimulator(
                SYSTEM, MODEL, spec, n_replicas=2, replicas=(MonolithicReplicaSpec(),)
            )
        with pytest.raises(ConfigError):
            ClusterSimulator(SYSTEM, MODEL, spec, n_replicas=None, replicas=())
        with pytest.raises(ConfigError):
            ClusterSimulator(SYSTEM, MODEL, spec)  # neither count nor specs


class TestRoutingQuality:
    def test_power_of_two_beats_round_robin_on_resonant_load(self):
        # Acceptance: po2 fleet p99 TBT <= round-robin at the same offered
        # load.  Periodic giant prompts resonate with the RR cycle (one
        # replica receives every giant); load-aware sampling dodges them.
        limits = SimulationLimits(max_stages=800, warmup_stages=40)
        rr = ClusterSimulator(
            SYSTEM, MODEL, resonant_trace(), n_replicas=4,
            router=RoundRobinRouter(), max_batch=24, seed=0,
        ).run(limits)
        po2 = ClusterSimulator(
            SYSTEM, MODEL, resonant_trace(), n_replicas=4,
            router=PowerOfTwoChoicesRouter(seed=0), max_batch=24, seed=0,
        ).run(limits)
        assert po2.fleet.tbt_p99_s <= rr.fleet.tbt_p99_s
        # The margin is structural (about 2x), not a seed accident.
        assert po2.fleet.tbt_p99_s < 0.8 * rr.fleet.tbt_p99_s

    def test_least_outstanding_tokens_beats_round_robin_on_resonant_load(self):
        limits = SimulationLimits(max_stages=800, warmup_stages=40)
        rr = ClusterSimulator(
            SYSTEM, MODEL, resonant_trace(), n_replicas=4,
            router=RoundRobinRouter(), max_batch=24, seed=0,
        ).run(limits)
        lot = ClusterSimulator(
            SYSTEM, MODEL, resonant_trace(), n_replicas=4,
            router=LeastOutstandingTokensRouter(), max_batch=24, seed=0,
        ).run(limits)
        assert lot.fleet.tbt_p99_s <= rr.fleet.tbt_p99_s


@pytest.mark.paging
class TestPagedCluster:
    def _paged_cluster(self, paging, router=None, qps=20.0, n=60, seed=1):
        scenario = long_context(
            lin_median=49152, lout_median=512, sigma=0.8, max_factor=8.0,
            t2ft_slo_s=30.0,
        ).at_qps(qps)
        return ClusterSimulator(
            SYSTEM, MODEL, scenario.source(seed=seed, max_requests=n),
            n_replicas=2, router=router, max_batch=96, seed=seed,
            paging=paging,
        )

    def test_paged_fleet_reports_pooled_paging_activity(self):
        limits = SimulationLimits(max_stages=100_000, warmup_stages=0)
        sim = self._paged_cluster(
            PagingConfig(), router=MemoryPressureRouter(), qps=30.0, n=70
        )
        report = sim.run(limits)
        assert sum(report.requests_routed) == 70
        # Nothing lost: every routed request completed or was shed.
        assert report.fleet.requests_completed + report.requests_rejected == 70
        assert report.fleet.paging["preemptions"] > 0
        # Per-replica accounting drained clean.
        for handle in sim.handles:
            manager = handle.engines[0].scheduler.paging.manager
            assert manager.resident_tokens == 0
            assert manager.evicted_tokens == 0

    def test_paging_disabled_fleet_reports_empty_paging(self):
        report = poisson_cluster(RoundRobinRouter(), qps=10.0).run(LIMITS)
        assert report.fleet.paging == {}


@pytest.mark.chaos
class TestLifecycleTransitionLog:
    """Every legal edge logs with its timestamp; every illegal edge raises."""

    @pytest.fixture(scope="class")
    def replica(self):
        # One shared data plane: these tests exercise only the lifecycle
        # of fresh replicas built over it.
        sim = poisson_cluster(n_replicas=1)
        return sim.handles[0]

    def _handle(self, replica, state):
        return ManagedReplica(
            replica.index, replica.spec, replica.inbox, replica.engines, replica.driver,
            state=state,
        )

    def test_every_legal_edge_logs_with_timestamp(self, replica):
        for source, targets in _LEGAL_TRANSITIONS.items():
            for target in targets:
                handle = self._handle(replica, source)
                handle.set_state(2.5, target)
                assert handle.state is target
                assert handle.transitions == [(0.0, source), (2.5, target)]

    def test_every_illegal_edge_raises(self, replica):
        for source, targets in _LEGAL_TRANSITIONS.items():
            for target in ReplicaState:
                if target is source or target in targets:
                    continue
                handle = self._handle(replica, source)
                with pytest.raises(SchedulingError, match="illegal lifecycle transition"):
                    handle.set_state(2.5, target)
                assert handle.state is source  # the refused edge left no trace
                assert handle.transitions == [(0.0, source)]

    def test_same_state_is_a_no_op(self, replica):
        handle = self._handle(replica, ReplicaState.ACTIVE)
        handle.set_state(1.0, ReplicaState.ACTIVE)
        assert handle.transitions == [(0.0, ReplicaState.ACTIVE)]

    def test_failure_and_repair_stamp_instants(self, replica):
        handle = self._handle(replica, ReplicaState.ACTIVE)
        handle.set_state(2.0, ReplicaState.FAILED)
        assert handle.failed_at == 2.0
        handle.set_state(3.0, ReplicaState.ACTIVE)
        assert handle.activated_at == 3.0
        assert handle.failed_at == 2.0  # the log keeps history
        assert handle.transitions == [
            (0.0, ReplicaState.ACTIVE),
            (2.0, ReplicaState.FAILED),
            (3.0, ReplicaState.ACTIVE),
        ]

    def test_failed_replica_stops_accruing_lifetime(self, replica):
        handle = self._handle(replica, ReplicaState.ACTIVE)
        handle.set_state(2.0, ReplicaState.FAILED)
        assert handle.lifetime_s(10.0) == pytest.approx(2.0)
        handle.set_state(3.0, ReplicaState.ACTIVE)  # repaired: accrues again
        assert handle.lifetime_s(10.0) == pytest.approx(10.0)

    def test_failed_replica_refuses_routing(self, replica):
        handle = self._handle(replica, ReplicaState.ACTIVE)
        handle.set_state(2.0, ReplicaState.FAILED)
        with pytest.raises(SchedulingError, match="only ACTIVE"):
            handle.route(Request(request_id=0, arrival_time_s=3.0, input_len=8, output_len=4))

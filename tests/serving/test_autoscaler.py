"""Tests for the elastic fleet control plane (marked ``elastic``).

Three layers:

* policy unit tests — each :class:`AutoscalingPolicy` decides correctly
  on hand-built :class:`FleetView` snapshots;
* controller mechanics — lifecycle transitions, warm vs cold starts,
  routing restricted to ACTIVE replicas, static-policy equivalence with
  the fixed :class:`ClusterSimulator` (float-for-float);
* the end-to-end acceptance scenario — a deterministic drip/flash-crowd/
  sparse-tail arrival replay through the SLO-tracking policy must scale
  up, drain back down, lose zero requests, beat the static min-replica
  baseline on SLO attainment, and undercut the static max-replica
  baseline on replica-seconds, with the fleet time series reflecting
  every lifecycle transition.
"""

import dataclasses

import pytest

from repro.core.system import duplex_system
from repro.errors import ConfigError, SchedulingError
from repro.models.config import mixtral
from repro.serving.autoscaler import (
    ElasticFleetSimulator,
    FleetView,
    QueueDepthPolicy,
    ScheduledScalingPolicy,
    SloTrackingPolicy,
    StaticReplicaPolicy,
)
from repro.serving.cluster import (
    ClusterSimulator,
    ReplicaEvent,
    ReplicaState,
    RoundRobinRouter,
)
from repro.serving.generator import WorkloadSpec
from repro.serving.metrics import MetricsCollector
from repro.serving.request import Request
from repro.serving.scenarios import (
    DiurnalArrivals,
    GaussianLengths,
    PoissonArrivals,
    ReplayedArrivals,
    Scenario,
    TenantSpec,
)
from repro.serving.simulator import SimulationLimits
from repro.serving.trace import TraceRecord, TraceReplayGenerator

pytestmark = pytest.mark.elastic

MODEL = mixtral()
SYSTEM = duplex_system(MODEL, co_processing=True, expert_tensor_parallel=True)
LIMITS = SimulationLimits(max_stages=60000, warmup_stages=0)


def make_view(**overrides) -> FleetView:
    base = dict(
        now_s=100.0,
        provisioning=0,
        warming=0,
        active=2,
        draining=0,
        retired=0,
        min_replicas=1,
        max_replicas=8,
        queue_depth=0,
        outstanding_tokens=0,
        arrival_rate_qps=4.0,
        utilization=0.5,
        recent_t2ft_s=(),
        recent_tbt_s=(),
        recent_tbt_weights=(),
        shed_requests=0,
    )
    base.update(overrides)
    return FleetView(**base)


# ----------------------------------------------------------------------
# policy unit tests
# ----------------------------------------------------------------------
class TestStaticPolicy:
    def test_always_returns_n(self):
        policy = StaticReplicaPolicy(3)
        assert policy.target_replicas(make_view(active=1)) == 3
        assert policy.target_replicas(make_view(active=7, queue_depth=100)) == 3

    def test_rejects_zero(self):
        with pytest.raises(ConfigError):
            StaticReplicaPolicy(0)


class TestQueueDepthPolicy:
    def test_scales_up_above_threshold(self):
        policy = QueueDepthPolicy(scale_up_depth=4.0, scale_down_depth=0.5, cooldown_s=0.0)
        view = make_view(active=2, queue_depth=10)  # 5 per replica
        assert policy.target_replicas(view) == 3

    def test_scales_down_below_threshold(self):
        policy = QueueDepthPolicy(scale_up_depth=4.0, scale_down_depth=0.5, cooldown_s=0.0)
        view = make_view(active=3, queue_depth=0)
        assert policy.target_replicas(view) == 2

    def test_hysteresis_band_holds(self):
        policy = QueueDepthPolicy(scale_up_depth=4.0, scale_down_depth=0.5, cooldown_s=0.0)
        view = make_view(active=2, queue_depth=4)  # 2 per replica: inside the band
        assert policy.target_replicas(view) == 2

    def test_cooldown_suppresses_consecutive_actions(self):
        policy = QueueDepthPolicy(scale_up_depth=4.0, scale_down_depth=0.5, cooldown_s=30.0)
        hot = make_view(now_s=100.0, active=2, queue_depth=20)
        assert policy.target_replicas(hot) == 3
        hotter = make_view(now_s=110.0, active=2, queue_depth=40)
        assert policy.target_replicas(hotter) == 2  # pool unchanged: cooling down
        later = make_view(now_s=131.0, active=2, queue_depth=40)
        assert policy.target_replicas(later) == 3

    def test_never_proposes_below_min(self):
        policy = QueueDepthPolicy(cooldown_s=0.0)
        view = make_view(active=1, queue_depth=0, min_replicas=1)
        assert policy.target_replicas(view) == 1

    def test_threshold_ordering_validated(self):
        with pytest.raises(ConfigError):
            QueueDepthPolicy(scale_up_depth=1.0, scale_down_depth=2.0)


class TestSloTrackingPolicy:
    def test_scales_up_on_missed_attainment(self):
        policy = SloTrackingPolicy(t2ft_slo_s=0.5, cooldown_s=0.0, min_samples=4)
        view = make_view(active=2, recent_t2ft_s=(0.1, 0.9, 1.2, 2.0))  # 25% met
        assert policy.target_replicas(view) == 3

    def test_holds_until_window_has_signal(self):
        policy = SloTrackingPolicy(t2ft_slo_s=0.5, cooldown_s=0.0, min_samples=8)
        view = make_view(active=2, recent_t2ft_s=(0.9, 1.2))
        assert policy.target_replicas(view) == 2

    def test_scales_down_on_relaxed_attainment_and_shallow_queue(self):
        policy = SloTrackingPolicy(
            t2ft_slo_s=0.5, target_attainment=0.9, relax_attainment=0.95,
            cooldown_s=0.0, min_samples=4,
        )
        good = tuple(0.1 for _ in range(16))
        assert policy.target_replicas(make_view(active=3, recent_t2ft_s=good)) == 2
        # Deep queues veto the scale-down even on good attainment.
        loaded = make_view(active=3, queue_depth=30, recent_t2ft_s=good)
        assert policy.target_replicas(loaded) == 3

    def test_tbt_objective_is_token_weighted(self):
        policy = SloTrackingPolicy(tbt_slo_s=0.01, cooldown_s=0.0, min_samples=2)
        view = make_view(
            active=2,
            recent_tbt_s=(0.005, 0.05),
            recent_tbt_weights=(1.0, 99.0),  # nearly every token missed
        )
        assert policy.target_replicas(view) == 3

    def test_needs_at_least_one_objective(self):
        with pytest.raises(ConfigError):
            SloTrackingPolicy()


class TestScheduledPolicy:
    def test_tracks_rate_envelope(self):
        policy = ScheduledScalingPolicy(lambda t: 12.0, qps_per_replica=4.0)
        assert policy.target_replicas(make_view()) == 3

    def test_lead_time_provisions_ahead_of_ramp(self):
        rate = lambda t: 2.0 if t < 120.0 else 20.0  # noqa: E731
        early = ScheduledScalingPolicy(rate, qps_per_replica=4.0, lead_time_s=30.0)
        late = ScheduledScalingPolicy(rate, qps_per_replica=4.0, lead_time_s=0.0)
        view = make_view(now_s=100.0)
        assert late.target_replicas(view) == 1
        assert early.target_replicas(view) == 5  # sees the ramp coming

    def test_from_arrivals_uses_instantaneous_rate(self):
        arrivals = DiurnalArrivals(base_qps=2.0, peak_qps=10.0, period_s=400.0)
        policy = ScheduledScalingPolicy.from_arrivals(arrivals, qps_per_replica=2.0)
        view_peak = make_view(now_s=100.0)  # sin peak of the cycle
        assert policy.target_replicas(view_peak) == 5

    def test_from_arrivals_falls_back_to_mean(self):
        policy = ScheduledScalingPolicy.from_arrivals(
            PoissonArrivals(qps=6.0), qps_per_replica=2.0
        )
        assert policy.target_replicas(make_view(now_s=0.0)) == 3
        assert policy.target_replicas(make_view(now_s=1e6)) == 3


class TestFleetViewAttainment:
    def test_t2ft_attainment(self):
        view = make_view(recent_t2ft_s=(0.1, 0.2, 0.9, 1.5))
        assert view.t2ft_attainment(0.5) == pytest.approx(0.5)

    def test_empty_window_is_none(self):
        assert make_view().t2ft_attainment(0.5) is None
        assert make_view().tbt_attainment(0.5) is None

    def test_tbt_attainment_weighted(self):
        view = make_view(recent_tbt_s=(0.004, 0.02), recent_tbt_weights=(3.0, 1.0))
        assert view.tbt_attainment(0.01) == pytest.approx(0.75)


# ----------------------------------------------------------------------
# controller mechanics
# ----------------------------------------------------------------------
def _spec(qps=10.0):
    return WorkloadSpec(lin_mean=512, lout_mean=48, lin_cv=0.3, lout_cv=0.3, qps=qps)


def elastic(policy, max_requests=120, **kwargs):
    defaults = dict(
        min_replicas=1,
        max_replicas=4,
        control_interval_s=1.0,
        provision_delay_s=1.0,
        warmup_delay_s=1.0,
        warm_start_delay_s=0.25,
        max_batch=4,
        seed=5,
        max_requests=max_requests,
    )
    defaults.update(kwargs)
    workload = defaults.pop("workload", _spec())
    return ElasticFleetSimulator(SYSTEM, MODEL, workload, policy, **defaults)


class TestControllerMechanics:
    def test_static_policy_keeps_fleet_fixed(self):
        sim = elastic(StaticReplicaPolicy(2), min_replicas=2, max_replicas=2)
        report = sim.run(LIMITS)
        assert report.replica_states == ("active", "active")
        assert all(e.state == "active" for e in report.replica_events)
        assert report.fleet_samples  # the time series still records

    def test_managed_replica_refuses_routing_unless_active(self):
        sim = elastic(StaticReplicaPolicy(1), max_replicas=1)
        handle = sim.handles[0]
        handle.set_state(1.0, ReplicaState.DRAINING)
        with pytest.raises(SchedulingError, match="only ACTIVE"):
            handle.route(Request(request_id=0, arrival_time_s=2.0, input_len=8, output_len=4))

    def test_lifecycle_transition_order_is_legal(self):
        sim = elastic(
            QueueDepthPolicy(scale_up_depth=1.0, scale_down_depth=0.25, cooldown_s=2.0),
            workload=_spec(qps=60.0),
            max_requests=300,
        )
        report = sim.run(LIMITS)
        legal = {
            None: {ReplicaState.PROVISIONING, ReplicaState.ACTIVE},
            ReplicaState.PROVISIONING: {ReplicaState.WARMING, ReplicaState.RETIRED},
            ReplicaState.WARMING: {ReplicaState.ACTIVE, ReplicaState.RETIRED},
            ReplicaState.ACTIVE: {ReplicaState.DRAINING},
            ReplicaState.DRAINING: {ReplicaState.RETIRED},
        }
        for handle in sim.handles:
            previous = None
            last_t = -1.0
            for t, state in handle.transitions:
                assert t >= last_t, "transition times must be monotone"
                assert state in legal[previous], (
                    f"illegal transition {previous} -> {state} on replica {handle.index}"
                )
                previous, last_t = state, t

    def test_cold_then_warm_start_dwell(self):
        # A spin-up is cold only while no fleet replica has run a stage;
        # the initial replica serves from t=0, so by the first scale-up
        # the fleet has served and spin-ups take the short dwell.
        sim = elastic(
            QueueDepthPolicy(scale_up_depth=1.0, scale_down_depth=0.25, cooldown_s=1.0),
            workload=_spec(qps=80.0),
            max_requests=200,
        )
        sim.run(LIMITS)
        scaled_up = [h for h in sim.handles if h.provisioned_at > 0.0]
        assert scaled_up, "the queue-depth policy should have provisioned capacity"
        for handle in scaled_up:
            dwell = handle.active_at - handle.warming_at
            assert dwell == pytest.approx(sim.warm_start_delay_s)

    def test_warming_before_the_fleet_has_served_is_cold(self):
        # Arrivals only start at t=3, so the replica the scheduled policy
        # provisions right away starts warming before any replica of the
        # fleet has run a stage: it takes the cold dwell.
        first_arrival_s = 3.0
        scenario = Scenario(
            name="late-start",
            arrivals=ReplayedArrivals(times_s=tuple(first_arrival_s + 0.01 * i for i in range(20))),
            tenants=(TenantSpec("chat", GaussianLengths(512, 48, lin_cv=0.3, lout_cv=0.3)),),
        )
        sim = elastic(
            ScheduledScalingPolicy(lambda t: 8.0, qps_per_replica=4.0),
            workload=scenario.source(seed=0, max_requests=20),
        )
        sim.run(LIMITS)
        warmed = [
            h for h in sim.handles if any(s is ReplicaState.WARMING for _, s in h.transitions)
        ]
        assert warmed, "the scheduled policy should have provisioned capacity"
        for handle in warmed:
            assert handle.warming_at < first_arrival_s
            assert handle.active_at - handle.warming_at == pytest.approx(sim.warmup_delay_s)

    def test_routers_only_see_active_replicas(self):
        seen = []

        class SpyRouter(RoundRobinRouter):
            def choose(self, views, request):
                seen.append(tuple(v.state for v in views))
                return super().choose(views, request)

        sim = elastic(
            QueueDepthPolicy(scale_up_depth=1.0, scale_down_depth=0.25, cooldown_s=2.0),
            workload=_spec(qps=60.0),
            max_requests=250,
            router=SpyRouter(),
        )
        sim.run(LIMITS)
        assert seen
        assert all(state == "active" for states in seen for state in states)

    def test_tbt_window_holds_the_newest_samples_of_a_long_poll_gap(self):
        # A 20 s control interval lets thousands of TBT samples pile up
        # between polls; the policy's window must still hold the newest
        # slo_window of them, however many arrived since the last tick.
        window = 2048
        seen = []

        class WindowProbe:
            name = "window-probe"

            def target_replicas(self, view):
                metrics = sim.handles[0].metrics
                seen.append(metrics._tbt_count)
                assert len(view.recent_tbt_s) == min(window, metrics._tbt_count)
                values, weights = metrics._tbt_columns()
                assert view.recent_tbt_s == tuple(values[-window:].tolist())
                assert view.recent_tbt_weights == tuple(weights[-window:].tolist())
                return 1

        sim = elastic(
            WindowProbe(),
            max_replicas=1,
            control_interval_s=20.0,
            slo_window=window,
            max_requests=300,
        )
        sim.run(LIMITS)
        assert seen and seen[0] > window

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            elastic(StaticReplicaPolicy(1), min_replicas=0)
        with pytest.raises(ConfigError):
            elastic(StaticReplicaPolicy(1), min_replicas=3, max_replicas=2)
        with pytest.raises(ConfigError):
            elastic(StaticReplicaPolicy(1), initial_replicas=9)
        with pytest.raises(ConfigError):
            elastic(StaticReplicaPolicy(1), control_interval_s=0.0)


class TestStaticElasticEquivalence:
    """An elastic fleet under the static policy IS the fixed cluster."""

    def _pair(self, n, seed=3, max_requests=120):
        workload = _spec(qps=30.0)
        classic = ClusterSimulator(
            SYSTEM, MODEL, workload, n_replicas=n, router=RoundRobinRouter(),
            max_batch=8, seed=seed, max_requests=max_requests,
        ).run(LIMITS)
        elastic_report = ElasticFleetSimulator(
            SYSTEM, MODEL, workload, StaticReplicaPolicy(n),
            min_replicas=n, max_replicas=n, router=RoundRobinRouter(),
            max_batch=8, seed=seed, max_requests=max_requests,
            control_interval_s=1.0,
        ).run(LIMITS)
        return classic, elastic_report

    def test_fleet_report_identical(self):
        classic, elastic_report = self._pair(n=3)
        for field in dataclasses.fields(classic.fleet):
            assert getattr(classic.fleet, field.name) == getattr(
                elastic_report.fleet, field.name
            ), f"field {field.name} diverges between fixed and elastic-static fleets"

    def test_per_replica_reports_and_routing_identical(self):
        classic, elastic_report = self._pair(n=2)
        assert classic.replicas == elastic_report.replicas
        assert classic.requests_routed == elastic_report.requests_routed
        assert classic.requests_rejected == elastic_report.requests_rejected
        assert classic.queue_depth_samples == elastic_report.queue_depth_samples


# ----------------------------------------------------------------------
# the end-to-end acceptance scenario
# ----------------------------------------------------------------------
def _e2e_scenario():
    """Deterministic drip -> flash crowd -> sparse tail arrival replay."""
    drip = tuple(float(i) for i in range(10))
    flash = tuple(10.0 + i / 60.0 for i in range(300))
    tail = tuple(16.0 + 1.5 * i for i in range(40))
    return Scenario(
        name="elastic-e2e",
        arrivals=ReplayedArrivals(times_s=drip + flash + tail),
        tenants=(TenantSpec("chat", GaussianLengths(512, 48, lin_cv=0.3, lout_cv=0.3)),),
    )


E2E_REQUESTS = 350
E2E_SLO_S = 0.5


def _run_e2e(policy, initial=None, max_replicas=4):
    scenario = _e2e_scenario()
    sim = ElasticFleetSimulator(
        SYSTEM, MODEL, scenario.source(seed=0, max_requests=E2E_REQUESTS),
        policy=policy, min_replicas=1, max_replicas=max_replicas,
        initial_replicas=initial, control_interval_s=1.0,
        provision_delay_s=1.0, warmup_delay_s=1.0, warm_start_delay_s=0.25,
        max_batch=2, seed=5, slo_window=24,
    )
    report = sim.run(LIMITS)
    merged = MetricsCollector.merged([h.metrics for h in sim.handles])
    return sim, report, merged


@pytest.fixture(scope="module")
def e2e():
    """One SLO-tracking run plus the two static baselines (shared)."""
    tracking = _run_e2e(SloTrackingPolicy(t2ft_slo_s=E2E_SLO_S, cooldown_s=3.0, min_samples=8))
    static_min = _run_e2e(StaticReplicaPolicy(1), initial=1)
    static_max = _run_e2e(StaticReplicaPolicy(4), initial=4)
    return tracking, static_min, static_max


class TestEndToEndSloScaling:
    def test_scales_up_and_drains_back_down(self, e2e):
        (_, report, _), _, _ = e2e
        states = [e.state for e in report.replica_events]
        assert "provisioning" in states, "the flash crowd should trigger scale-up"
        assert "warming" in states
        assert "draining" in states, "the sparse tail should trigger scale-down"
        assert "retired" in states
        assert report.peak_active_replicas > 1
        # The fleet ends smaller than its peak: drained back down.
        assert report.fleet_samples[-1].active < report.peak_active_replicas

    def test_zero_requests_lost_during_drain(self, e2e):
        (sim, report, _), _, _ = e2e
        assert sum(report.requests_routed) == E2E_REQUESTS
        assert report.requests_rejected == 0
        assert report.fleet.requests_completed == E2E_REQUESTS
        # Ledger-level: every request routed to a replica finished there,
        # including on the replicas that drained and retired.
        for handle in sim.handles:
            assert handle.in_flight == 0
            finished = set(handle.engines[-1].finished_ids)
            routed = handle.inbox.accepted
            assert len(finished) == routed

    def test_beats_static_min_at_lower_cost_than_static_max(self, e2e):
        (_, track_report, track_metrics), (_, min_report, min_metrics), (
            _,
            max_report,
            max_metrics,
        ) = e2e
        track_att = track_metrics.t2ft_slo_attainment(E2E_SLO_S)
        min_att = min_metrics.t2ft_slo_attainment(E2E_SLO_S)
        max_att = max_metrics.t2ft_slo_attainment(E2E_SLO_S)
        assert track_att > min_att, "scaling must strictly beat the min-replica baseline"
        assert track_report.replica_seconds <= max_report.replica_seconds, (
            "scaling must not cost more replica-seconds than always-max"
        )
        # Sanity on the bracket: max is at least as good as tracking.
        assert max_att >= track_att

    def test_time_series_reflects_every_transition(self, e2e):
        (_, report, _), _, _ = e2e
        events = list(report.replica_events)
        assert events == sorted(events, key=lambda e: e.time_s)
        state_of: dict[int, str] = {}
        cursor = 0
        for sample in report.fleet_samples:
            while cursor < len(events) and events[cursor].time_s <= sample.time_s:
                state_of[events[cursor].replica] = events[cursor].state
                cursor += 1
            counts = {
                "provisioning": 0, "warming": 0, "active": 0,
                "draining": 0, "retired": 0,
            }
            for state in state_of.values():
                counts[state] += 1
            assert (
                sample.provisioning, sample.warming, sample.active,
                sample.draining, sample.retired,
            ) == (
                counts["provisioning"], counts["warming"], counts["active"],
                counts["draining"], counts["retired"],
            ), f"fleet sample at t={sample.time_s} disagrees with the event log"
        assert cursor == len(events), "every transition must precede some fleet sample"

    def test_deterministic_repeat(self):
        _, a, _ = _run_e2e(
            SloTrackingPolicy(t2ft_slo_s=E2E_SLO_S, cooldown_s=3.0, min_samples=8)
        )
        _, b, _ = _run_e2e(
            SloTrackingPolicy(t2ft_slo_s=E2E_SLO_S, cooldown_s=3.0, min_samples=8)
        )
        assert a.fleet == b.fleet
        assert a.replica_events == b.replica_events
        assert a.fleet_samples == b.fleet_samples
        assert a.replica_seconds == b.replica_seconds


@pytest.mark.chaos
class TestDrainingExitHandoff:
    """A spent-budget DRAINING exit hands queued work back atomically.

    White-box: drives ``_retire_drained`` directly so the test can pin
    the exact instant the handle retires with a routed-but-unadmitted
    request still in its queue — the request must land in the cluster's
    retry table, due on the fleet calendar at that instant (free
    re-route, no attempt charge), in the same call that logs the RETIRED
    transition, never vanish with the handle.
    """

    def test_spent_budget_retire_requeues_unadmitted_requests(self):
        sim = elastic(StaticReplicaPolicy(1), max_batch=1)
        limits = SimulationLimits(max_stages=1, warmup_stages=0)
        sim._begin_run(limits)
        handle = sim.handles[0]
        first = Request(request_id=0, arrival_time_s=0.0, input_len=64, output_len=8)
        second = Request(request_id=1, arrival_time_s=0.0, input_len=64, output_len=8)
        handle.route(first)
        handle.route(second)

        handle.set_state(0.5, ReplicaState.DRAINING)
        sim._draining.append(handle)
        # One stage admits `first` (max_batch=1) and spends the whole
        # budget; `second` is still queued when the drain walk observes
        # the spent budget at t=1.0.
        sim._retire_drained(1.0)

        assert handle.state is ReplicaState.RETIRED
        assert sim._draining == []
        assert len(handle.inbox) == 0
        assert not handle.engines[0].scheduler.waiting
        [(requeued, cached, backoff_s, metrics)] = sim._retries.values()
        assert requeued is second
        assert sim._calendar.next_time() == 1.0  # immediately re-routable
        assert cached == -1 and backoff_s == 0.0 and metrics is None
        assert requeued.attempts == 1  # free re-route: no attempt charge

    def test_handed_back_request_fires_off_the_calendar_not_a_tick(self):
        """The handoff retry re-routes at its own instant, off the grid.

        Replica 0 drains two requests under a one-stage budget; at the
        0.5 s arrival it retires with the second still queued.  The
        retry fires at 0.5 s without running the controller, so the
        fleet time series keeps its fixed cadence: the grid tick at 1 s
        and the run-end sample.
        """
        trace = TraceReplayGenerator([TraceRecord(arrival_s=0.5, input_len=64, output_len=8)])
        sim = elastic(
            StaticReplicaPolicy(2), min_replicas=2, max_replicas=2, max_batch=1, seed=0,
            workload=trace, max_requests=None,
        )
        handle = sim.handles[0]
        queued = Request(request_id=101, arrival_time_s=0.0, input_len=64, output_len=8)
        handle.route(Request(request_id=100, arrival_time_s=0.0, input_len=64, output_len=8))
        handle.route(queued)
        handle.set_state(0.0, ReplicaState.DRAINING)
        sim._draining.append(handle)

        report = sim.run(SimulationLimits(max_stages=1, warmup_stages=0))

        assert report.replica_events[-1] == ReplicaEvent(time_s=0.5, replica=0, state="retired")
        assert sim.handles[1].inbox.accepted == 2  # the arrival and the retry
        assert queued.attempts == 1
        assert [sample.time_s for sample in report.fleet_samples] == [1.0, 1.0]

"""Elastic fleet control: autoscaling policies and the fleet controller.

The cluster layer (:mod:`repro.serving.cluster`) gives replicas an
explicit lifecycle (``PROVISIONING → WARMING → ACTIVE → DRAINING →
RETIRED``); this module drives it.  An
:class:`ElasticFleetSimulator` interleaves fixed-cadence *control ticks*
with the arrival stream: each tick advances replica lifecycles (boots
finishing, drains emptying), snapshots the fleet into a
:class:`~repro.serving.cluster.FleetSample` time series, and asks a
pluggable :class:`AutoscalingPolicy` for the fleet size it wants —
provisioning new replicas or draining least-loaded ones to meet it.

Four policies ship:

* :class:`StaticReplicaPolicy` — the fixed-fleet baseline (an elastic
  fleet under this policy reproduces :class:`ClusterSimulator` exactly).
* :class:`QueueDepthPolicy` — threshold-on-queue-depth with hysteresis
  (distinct up/down thresholds) and a cooldown.
* :class:`SloTrackingPolicy` — target-tracking on rolling TBT/T2FT SLO
  attainment over a sliding sample window.
* :class:`ScheduledScalingPolicy` — scheduled/predictive scaling from an
  arrival-rate envelope (e.g. a diurnal scenario's known rate curve),
  provisioning ahead of the load with a configurable lead time.

Cold vs warm starts: a freshly provisioned replica dwells in
``PROVISIONING`` for ``provision_delay_s`` (hardware + weights) and then
in ``WARMING`` for ``warmup_delay_s``.  A monolithic or sharded replica
that starts warming after some replica of the fleet has run a stage takes
the *warm-start* path instead, and its dwell shrinks to
``warm_start_delay_s``.

Time model: boot milestones fire at their own instants off the cluster's
fleet calendar (see :mod:`repro.serving.cluster`).  Control ticks never
advance ACTIVE engines (they read the same possibly-stale state routers
see — decisions take effect from the next event), but ticks and arrivals
advance DRAINING replicas so drains complete in a timely fashion.  Under
:class:`StaticReplicaPolicy` no replica ever leaves ACTIVE, so an elastic
fleet is stage-for-stage identical to the fixed :class:`ClusterSimulator`
— the equivalence test in ``tests/serving/test_autoscaler.py`` pins that.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

from repro.core.system import SystemConfig
from repro.errors import ConfigError
from repro.models.config import ModelConfig
from repro.serving.cluster import (
    ClusterSimulator,
    FleetSample,
    ManagedReplica,
    MonolithicReplicaSpec,
    ReplicaSpec,
    ReplicaState,
    Router,
    replica_spec_devices,
)
from repro.serving.engine import SimulationLimits
from repro.serving.generator import RequestSource, WorkloadSpec
from repro.serving.policy import SchedulingPolicy
from repro.serving.scenarios import ArrivalProcess


# ----------------------------------------------------------------------
# what a policy sees
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetView:
    """One control tick's snapshot of the fleet, as policies see it.

    Attributes:
        now_s: the fleet virtual clock at the tick.
        provisioning / warming / active / draining / retired: replica
            counts per lifecycle state (an elastic fleet takes no fault
            injector, so no replica is ever FAILED).
        min_replicas / max_replicas: the controller's clamp bounds.
        queue_depth: routed-but-unadmitted requests across the fleet.
        outstanding_tokens: worst-case KV tokens admitted or queued.
        arrival_rate_qps: arrivals observed over the controller's rate
            window, per second (the window shrinks to the elapsed time
            early in a run, so startup ramps read at full strength).
        utilization: busy-time fraction of ACTIVE replicas *since the
            previous control tick* — an instantaneous load signal, like
            ``queue_depth``, not a lifetime average.
        recent_t2ft_s: sliding window of the latest T2FT samples.
        recent_tbt_s / recent_tbt_weights: sliding window of the latest
            TBT stage latencies and their decode-token weights.
        shed_requests: cumulative requests shed by scheduling policies.
    """

    now_s: float
    provisioning: int
    warming: int
    active: int
    draining: int
    retired: int
    min_replicas: int
    max_replicas: int
    queue_depth: int
    outstanding_tokens: int
    arrival_rate_qps: float
    utilization: float
    recent_t2ft_s: tuple[float, ...]
    recent_tbt_s: tuple[float, ...]
    recent_tbt_weights: tuple[float, ...]
    shed_requests: int

    @property
    def scaling_pool(self) -> int:
        """Replicas a scaling decision counts: booting or serving.

        DRAINING replicas are already on their way out and RETIRED ones
        are gone, so a policy's target is compared against
        ``provisioning + warming + active``.
        """
        return self.provisioning + self.warming + self.active

    @property
    def queue_depth_per_active(self) -> float:
        return self.queue_depth / self.active if self.active else float(self.queue_depth)

    def t2ft_attainment(self, slo_s: float) -> float | None:
        """Rolling share of windowed T2FT samples meeting ``slo_s``.

        None while the window is empty (nothing measured yet).
        """
        if slo_s <= 0:
            raise ConfigError("SLO must be positive")
        if not self.recent_t2ft_s:
            return None
        met = sum(1 for value in self.recent_t2ft_s if value <= slo_s)
        return met / len(self.recent_t2ft_s)

    def tbt_attainment(self, slo_s: float) -> float | None:
        """Rolling token-weighted share of windowed TBT samples meeting
        ``slo_s``; None while the window is empty."""
        if slo_s <= 0:
            raise ConfigError("SLO must be positive")
        if not self.recent_tbt_s:
            return None
        total = sum(self.recent_tbt_weights)
        if total <= 0:
            return None
        met = sum(
            weight
            for value, weight in zip(self.recent_tbt_s, self.recent_tbt_weights, strict=True)
            if value <= slo_s
        )
        return met / total


@runtime_checkable
class AutoscalingPolicy(Protocol):
    """Decides how many replicas the fleet should be running.

    ``target_replicas`` is called once per control tick with the current
    :class:`FleetView` and returns the desired
    :attr:`FleetView.scaling_pool` size; the controller clamps it to
    ``[min_replicas, max_replicas]`` and provisions or drains the
    difference.  Policies may keep state (cooldowns, trend estimates) —
    the controller builds one policy instance per fleet.
    """

    name: str

    def target_replicas(self, view: FleetView) -> int: ...


# ----------------------------------------------------------------------
# the four shipped policies
# ----------------------------------------------------------------------
class StaticReplicaPolicy:
    """The fixed-fleet baseline: always ask for ``n`` replicas."""

    name = "static"

    def __init__(self, n_replicas: int) -> None:
        if n_replicas < 1:
            raise ConfigError("a static fleet needs at least one replica")
        self.n_replicas = n_replicas

    def target_replicas(self, view: FleetView) -> int:
        return self.n_replicas


class QueueDepthPolicy:
    """Threshold scaling on per-replica queue depth, with hysteresis.

    Scales up one ``step`` when the routed-but-unadmitted queue per
    ACTIVE replica exceeds ``scale_up_depth``; scales down one ``step``
    when it falls below ``scale_down_depth``.  The two thresholds form
    the hysteresis band (no thrashing while the depth sits between
    them), and ``cooldown_s`` spaces consecutive actions so a freshly
    provisioned replica gets a chance to absorb load before the next
    decision.
    """

    name = "queue-depth"

    def __init__(
        self,
        scale_up_depth: float = 4.0,
        scale_down_depth: float = 0.5,
        step: int = 1,
        cooldown_s: float = 15.0,
    ) -> None:
        if scale_up_depth <= scale_down_depth:
            raise ConfigError(
                "scale_up_depth must exceed scale_down_depth (the hysteresis band)"
            )
        if scale_down_depth < 0:
            raise ConfigError("scale_down_depth must be non-negative")
        if step < 1:
            raise ConfigError("step must be at least 1")
        if cooldown_s < 0:
            raise ConfigError("cooldown_s must be non-negative")
        self.scale_up_depth = scale_up_depth
        self.scale_down_depth = scale_down_depth
        self.step = step
        self.cooldown_s = cooldown_s
        self._last_action_s = -math.inf

    def target_replicas(self, view: FleetView) -> int:
        pool = view.scaling_pool
        if view.now_s - self._last_action_s < self.cooldown_s:
            return pool
        depth = view.queue_depth_per_active
        # Cooldown only charges when the proposal can take effect — a
        # fleet pinned at max (or min) must not keep resetting the timer
        # on clamped no-ops, or the eventual opposite action is delayed.
        if depth > self.scale_up_depth and pool < view.max_replicas:
            self._last_action_s = view.now_s
            return pool + self.step
        if depth < self.scale_down_depth and pool > view.min_replicas:
            self._last_action_s = view.now_s
            return pool - self.step
        return pool


class SloTrackingPolicy:
    """Target-tracking on rolling SLO attainment (T2FT and/or TBT).

    Scales up while the worst rolling attainment sits below
    ``target_attainment``; scales down only once attainment clears
    ``relax_attainment`` *and* queues are shallow (the attainment window
    lags reality, so the queue guard keeps a still-loaded fleet from
    shedding capacity on stale good news).  ``min_samples`` suppresses
    decisions until the window carries signal; ``cooldown_s`` spaces
    actions.
    """

    name = "slo-tracking"

    def __init__(
        self,
        t2ft_slo_s: float | None = None,
        tbt_slo_s: float | None = None,
        target_attainment: float = 0.9,
        relax_attainment: float = 0.98,
        step: int = 1,
        cooldown_s: float = 15.0,
        min_samples: int = 8,
    ) -> None:
        if t2ft_slo_s is None and tbt_slo_s is None:
            raise ConfigError("SLO tracking needs a T2FT and/or a TBT objective")
        if t2ft_slo_s is not None and t2ft_slo_s <= 0:
            raise ConfigError("t2ft_slo_s must be positive")
        if tbt_slo_s is not None and tbt_slo_s <= 0:
            raise ConfigError("tbt_slo_s must be positive")
        if not 0.0 < target_attainment <= relax_attainment <= 1.0:
            raise ConfigError("need 0 < target_attainment <= relax_attainment <= 1")
        if step < 1:
            raise ConfigError("step must be at least 1")
        if min_samples < 1:
            raise ConfigError("min_samples must be at least 1")
        self.t2ft_slo_s = t2ft_slo_s
        self.tbt_slo_s = tbt_slo_s
        self.target_attainment = target_attainment
        self.relax_attainment = relax_attainment
        self.step = step
        self.cooldown_s = cooldown_s
        self.min_samples = min_samples
        self._last_action_s = -math.inf

    def _worst_attainment(self, view: FleetView) -> float | None:
        attainments = []
        if self.t2ft_slo_s is not None:
            if len(view.recent_t2ft_s) < self.min_samples:
                return None
            attainments.append(view.t2ft_attainment(self.t2ft_slo_s))
        if self.tbt_slo_s is not None:
            if len(view.recent_tbt_s) < self.min_samples:
                return None
            attainments.append(view.tbt_attainment(self.tbt_slo_s))
        attainments = [a for a in attainments if a is not None]
        return min(attainments) if attainments else None

    def target_replicas(self, view: FleetView) -> int:
        pool = view.scaling_pool
        if view.now_s - self._last_action_s < self.cooldown_s:
            return pool
        worst = self._worst_attainment(view)
        if worst is None:
            return pool
        # As in QueueDepthPolicy: never charge the cooldown for a
        # proposal the [min, max] clamp would turn into a no-op.
        if worst < self.target_attainment and pool < view.max_replicas:
            self._last_action_s = view.now_s
            return pool + self.step
        if (
            worst >= self.relax_attainment
            and pool > view.min_replicas
            and view.queue_depth_per_active < 1.0
        ):
            self._last_action_s = view.now_s
            return pool - self.step
        return pool


class ScheduledScalingPolicy:
    """Scheduled/predictive scaling from an arrival-rate envelope.

    Sizes the fleet to ``ceil(headroom * rate(now + lead_time) /
    qps_per_replica)`` — the classic time-of-day schedule when the rate
    function is a known envelope (e.g. a diurnal scenario's
    ``rate_at``), and a predictive scaler when the lead time covers the
    provision-plus-warmup delay so capacity lands *before* the ramp.
    """

    name = "scheduled"

    def __init__(
        self,
        rate_qps: Callable[[float], float],
        qps_per_replica: float,
        lead_time_s: float = 0.0,
        headroom: float = 1.0,
    ) -> None:
        if qps_per_replica <= 0:
            raise ConfigError("qps_per_replica must be positive")
        if lead_time_s < 0:
            raise ConfigError("lead_time_s must be non-negative")
        if headroom <= 0:
            raise ConfigError("headroom must be positive")
        self.rate_qps = rate_qps
        self.qps_per_replica = qps_per_replica
        self.lead_time_s = lead_time_s
        self.headroom = headroom

    @classmethod
    def from_arrivals(
        cls,
        arrivals: ArrivalProcess,
        qps_per_replica: float,
        lead_time_s: float = 0.0,
        headroom: float = 1.0,
    ) -> "ScheduledScalingPolicy":
        """Build the envelope from an arrival process's ``rate_at``: the
        sinusoid of :class:`~repro.serving.scenarios.DiurnalArrivals`, the
        constant ``mean_qps`` of processes without a known envelope."""
        return cls(arrivals.rate_at, qps_per_replica, lead_time_s, headroom)

    def target_replicas(self, view: FleetView) -> int:
        rate = self.rate_qps(view.now_s + self.lead_time_s)
        return max(1, math.ceil(self.headroom * rate / self.qps_per_replica))


# ----------------------------------------------------------------------
# the controller
# ----------------------------------------------------------------------
class ElasticFleetSimulator(ClusterSimulator):
    """A cluster whose fleet size follows an :class:`AutoscalingPolicy`.

    The arrival stream is routed exactly as in
    :class:`~repro.serving.cluster.ClusterSimulator` — but only ACTIVE
    replicas are routable, and every ``control_interval_s`` of virtual
    time a control tick retires emptied drains, applies the policy's
    scaling decision, and snapshots the fleet time series: scale-ups
    provision new replicas (cold- or warm-started, see below), scale-
    downs cancel still-booting replicas first and then drain the
    least-loaded ACTIVE ones, which finish their in-flight requests and
    retire.

    Args:
        system / model / workload / router / max_batch / seed /
            gating_skew / policy_factory / max_requests /
            worst_case_tokens: as for
            :class:`~repro.serving.cluster.ClusterSimulator`.
        policy: the autoscaling policy driving fleet size.
        min_replicas: lower clamp; the controller never drains below it.
        max_replicas: upper clamp on provisioned (booting + serving)
            replicas.
        max_devices: optional fleet-wide *device* budget.  The replica
            count clamp becomes ``min(max_replicas, max_devices //
            devices_per_replica)`` where ``devices_per_replica`` is the
            template's footprint (``tp * ep`` for a sharded template),
            so an eight-device sharded replica and a one-device monolith
            are bounded by the same hardware pool, not the same count.
        initial_replicas: fleet size at time zero (ACTIVE immediately —
            the pre-existing deployment); defaults to ``min_replicas``.
        replica_template: spec cloned for every provisioned replica
            (default: a cluster-level monolithic replica).
        control_interval_s: virtual-time cadence of control ticks (also
            the telemetry sampling cadence).
        provision_delay_s: PROVISIONING dwell — hardware boot plus model
            load — before a new replica starts warming.
        warmup_delay_s: WARMING dwell on the cold-start path (the fleet
            has not run a stage yet, or the replica is a split one).
        warm_start_delay_s: WARMING dwell on the warm-start path — a
            monolithic or sharded replica that starts warming after some
            replica of the fleet has run a stage.
        rate_window_s: sliding window of the arrival-rate estimate
            (default: five control intervals).
        slo_window: sliding sample-window length for rolling T2FT/TBT
            attainment.
    """

    def __init__(
        self,
        system: SystemConfig,
        model: ModelConfig,
        workload: WorkloadSpec | RequestSource,
        policy: AutoscalingPolicy,
        min_replicas: int = 1,
        max_replicas: int = 8,
        max_devices: int | None = None,
        initial_replicas: int | None = None,
        replica_template: ReplicaSpec | None = None,
        control_interval_s: float = 1.0,
        provision_delay_s: float = 10.0,
        warmup_delay_s: float = 5.0,
        warm_start_delay_s: float = 0.5,
        router: Router | None = None,
        max_batch: int = 32,
        seed: int | None = 0,
        gating_skew: float = 0.0,
        policy_factory: Callable[[], SchedulingPolicy] | None = None,
        max_requests: int | None = None,
        worst_case_tokens: int | None = None,
        rate_window_s: float | None = None,
        slo_window: int = 64,
    ) -> None:
        if min_replicas < 1:
            raise ConfigError("min_replicas must be at least 1 (routing needs a target)")
        if max_replicas < min_replicas:
            raise ConfigError("max_replicas must be at least min_replicas")
        template = replica_template if replica_template is not None else MonolithicReplicaSpec()
        self.devices_per_replica = replica_spec_devices(template, system, model)
        self.max_devices = max_devices
        if max_devices is not None:
            device_cap = max_devices // self.devices_per_replica
            if device_cap < min_replicas:
                raise ConfigError(
                    f"max_devices={max_devices} holds only {device_cap} replicas of "
                    f"{self.devices_per_replica} devices — below min_replicas={min_replicas}"
                )
            max_replicas = min(max_replicas, device_cap)
        initial = min_replicas if initial_replicas is None else initial_replicas
        if not min_replicas <= initial <= max_replicas:
            raise ConfigError("initial_replicas must lie within [min_replicas, max_replicas]")
        if control_interval_s <= 0:
            raise ConfigError("control_interval_s must be positive")
        for name, value in (
            ("provision_delay_s", provision_delay_s),
            ("warmup_delay_s", warmup_delay_s),
            ("warm_start_delay_s", warm_start_delay_s),
        ):
            if value < 0:
                raise ConfigError(f"{name} must be non-negative")
        if slo_window < 1:
            raise ConfigError("slo_window must be at least 1")
        self.policy = policy
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.replica_template = template
        self.control_interval_s = control_interval_s
        self.provision_delay_s = provision_delay_s
        self.warmup_delay_s = warmup_delay_s
        self.warm_start_delay_s = warm_start_delay_s
        self.rate_window_s = (
            rate_window_s if rate_window_s is not None else 5.0 * control_interval_s
        )
        if self.rate_window_s <= 0:
            raise ConfigError("rate_window_s must be positive")
        self.slo_window = slo_window
        super().__init__(
            system,
            model,
            workload,
            router=router,
            max_batch=max_batch,
            seed=seed,
            gating_skew=gating_skew,
            policy_factory=policy_factory,
            max_requests=max_requests,
            worst_case_tokens=worst_case_tokens,
            replicas=tuple(self.replica_template for _ in range(initial)),
            sample_interval_s=control_interval_s,
        )
        # DRAINING replicas retire when their in-flight work empties (not
        # at a known instant), so they sit in a small list walked at every
        # arrival and tick.
        self._draining: list[ManagedReplica] = []
        # controller run-state: the sample list and cursors are (re)set
        # in _begin_run; the windows carry their maxlen configuration.
        self._arrival_times: deque[float] = deque()
        self._t2ft_window: deque[float] = deque(maxlen=slo_window)
        self._tbt_window: deque[tuple[float, float]] = deque(maxlen=slo_window)
        self._t2ft_cursors: dict[int, int] = {}
        self._tbt_cursors: dict[int, int] = {}
        self._util_cursors: dict[int, tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _boot(self, t: float, index: int) -> None:
        """A boot milestone: PROVISIONING -> WARMING, or WARMING -> ACTIVE.

        The warm-vs-cold dwell is decided when warming actually begins —
        the fleet may not have served yet when this replica was
        provisioned, yet have by the time it boots.
        """
        handle = self.handles[index]
        if handle.state is ReplicaState.PROVISIONING:
            handle.set_state(t, ReplicaState.WARMING)
            dwell = self.warm_start_delay_s if self._starts_warm(handle) else self.warmup_delay_s
            handle.active_at = t + dwell
            self._calendar.schedule((self._boot, index), handle.active_at)
        else:
            handle.set_state(t, ReplicaState.ACTIVE)
            # The replica's virtual clock starts at activation — it did
            # not exist (as serving capacity) before.
            handle.jump_to(t)

    def _retire_drained(self, t: float) -> None:
        """Drain DRAINING replicas to ``t``; retire the empty or spent ones.

        Stamped at the observation instant (an arrival, a tick or run
        end), not the replica's possibly-overshot stage clock, so the
        event log replays against the fleet samples.  A spent budget can
        retire a replica still holding routed-but-unadmitted requests:
        they go back to the router (free) with the transition.
        """
        limits = self._limits
        still_draining: list[ManagedReplica] = []
        for handle in self._draining:
            handle.driver.drain_until(t, limits)
            if handle.has_work and not handle.budget_spent(limits):
                still_draining.append(handle)
                continue
            for request in handle.harvest_queued():
                self._push_retry(t, request)
            handle.set_state(t, ReplicaState.RETIRED)
        self._draining = still_draining

    def _starts_warm(self, handle: ManagedReplica) -> bool:
        """Whether a replica beginning to warm takes the warm-start dwell:
        it is monolithic or sharded, and some fleet replica has run a stage."""
        return handle.kind != "split" and any(engine.stages for engine in self.engines)

    def _scale_up(self, t: float, n: int) -> None:
        for _ in range(n):
            handle = self._provision(
                self.replica_template,
                state=ReplicaState.PROVISIONING,
                provisioned_at=t,
            )
            handle.warming_at = t + self.provision_delay_s
            # Provisional (cold) schedule; _boot re-derives the dwell when
            # WARMING actually begins.
            handle.active_at = handle.warming_at + self.warmup_delay_s
            self._calendar.schedule((self._boot, handle.index), handle.warming_at)

    def _scale_down(self, t: float, n: int) -> None:
        # Cancel still-booting replicas first (no work to drain), newest
        # provisioned first.
        for state in (ReplicaState.PROVISIONING, ReplicaState.WARMING):
            booting = [h for h in self.handles if h.state is state]
            for handle in reversed(booting):
                if n == 0:
                    return
                handle.set_state(t, ReplicaState.RETIRED)
                self._calendar.cancel((self._boot, handle.index))
                n -= 1
        active = [h for h in self.handles if h.state is ReplicaState.ACTIVE]
        droppable = len(active) - self.min_replicas
        if droppable <= 0:
            return
        # Drain the least-loaded ACTIVE replicas (ties: newest first) so
        # in-flight work finishes fastest.
        victims = sorted(
            active,
            key=lambda h: (h.view().outstanding_tokens, -h.index),
        )[: min(n, droppable)]
        for handle in victims:
            handle.set_state(t, ReplicaState.DRAINING)
            self._draining.append(handle)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def _note_arrival(self, arrival: float) -> None:
        self._arrival_times.append(arrival)
        floor = arrival - self.rate_window_s
        while self._arrival_times and self._arrival_times[0] < floor:
            self._arrival_times.popleft()

    def _utilization_since_last(self) -> float:
        """ACTIVE replicas' busy fraction since the previous tick.

        A delta over the (busy, elapsed) totals recorded at the last
        tick, so the fleet time series carries an instantaneous load
        signal rather than a lifetime average that stays high long after
        a burst has passed.  0.0 when no recorded time elapsed (engines
        advance at arrivals and drain slices, not at ticks themselves).
        """
        busy = 0.0
        elapsed = 0.0
        for handle in self.handles:
            if handle.state is not ReplicaState.ACTIVE:
                continue
            metrics = handle.metrics
            seen_busy, seen_elapsed = self._util_cursors.get(handle.index, (0.0, 0.0))
            busy += metrics.busy_s - seen_busy
            elapsed += metrics.elapsed_s - seen_elapsed
            self._util_cursors[handle.index] = (metrics.busy_s, metrics.elapsed_s)
        return busy / elapsed if elapsed > 0 else 0.0

    def _observe_latencies(self) -> None:
        """Pull newly recorded latency samples into the rolling windows."""
        for handle in self.handles:
            metrics = handle.metrics
            t2ft = metrics.t2ft_samples
            cursor = self._t2ft_cursors.get(handle.index, 0)
            if len(t2ft) > cursor:
                self._t2ft_window.extend(t2ft[cursor:])
                self._t2ft_cursors[handle.index] = len(t2ft)
            values, weights, cursor = metrics.tbt_samples_since(
                self._tbt_cursors.get(handle.index, 0), self.slo_window
            )
            if values:
                self._tbt_window.extend(zip(values, weights, strict=True))
            self._tbt_cursors[handle.index] = cursor

    def _fleet_view(self, t: float, utilization: float) -> FleetView:
        counts = {state: 0 for state in ReplicaState}
        queue_depth = 0
        outstanding = 0
        for handle in self.handles:
            counts[handle.state] += 1
            if handle.state is ReplicaState.RETIRED:
                continue
            view = handle.view()
            queue_depth += view.queue_depth
            outstanding += view.outstanding_tokens
        window = min(self.rate_window_s, t) if t > 0 else self.rate_window_s
        floor = t - window
        recent = sum(1 for a in self._arrival_times if a >= floor)
        tbt_values = tuple(value for value, _ in self._tbt_window)
        tbt_weights = tuple(weight for _, weight in self._tbt_window)
        return FleetView(
            now_s=t,
            provisioning=counts[ReplicaState.PROVISIONING],
            warming=counts[ReplicaState.WARMING],
            active=counts[ReplicaState.ACTIVE],
            draining=counts[ReplicaState.DRAINING],
            retired=counts[ReplicaState.RETIRED],
            min_replicas=self.min_replicas,
            max_replicas=self.max_replicas,
            queue_depth=queue_depth,
            outstanding_tokens=outstanding,
            arrival_rate_qps=recent / window,
            utilization=utilization,
            recent_t2ft_s=tuple(self._t2ft_window),
            recent_tbt_s=tbt_values,
            recent_tbt_weights=tbt_weights,
            shed_requests=sum(h.rejected_count for h in self.handles),
        )

    def _record_fleet_sample(self, t: float, view: FleetView) -> None:
        self._last_sample_s = max(self._last_sample_s, t)
        self._fleet_samples.append(
            FleetSample(
                time_s=t,
                provisioning=view.provisioning,
                warming=view.warming,
                active=view.active,
                draining=view.draining,
                retired=view.retired,
                queue_depth=view.queue_depth,
                outstanding_tokens=view.outstanding_tokens,
                utilization=view.utilization,
                routed_requests=self._routed,
                shed_requests=view.shed_requests,
            )
        )

    # ------------------------------------------------------------------
    # controller hooks into the cluster run loop
    # ------------------------------------------------------------------
    def _begin_run(self, limits: SimulationLimits) -> None:
        super()._begin_run(limits)
        self._last_sample_s = 0.0
        self._arrival_times.clear()
        self._t2ft_window.clear()
        self._tbt_window.clear()
        self._t2ft_cursors.clear()
        self._tbt_cursors.clear()
        self._util_cursors.clear()

    def _route_arrival(self, arrival: float) -> None:
        # Drains that emptied retire before the fleet advances as live
        # capacity (boots due by now have fired off the calendar).
        self._retire_drained(arrival)
        self._note_arrival(arrival)
        super()._route_arrival(arrival)

    def _control(self, t: float) -> None:
        self._retire_drained(t)
        self._observe_latencies()
        utilization = self._utilization_since_last()
        if not self._drain_phase:
            # No scaling decisions during the final drain (there are no
            # arrivals left to serve) — but draining replicas still
            # retire, and the time series keeps recording.
            view = self._fleet_view(t, utilization)
            target = self.policy.target_replicas(view)
            target = max(self.min_replicas, min(self.max_replicas, target))
            pool = view.scaling_pool
            if target > pool:
                self._scale_up(t, target - pool)
            elif target < pool:
                self._scale_down(t, pool - target)
        # Sample *after* the decision so every transition stamped <= t is
        # reflected by the sample at t (the time series replays exactly
        # against the event log).  Scaling moves no work, so only the
        # per-state counts differ from the decision view.
        self._record_fleet_sample(t, self._fleet_view(t, utilization))

    def _finish_drain(self) -> None:
        clocks = max((h.now_s for h in self.handles), default=0.0)
        end = max(clocks, self._last_sample_s)  # keep the series monotone
        # A spent-budget retirement here hands its queued requests back as
        # retries that never fire: they surface as undispatched recovery
        # entries rather than silently vanishing.
        self._retire_drained(end)
        self._observe_latencies()
        self._record_fleet_sample(end, self._fleet_view(end, self._utilization_since_last()))

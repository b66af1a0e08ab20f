"""Multi-replica cluster serving: N engines behind a pluggable router.

The paper evaluates one device serving one continuous-batching stream;
production MoE deployments run *fleets* of replicas behind a router.  This
module simulates that layer: one shared arrival stream (synthetic Poisson,
a scenario source, or a replayed trace) is routed request-by-request onto
independent serving engines and the per-replica measurements are pooled
into a fleet-level :class:`~repro.serving.metrics.ServingReport`.

Every replica is one :class:`ManagedReplica`: one or two serving engines
behind the inbox the router pushes into, plus an explicit lifecycle.  The
engines come from a :class:`ReplicaSpec`, and fleets may mix all three
kinds:

* monolithic — one engine on one system (the paper's Duplex device);
* sharded — one engine spanning ``tp * ep`` devices (the paper's TP×EP
  production layout);
* split — a Splitwise-style prefill engine handing KV off to a decode
  engine (Section VIII-A).

The lifecycle (``PROVISIONING → WARMING → ACTIVE → DRAINING → RETIRED``,
plus ``FAILED``; see :class:`ReplicaState`) keeps a full transition log.
Routers only ever see ACTIVE replicas; DRAINING replicas refuse new
admissions while finishing their in-flight requests.

:class:`ClusterSimulator` runs a *fixed* fleet (every replica ACTIVE for
the whole run, unless a fault injector crashes and repairs them); the
elastic fleet controller in :mod:`repro.serving.autoscaler` drives the
same lifecycle with an
:class:`~repro.serving.autoscaler.AutoscalingPolicy` that provisions and
drains replicas at runtime.

Routing policies:

* :class:`RoundRobinRouter` — cyclic assignment, load-blind.
* :class:`LeastOutstandingTokensRouter` — full information: the replica
  with the fewest admitted+queued KV tokens wins.
* :class:`PowerOfTwoChoicesRouter` — sample two replicas, pick the lighter
  (Mitzenmacher's classic trick: nearly least-loaded quality at O(1) cost).
* :class:`MemoryPressureRouter` — least outstanding tokens, inflated by
  each replica's resident-KV pressure.
* :class:`PrefixAffinityRouter` — session-sticky routing that lands a
  session's turns where their shared prefix is cached.

Time model: replicas advance independently in stage-latency jumps.  Before
a request is routed at arrival time ``t``, every replica simulates up to
``t``, so routers observe each replica's load as of (at worst one stage
before) the arrival — the same staleness a real router tolerates.  Every
timed fleet event (crash detections, repairs, retries, elastic boots)
fires at its own instant off one fleet calendar, an
:class:`~repro.serving.columnar.EventClock`.  The control tick is a cursor
on the ``sample_interval_s`` virtual-time grid that fires after every
calendar event due at its instant; it samples queue depths (as does every
routing event), so idle, drain, and post-burst periods show up in the
time series.  Ticks between arrivals read each replica's state as of its
last advancement (the router's own staleness), while the drain phase
advances the fleet in slices up to each control instant and reads true
depths.
"""

from __future__ import annotations

import enum
import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.executor import StageWorkload
from repro.core.system import SystemConfig, default_topology, sharded_system
from repro.errors import CapacityError, ConfigError, SchedulingError, SimulationError
from repro.models.config import ModelConfig
from repro.serving.columnar import EventClock
from repro.serving.engine import KvPagingCoordinator, ServingEngine, SimulationLimits
from repro.serving.faults import FaultInjector, RetryPolicy
from repro.serving.generator import QueueSource, RequestSource, WorkloadSpec, resolve_source
from repro.serving.metrics import MetricsCollector, ServingReport
from repro.serving.paging import EvictionPolicy, PagingConfig, PrefixConfig
from repro.serving.policy import SchedulingPolicy
from repro.serving.request import Request
from repro.serving.simulator import ServingSimulator
from repro.serving.split import SplitServingSimulator


# ----------------------------------------------------------------------
# replica lifecycle (control plane)
# ----------------------------------------------------------------------
class ReplicaState(enum.Enum):
    """Where a replica is in its provision-to-retire lifecycle.

    * ``PROVISIONING`` — capacity requested; hardware booting, weights
      loading.  Invisible to routers, holds no work.
    * ``WARMING`` — booted, warming caches (a warm start, once the fleet
      has served, shortens this dwell — see
      :class:`~repro.serving.autoscaler.ElasticFleetSimulator`).
    * ``ACTIVE`` — in the routing set, serving traffic.
    * ``DRAINING`` — removed from the routing set; refuses new
      admissions but finishes everything already routed to it.
    * ``FAILED`` — crashed (health-checker verdict): in-flight KV is
      gone, the replica is out of the routing set, and its stranded
      requests go through failure recovery.  Repaired back to ACTIVE
      after ``crash_mttr_s``; without a repair time it stays FAILED for
      the rest of the run.  Only :class:`ClusterSimulator` injects
      faults — the elastic controller takes no fault injector, so it
      never replaces a crashed replica.
    * ``RETIRED`` — drained empty; permanently out of the fleet.
    """

    PROVISIONING = "provisioning"
    WARMING = "warming"
    ACTIVE = "active"
    DRAINING = "draining"
    FAILED = "failed"
    RETIRED = "retired"


#: Legal lifecycle edges — :meth:`ManagedReplica.set_state` rejects
#: anything else.  PROVISIONING/WARMING may retire directly (an elastic
#: scale-down cancelling a boot) and any live state may FAIL; FAILED
#: returns to ACTIVE only through an in-place repair.
_LEGAL_TRANSITIONS: dict[ReplicaState, frozenset[ReplicaState]] = {
    ReplicaState.PROVISIONING: frozenset(
        {ReplicaState.WARMING, ReplicaState.RETIRED, ReplicaState.FAILED}
    ),
    ReplicaState.WARMING: frozenset(
        {ReplicaState.ACTIVE, ReplicaState.RETIRED, ReplicaState.FAILED}
    ),
    ReplicaState.ACTIVE: frozenset({ReplicaState.DRAINING, ReplicaState.FAILED}),
    ReplicaState.DRAINING: frozenset({ReplicaState.RETIRED, ReplicaState.FAILED}),
    ReplicaState.FAILED: frozenset({ReplicaState.ACTIVE, ReplicaState.RETIRED}),
    ReplicaState.RETIRED: frozenset(),
}


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaView:
    """What a router sees of one replica at a routing decision.

    Attributes:
        index: replica id.
        queue_depth: requests routed but not yet admitted to the batch.
        outstanding_tokens: worst-case KV tokens admitted or queued.
        now_s: the replica's simulation clock.
        kind: replica flavour (``monolithic`` / ``sharded`` / ``split``)
            for routers that specialise — e.g. send long prompts to split
            replicas.
        state: lifecycle state name; routers only ever receive ACTIVE
            views, but the field makes fleet-membership changes visible
            to routers that track replicas across decisions.
        resident_tokens: KV tokens currently reserved on the device (the
            scheduler's committed tokens, including resumes in flight).
        capacity_tokens: device KV capacity those reservations live under
            (None when the replica does not report one, e.g. split).
    """

    index: int
    queue_depth: int
    outstanding_tokens: int
    now_s: float
    kind: str = "monolithic"
    state: str = ReplicaState.ACTIVE.value
    resident_tokens: int = 0
    capacity_tokens: int | None = None

    @property
    def memory_pressure(self) -> float:
        """Resident-KV fraction of capacity (0.0 when capacity is unknown)."""
        if not self.capacity_tokens:
            return 0.0
        return self.resident_tokens / self.capacity_tokens


class Router(ABC):
    """Chooses the replica each arriving request is sent to.

    ``choose`` receives the views of the currently *routable* (ACTIVE)
    replicas and must return the :attr:`ReplicaView.index` of one of
    them.  Under an elastic fleet the view list grows and shrinks between
    calls as replicas are provisioned and drained, so routers must not
    assume a fixed fleet size or contiguous indices.
    """

    name = "router"

    @abstractmethod
    def choose(self, views: Sequence[ReplicaView], request: Request) -> int:
        """Return the index of the replica to route ``request`` to."""


class RoundRobinRouter(Router):
    """Cyclic assignment, blind to load."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def choose(self, views: Sequence[ReplicaView], request: Request) -> int:
        # Cycle over the *views*, returning the chosen view's own index —
        # on a full fixed fleet this is the classic 0..n-1 cycle, and on a
        # partial (elastic) fleet it cycles over whatever is routable.
        view = views[self._next % len(views)]
        self._next += 1
        return view.index


class LeastOutstandingTokensRouter(Router):
    """Full-information routing: fewest outstanding KV tokens wins."""

    name = "least-outstanding-tokens"

    def choose(self, views: Sequence[ReplicaView], request: Request) -> int:
        return min(views, key=lambda v: (v.outstanding_tokens, v.index)).index


class MemoryPressureRouter(Router):
    """Least-outstanding-tokens with a resident-KV pressure penalty.

    A replica close to its KV capacity admits slowly — or, under live
    paging, starts evicting and paying host-link/recompute overheads — so
    a plain outstanding-token count under-states its effective load.  The
    score inflates each replica's outstanding tokens by
    ``1 + pressure_weight * memory_pressure`` (resident-KV fraction), so
    long-context traffic steers away from replicas already under memory
    pressure; with weight 0 this degrades to
    :class:`LeastOutstandingTokensRouter` exactly.
    """

    name = "memory-pressure"

    def __init__(self, pressure_weight: float = 1.0) -> None:
        if pressure_weight < 0:
            raise ConfigError("pressure_weight must be non-negative")
        self.pressure_weight = pressure_weight

    def choose(self, views: Sequence[ReplicaView], request: Request) -> int:
        def score(view: ReplicaView) -> tuple[float, int]:
            penalty = 1.0 + self.pressure_weight * view.memory_pressure
            return (penalty * view.outstanding_tokens, view.index)

        return min(views, key=score).index


class PrefixAffinityRouter(Router):
    """Session-sticky routing composed with memory-pressure steering.

    Shared-prefix KV dedup (:class:`~repro.serving.paging.PrefixIndex`)
    only pays off when a session's turns land on the replica that already
    caches their prefix, so the router keys each request by the *root* of
    its declared :attr:`~repro.serving.request.Request.prefix_blocks`
    path (turn two of a chat shares turn one's root) and pins every key
    to the replica its first request was sent to.

    The pin is soft: when the owning replica leaves the routing set
    (DRAINING, FAILED, retired — its view simply is not offered), or the
    request declares no prefix, the router falls back to
    :class:`MemoryPressureRouter` scoring — least outstanding tokens
    inflated by ``1 + pressure_weight * memory_pressure`` — and the
    chosen replica becomes the key's new owner (the old cache died with
    the old placement).  Exact score ties break by a seeded coin rather
    than by index, so an idle fleet does not funnel every new session
    onto replica 0; a fleet of one consumes no randomness, keeping a
    cluster-of-one byte-identical to the deterministic routers.
    """

    name = "prefix-affinity"

    def __init__(self, pressure_weight: float = 1.0, seed: int | None = 0) -> None:
        if pressure_weight < 0:
            raise ConfigError("pressure_weight must be non-negative")
        self.pressure_weight = pressure_weight
        self._rng = np.random.default_rng(seed)
        self._owner: dict[int, int] = {}

    def choose(self, views: Sequence[ReplicaView], request: Request) -> int:
        key = request.prefix_blocks[0][0] if request.prefix_blocks else None
        if key is not None:
            owner = self._owner.get(key)
            if owner is not None and any(view.index == owner for view in views):
                return owner
        if len(views) == 1:
            # A fleet of one consumes no randomness: the choice sequence
            # stays aligned with the seed when the fleet later grows.
            chosen = views[0].index
        else:
            def score(view: ReplicaView) -> float:
                penalty = 1.0 + self.pressure_weight * view.memory_pressure
                return penalty * view.outstanding_tokens

            best = min(score(view) for view in views)
            ties = [view.index for view in views if score(view) == best]
            chosen = ties[0] if len(ties) == 1 else ties[int(self._rng.integers(len(ties)))]
        if key is not None:
            self._owner[key] = chosen
        return chosen


class PowerOfTwoChoicesRouter(Router):
    """Sample two replicas uniformly, route to the lighter one."""

    name = "power-of-two-choices"

    def __init__(self, seed: int | None = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def choose(self, views: Sequence[ReplicaView], request: Request) -> int:
        if len(views) == 1:
            # A fleet of one consumes no randomness: the choice sequence
            # stays aligned with the seed when the fleet later grows.
            return views[0].index
        first, second = (views[int(i)] for i in self._rng.choice(len(views), 2, replace=False))
        if first.outstanding_tokens == second.outstanding_tokens:
            # Seeded random tie-break: a deterministic one hot-spots
            # low-index replicas whenever the fleet drains idle.
            return first.index if self._rng.random() < 0.5 else second.index
        return min((first, second), key=lambda v: v.outstanding_tokens).index


# ----------------------------------------------------------------------
# replica specifications (heterogeneous fleets)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MonolithicReplicaSpec:
    """One continuous-batching engine on one system.

    Attributes:
        system: system override (None = the cluster-level system).
        max_batch: batch-size override (None = the cluster-level request).
    """

    system: SystemConfig | None = None
    max_batch: int | None = None
    kind: str = field(default="monolithic", init=False)


@dataclass(frozen=True)
class SplitReplicaSpec:
    """A Splitwise-style split prefill/decode deployment as one replica.

    The partitions are derived from the *model* via
    :func:`~repro.serving.split.split_partitions`, so the cluster-level
    ``system``, ``policy_factory``, and ``gating_skew`` arguments apply
    only to monolithic replicas — a split replica always runs FCFS on its
    derived Duplex partitions.

    Attributes:
        max_batch: decode-partition batch-size request (None = the
            cluster-level request).
    """

    max_batch: int | None = None
    kind: str = field(default="split", init=False)


@dataclass(frozen=True)
class ShardedReplicaSpec:
    """One replica spanning ``tp * ep`` devices of a declared topology.

    The replica runs the paper's production layout
    (:func:`~repro.core.system.sharded_system`): attention and non-expert
    layers head/tensor parallel over ``tp`` devices within a node, experts
    spread over all ``tp * ep`` devices with all-to-all dispatch/combine
    (or, with ``expert_tensor_parallel``, sliced within each of the ``ep``
    nodes).  The cluster-level ``system`` argument is ignored — the system
    is derived from the degrees — but ``policy_factory`` and
    ``gating_skew`` apply as they do to monolithic replicas.

    One sharded replica consumes ``n_devices = tp * ep`` devices of the
    fleet's device budget (see :attr:`ClusterReport.device_seconds` and the
    autoscaler's ``max_devices``).

    Attributes:
        tp: tensor-parallel degree (devices per node, at most eight).
        ep: expert/data-parallel degree (nodes).
        expert_tensor_parallel: use the Duplex+PE+ET expert layout.
        max_batch: batch-size override (None = the cluster-level request).
    """

    tp: int = 1
    ep: int = 1
    expert_tensor_parallel: bool = False
    max_batch: int | None = None
    kind: str = field(default="sharded", init=False)

    @property
    def n_devices(self) -> int:
        return self.tp * self.ep


ReplicaSpec = MonolithicReplicaSpec | SplitReplicaSpec | ShardedReplicaSpec


def replica_spec_devices(
    spec: ReplicaSpec, system: SystemConfig, model: ModelConfig
) -> int:
    """Devices one replica built from ``spec`` would consume.

    The fleet's cost axis: a sharded replica spans ``tp * ep`` devices, a
    monolithic replica its system's topology, and a split replica both
    half-size partitions of the model's default deployment.
    """
    if isinstance(spec, ShardedReplicaSpec):
        return spec.n_devices
    if isinstance(spec, SplitReplicaSpec):
        half = default_topology(model).devices_per_node // 2
        return 2 * half
    if isinstance(spec, MonolithicReplicaSpec):
        replica_system = spec.system if spec.system is not None else system
        return replica_system.topology.n_devices
    raise ConfigError(f"unknown replica spec {spec!r}")


# ----------------------------------------------------------------------
# replicas (data plane + lifecycle)
# ----------------------------------------------------------------------
class ManagedReplica:
    """One fleet replica: its engines behind one inbox, and its lifecycle.

    A monolithic or sharded replica is one engine; a split replica is a
    prefill engine handing off to a decode engine.  Everything but
    construction (:meth:`ClusterSimulator._provision`) is generic over
    ``engines``.

    A fixed-fleet :class:`ClusterSimulator` creates every replica ACTIVE
    at time zero and never transitions it; the elastic controller walks
    replicas through the full :class:`ReplicaState` lifecycle and records
    every transition (with its virtual-clock timestamp) for the fleet
    time series.

    Attributes:
        index: replica id (provision order).
        spec: the :class:`ReplicaSpec` it was built from.
        inbox: the queue the router pushes into (the first engine's
            request source).
        engines: the engines in pipeline order — one engine, or
            ``(prefill, decode)``.  Each later engine's request source is
            fed by the engine before it.
        driver: what advances the engines (``advance_to``,
            ``drain_until``): the engine itself, or the
            :class:`~repro.serving.split.SplitServingSimulator`.
        state: current lifecycle state.
        provisioned_at: when capacity was requested.
        warming_at: planned boot-complete instant (PROVISIONING ends).
        active_at: planned serve-ready instant (WARMING ends).
        activated_at: when the replica actually entered ACTIVE.
        draining_at / retired_at: drain/retire instants (None until then).
        failed_at: when the health checker declared the replica FAILED
            (None while healthy; reset never — the log keeps history).
        transitions: full ``(time_s, state)`` log, in order; every edge
            is validated against the legal lifecycle graph.
    """

    def __init__(
        self,
        index: int,
        spec: ReplicaSpec,
        inbox: QueueSource,
        engines: tuple[ServingEngine, ...],
        driver: ServingEngine | SplitServingSimulator,
        state: ReplicaState = ReplicaState.ACTIVE,
        provisioned_at: float = 0.0,
        warming_at: float | None = None,
        active_at: float | None = None,
    ) -> None:
        self.index = index
        self.spec = spec
        self.inbox = inbox
        self.engines = engines
        self.driver = driver
        self._schedulers = tuple(engine.scheduler for engine in engines)
        self.state = state
        self.provisioned_at = provisioned_at
        self.warming_at = provisioned_at if warming_at is None else warming_at
        self.active_at = provisioned_at if active_at is None else active_at
        self.activated_at: float | None = (
            provisioned_at if state is ReplicaState.ACTIVE else None
        )
        self.draining_at: float | None = None
        self.failed_at: float | None = None
        self.retired_at: float | None = None
        self.transitions: list[tuple[float, ReplicaState]] = [(provisioned_at, state)]

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def metrics(self) -> MetricsCollector:
        """The collector the last engine records into (shared by a split
        replica's two partitions)."""
        return self.engines[-1].metrics

    @property
    def completions(self) -> int:
        return self.engines[-1].completions

    @property
    def now_s(self) -> float:
        return self.engines[-1].now_s

    @property
    def rejected_count(self) -> int:
        return len(self.engines[0].scheduler.rejected)

    @property
    def in_flight(self) -> int:
        """Requests routed here and not yet finished (drain tracking).

        Counts every scheduler's source (the inbox, or a split decode
        partition's KV transfers), queue, batch, and requests paged out
        of the batch (parked on host memory or mid-resume) — all of it
        admitted work the drain must still finish.
        """
        return sum(
            len(scheduler.source)
            + len(scheduler.waiting)
            + len(scheduler.running)
            + scheduler.paged_count
            for scheduler in self._schedulers
        )

    @property
    def has_work(self) -> bool:
        return self.in_flight > 0

    def view(self) -> ReplicaView:
        """What a router sees of this replica, stamped with its state."""
        schedulers = self._schedulers
        resident_tokens = 0
        capacity_tokens = None
        if len(schedulers) == 1:
            # Shared-prefix pool tokens occupy the same device KV as the
            # private reservations, so memory-pressure routing sees both
            # (zero whenever dedup is off).  A split replica reports no
            # resident KV.
            (scheduler,) = schedulers
            resident_tokens = scheduler.committed_tokens + scheduler.prefix_resident_tokens
            capacity_tokens = scheduler.capacity_tokens
        return ReplicaView(
            index=self.index,
            queue_depth=sum(len(s.source) + len(s.waiting) for s in schedulers),
            outstanding_tokens=sum(
                s.source.queued_tokens + s.outstanding_tokens for s in schedulers
            ),
            now_s=self.now_s,
            kind=self.kind,
            state=self.state.value,
            resident_tokens=resident_tokens,
            capacity_tokens=capacity_tokens,
        )

    def budget_spent(self, limits: SimulationLimits) -> bool:
        return self.engines[-1].budget_spent(limits)

    def jump_to(self, t: float) -> None:
        for engine in self.engines:
            engine.jump_to(t)

    def harvest_queued(self) -> list[Request]:
        """Strip and return every routed-but-unadmitted request (handoff),
        in arrival order: admission moves every arrived request from the
        inbox to the first engine's queue, so the queue comes first."""
        waiting = self.engines[0].scheduler.waiting
        queued = list(waiting)
        waiting.clear()
        while len(self.inbox):
            queued.append(self.inbox.take(0.0))
        return queued

    def harvest_in_flight(self) -> tuple[list[Request], list[Request], list[tuple[Request, int]]]:
        """Strip all work off a crashed replica.

        Returns ``(queued, active, parked)``: requests never admitted
        (nothing lost — free re-route), requests whose device KV died
        with the replica, and MIGRATE-parked victims whose host-side KV
        survived (adoptable by another paged replica).  Every engine
        dies with the replica: walking them in pipeline order, a
        downstream engine's feed and queue (a split replica's KV
        transfers and decode queue) are active work, then each engine's
        batch is released, its paging abandoned (mid-resume and
        RECOMPUTE-parked requests are active work too), and its
        shared-prefix pool cleared.  Afterwards :attr:`in_flight` is
        zero and the schedulers' accounting is clean for an in-place
        repair.
        """
        queued = self.harvest_queued()
        active: list[Request] = []
        parked: list[tuple[Request, int]] = []
        for position, scheduler in enumerate(self._schedulers):
            if position:
                feed = scheduler.source
                while len(feed):
                    active.append(feed.take(float("inf")))
                active.extend(scheduler.waiting)
                scheduler.waiting.clear()
            running = list(scheduler.running)
            for request in running:
                scheduler.release(request)
            active.extend(running)
            coordinator = scheduler.paging
            if coordinator is not None:
                pairs, in_transit = coordinator.abandon_all()
                for request in in_transit:
                    scheduler.uncommit(request)
                if coordinator.manager.policy is EvictionPolicy.MIGRATE:
                    parked.extend(pairs)
                else:
                    active.extend(request for request, _ in pairs)
                active.extend(in_transit)
            if scheduler.prefix is not None:
                # The shared-prefix pool lived in the dead device's KV:
                # every cached block is gone (the residency high-water
                # mark survives for the report).
                scheduler.prefix.clear()
        return queued, active, parked

    # ------------------------------------------------------------------
    # lifecycle (control plane)
    # ------------------------------------------------------------------
    def set_state(self, t: float, state: ReplicaState) -> None:
        """Transition to ``state`` at virtual time ``t`` (logged, validated)."""
        if state is self.state:
            return
        if state not in _LEGAL_TRANSITIONS[self.state]:
            raise SchedulingError(
                f"replica {self.index}: illegal lifecycle transition "
                f"{self.state.value} -> {state.value}"
            )
        self.state = state
        self.transitions.append((t, state))
        if state is ReplicaState.ACTIVE:
            self.activated_at = t
        elif state is ReplicaState.DRAINING:
            self.draining_at = t
        elif state is ReplicaState.FAILED:
            self.failed_at = t
        elif state is ReplicaState.RETIRED:
            self.retired_at = t

    def route(self, request: Request) -> None:
        """Accept a routed request (ACTIVE replicas only)."""
        if self.state is not ReplicaState.ACTIVE:
            raise SchedulingError(
                f"replica {self.index} is {self.state.value}; "
                "only ACTIVE replicas accept new requests"
            )
        self.inbox.push(request)

    def lifetime_s(self, fleet_end_s: float) -> float:
        """Provisioned replica-seconds: provision to retire (or fleet end).

        A replica that ends the run FAILED stops accruing at its failure
        instant — dead hardware serves nothing and is not billed as
        provisioned capacity (a repaired replica accrues to fleet end
        as usual).
        """
        if self.retired_at is not None:
            end = self.retired_at
        elif self.state is ReplicaState.FAILED and self.failed_at is not None:
            end = self.failed_at
        else:
            end = fleet_end_s
        return max(0.0, end - self.provisioned_at)


# ----------------------------------------------------------------------
# fleet report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueueDepthSample:
    """Per-replica routed-but-unserved depth at one telemetry instant.

    ``kind`` distinguishes event-driven samples (``"routing"`` — taken
    right after one routing decision) from fixed-cadence samples
    (``"cadence"`` — taken on the ``sample_interval_s`` virtual-time
    grid, including through drain and idle periods; consecutive
    identical cadence samples are compressed to the first, so a long
    idle horizon costs one sample, not one per grid point).  Under an
    elastic fleet the ``depths`` tuple covers every replica provisioned
    so far, so its length can grow from sample to sample.
    """

    time_s: float
    depths: tuple[int, ...]
    kind: str = "routing"

    @property
    def total(self) -> int:
        return sum(self.depths)


@dataclass(frozen=True)
class FleetSample:
    """One fixed-cadence snapshot of fleet composition and load.

    The elastic controller records one per control tick and one at run
    end, so the series shows scaling behaviour over virtual time:
    replica counts per lifecycle state, aggregate queue depth and
    outstanding KV tokens, the ACTIVE replicas' busy fraction *since the
    previous sample* (an instantaneous load signal, like queue depth),
    and the cumulative routed/shed counters (shed *rate* is the
    difference between consecutive samples over the cadence).
    """

    time_s: float
    provisioning: int
    warming: int
    active: int
    draining: int
    retired: int
    queue_depth: int
    outstanding_tokens: int
    utilization: float
    routed_requests: int
    shed_requests: int

    @property
    def provisioned(self) -> int:
        """Replicas currently paid for (everything except RETIRED)."""
        return self.provisioning + self.warming + self.active + self.draining


@dataclass(frozen=True)
class ReplicaEvent:
    """One replica lifecycle transition (time-ordered in the report)."""

    time_s: float
    replica: int
    state: str


@dataclass(frozen=True)
class ClusterReport:
    """Fleet-level and per-replica results of one cluster simulation.

    Attributes:
        fleet: pooled report — latency percentiles over every replica's
            samples, tokens and energy summed, elapsed = fleet wall clock.
        replicas: per-replica reports (None for a replica that recorded no
            measured stage, e.g. under very light load).
        requests_routed: arrivals each replica received.
        requests_rejected: requests shed by SLO-aware policies, fleet-wide.
        queue_depth_samples: queue-depth time series — one ``routing``
            sample per routing event plus ``cadence`` samples on the
            fixed virtual-clock sampling grid (idle/drain visibility).
        replica_kinds: flavour of each replica (``monolithic`` /
            ``sharded`` / ``split``).
        replica_states: final lifecycle state of each replica.
        replica_events: every lifecycle transition, time-ordered.
        fleet_samples: fixed-cadence fleet composition/load time series
            (populated by the elastic controller; empty for fixed fleets).
        replica_seconds: provisioned replica-seconds summed over the
            fleet — the capacity-planning "cost" axis.
        device_seconds: provisioned *device*-seconds summed over the
            fleet — replica lifetimes weighted by each replica's device
            footprint, so a fleet of eight-device sharded replicas is not
            accounted like a fleet of one-device monoliths.
    """

    fleet: ServingReport
    replicas: tuple[ServingReport | None, ...]
    requests_routed: tuple[int, ...]
    requests_rejected: int
    queue_depth_samples: tuple[QueueDepthSample, ...]
    replica_kinds: tuple[str, ...] = ()
    replica_states: tuple[str, ...] = ()
    replica_events: tuple[ReplicaEvent, ...] = ()
    fleet_samples: tuple[FleetSample, ...] = ()
    replica_seconds: float = 0.0
    device_seconds: float = 0.0

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    @property
    def max_queue_depth(self) -> int:
        """Deepest any replica's queue got (0 with no samples)."""
        return max((max(s.depths) for s in self.queue_depth_samples if s.depths), default=0)

    @property
    def routing_imbalance(self) -> float:
        """Max over mean requests per replica (1.0 = perfectly balanced)."""
        routed = self.requests_routed
        mean = sum(routed) / len(routed) if routed else 0.0
        return max(routed) / mean if mean > 0 else 1.0

    @property
    def peak_active_replicas(self) -> int:
        """Most replicas simultaneously ACTIVE (fleet_samples-based)."""
        return max((s.active for s in self.fleet_samples), default=len(self.replicas))

    @property
    def mean_active_replicas(self) -> float:
        """Mean ACTIVE count over the fleet time series."""
        if not self.fleet_samples:
            return float(len(self.replicas))
        return sum(s.active for s in self.fleet_samples) / len(self.fleet_samples)


# ----------------------------------------------------------------------
# the cluster engine
# ----------------------------------------------------------------------
class ClusterSimulator:
    """Simulates a fixed fleet of serving engines behind one router.

    Args:
        system: per-replica system configuration (monolithic replicas).
        model: model served by every replica.
        workload: an *open-loop* workload spec (``qps`` set), or any finite
            request source (e.g. a trace replayer or scenario source).  The
            offered load is fleet-wide; each replica sees roughly
            ``qps / n_replicas``.
        n_replicas: fleet size (homogeneous monolithic fleet).  Leave None
            when passing ``replicas``.
        router: routing policy (default round-robin).
        max_batch: per-replica batch-size request (KV-capacity capped).
        seed: base RNG seed; replica k's executor uses ``seed + k``.
        gating_skew: expert routing skew, per monolithic replica.
        policy_factory: builds one scheduling policy per monolithic replica
            (policies are stateful, so replicas must not share an
            instance); None means FCFS everywhere.  Split replicas ignore
            ``system``, ``policy_factory``, and ``gating_skew`` — see
            :class:`SplitReplicaSpec`.
        max_requests: stop feeding arrivals after this many (bounds endless
            Poisson streams when limits alone should not decide).
        worst_case_tokens: KV sizing override for sources that cannot
            report their own worst case.
        replicas: explicit per-replica specifications for a heterogeneous
            fleet (mix :class:`MonolithicReplicaSpec`,
            :class:`SplitReplicaSpec`, and :class:`ShardedReplicaSpec`);
            overrides ``n_replicas``.
        paging: live KV paging for every monolithic replica
            (:class:`~repro.serving.paging.PagingConfig`): replicas then
            admit beyond device KV capacity by evicting/resuming instead
            of queueing, and the requested ``max_batch`` is no longer
            capacity-capped.  Split replicas ignore it (like the other
            monolithic-only arguments).  None (default) keeps the classic
            behaviour.
        prefix: shared-prefix KV dedup for every monolithic and sharded
            replica (:class:`~repro.serving.paging.PrefixConfig`).  Each
            replica owns a private
            :class:`~repro.serving.paging.PrefixIndex` — KV never crosses
            devices — so pair it with :class:`PrefixAffinityRouter` to
            land a session's turns where their prefix is already cached.
            Split replicas ignore it.  None (default) keeps every
            request's KV private.
        sample_interval_s: virtual-clock cadence of the queue-depth (and,
            for elastic fleets, fleet-composition) telemetry.  Cadence
            samples never advance the engines during the routing phase
            (they read the same possibly-stale state routers see), and
            slice the drain phase so post-arrival queue decay is visible.
            None disables cadence sampling (routing-event samples only).
        faults: a :class:`~repro.serving.faults.FaultInjector` scheduling
            crashes, stragglers, and link degradation against this fleet.
            The injector draws on its own named RNG stream, so an armed
            injector whose schedule produces nothing inside the run
            leaves the trajectory byte-identical to ``faults=None``.
        retry: how in-flight requests lost to a crash are re-admitted
            (:class:`~repro.serving.faults.RetryPolicy`).  None loses
            them permanently (the no-retry baseline); queued-but-never-
            admitted requests are always re-routed free of an attempt
            charge.
    """

    def __init__(
        self,
        system: SystemConfig,
        model: ModelConfig,
        workload: WorkloadSpec | RequestSource,
        n_replicas: int | None = None,
        router: Router | None = None,
        max_batch: int = 32,
        seed: int | None = 0,
        gating_skew: float = 0.0,
        policy_factory: Callable[[], SchedulingPolicy] | None = None,
        max_requests: int | None = None,
        worst_case_tokens: int | None = None,
        replicas: Sequence[ReplicaSpec] | None = None,
        sample_interval_s: float | None = 1.0,
        paging: PagingConfig | None = None,
        prefix: PrefixConfig | None = None,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if replicas is None:
            if n_replicas is None:
                raise ConfigError("pass n_replicas (homogeneous) or replicas (explicit specs)")
            if n_replicas < 1:
                raise ConfigError("a cluster needs at least one replica")
            replicas = tuple(MonolithicReplicaSpec() for _ in range(n_replicas))
        else:
            replicas = tuple(replicas)
            if not replicas:
                raise ConfigError("a cluster needs at least one replica")
            if n_replicas is not None and n_replicas != len(replicas):
                raise ConfigError("n_replicas disagrees with the replica spec list")
        if isinstance(workload, WorkloadSpec) and workload.closed_loop:
            raise ConfigError(
                "cluster simulation needs an open-loop workload (qps set) "
                "or a finite request source"
            )
        if sample_interval_s is not None and sample_interval_s <= 0:
            raise ConfigError("sample_interval_s must be positive (or None to disable)")
        self.source, self._worst_seq = resolve_source(workload, seed, worst_case_tokens)
        if self.source.closed_loop:
            raise ConfigError("cluster simulation needs an open-loop request source")
        self.system = system
        self.model = model
        self.router = router if router is not None else RoundRobinRouter()
        self.max_requests = max_requests
        self.sample_interval_s = sample_interval_s
        self._seed = seed
        self._max_batch = max_batch
        self._gating_skew = gating_skew
        self._policy_factory = policy_factory
        self._paging = paging
        self._prefix = prefix
        self.faults = faults
        self.retry = retry
        if faults is not None:
            # The injector derives its stream from the cluster seed (a
            # no-op if it was built with an explicit seed) *before* any
            # replica is built, so straggler/link schedules are sampled
            # on the bound stream in provision order.
            faults.bind(seed)
        self.handles: list[ManagedReplica] = []
        for spec in replicas:
            self._provision(spec)
        # run-state lives in _begin_run() (single-shot, like the engines)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _provision(
        self,
        spec: ReplicaSpec,
        state: ReplicaState = ReplicaState.ACTIVE,
        provisioned_at: float = 0.0,
    ) -> ManagedReplica:
        """Build one replica from ``spec`` and register it.

        Monolithic and sharded replicas are a :class:`ServingSimulator`
        engine over the replica's inbox, so fleet and single-engine
        sizing cannot diverge; split replicas are a
        :class:`~repro.serving.split.SplitServingSimulator`.  Replica
        ``k`` seeds its executors with ``seed + k``.
        """
        index = len(self.handles)
        seed = None if self._seed is None else self._seed + index
        max_batch = spec.max_batch if spec.max_batch is not None else self._max_batch
        inbox = QueueSource()
        driver: ServingEngine | SplitServingSimulator
        if isinstance(spec, SplitReplicaSpec):
            split = SplitServingSimulator(
                self.model,
                inbox,
                max_batch=max_batch,
                seed=seed,
                worst_case_tokens=self._worst_seq,
            )
            # Disambiguate engine labels when a fleet hosts several split
            # replicas (labels key diagnostics and invariant probes).
            split.prefill_engine.label = f"Duplex-Split/replica{index}/prefill"
            split.decode_engine.label = f"Duplex-Split/replica{index}/decode"
            driver, engines = split, split.engines
        elif isinstance(spec, (MonolithicReplicaSpec, ShardedReplicaSpec)):
            if isinstance(spec, ShardedReplicaSpec):
                system = sharded_system(
                    self.model, spec.tp, spec.ep, spec.expert_tensor_parallel
                )
                paging = None
            else:
                system = spec.system if spec.system is not None else self.system
                paging = self._paging
            # Each replica owns a private prefix pool: KV never leaves a
            # device, so dedup is a per-replica affair (the router's job is
            # landing a session's turns where its prefix already lives).
            engine = ServingSimulator(
                system,
                self.model,
                inbox,
                max_batch=max_batch,
                seed=seed,
                gating_skew=self._gating_skew,
                policy=self._policy_factory() if self._policy_factory is not None else None,
                worst_case_tokens=self._worst_seq,
                paging=paging,
                prefix=self._prefix,
            ).engine
            engine.label = f"{system.name}/replica{index}"
            driver, engines = engine, (engine,)
        else:
            raise ConfigError(f"unknown replica spec {spec!r}")
        handle = ManagedReplica(
            index,
            spec,
            inbox,
            engines,
            driver,
            state=state,
            provisioned_at=provisioned_at,
        )
        self._attach_fault_profiles(handle)
        self.handles.append(handle)
        return handle

    # ------------------------------------------------------------------
    # fleet views
    # ------------------------------------------------------------------
    @property
    def engines(self) -> tuple[ServingEngine, ...]:
        """Every engine in the fleet, replica-major (invariant probes)."""
        return tuple(engine for handle in self.handles for engine in handle.engines)

    def _advanceable_handles(self) -> list[ManagedReplica]:
        """Handles whose engines advance with the fleet clock: serving
        (ACTIVE) and draining ones.

        Booting replicas idle with their clocks parked until activation,
        and FAILED replicas are frozen at their crash boundary — dead
        hardware processes nothing until repaired.
        """
        return [
            h
            for h in self.handles
            if h.state is ReplicaState.ACTIVE or h.state is ReplicaState.DRAINING
        ]

    def _routable_handles(self) -> list[ManagedReplica]:
        """Handles routers may send new requests to (ACTIVE only)."""
        return [h for h in self.handles if h.state is ReplicaState.ACTIVE]

    def _completions(self) -> int:
        return sum(handle.completions for handle in self.handles)

    # ------------------------------------------------------------------
    # the fleet calendar and the control tick
    # ------------------------------------------------------------------
    def _begin_run(self, limits: SimulationLimits) -> None:
        """Per-run state initialisation (the single init site)."""
        self._limits = limits
        self._samples: list[QueueDepthSample] = []
        self._fleet_samples: list[FleetSample] = []  # elastic fleets only
        self._routed = 0
        self._next_sample_s = (
            self.sample_interval_s if self.sample_interval_s is not None else float("inf")
        )
        # The fleet calendar, keyed ``(handler, argument)``: detections,
        # repairs and boots by replica index, retries by a ticket into
        # ``_retries``.  Failure recovery stays inert (nothing scheduled,
        # no RNG draws) when no fault source fires, which is what keeps an
        # armed-but-quiescent injector byte-identical to faults=None.
        self._calendar = EventClock()
        self._retries: dict[int, tuple[Request, int, float, MetricsCollector | None]] = {}
        self._tickets = itertools.count()
        self._crash_at: dict[int, tuple[float, str]] = {}  # undetected: (crash_s, cause)
        self._tenant_retry_spent: dict[str, int] = {}
        self._lost_requests: list[Request] = []
        self._open_outages: dict[int, float] = {}  # index -> crash_s, in detection order
        self._unavailability_s = 0.0
        self._replay_price_cache: dict[tuple[int, int], tuple[float, float]] = {}
        self._drain_phase = False
        if self.faults is not None:
            for handle in self.handles:
                if handle.state is ReplicaState.ACTIVE:
                    self._arm_crash(handle, handle.activated_at or 0.0)

    def _next_control_s(self) -> float:
        """Next control instant: the next calendar event or cadence tick."""
        return min(self._calendar.next_time(), self._next_sample_s)

    def _fire(self, t: float) -> None:
        """Fire every calendar event due by ``t`` — including those their
        handlers schedule at ``t``, such as a detection's free re-routes —
        then the control tick if ``t`` lies on the sampling grid: its
        samples see every event of its instant, and events between grid
        points emit none."""
        calendar = self._calendar
        while calendar.next_time() <= t:
            for handler, arg in calendar.pop_due(t):
                handler(t, arg)
        if t >= self._next_sample_s:
            self._control(t)
            self._emit_cadence_sample(t)
            self._next_sample_s = t + self.sample_interval_s

    def _control(self, t: float) -> None:
        """The tick's controller step, before its cadence sample (the
        elastic controller retires drains, scales and samples the fleet)."""

    def _finish_drain(self) -> None:
        """Post-drain lifecycle hook (the elastic controller retires)."""

    def _fleet_depths(self) -> tuple[int, ...]:
        return tuple(handle.view().queue_depth for handle in self.handles)

    def _emit_cadence_sample(self, t: float) -> None:
        depths = self._fleet_depths()
        # Consecutive identical cadence samples carry no information
        # (between arrivals nothing advances), so long idle horizons —
        # e.g. a day-long low-QPS run — compress to one sample per
        # change instead of one per virtual second.
        last = self._samples[-1] if self._samples else None
        if last is not None and last.kind == "cadence" and last.depths == depths:
            return
        self._samples.append(QueueDepthSample(time_s=t, depths=depths, kind="cadence"))

    def _emit_routing_sample(self, t: float) -> None:
        depths = self._fleet_depths()
        self._samples.append(QueueDepthSample(time_s=t, depths=depths, kind="routing"))

    def _choose(self, candidates: list[ManagedReplica], request: Request) -> ManagedReplica:
        """The candidate the router picks for ``request``."""
        index = self.router.choose([handle.view() for handle in candidates], request)
        chosen = next((h for h in candidates if h.index == index), None)
        if chosen is None:
            raise ConfigError(f"{self.router.name} routed to invalid replica {index}")
        return chosen

    # ------------------------------------------------------------------
    # failure injection and recovery
    # ------------------------------------------------------------------
    def _attach_fault_profiles(self, handle: ManagedReplica) -> None:
        """Wire straggler/link degradation schedules into a new replica."""
        if self.faults is None:
            return
        for engine in handle.engines:
            engine.fault_profile = self.faults.straggler_profile(handle.index)
            paging = engine.scheduler.paging
            if paging is not None:
                profile = self.faults.link_profile()
                if profile is not None:
                    paging.link_scale = profile.scale_at

    def _arm_crash(self, handle: ManagedReplica, active_from_s: float) -> None:
        """Schedule the replica's next crash (and its later detection)."""
        if self.faults is None:
            return
        n_devices = replica_spec_devices(handle.spec, self.system, self.model)
        sampled = self.faults.sample_crash(handle.index, active_from_s, n_devices)
        if sampled is None:
            return
        self._crash_at[handle.index] = sampled
        self._calendar.schedule(
            (self._detect_crash, handle.index), sampled[0] + self.faults.detection_latency_s
        )

    def _push_retry(
        self,
        ready_s: float,
        request: Request,
        cached: int = -1,
        backoff_s: float = 0.0,
        metrics: MetricsCollector | None = None,
    ) -> None:
        """Queue a request for re-admission at ``ready_s``.

        ``cached >= 0`` marks a MIGRATE-parked victim whose host-side KV
        survived (adoptable); ``metrics`` is the dead replica's collector
        (None for free re-routes of never-admitted requests).
        """
        ticket = next(self._tickets)
        self._retries[ticket] = (request, cached, backoff_s, metrics)
        self._calendar.schedule((self._retry, ticket), ready_s)

    def _capped(self, handle: ManagedReplica, t: float) -> float:
        """Advance target capped at the handle's undetected crash instant.

        A crashed replica freezes at the first stage boundary at or
        after its crash; between crash and detection it still *receives*
        routed requests (the health checker has not noticed yet) but
        processes nothing.
        """
        crash = self._crash_at.get(handle.index)
        return t if crash is None else min(t, crash[0])

    def _detect_crash(self, t: float, index: int) -> None:
        """The health checker notices a crash: fail the replica, harvest.

        ``t`` is the detection instant (crash + detection latency); the
        outage window opens at the crash itself.  Queued requests are
        re-routed free; admitted/parked ones go through the retry
        policy, with MIGRATE-parked victims carrying their surviving
        host-side KV so a paged target can adopt instead of re-prefill.
        """
        crash_s, cause = self._crash_at.pop(index)
        handle = self.handles[index]
        handle.set_state(t, ReplicaState.FAILED)
        self._open_outages[index] = crash_s
        metrics = handle.metrics
        metrics.record_crash(device_level=cause == "device")
        queued, active, parked = handle.harvest_in_flight()
        for request in queued:
            self._push_retry(t, request)
        for request in active:
            self._account_lost_work(metrics, handle, request)
            self._schedule_retry(t, request, -1, metrics)
        for request, cached in parked:
            self._schedule_retry(t, request, cached, metrics)
        assert self.faults is not None
        mttr = self.faults.config.crash_mttr_s
        if mttr is not None:
            self._calendar.schedule((self._repair_replica, index), t + mttr)

    def _repair_replica(self, t: float, index: int) -> None:
        """In-place repair: the FAILED replica rejoins the routing set."""
        handle = self.handles[index]
        handle.set_state(t, ReplicaState.ACTIVE)
        handle.jump_to(t)
        self._unavailability_s += max(0.0, t - self._open_outages.pop(index))
        self._arm_crash(handle, t)

    def _account_lost_work(
        self, metrics: MetricsCollector, handle: ManagedReplica, request: Request
    ) -> None:
        """Charge one admitted request's lost progress to ``metrics``.

        A first token already reported to the collector is retracted —
        the retried request will earn a (later, honest) one on its next
        attempt, or none at all if it is permanently lost.
        """
        if request.first_token_time_s is not None:
            metrics.retract_first_token(request.t2ft_s, request.tenant, request.t2ft_slo_s)
        replay_s, replay_energy_j = self._price_lost_prefill(handle, request.prefilled_tokens)
        metrics.record_lost_work(
            generated_tokens=request.tokens_generated,
            prefill_tokens=request.prefilled_tokens,
            replay_s=replay_s,
            replay_energy_j=replay_energy_j,
        )

    def _price_lost_prefill(self, handle: ManagedReplica, tokens: int) -> tuple[float, float]:
        """Estimated cost of re-running ``tokens`` of lost prefill.

        Priced once per (executor, token count) on the dead replica's
        first engine (a split replica's prefill partition) — a
        report-level estimate; the actual retry is priced organically on
        whichever replica re-runs it.
        """
        if tokens < 1:
            return 0.0, 0.0
        executor = handle.engines[0].executor
        key = (id(executor), tokens)
        cached = self._replay_price_cache.get(key)
        if cached is None:
            workload = StageWorkload(
                decode_context_lengths=np.asarray([], dtype=np.int64),
                prefill_lengths=(tokens,),
            )
            result = executor.run_stage(workload)
            energy_j = (
                sum(result.dram_energy_by_category.values())
                + sum(result.compute_energy_by_category.values())
                + result.comm_energy_j
            )
            cached = (result.latency_s, energy_j)
            self._replay_price_cache[key] = cached
        return cached

    def _schedule_retry(
        self, t: float, request: Request, cached: int, metrics: MetricsCollector | None
    ) -> None:
        """Queue a lost request for re-admission, or declare it lost."""
        retry = self.retry
        if retry is None or request.attempts + 1 > retry.max_attempts:
            self._lost_requests.append(request)
            return
        if retry.per_tenant_budget is not None and request.tenant is not None:
            spent = self._tenant_retry_spent.get(request.tenant, 0)
            if spent >= retry.per_tenant_budget:
                self._lost_requests.append(request)
                return
            self._tenant_retry_spent[request.tenant] = spent + 1
        request.attempts += 1
        rng = self.faults.rng if self.faults is not None else None
        delay = retry.delay_s(request.attempts, rng)
        self._push_retry(t + delay, request, cached, delay, metrics)

    def _retry(self, t: float, ticket: int) -> None:
        """Re-route one recovered request through the cluster router."""
        request, cached, backoff_s, source_metrics = self._retries.pop(ticket)
        candidates = self._routable_handles()
        if not candidates:
            restore_s = self._capacity_restore_s()
            if restore_s < float("inf"):
                self._push_retry(max(t, restore_s), request, cached, backoff_s, source_metrics)
            else:
                self._lost_requests.append(request)
            return
        for handle in candidates:
            handle.driver.advance_to(self._capped(handle, t), self._limits)
        chosen = self._choose(candidates, request)
        if cached >= 0:
            # A prefix-sharing victim's host copy covers only its private
            # KV — the shared span lived in the dead replica's pool — so
            # adoption cannot reconstitute it; the request re-runs from
            # scratch like any other (requeue resets its prefix state).
            coordinator = (
                self._migrate_coordinator(chosen) if request.prefix_shared_tokens == 0 else None
            )
            if coordinator is not None:
                try:
                    coordinator.adopt(request, cached, t)
                except CapacityError:
                    pass  # target's host budget is full: fall back to requeue
                else:
                    chosen.metrics.record_retry(
                        tenant=request.tenant, backoff_s=backoff_s, migrate_recovery=True
                    )
                    self._emit_routing_sample(t)
                    return
            # No MIGRATE target for the host copy: its KV is lost after
            # all and the request re-runs from scratch like any other.
            self._account_lost_work(
                source_metrics if source_metrics is not None else chosen.metrics,
                chosen,
                request,
            )
        request.requeue(t)
        chosen.route(request)
        if source_metrics is not None:
            chosen.metrics.record_retry(tenant=request.tenant, backoff_s=backoff_s)
        self._emit_routing_sample(t)

    def _migrate_coordinator(self, handle: ManagedReplica) -> KvPagingCoordinator | None:
        """The replica's MIGRATE-policy paging coordinator, if it has one
        (on the engine that admits routed requests)."""
        coordinator = handle.engines[0].scheduler.paging
        if coordinator is None or coordinator.manager.policy is not EvictionPolicy.MIGRATE:
            return None
        return coordinator

    def _recovery_pending(self) -> bool:
        """Whether the drain loop must keep slicing for recovery work.

        True while retries are queued, or while an undetected crash sits
        on a replica with work and stage budget left.  A crash beyond the
        simulated work never blocks: its replica finishes (or exhausts
        its stage budget — a truncated replica can never process the
        stranded work anyway) and drops out of the worker set, and its
        detection dies with the calendar.
        """
        return bool(self._retries) or any(
            self.handles[index].has_work and not self.handles[index].budget_spent(self._limits)
            for index in self._crash_at
        )

    def _capacity_restore_s(self) -> float:
        """Earliest instant a FAILED replica is repaired (inf = never).

        Asked only when no replica is ACTIVE, so every crash is detected
        (an undetected crash leaves its replica ACTIVE).
        """
        mttr = self.faults.config.crash_mttr_s if self.faults is not None else None
        if mttr is None:
            return float("inf")
        return min(
            (h.failed_at + mttr for h in self.handles if h.state is ReplicaState.FAILED),
            default=float("inf"),
        )

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------
    def run(self, limits: SimulationLimits | None = None) -> ClusterReport:
        """Route the arrival stream, drain the fleet, and report.

        ``limits`` applies per replica (stage budgets) and fleet-wide
        (``target_completions``, ``max_sim_time_s``).  Single-shot, like
        :meth:`ServingSimulator.run`.
        """
        limits = limits or SimulationLimits()
        self._begin_run(limits)
        horizon = limits.max_sim_time_s if limits.max_sim_time_s is not None else float("inf")
        while True:
            if self.max_requests is not None and self._routed >= self.max_requests:
                break
            advanceable = self._advanceable_handles()
            if advanceable and all(handle.budget_spent(limits) for handle in advanceable):
                break
            if not advanceable and self._capacity_restore_s() == float("inf"):
                break  # the whole fleet is dead with no repair in sight
            if (
                limits.target_completions is not None
                and self._completions() >= limits.target_completions
            ):
                break
            arrival = self.source.peek_arrival()
            tick = self._next_control_s()
            if arrival < float("inf") and tick <= min(arrival, horizon):
                self._fire(tick)
                continue
            if arrival == float("inf") or arrival > horizon:
                break
            self._route_arrival(arrival)
        self._drain_fleet()
        return self._report(self._samples)

    def _route_arrival(self, arrival: float) -> None:
        """Advance the fleet to ``arrival`` and route the next request."""
        for handle in self._advanceable_handles():
            handle.driver.advance_to(self._capped(handle, arrival), self._limits)
        request = self.source.take(arrival)
        candidates = self._routable_handles()
        if not candidates:
            # Every replica crashed.  Hold the arrival in the recovery
            # queue until one is repaired (free — never an attempt charge).
            restore_s = self._capacity_restore_s()
            if restore_s == float("inf"):
                raise SimulationError("no ACTIVE replica to route to, and no repair in sight")
            self._push_retry(max(arrival, restore_s), request)
            self._routed += 1
            return
        chosen = self._choose(candidates, request)
        chosen.route(request)
        self._routed += 1
        self._emit_routing_sample(arrival)

    def _drain_fleet(self) -> None:
        """Finish everything routed, sampling on the cadence grid.

        One loop: each pass drains every replica with work and budget
        left up to the next control instant (calendar event or tick),
        then fires it.  With sampling disabled and no fault events that
        is one whole-replica drain.  With sampling enabled the fleet
        drains in ``sample_interval_s`` time slices — each slice runs
        exactly the stage sequence a monolithic drain would (see
        :meth:`~repro.serving.engine.ServingEngine.drain_until`), so the
        telemetry gains drain-phase samples without perturbing metrics.
        """
        self._drain_phase = True
        limits = self._limits
        while True:
            workers = [
                h
                for h in self._advanceable_handles()
                if h.has_work and not h.budget_spent(limits)
            ]
            if not workers and not self._recovery_pending():
                break
            # An empty control calendar (sampling off, and every armed
            # crash fired or fell beyond the simulated work) is one slice
            # to inf with no tick.
            t = self._next_control_s()
            for handle in workers:
                handle.driver.drain_until(self._capped(handle, t), limits)
            if t < float("inf"):
                self._fire(t)
        self._finish_drain()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _report(self, samples: list[QueueDepthSample]) -> ClusterReport:
        fleet = MetricsCollector.merged([handle.metrics for handle in self.handles])
        if not fleet.stages_recorded:
            raise SimulationError(
                "the cluster recorded no stages — no requests were routed, or "
                "warmup_stages outlasted every replica's run"
            )
        per_replica = tuple(
            handle.metrics.report() if handle.metrics.stages_recorded else None
            for handle in self.handles
        )
        fleet_end = max((handle.now_s for handle in self.handles), default=0.0)
        # Fleet-level failure accounting: outages still open at fleet end
        # run to fleet end, and permanently lost requests are charged to
        # the pooled collector (all no-ops on a fault-free run).
        for crash_s in self._open_outages.values():
            self._unavailability_s += max(0.0, fleet_end - crash_s)
        self._open_outages = {}
        if self._unavailability_s > 0.0:
            fleet.record_unavailability(self._unavailability_s)
        for request in self._lost_requests:
            fleet.record_request_lost(request.tenant)
        events = sorted(
            (
                ReplicaEvent(time_s=t, replica=handle.index, state=state.value)
                for handle in self.handles
                for t, state in handle.transitions
            ),
            key=lambda e: (e.time_s, e.replica),
        )
        return ClusterReport(
            fleet=fleet.report(),
            replicas=per_replica,
            requests_routed=tuple(handle.inbox.accepted for handle in self.handles),
            requests_rejected=sum(handle.rejected_count for handle in self.handles),
            queue_depth_samples=tuple(samples),
            replica_kinds=tuple(handle.kind for handle in self.handles),
            replica_states=tuple(handle.state.value for handle in self.handles),
            replica_events=tuple(events),
            fleet_samples=tuple(self._fleet_samples),
            replica_seconds=sum(handle.lifetime_s(fleet_end) for handle in self.handles),
            device_seconds=sum(
                handle.lifetime_s(fleet_end)
                * replica_spec_devices(handle.spec, self.system, self.model)
                for handle in self.handles
            ),
        )

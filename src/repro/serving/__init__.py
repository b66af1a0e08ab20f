"""LLM serving substrate: requests, scheduling, metrics, simulation.

* :mod:`repro.serving.request` — the request lifecycle.
* :mod:`repro.serving.generator` — request sources: the
  :class:`RequestSource` protocol, synthetic workloads (Gaussian lengths,
  Poisson or closed-loop arrivals, Section VI), and the push-fed
  :class:`QueueSource` cluster replicas consume.
* :mod:`repro.serving.metrics` — TBT / T2FT / E2E percentiles, throughput,
  stage-type ratios, energy per token, fleet-level pooling.
* :mod:`repro.serving.policy` — pluggable scheduling policies: FCFS,
  chunked prefill, SLO-aware priority admission.
* :mod:`repro.serving.scheduler` — ORCA-style continuous batching (and the
  request-level static batching baseline of Fig. 2(a)).
* :mod:`repro.serving.engine` — the discrete-event serving core every
  simulator is a thin configuration of (virtual clock, admission, event
  feed, shed/complete bookkeeping, stage observers).
* :mod:`repro.serving.simulator` — one engine serving one system.
* :mod:`repro.serving.cluster` — replicas behind a pluggable router
  (round-robin, least-outstanding-tokens, power-of-two-choices) with
  fleet-level reporting; fleets may mix monolithic and split replicas.
  Replicas carry an explicit lifecycle (``PROVISIONING → WARMING →
  ACTIVE → DRAINING → RETIRED``) managed by the control plane.
* :mod:`repro.serving.autoscaler` — the elastic fleet controller:
  pluggable autoscaling policies (static, queue-depth hysteresis,
  SLO-target tracking, scheduled/predictive) provisioning and draining
  replicas at runtime, with cold/warm starts and a fleet time series.
* :mod:`repro.serving.split` — Splitwise-style split prefill/decode serving
  (Section VIII-A, Fig. 16): two partition engines chained by KV-transfer
  events.
* :mod:`repro.serving.scenarios` — composable workload scenarios (arrival
  processes × length distributions × tenant mixes) behind a registry.
* :mod:`repro.serving.paging` — KV migration/recomputation under capacity
  pressure (Section VIII-C).
* :mod:`repro.serving.faults` — failure injection (replica/device crashes,
  stragglers, link degradation) on an isolated RNG stream, plus the
  retry/backoff policy the cluster recovery path applies.
* :mod:`repro.serving.trace` — request-trace recording and replay.
"""

from repro.serving.autoscaler import (
    AutoscalingPolicy,
    ElasticFleetSimulator,
    FleetView,
    QueueDepthPolicy,
    ScheduledScalingPolicy,
    SloTrackingPolicy,
    StaticReplicaPolicy,
)
from repro.serving.cluster import (
    ClusterReport,
    ClusterSimulator,
    FleetSample,
    LeastOutstandingTokensRouter,
    ManagedReplica,
    MemoryPressureRouter,
    MonolithicReplicaSpec,
    PowerOfTwoChoicesRouter,
    PrefixAffinityRouter,
    QueueDepthSample,
    ReplicaEvent,
    ReplicaState,
    ReplicaView,
    RoundRobinRouter,
    Router,
    ShardedReplicaSpec,
    SplitReplicaSpec,
)
from repro.serving.engine import (
    KvPagingCoordinator,
    ServingEngine,
    StageEvent,
    TransferFeed,
)
from repro.serving.faults import (
    FaultConfig,
    FaultInjector,
    RetryPolicy,
    StageTimeProfile,
    stream_seed,
)
from repro.serving.generator import QueueSource, RequestGenerator, RequestSource, WorkloadSpec
from repro.serving.scenarios import (
    AgentLoopShape,
    ArrivalProcess,
    BimodalLengths,
    BurstyArrivals,
    ChatSessionShape,
    DiurnalArrivals,
    FanoutTreeShape,
    GaussianLengths,
    LengthDistribution,
    LognormalLengths,
    PoissonArrivals,
    ReplayedArrivals,
    Scenario,
    ScenarioSource,
    SessionScenario,
    SessionShape,
    SessionSource,
    SessionTurn,
    TenantSpec,
    agent_loop,
    chat_sessions,
    fanout_tree,
    get_scenario,
    long_context,
    register_scenario,
    scenario_names,
)
from repro.serving.metrics import MetricsCollector, ServingReport
from repro.serving.paging import (
    EvictionPolicy,
    HostLink,
    PagedKvManager,
    PagingConfig,
    PagingStats,
    PrefixAcquisition,
    PrefixConfig,
    PrefixIndex,
    PrefixStats,
)
from repro.serving.policy import (
    AdmissionView,
    ChunkedPrefillPolicy,
    FcfsPolicy,
    SchedulingPolicy,
    SloAwarePolicy,
)
from repro.serving.request import Request, RequestState
from repro.serving.scheduler import ContinuousBatchingScheduler, StaticBatchingScheduler
from repro.serving.simulator import ServingSimulator, SimulationLimits
from repro.serving.split import SplitServingSimulator, split_partitions
from repro.serving.trace import TraceRecord, TraceReplayGenerator, load_trace, save_trace

__all__ = [
    "AdmissionView",
    "AgentLoopShape",
    "ArrivalProcess",
    "AutoscalingPolicy",
    "BimodalLengths",
    "BurstyArrivals",
    "ChatSessionShape",
    "ChunkedPrefillPolicy",
    "ClusterReport",
    "ClusterSimulator",
    "ContinuousBatchingScheduler",
    "DiurnalArrivals",
    "ElasticFleetSimulator",
    "EvictionPolicy",
    "FanoutTreeShape",
    "FaultConfig",
    "FaultInjector",
    "FcfsPolicy",
    "FleetSample",
    "FleetView",
    "GaussianLengths",
    "HostLink",
    "KvPagingCoordinator",
    "LeastOutstandingTokensRouter",
    "LengthDistribution",
    "LognormalLengths",
    "ManagedReplica",
    "MemoryPressureRouter",
    "MetricsCollector",
    "MonolithicReplicaSpec",
    "PagedKvManager",
    "PagingConfig",
    "PagingStats",
    "PoissonArrivals",
    "PowerOfTwoChoicesRouter",
    "PrefixAcquisition",
    "PrefixAffinityRouter",
    "PrefixConfig",
    "PrefixIndex",
    "PrefixStats",
    "QueueDepthPolicy",
    "QueueDepthSample",
    "QueueSource",
    "ReplayedArrivals",
    "ReplicaEvent",
    "ReplicaState",
    "ReplicaView",
    "Request",
    "RequestGenerator",
    "RequestSource",
    "RequestState",
    "RetryPolicy",
    "RoundRobinRouter",
    "Router",
    "Scenario",
    "ScenarioSource",
    "ScheduledScalingPolicy",
    "SchedulingPolicy",
    "ServingEngine",
    "ServingReport",
    "ServingSimulator",
    "SessionScenario",
    "SessionShape",
    "SessionSource",
    "SessionTurn",
    "SimulationLimits",
    "SloAwarePolicy",
    "SloTrackingPolicy",
    "ShardedReplicaSpec",
    "SplitReplicaSpec",
    "SplitServingSimulator",
    "StageEvent",
    "StageTimeProfile",
    "StaticBatchingScheduler",
    "StaticReplicaPolicy",
    "TenantSpec",
    "TraceRecord",
    "TraceReplayGenerator",
    "TransferFeed",
    "WorkloadSpec",
    "agent_loop",
    "chat_sessions",
    "fanout_tree",
    "get_scenario",
    "load_trace",
    "long_context",
    "register_scenario",
    "save_trace",
    "scenario_names",
    "split_partitions",
    "stream_seed",
]

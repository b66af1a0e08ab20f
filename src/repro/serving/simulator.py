"""The single-system serving simulator: one engine, one workload.

A thin configuration of the event-driven serving core in
:mod:`repro.serving.engine`: the simulator builds a scheduler + stage
executor for one system/model pair, optionally warm-starts the batch, and
delegates the run loop to :meth:`~repro.serving.engine.ServingEngine.run`.

The cluster builds every monolithic and sharded fleet replica through this
class too (over the replica's inbox), so a fleet replica and a single
engine are sized and equipped by the same code.

The simulator is source-agnostic: pass a
:class:`~repro.serving.generator.WorkloadSpec` for the paper's synthetic
workloads, or any :class:`~repro.serving.generator.RequestSource` — e.g. a
:class:`~repro.serving.trace.TraceReplayGenerator` or a
:class:`~repro.serving.scenarios.Scenario` source — to drive the same
engine from recorded or composed traffic.  Finite sources simply run out:
the simulation ends when nothing is running and nothing more will arrive.
"""

from __future__ import annotations

from repro.core.executor import StageExecutor
from repro.core.system import SystemConfig
from repro.errors import CapacityError
from repro.models.config import ModelConfig
from repro.serving.engine import KvPagingCoordinator, ServingEngine, SimulationLimits
from repro.serving.generator import RequestSource, WorkloadSpec, resolve_source
from repro.serving.metrics import ServingReport
from repro.serving.paging import PagedKvManager, PagingConfig, PrefixConfig, PrefixIndex
from repro.serving.policy import SchedulingPolicy
from repro.serving.scheduler import ContinuousBatchingScheduler

__all__ = ["ServingSimulator", "SimulationLimits"]


class ServingSimulator:
    """Simulates one system serving one model under one workload.

    Args:
        system: system configuration.
        model: model being served.
        workload: synthetic workload spec, or any request source (trace
            replayer, scenario source, cluster queue, ...).
        max_batch: requested batch size; the effective batch is capped by
            KV capacity (the paper's starred bars).
        seed: RNG seed shared by the generator and gating.
        warm_start: start closed-loop runs from the staggered steady state.
        gating_skew: expert routing skew (Section VIII-B).
        policy: scheduling policy (default FCFS, the paper's behaviour).
        worst_case_tokens: KV tokens to size the effective batch for; only
            needed for sources that cannot report their own worst case.
        columnar: enable the engine's columnar steady-run fast path
            (default; bit-identical results).  ``columnar=False`` forces
            the scalar per-stage loop — the oracle the columnar property
            suite compares trajectories against.
        paging: live KV paging (:class:`~repro.serving.paging.PagingConfig`).
            The engine then admits *beyond* device KV capacity — the
            requested ``max_batch`` is no longer capacity-capped — by
            evicting running requests (migrating their KV to host memory
            or dropping it for later prefill recomputation) instead of
            queueing arrivals.  None (default) keeps the classic
            capacity-capped behaviour.
        prefix: shared-prefix KV dedup
            (:class:`~repro.serving.paging.PrefixConfig`).  Requests that
            declare :attr:`~repro.serving.request.Request.prefix_blocks`
            then share one KV copy of their common prefix and skip the
            prefill of cached prefix tokens.  None (default) keeps every
            request's KV private — byte-identical to pre-dedup behaviour.
    """

    def __init__(
        self,
        system: SystemConfig,
        model: ModelConfig,
        workload: WorkloadSpec | RequestSource,
        max_batch: int = 32,
        seed: int | None = 0,
        warm_start: bool | None = None,
        gating_skew: float = 0.0,
        policy: SchedulingPolicy | None = None,
        worst_case_tokens: int | None = None,
        paging: PagingConfig | None = None,
        prefix: PrefixConfig | None = None,
        columnar: bool = True,
    ) -> None:
        self.system = system
        self.model = model
        self.workload = workload
        self.executor = StageExecutor(system, model, gating_skew=gating_skew, seed=seed)
        self.source, worst_seq = resolve_source(workload, seed, worst_case_tokens)
        capacity_tokens = system.max_resident_kv_tokens(model)
        if paging is not None:
            # Paged engines admit beyond device KV, so the requested batch
            # is not capacity-capped — but one worst-case request must
            # still fit on the device.
            self.effective_batch = max_batch
            fits = worst_seq <= capacity_tokens
        else:
            self.effective_batch = min(max_batch, system.max_batch_for(model, worst_seq))
            fits = self.effective_batch >= 1
        if not fits:
            raise CapacityError(
                f"{system.name} cannot hold even one worst-case "
                f"({worst_seq}-token) request for {model.name}"
            )
        self.paging: KvPagingCoordinator | None = None
        if paging is not None:
            manager = PagedKvManager(
                capacity_tokens=capacity_tokens,
                kv_bytes_per_token=model.kv_bytes_per_token,
                policy=paging.policy,
                link=paging.link,
                host_capacity_tokens=paging.host_capacity_tokens,
            )
            self.paging = KvPagingCoordinator(manager, self.executor)
        self.prefix = PrefixIndex(prefix) if prefix is not None else None
        self.scheduler = ContinuousBatchingScheduler(
            self.source,
            self.effective_batch,
            capacity_tokens,
            policy=policy,
            paging=self.paging,
            prefix=self.prefix,
        )
        self.engine = ServingEngine(
            self.scheduler, self.executor, label=system.name, columnar=columnar
        )
        self.engine.metrics.effective_batch = self.effective_batch
        self.warm_start = self.source.closed_loop if warm_start is None else warm_start

    @property
    def engines(self) -> tuple[ServingEngine, ...]:
        """The engine(s) backing this simulation (invariant probes)."""
        return (self.engine,)

    def run(self, limits: SimulationLimits | None = None) -> ServingReport:
        """Run to the limits (or source exhaustion) and return the report.

        Single-shot: metrics, stage budgets, and completion counts live on
        the engine, so a second call would pool both windows into one
        report.  Build a fresh simulator per measurement.
        """
        limits = limits or SimulationLimits()
        if self.warm_start and not self.scheduler.running:
            synthetic = self.scheduler.warm_start(self.effective_batch)
            self.engine.synthetic_ids.update(r.request_id for r in synthetic)
        return self.engine.run(limits)

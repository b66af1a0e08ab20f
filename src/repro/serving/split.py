"""Split prefill/decode serving (Section VIII-A, Fig. 16).

Splitwise-style deployment: half the devices form a *prefill partition*,
half a *decode partition*; each holds the **full** model (that duplication
is the capacity cost the paper calls out).  New requests prefill on the
prefill partition, their KV is shipped over NVLink, and they join the
decode partition's continuous batch — which therefore only ever runs
decoding-only stages (the latency benefit: no mixed-stage tail).

Both partitions are :class:`~repro.serving.engine.ServingEngine`
configurations sharing one metrics collector:

* the **prefill engine** admits arrivals (at decode-partition time, capped
  so prefill + in-flight + decode never exceeds the effective batch),
  prefills each cohort in one stage, and its ``handoff`` hook pushes every
  freshly prefilled request into a KV-transfer event;
* the **decode engine**'s request source is that
  :class:`~repro.serving.engine.TransferFeed` — requests materialise when
  their KV lands, already in the DECODING state.

Timing quirks faithfully kept from the paper's accounting: the decode
clock is the reference clock (prefill stages queue on ``prefill`` time but
are recorded against the decode warm-up window), and idle gaps between
decode cohorts do not count toward elapsed time (throughput is busy-time
throughput): the pipeline jumps the decode clock and never books idle.
Its one driving loop dispatches arrivals, then steps the decode engine
like any engine, so the decoding-only stages take steady runs, bounded by
the next instant a dispatch could admit work.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.executor import StageExecutor
from repro.core.system import SystemConfig, default_topology, duplex_system
from repro.errors import CapacityError, ConfigError
from repro.models.config import ModelConfig
from repro.parallel.collectives import CollectiveModel
from repro.parallel.topology import ClusterTopology
from repro.serving.engine import ServingEngine, SimulationLimits, TransferFeed
from repro.serving.generator import RequestSource, WorkloadSpec, resolve_source
from repro.serving.metrics import MetricsCollector, ServingReport
from repro.serving.policy import AdmissionView, SchedulingPolicy
from repro.serving.request import Request
from repro.serving.scheduler import ContinuousBatchingScheduler


def split_partitions(
    model: ModelConfig, topology: ClusterTopology | None = None
) -> tuple[SystemConfig, SystemConfig]:
    """Build the two half-size Duplex partitions of a split deployment.

    A single-node topology (the default) is halved within the node, and the
    KV handoff rides NVLink.  A multi-node topology is partitioned *by
    nodes* — prefill takes the first half of the nodes — so the handoff
    crosses the inter-node fabric.
    """
    topology = topology if topology is not None else default_topology(model)
    if topology.spans_nodes:
        half_nodes = topology.n_nodes // 2
        if half_nodes < 1 or topology.n_nodes % 2 != 0:
            raise ConfigError("a multi-node split needs an even node count")
        half_topology = ClusterTopology(
            half_nodes, topology.devices_per_node, topology.interconnect
        )
    else:
        half = topology.devices_per_node // 2
        if half < 1:
            raise ConfigError("splitting needs at least two devices")
        half_topology = ClusterTopology(1, half, topology.interconnect)
    prefill = replace(
        duplex_system(model, co_processing=True, topology=half_topology),
        name="Duplex-Split/prefill",
    )
    decode = replace(
        duplex_system(model, co_processing=True, topology=half_topology),
        name="Duplex-Split/decode",
    )
    return prefill, decode


class _SplitAdmissionPolicy(SchedulingPolicy):
    """Caps prefill admission by the deployment-wide in-flight count.

    The decode partition's effective batch bounds the *whole* pipeline:
    requests decoding, requests in KV transfer, and the cohort being
    admitted for prefill together must not exceed it, or transferred KV
    would have nowhere to land.
    """

    name = "split-admission"

    def __init__(self, effective_batch: int, downstream_in_flight) -> None:
        self.effective_batch = effective_batch
        self._downstream_in_flight = downstream_in_flight

    def may_admit(self, view: AdmissionView, candidate: Request) -> bool:
        return view.running + self._downstream_in_flight() < self.effective_batch


class SplitServingSimulator:
    """Simulates a split prefill/decode deployment.

    Args:
        model: model being served.
        workload: synthetic workload spec, or any request source (a
            cluster replica's queue, a trace replayer, ...).
        max_batch: decode-partition batch-size request; capped by the decode
            partition's (duplication-reduced) KV capacity.
        seed: RNG seed.
        worst_case_tokens: KV sizing override for sources that cannot
            report their own worst case.
        topology: deployment topology to partition (defaults to the
            model's single-node default).  A multi-node topology puts the
            two partitions on different nodes, so the KV handoff is priced
            over the inter-node link.
    """

    def __init__(
        self,
        model: ModelConfig,
        workload: WorkloadSpec | RequestSource,
        max_batch: int = 128,
        seed: int | None = 0,
        worst_case_tokens: int | None = None,
        topology: ClusterTopology | None = None,
    ) -> None:
        self.model = model
        self.workload = workload
        full_topology = topology if topology is not None else default_topology(model)
        self._kv_crosses_nodes = full_topology.spans_nodes
        prefill_system, decode_system = split_partitions(model, full_topology)
        self.prefill_system = prefill_system
        self.decode_system = decode_system
        self.prefill_executor = StageExecutor(prefill_system, model, seed=seed)
        self.decode_executor = StageExecutor(decode_system, model, seed=seed)
        self.source, worst_seq = resolve_source(workload, seed, worst_case_tokens)
        self._collectives = CollectiveModel(decode_system.topology)
        self.effective_batch = min(max_batch, decode_system.max_batch_for(model, worst_seq))
        if self.effective_batch < 1:
            raise CapacityError(
                f"split decode partition cannot hold one worst-case "
                f"({worst_seq}-token) request for {model.name}"
            )

        metrics = MetricsCollector()
        metrics.effective_batch = self.effective_batch
        self.transfers = TransferFeed()
        decode_scheduler = ContinuousBatchingScheduler(
            self.transfers,
            self.effective_batch,
            decode_system.max_resident_kv_tokens(model),
        )
        self.decode_engine = ServingEngine(
            decode_scheduler,
            self.decode_executor,
            metrics=metrics,
            label="Duplex-Split/decode",
        )
        prefill_scheduler = ContinuousBatchingScheduler(
            self.source,
            self.effective_batch,
            capacity_tokens=None,  # prefill KV is shipped out within the stage
            policy=_SplitAdmissionPolicy(self.effective_batch, self._downstream_in_flight),
        )
        self.prefill_engine = ServingEngine(
            prefill_scheduler,
            self.prefill_executor,
            metrics=metrics,
            label="Duplex-Split/prefill",
            record_gate=self._prefill_record_gate,
            handoff=self._transfer_kv,
        )

    # ------------------------------------------------------------------
    @property
    def metrics(self) -> MetricsCollector:
        """The collector both partitions record into."""
        return self.decode_engine.metrics

    @property
    def engines(self) -> tuple[ServingEngine, ...]:
        """Both partition engines (invariant probes)."""
        return (self.prefill_engine, self.decode_engine)

    def _downstream_in_flight(self) -> int:
        """Requests decoding or in KV transfer (admission back-pressure)."""
        decode = self.decode_engine.scheduler
        return len(decode.running) + len(decode.waiting) + len(self.transfers)

    def _prefill_record_gate(self, limits: SimulationLimits) -> bool:
        """Prefill stages are measured once the decode window has warmed up."""
        return self.decode_engine.stages >= limits.warmup_stages

    def _transfer_kv(self, request: Request, now_s: float) -> None:
        """Ship a prefilled request's KV to the decode partition."""
        kv_bytes = request.input_len * self.model.kv_bytes_per_token
        transfer = self._collectives.point_to_point_time(
            kv_bytes, crosses_nodes=self._kv_crosses_nodes
        )
        self.transfers.push(now_s + transfer, request)

    # ------------------------------------------------------------------
    def _dispatch_prefills(self, limits: SimulationLimits) -> None:
        """Send queued arrivals through the prefill partition.

        Arrivals are admitted at *decode* time (requests queue for the
        pipeline, not for the prefill devices), then the cohort's single
        prefill stage starts when the prefill partition frees up.
        """
        engine = self.prefill_engine
        scheduler = engine.scheduler
        busy_until = scheduler.now_s
        scheduler.now_s = self.decode_engine.now_s
        scheduler.admit()
        if not scheduler.running:
            scheduler.now_s = busy_until
            return
        scheduler.now_s = max(scheduler.now_s, busy_until)
        engine.step(limits, admit=False)

    def _next_dispatch_s(self) -> float:
        """The next arrival while the pipeline has room, else ``inf``: an
        exact run bound, since room cannot open during a decode run (a run
        ends at its first completion, a KV landing on a full decode batch
        only moves a request from the feed to the decode queue, and a
        prefill cohort leaves the prefill partition within its stage)."""
        if self._downstream_in_flight() >= self.effective_batch:
            return float("inf")
        return self.source.peek_arrival()

    def _next_event_s(self) -> float:
        """When an idle pipeline next changes (``inf``: never): a KV landing
        or a *future* arrival.  A past arrival waits on pipeline capacity,
        so it never gates the jump (jumping to it would freeze the clock),
        unless nothing is in flight (a closed loop, or a cohort that
        finished at prefill): then it waits for the prefill partition."""
        now = self.decode_engine.now_s
        arrival = self.source.peek_arrival()
        target = min(self.transfers.peek_arrival(), arrival if arrival > now else float("inf"))
        if target == float("inf") and arrival < float("inf") and self.prefill_engine.now_s > now:
            return self.prefill_engine.now_s
        return target

    def _drive(self, t: float, limits: SimulationLimits, stop: bool) -> None:
        """The driving loop, shaped like the engine's: each pass dispatches
        due arrivals, then commits a decode run bounded by ``t`` and
        :meth:`_next_dispatch_s`, or steps one decode stage.  An idle
        pipeline jumps the decode clock (booking no idle time) to the next
        event, never past ``t``."""
        decode = self.decode_engine
        sim_time_s = limits.max_sim_time_s if stop else None
        while decode.now_s < t and not decode.budget_spent(limits):
            self._dispatch_prefills(limits)
            horizon = min(t, self._next_dispatch_s())
            if decode._attempt_steady_run(limits, horizon, sim_time_s) or decode.step(limits):
                if stop and decode._stop_reached(limits):
                    return
                continue
            target = self._next_event_s()
            if target == float("inf") or target > t:
                return
            decode.jump_to(target)

    def run(self, limits: SimulationLimits | None = None) -> ServingReport:
        """Run the two-partition pipeline and report deployment metrics.

        Single-shot, like :meth:`ServingSimulator.run`: build a fresh
        simulator per measurement.
        """
        limits = limits or SimulationLimits()
        self._drive(float("inf"), limits, stop=True)
        return self.metrics.report()

    # ------------------------------------------------------------------
    # cluster-replica driving (heterogeneous fleets)
    # ------------------------------------------------------------------
    def advance_to(self, t: float, limits: SimulationLimits) -> None:
        """Simulate until the decode clock reaches ``t`` (may overshoot),
        then wait there."""
        self._drive(t, limits, stop=False)
        self.decode_engine.jump_to(t)

    def drain_until(self, t: float, limits: SimulationLimits) -> None:
        """Run the pipeline until the decode clock reaches ``t`` (``inf``:
        until the queued work or the stage budget runs out).  Slices
        compose: a sequence of ``drain_until`` calls executes exactly the
        stage sequence one unbounded call would (see
        :meth:`~repro.serving.engine.ServingEngine.drain_until`)."""
        self._drive(t, limits, stop=False)

"""The stage executor: one continuous-batching stage -> latency and energy.

A *stage* is the unit of continuous batching (Section II-C): every running
request advances one token.  The executor receives the stage's composition
(ongoing decode context lengths, new prefill lengths), routes tokens through
one representative decoder layer of each type, applies the system's unit
selection and co-processing policy, scales by layer counts, adds
communication and stage-level work, and returns a :class:`StageResult`.

Timing semantics by system:

* **GPU** — every operator on the xPU, serial.
* **Duplex (base)** — each layer on the unit that finishes it sooner
  (the Op/B-driven choice of Section IV), but only one unit is active at a
  time (Fig. 10(a)/(b)).
* **Duplex+PE(+ET)** — expert co-processing splits each MoE layer's experts
  across both units (layer time = makespan of the two sides, Fig. 10(d));
  attention co-processing overlaps prefill attention (xPU) with decode
  attention (Logic-PIM) in mixed stages.
* **Hetero** — MoE layers of *all* stages and decode attention run on the
  PIM-only devices; everything else on the GPUs (Section III-B).

Accounting conventions:

* ``latency_s`` is the critical path through the worst device.
* ``time_by_category`` holds critical-path contributions; in co-processed
  mixed stages, the overlapped attention categories are each recorded at
  full busy time, so their sum can slightly exceed ``latency_s`` there
  (decoding-only stages — the dominant kind — are exact).
* Energies are charged on *every* device that works (tensor-parallel
  replicas included), for all layers.

Expert pricing: every MoE layer, of a single stage or of a steady decode
run, reads one count-indexed table of per-unit expert times and energies
(the runtime lookup table of Section V-B).  :meth:`StageExecutor.run_stage`
gathers a stage's routed counts from it once as Python floats and runs
the one-stage co-processing greedy;
:meth:`StageExecutor.price_decode_run` gathers a run's stages as columns
and runs the column greedy.  Both fold sums and energies in the same
order, so a committed run equals its stages priced one by one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.coprocessing import (
    SpaceGroupPlan,
    assign_columns,
    assign_from_time_lists,
    round_robin_space_groups,
)
from repro.core.system import SystemConfig, SystemKind
from repro.errors import ConfigError, SimulationError
from repro.hardware.processor import ProcessingUnit, UnitColumns
from repro.models.config import ModelConfig
from repro.models.gating import ExpertRouter
from repro.models.layers import SOFTMAX_FLOPS_PER_SCORE, LayerMath
from repro.models.ops import OpCategory, Operator
from repro.parallel.collectives import CollectiveModel


@dataclass(frozen=True)
class StageWorkload:
    """Composition of one continuous-batching stage (global, all nodes).

    Attributes:
        decode_context_lengths: cached KV length per ongoing decode request.
        prefill_lengths: input tokens processed this stage per prefilling
            request (the whole input, or one chunk under chunked prefill).
        prefill_context_lengths: per-prefill tokens already processed by
            earlier chunks (empty = none; must parallel ``prefill_lengths``
            otherwise).
    """

    decode_context_lengths: np.ndarray
    prefill_lengths: tuple[int, ...] = ()
    prefill_context_lengths: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        lengths = np.asarray(self.decode_context_lengths)
        object.__setattr__(self, "decode_context_lengths", lengths)
        if lengths.size and (lengths < 0).any():
            raise ConfigError("decode context lengths must be non-negative")
        if any(length < 1 for length in self.prefill_lengths):
            raise ConfigError("prefill lengths must be positive")
        if self.prefill_context_lengths:
            if len(self.prefill_context_lengths) != len(self.prefill_lengths):
                raise ConfigError("prefill context lengths must parallel prefill lengths")
            if any(context < 0 for context in self.prefill_context_lengths):
                raise ConfigError("prefill context lengths must be non-negative")
        if lengths.size == 0 and not self.prefill_lengths:
            raise ConfigError("a stage needs at least one request")

    @classmethod
    def trusted(
        cls,
        decode_context_lengths: np.ndarray,
        prefill_lengths: tuple[int, ...] = (),
        prefill_context_lengths: tuple[int, ...] = (),
    ) -> "StageWorkload":
        """Construct without re-validating (per-stage hot path).

        Schedulers build stages from state that is valid by construction —
        an int64 context array and positive chunk lengths — so the
        ``__post_init__`` checks (and its array conversion) are pure
        per-stage overhead for them.  All other callers should use the
        validating constructor.
        """
        workload = object.__new__(cls)
        object.__setattr__(workload, "decode_context_lengths", decode_context_lengths)
        object.__setattr__(workload, "prefill_lengths", prefill_lengths)
        object.__setattr__(workload, "prefill_context_lengths", prefill_context_lengths)
        return workload

    @property
    def is_mixed(self) -> bool:
        """True when a prefill participates in the stage."""
        return len(self.prefill_lengths) > 0

    @property
    def prefill_contexts(self) -> tuple[int, ...]:
        """Per-prefill cached context (zero-padded when not chunked)."""
        return self.prefill_context_lengths or (0,) * len(self.prefill_lengths)

    @property
    def n_decode(self) -> int:
        return int(self.decode_context_lengths.size)

    @property
    def n_prefill(self) -> int:
        return len(self.prefill_lengths)

    @property
    def n_requests(self) -> int:
        return self.n_decode + self.n_prefill

    @property
    def prefill_tokens(self) -> int:
        return int(sum(self.prefill_lengths))

    @property
    def total_tokens(self) -> int:
        """Tokens flowing through the FC/MoE layers this stage."""
        return self.n_decode + self.prefill_tokens


@dataclass(slots=True)
class StageResult:
    """Latency and energy of one stage, with per-category breakdowns.

    ``tokens_generated`` counts the stage's requests — an upper bound on
    tokens actually produced when prefills are chunked (a non-final chunk
    emits no token); schedulers track the exact count.
    """

    latency_s: float = 0.0
    time_by_category: dict[OpCategory, float] = field(default_factory=dict)
    dram_energy_by_category: dict[OpCategory, float] = field(default_factory=dict)
    compute_energy_by_category: dict[OpCategory, float] = field(default_factory=dict)
    comm_energy_j: float = 0.0
    is_mixed: bool = False
    tokens_generated: int = 0

    @property
    def energy_j(self) -> float:
        """Total stage energy: DRAM + compute + fabric."""
        return (
            sum(self.dram_energy_by_category.values())
            + sum(self.compute_energy_by_category.values())
            + self.comm_energy_j
        )

    def busy_time(self, category: OpCategory) -> float:
        return self.time_by_category.get(category, 0.0)

    def add_time(self, category: OpCategory, seconds: float) -> None:
        self.time_by_category[category] = self.time_by_category.get(category, 0.0) + seconds

    def add_dram_energy(self, category: OpCategory, joules: float) -> None:
        self.dram_energy_by_category[category] = (
            self.dram_energy_by_category.get(category, 0.0) + joules
        )

    def add_compute_energy(self, category: OpCategory, joules: float) -> None:
        self.compute_energy_by_category[category] = (
            self.compute_energy_by_category.get(category, 0.0) + joules
        )


@dataclass(slots=True)
class DecodeRunPricing:
    """Vectorized pricing of a run of consecutive steady decode stages.

    Produced by :meth:`StageExecutor.price_decode_run`: stage ``k`` of the
    run (1-based) prices the requests still decoding at ``k``, each
    context grown by ``k`` tokens.  Each element of every array is
    bit-identical to what the scalar per-stage path would compute for
    that stage, so committing a (possibly truncated) prefix of the run is
    indistinguishable from having stepped the stages one by one.

    Attributes:
        latencies: per-stage latency, in stage order.
        widths: per-stage decode width (int64, non-increasing): the
            requests decoding at that stage — the stage's global token
            count (the :meth:`~repro.models.gating.ExpertRouter.route`
            argument) and its TBT weight.
        categories: energy categories in the scalar path's dict insertion
            order (FC, decode attention, then MoE when present).
        energy: ``(2 * len(categories), n_stages)`` joules: one DRAM row
            per category, then one compute row per category, both in
            ``categories`` order.
        fabric: per-stage fabric joules, or None when no stage of the run
            would record any.
        rng_state: gating-RNG snapshot taken *before* the batched routing
            draw, or None when no randomness was consumed (dense models,
            deterministic gating) — what a truncating commit rewinds to.
        n_stages: priced run length.
    """

    latencies: np.ndarray
    widths: np.ndarray
    categories: tuple
    energy: np.ndarray
    fabric: np.ndarray | None
    rng_state: dict | None
    n_stages: int


def _stretches(widths: np.ndarray) -> tuple[list[int], list[int]]:
    """The (width, stage count) of each stretch of equal widths, in order."""
    edges = [0, *(np.flatnonzero(widths[1:] != widths[:-1]) + 1).tolist(), int(widths.size)]
    return [int(widths[lo]) for lo in edges[:-1]], [hi - lo for lo, hi in zip(edges, edges[1:])]


class StageExecutor:
    """Times and energises stages for one system serving one model.

    Args:
        system: the system configuration (GPU / Duplex / Hetero ...).
        model: the model being served.
        gating_skew: 0.0 for the paper's uniform expert routing; larger
            values model hot experts (Section VIII-B).
        seed: RNG seed for gating.
        deterministic_gating: use expected token counts instead of sampling
            (useful for tests and calibration sweeps).
    """

    def __init__(
        self,
        system: SystemConfig,
        model: ModelConfig,
        gating_skew: float = 0.0,
        seed: int | None = 0,
        deterministic_gating: bool = False,
    ) -> None:
        self.system = system
        self.model = model
        self.math = LayerMath(model)
        self.collectives = CollectiveModel(system.topology)
        self.deterministic_gating = deterministic_gating
        # Charge caches: every FC-side operator of a stage depends only on
        # its token count, and the per-stage collective time only on the
        # local token count, so each distinct count is priced once —
        # (category, per-layer time, per-replica energies) — and replayed
        # afterwards.  Cached values are the very floats the uncached path
        # would compute: exact reuse, not approximation.
        self._fc_stage_cache: dict[tuple[int, int], tuple] = {}
        self._gate_cache: dict[int, tuple] = {}
        self._shared_expert_cache: dict[int, tuple] = {}
        self._comm_cache: dict[int, tuple[float, float]] = {}
        self._expected_counts_cache: dict[int, np.ndarray] = {}
        # The runtime lookup table of Section V-B extended with energies:
        # per-unit expert prices over routed counts 0..bound (one stacked
        # row per price), which every stage and decode run gathers from.
        # It grows by doubling when a stage's routed count or a run's bound
        # (batch * top_k) exceeds it.  An entry depends only on its own
        # count, so indexing a larger table yields the same floats.
        self._expert_lut_bound = -1
        self._expert_lut = np.empty((0, 0))
        # Decode-attention coefficients and the units a run may pick;
        # built by the first run.
        self._attention_columns: tuple[np.ndarray, UnitColumns] | None = None

        if system.kind is SystemKind.HETERO:
            n_gpu, n_pim = system.hetero_gpu_count, system.hetero_pim_count
            self._fc_fraction = 1.0 / n_gpu
            self._decode_kv_fraction = 1.0 / n_pim
            self._prefill_kv_fraction = 1.0 / n_gpu
            self._expert_fraction = min(1.0, model.n_experts / n_pim) if model.is_moe else 1.0
            self._placement = None
        else:
            placement = system.placement(model)
            self._placement = placement
            self._fc_fraction = placement.fc_fraction
            self._decode_kv_fraction = placement.kv_fraction
            self._prefill_kv_fraction = placement.kv_fraction
            self._expert_fraction = placement.expert_fraction

        self._router = (
            ExpertRouter(model.n_experts, model.top_k, skew=gating_skew, seed=seed)
            if model.is_moe
            else None
        )
        self._xpu = self._resolve_xpu()
        self._pim = self._resolve_pim()
        # The co-processing greedy's move units on each device (its memory
        # spaces, Section V-C), or None when every MoE layer of a device
        # runs on one unit.
        self._coprocess_plan: SpaceGroupPlan | None = None
        if (
            model.is_moe
            and system.kind is SystemKind.DUPLEX
            and system.expert_coprocessing
            and system.device.supports_coprocessing
        ):
            assert self._placement is not None
            resident = self._placement.resident_experts_per_device
            spaces = round_robin_space_groups(resident, system.device.num_memory_spaces)
            self._coprocess_plan = SpaceGroupPlan(resident, spaces if len(spaces) > 1 else None)
        self._n_nodes = system.topology.n_nodes
        self._n_devices = system.topology.n_devices
        self._expert_segments = self._build_expert_segments() if model.is_moe else []
        self._fc_replica_count = self._fc_replicas()
        self._attention_replica_count = self._attention_replicas()

    def _build_expert_segments(self) -> list[tuple[int, int, int]]:
        """Precomputed (start, stop, multiplicity) slices of the global counts.

        Derived once from the canonical partition —
        :meth:`~repro.parallel.placement.ModelPlacement.per_device_expert_counts`
        applied to the expert indices (Hetero systems split over the PIM
        devices, as their pricing always has) — with the identical-array
        dedup the per-stage path used: devices handed the *same* array
        object (tensor-parallel expert replicas, sharded-expert groups)
        collapse into one segment with a device multiplicity.  Segments are
        contiguous index ranges, so a stage's device counts are plain
        slices of the routed global counts; every partition mode yields one
        uniform multiplicity across its segments.
        """
        experts = np.arange(self.model.n_experts)
        if self.system.kind is SystemKind.HETERO:
            parts = list(np.array_split(experts, self.system.hetero_pim_count))
        else:
            assert self._placement is not None
            parts = self._placement.per_device_expert_counts(experts)
        segments: list[tuple[int, int, int]] = []
        seen: dict[int, int] = {}
        for part in parts:
            key = id(part)
            if key in seen:
                start, stop, multiplicity = segments[seen[key]]
                segments[seen[key]] = (start, stop, multiplicity + 1)
                continue
            seen[key] = len(segments)
            start = int(part[0]) if part.size else 0
            stop = int(part[-1]) + 1 if part.size else 0
            segments.append((start, stop, 1))
        return segments

    # ------------------------------------------------------------------
    # unit resolution
    # ------------------------------------------------------------------
    def _resolve_xpu(self) -> ProcessingUnit | None:
        if self.system.kind is SystemKind.HETERO:
            return self.system.device.require_xpu()
        return self.system.device.xpu

    def _resolve_pim(self) -> ProcessingUnit | None:
        if self.system.kind is SystemKind.HETERO:
            assert self.system.pim_device is not None
            return self.system.pim_device.require_pim()
        return self.system.device.pim

    # ------------------------------------------------------------------
    # steady decode runs (the columnar fast path)
    # ------------------------------------------------------------------
    def price_decode_run(
        self,
        context_lengths: np.ndarray,
        n_stages: int,
        remaining: np.ndarray | None = None,
    ) -> DecodeRunPricing | None:
        """Price ``n_stages`` consecutive steady decode stages in one pass.

        Stage ``k`` (1-based) prices the decoding-only composition of the
        requests with ``remaining >= k`` (every request when ``remaining``
        is None), at contexts ``context_lengths + k`` — exactly the stages
        a scheduler in steady decode would emit while each request leaves
        the batch at the boundary after its last stage.  At least one
        request must decode through the whole run.

        The run splits into segments between those completions.  Each
        segment replays its FC, gate, shared-expert and collective charges
        from the caches the scalar path fills, spread over its stages;
        attention and MoE vectorize over the stage axis elementwise.  Every
        float is produced by the same IEEE operation sequence as
        ``n_stages`` scalar :meth:`run_stage` calls, so a committed run is
        bit-identical to having priced the stages one at a time — including
        the gating RNG stream, one routing row per stage at that stage's
        width.

        Returns None for an empty batch or run.
        """
        if n_stages < 1:
            return None
        ctx = np.asarray(context_lengths, dtype=np.int64)
        if ctx.size == 0:
            return None
        n_run = int(n_stages)
        model = self.model
        n_layers = model.n_layers
        n_nodes = self._n_nodes
        moe_layers = model.n_moe_layers if model.is_moe else 0
        kvf = self._decode_kv_fraction
        # Segment j spans stages cuts[j] + 1 .. cuts[j + 1] over the
        # requests with more than cuts[j] stages left.
        cuts = [0]
        if remaining is not None:
            cuts += sorted({n for n in remaining if n < n_run})
        alive_sets = [ctx]
        if len(cuts) > 1:
            left = np.asarray(remaining)
            alive_sets += [ctx[left > lo] for lo in cuts[1:]]
        counts = []
        charges = []
        for alive in alive_sets:
            local = alive if n_nodes == 1 else alive[::n_nodes]
            b_local = int(local.size)
            if b_local == 0:
                raise ConfigError("a decode run needs a request through its last stage")
            counts.append((int(alive.size), b_local, int(np.add.reduce(local))))
            fc = self._fc_stage_charge(b_local, b_local)
            comm_total, comm_energy = self._communication_cost(b_local)
            row = [
                # The query read (and output write) of decode attention.
                float(b_local) * model.n_heads * model.d_head * model.dtype_bytes * kvf,
                fc[0], fc[1], fc[2], fc[3], fc[5], fc[6],
                comm_total, comm_energy if comm_total > 0 else 0.0,
            ]
            if moe_layers:
                # The MoE buckets open with the gate's charge, then the
                # shared experts' (the scalar path's order).
                gate = self._gate_charge(b_local)
                shared = self._shared_expert_charge(b_local)
                if shared is None:
                    row += [gate[1], gate[2] * moe_layers, gate[3] * moe_layers]
                else:
                    row += [
                        gate[1] + shared[1],
                        gate[2] * moe_layers + shared[2] * moe_layers,
                        gate[3] * moe_layers + shared[3] * moe_layers,
                    ]
            charges.append(row)
        # Every segment's counts (width, local width, local context total)
        # and charges, per stage.  A run of one segment keeps them scalar
        # operands: spreading them over its stages cost `decode_closed`,
        # whose runs nearly all have one segment, about 5% of its
        # throughput.
        lengths = [hi - lo for lo, hi in zip(cuts, [*cuts[1:], n_run])]
        if len(cuts) == 1:
            per_stage = [*counts[0], *charges[0]]
        else:
            per_stage = [
                *np.repeat(np.array(counts).T, lengths, axis=1),
                *np.repeat(np.array(charges).T, lengths, axis=1),
            ]
        (
            width, b_local_s, total0,
            q_read, qkv_s, dense_s, embed_s, head_s, fc_dram, fc_compute,
            comm_s, fabric_j, *moe_constants,
        ) = per_stage
        widths = np.full(n_run, width)

        # ---- attention, vectorized over the stage axis ----------------
        # Stage k's total context: total0 + k * b_local (exact ints).
        totals = total0 + np.arange(1, n_run + 1) * b_local_s
        fields, units = self._attention_pricing()
        # (QK^T and PV flops, softmax flops, KV bytes): each (coefficient *
        # total) * kv_fraction, as the scalar path computes them.
        per_token = (totals * fields) * kvf
        flops = per_token[0] + per_token[1]
        # (time, dram J, compute J) on every candidate unit at once.
        priced = units.prices(flops, per_token[2] + q_read, q_read)
        if priced.shape[1] == 1:
            attention = priced[:, 0]
        else:
            # Each stage on the unit that finishes it sooner (xPU on ties).
            attention = np.where(priced[0, 0] <= priced[0, 1], priced[:, 0], priced[:, 1])

        categories: tuple[OpCategory, ...] = (OpCategory.FC, OpCategory.ATTENTION_DECODE)
        if moe_layers:
            categories += (OpCategory.MOE,)
        n_categories = len(categories)
        energy = np.empty((2 * n_categories, n_run))
        energy[0] = fc_dram
        energy[n_categories] = fc_compute
        attention_energy = energy[1::n_categories]
        np.multiply(attention[1:], self._attention_replica_count, out=attention_energy)
        attention_energy *= n_layers

        latency = qkv_s + attention[0] * n_layers

        # ---- MoE, vectorized over the stage axis ----------------------
        rng_state: dict | None = None
        if moe_layers:
            router = self._router
            assert router is not None
            if self.deterministic_gating:
                expected = np.array([self._expected_counts(count[0]) for count in counts])
                counts_mat = np.repeat(expected, lengths, axis=0)
            else:
                rng_state = router.state_snapshot()
                counts_mat = router.route_stages([count[0] for count in counts], lengths)
            gate_shared_s, seed_dram, seed_compute = moe_constants
            moe_time, moe_energy = self._price_moe_run(
                counts_mat, int(ctx.size) * router.top_k, gate_shared_s, seed_dram, seed_compute
            )
            latency += moe_time
            energy[2::n_categories] = moe_energy
        latency += dense_s
        latency += comm_s
        latency += embed_s
        latency += head_s

        return DecodeRunPricing(
            latencies=latency,
            widths=widths,
            categories=categories,
            energy=energy,
            fabric=np.full(n_run, fabric_j) if any(row[8] for row in charges) else None,
            rng_state=rng_state,
            n_stages=n_run,
        )

    def _attention_pricing(self) -> tuple[np.ndarray, UnitColumns]:
        """Decode-attention coefficients, built on first use.

        ``(fields, units)``: ``fields`` is the (3, 1) column of per-token
        QK^T-and-PV flops, softmax flops and KV bytes per layer; ``units``
        stacks the units decode attention may run on: the xPU, Logic-PIM
        or both, in the order of :meth:`_decode_attention_unit`'s tie rule.
        """
        if self._attention_columns is None:
            m, system = self.model, self.system
            if system.kind is SystemKind.GPU or self._pim is None:
                assert self._xpu is not None
                candidates: tuple[ProcessingUnit, ...] = (self._xpu,)
            elif system.kind is SystemKind.HETERO or self._xpu is None:
                candidates = (self._pim,)
            else:
                candidates = (self._xpu, self._pim)
            fields = np.array(
                [
                    [4.0 * m.n_heads * m.d_head],
                    [SOFTMAX_FLOPS_PER_SCORE * m.n_heads],
                    [m.kv_bytes_per_token_per_layer],
                ],
                dtype=np.float64,
            )
            self._attention_columns = (fields, UnitColumns.of(candidates))
        return self._attention_columns

    def rewind_decode_run(self, pricing: DecodeRunPricing, n_committed: int) -> None:
        """Reposition the gating RNG after a truncated run commit.

        A run priced for ``pricing.n_stages`` stages but committed for
        only ``n_committed`` must leave the random stream exactly where
        ``n_committed`` scalar stages would have: restore the
        pre-batch-draw snapshot and redraw the committed prefix at the
        same per-stage widths (batched multinomial rows are drawn in
        stream order, so the prefix rows — already consumed by the commit
        — reproduce bit-for-bit).
        """
        if pricing.rng_state is None or n_committed >= pricing.n_stages:
            return
        assert self._router is not None
        self._router.state_restore(pricing.rng_state)
        if n_committed > 0:
            self._router.route_stages(*_stretches(pricing.widths[:n_committed]))

    def replay_decode_run(self, pricing: DecodeRunPricing, start: int, end: int) -> None:
        """Advance the gating RNG over stages ``start + 1 .. end`` of a run.

        The continuation of a run whose first commit was rewound to its
        committed prefix (:meth:`rewind_decode_run`): the stream sits
        there, and drawing those stages' rows again (batched rows come out
        in stream order) leaves it where that many more scalar stages
        would.
        """
        if pricing.rng_state is None or end <= start:
            return
        assert self._router is not None
        self._router.route_stages(*_stretches(pricing.widths[start:end]))

    def _expert_table(self, max_count: int) -> np.ndarray:
        """The count-indexed expert price table, covering ``0..max_count``.

        One stacked row per price: GPU/HETERO executors get ``(time, dram,
        compute)``; Duplex-style two-unit executors get ``(tx, tp, dx, dp,
        cx, cp)``.  One table per executor, rebuilt at double its bound
        (at least ``max_count``) when a stage or run outgrows it.  Each
        entry is a pure function of its own count, so the grown table
        indexes to the same floats a table bounded by ``max_count`` would.
        """
        if max_count <= self._expert_lut_bound:
            return self._expert_lut
        bound = max(max_count, 2 * self._expert_lut_bound)
        lut_counts = np.arange(bound + 1, dtype=np.int64)
        idle = lut_counts == 0
        fl, brr, bww = self.math.expert_ffn_arrays(
            lut_counts, self._expert_fraction, validate=False, idle=idle
        )
        system = self.system
        if system.kind is SystemKind.GPU:
            assert self._xpu is not None
            units: tuple[ProcessingUnit, ...] = (self._xpu,)
        elif system.kind is SystemKind.HETERO:
            assert self._pim is not None
            units = (self._pim,)
        else:
            assert self._xpu is not None and self._pim is not None
            units = (self._xpu, self._pim)
        self._expert_lut_bound = bound
        # (times, dram, compute) x units, as rows.
        self._expert_lut = UnitColumns.of(units).prices(fl, brr, bww, idle).reshape(-1, bound + 1)
        return self._expert_lut

    def _price_moe_run(
        self,
        counts_mat: np.ndarray,
        max_count: int,
        gate_shared_s,
        seed_dram,
        seed_compute,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-stage MoE latency and ``(2, stages)`` (dram, compute) joules.

        ``counts_mat`` holds one routed-count row per stage.  It is
        transposed once into a stage-minor layout — one row per expert (or
        space group), one column per stage — so every per-expert step is a
        contiguous vector op and every in-order sum runs down the expert
        axis.  Per-expert prices come from the expert price table over
        every possible count (counts are bounded by ``max_count = batch *
        top_k``), gathered once per device segment — the floats
        :meth:`_moe_layers_time` gathers per stage, in its accumulation
        order (segment by segment, xPU charges before Logic-PIM).  The
        gate's and the shared experts' time (``gate_shared_s``) and
        energies (the seeds) are per-stage scalars or vectors; the seeds
        open each energy fold, as they open the scalar path's MoE
        buckets.
        """
        layers = self.model.n_moe_layers
        system = self.system
        counts = np.ascontiguousarray(counts_mat.T)
        luts = self._expert_table(max_count)
        segments = self._expert_segments
        blocks = []
        worst = None
        if system.kind is SystemKind.GPU or system.kind is SystemKind.HETERO:
            prices = luts[:, counts]
            times = prices[0]
            for start, stop, _ in segments:
                total = times[start:stop].cumsum(axis=0)[-1]
                worst = total if worst is None else np.maximum(worst, total)
            blocks.append(prices[1:] * (layers * segments[0][2]))
        else:
            plan = self._coprocess_plan
            for start, stop, multiplicity in segments:
                seg = counts[start:stop]
                prices = luts[:, seg]
                seg_layers = layers * multiplicity
                if plan is None:
                    x_tot = prices[0].cumsum(axis=0)[-1]
                    p_tot = prices[1].cumsum(axis=0)[-1]
                    on_xpu = x_tot <= p_tot
                    blocks.append(np.where(on_xpu, prices[2::2], prices[3::2]) * seg_layers)
                    seg_time = np.where(on_xpu, x_tot, p_tot)
                else:
                    seg_time, on_pim = assign_columns(plan, seg, prices[:2])
                    # (dx, dp, cx, cp) with each expert's energy kept on its
                    # unit only; as (2, 2 * experts) rows: the xPU experts'
                    # then the Logic-PIM experts' joules, dram then compute.
                    charged = prices[2:] * seg_layers
                    charged[0::2] *= ~on_pim
                    charged[1::2] *= on_pim
                    blocks.append(charged.reshape(2, -1, charged.shape[-1]))
                worst = seg_time if worst is None else np.maximum(worst, seg_time)
        energy = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
        # Seeding the first row is exact: IEEE addition commutes.
        energy[0, 0] += seed_dram
        energy[1, 0] += seed_compute
        moe_energy = energy.cumsum(axis=1)[:, -1]
        return (gate_shared_s + worst) * layers, moe_energy

    # ------------------------------------------------------------------
    # main entry
    # ------------------------------------------------------------------
    def run_stage(self, workload: StageWorkload) -> StageResult:
        """Execute one stage and return its latency/energy breakdown."""
        model, system = self.model, self.system
        decode_ctx = workload.decode_context_lengths
        prefills = workload.prefill_lengths
        result = StageResult(
            is_mixed=bool(prefills), tokens_generated=int(decode_ctx.size) + len(prefills)
        )

        # Data parallelism: node 0 takes the round-robin share (worst case).
        if self._n_nodes == 1:
            local_ctx = decode_ctx
            local_prefill = prefills
            local_prefill_ctx = workload.prefill_contexts if prefills else ()
        else:
            local_ctx = np.asarray(decode_ctx)[:: self._n_nodes]
            local_prefill = tuple(prefills[:: self._n_nodes])
            local_prefill_ctx = tuple(workload.prefill_contexts[:: self._n_nodes])
        local_tokens = int(local_ctx.size) + int(sum(local_prefill))

        n_layers = model.n_layers
        latency = 0.0

        # ---- FC-side work, fused (QKV+projection, dense FFN, embedding,
        # LM head) — every piece depends only on the token counts, so one
        # cache entry replays the whole per-stage FC charge.  The bucket
        # totals are written here (the FC keys were created first in the
        # unfused accumulation, and downstream float sums iterate dicts in
        # insertion order); latency contributions land at their original
        # positions below.
        fc_charge = None
        if local_tokens > 0:
            fc_charge = self._fc_stage_charge(
                local_tokens, int(local_ctx.size) + len(local_prefill)
            )
            latency += fc_charge[0]  # QKV + projection, all layers
            result.time_by_category[OpCategory.FC] = fc_charge[4]
            result.dram_energy_by_category[OpCategory.FC] = fc_charge[5]
            result.compute_energy_by_category[OpCategory.FC] = fc_charge[6]

        # ---- attention ------------------------------------------------------
        decode_time = 0.0
        prefill_time = 0.0
        if local_ctx.size:
            flops, bytes_read, bytes_written = self.math.attention_decode_fields(
                local_ctx, self._decode_kv_fraction, validate=False
            )
            decode_unit = self._decode_attention_unit(flops, bytes_read, bytes_written)
            decode_time = decode_unit.op_time(flops, bytes_read, bytes_written)
            replicas = self._attention_replica_count
            result.time_by_category[OpCategory.ATTENTION_DECODE] = decode_time * n_layers
            result.dram_energy_by_category[OpCategory.ATTENTION_DECODE] = (
                decode_unit.dram_energy(bytes_read, bytes_written) * replicas * n_layers
            )
            result.compute_energy_by_category[OpCategory.ATTENTION_DECODE] = (
                decode_unit.compute_energy(flops) * replicas * n_layers
            )
        if local_prefill:
            fc_unit = self._xpu if self._xpu is not None else self._pim
            assert fc_unit is not None
            prefill_op = self.math.attention_prefill(
                local_prefill, self._prefill_kv_fraction, local_prefill_ctx
            )
            prefill_time = self._charge(
                result, fc_unit, prefill_op, self._fc_replica_count, n_layers
            )
        overlap = (
            workload.is_mixed
            and system.attention_coprocessing
            and self._pim is not None
            and self._xpu is not None
        )
        attention_contrib = max(decode_time, prefill_time) if overlap else decode_time + prefill_time
        latency += attention_contrib * n_layers

        # ---- FFN / MoE ------------------------------------------------------
        if model.is_moe:
            latency += self._moe_layers_time(result, workload, local_tokens)
        if fc_charge is not None:
            latency += fc_charge[1]  # dense FFN layers (exact 0.0 for pure MoE)

        # ---- communication ---------------------------------------------------
        latency += self._communication_time(result, local_tokens)

        # ---- stage-level work -------------------------------------------------
        if fc_charge is not None:
            latency += fc_charge[2]  # embedding
            latency += fc_charge[3]  # LM head
        latency += self._kv_migration_time(result, local_prefill)

        result.latency_s = latency
        if latency <= 0:
            raise SimulationError("stage produced non-positive latency")
        return result

    def _fc_stage_charge(self, local_tokens: int, outputs: int) -> tuple:
        """:meth:`_build_fc_stage_charge`, cached per composition."""
        key = (local_tokens, outputs)
        charge = self._fc_stage_cache.get(key)
        if charge is None:
            charge = self._build_fc_stage_charge(local_tokens, outputs)
            self._fc_stage_cache[key] = charge
        return charge

    def _build_fc_stage_charge(self, local_tokens: int, outputs: int) -> tuple:
        """Fused FC-side charge of one stage composition.

        (qkv latency over all layers, dense-FFN latency over its layers,
        embedding time, LM-head time, FC busy time, FC dram J, FC compute
        J) — the bucket totals accumulate in the unfused operator order, so
        replaying them is bit-identical to charging each operator apart.
        """
        fc_unit = self._xpu if self._xpu is not None else self._pim
        assert fc_unit is not None
        model = self.model
        n_layers = model.n_layers
        replicas = self._fc_replica_count
        qkv = self._build_charge(
            fc_unit, self.math.qkv_and_projection(local_tokens, self._fc_fraction), replicas
        )
        qkv_latency = qkv[1] * n_layers
        fc_time = qkv[1] * n_layers
        fc_dram = qkv[2] * n_layers
        fc_compute = qkv[3] * n_layers
        dense_layers = model.n_dense_ffn_layers if model.is_moe else n_layers
        dense_latency = 0.0
        if dense_layers > 0:
            op = self.math.dense_ffn(local_tokens, self._fc_fraction)
            is_duplex = self.system.kind is SystemKind.DUPLEX
            dense_unit = self._min_time_unit(op) if is_duplex else fc_unit
            assert dense_unit is not None
            dense = self._build_charge(dense_unit, op, replicas)
            dense_latency = dense[1] * dense_layers
            fc_time = fc_time + dense[1] * dense_layers
            fc_dram = fc_dram + dense[2] * dense_layers
            fc_compute = fc_compute + dense[3] * dense_layers
        embed = self._build_charge(fc_unit, self.math.embedding(local_tokens), replicas)
        fc_time = fc_time + embed[1] * 1
        fc_dram = fc_dram + embed[2] * 1
        fc_compute = fc_compute + embed[3] * 1
        head = self._build_charge(
            fc_unit, self.math.lm_head(outputs, self._fc_fraction), replicas
        )
        fc_time = fc_time + head[1] * 1
        fc_dram = fc_dram + head[2] * 1
        fc_compute = fc_compute + head[3] * 1
        return (
            qkv_latency,
            dense_latency,
            embed[1],
            head[1],
            fc_time,
            fc_dram,
            fc_compute,
        )

    # ------------------------------------------------------------------
    # MoE
    # ------------------------------------------------------------------
    def _moe_layers_time(
        self, result: StageResult, workload: StageWorkload, local_tokens: int
    ) -> float:
        """Latency contribution of all MoE layers (gate + experts).

        Every expert's unit times and energies come from the expert price
        table decode runs gather from (:meth:`_expert_table`), gathered
        once per stage as Python floats.  Devices sharing one count vector
        (tensor-parallel expert replicas, sharded-expert groups) are priced
        once, as one segment; energy is still charged per replica via the
        multiplicity.  On each segment the co-processing greedy splits the
        experts between the units; without co-processing the whole layer
        runs on the unit that finishes it sooner (the xPU on ties; GPU and
        Hetero systems have one unit).  Sums and energy folds run in expert
        order, xPU charges before Logic-PIM, as :meth:`_price_moe_run`
        reproduces over a run's stages.
        """
        assert self._router is not None
        layers = self.model.n_moe_layers
        if workload.total_tokens == 0 or layers == 0:
            return 0.0
        if self.deterministic_gating:
            counts = self._expected_counts(workload.total_tokens)
        else:
            counts = self._router.route(workload.total_tokens)

        gate_time = 0.0
        shared_time = 0.0
        if local_tokens > 0:
            gate_time = self._apply_charge(result, self._gate_charge(local_tokens), layers)
            shared = self._shared_expert_charge(local_tokens)
            if shared is not None:
                shared_time = self._apply_charge(result, shared, layers)

        tokens = counts.tolist()
        prices = self._expert_table(max(tokens)).take(counts, axis=1).tolist()
        # Per unit (the xPU, then Logic-PIM when there are two): times,
        # then DRAM joules, then compute joules.
        n_units = len(prices) // 3
        times = prices[:n_units]
        drams = prices[n_units : 2 * n_units]
        computes = prices[2 * n_units :]
        plan = self._coprocess_plan
        dram = result.dram_energy_by_category.get(OpCategory.MOE, 0.0)
        compute = result.compute_energy_by_category.get(OpCategory.MOE, 0.0)
        worst = 0.0
        for start, stop, multiplicity in self._expert_segments:
            if plan is None:
                unit = 0
                seg_time = 0.0
                for time in times[0][start:stop]:
                    seg_time += time
                if n_units == 2:
                    pim_time = 0.0
                    for time in times[1][start:stop]:
                        pim_time += time
                    if pim_time < seg_time:
                        unit, seg_time = 1, pim_time
                charged: tuple[tuple[int, Sequence[int]], ...] = ((unit, range(stop - start)),)
            else:
                assignment = assign_from_time_lists(
                    tokens[start:stop], times[0][start:stop], times[1][start:stop], plan
                )
                seg_time = assignment.makespan_s
                charged = ((0, assignment.xpu_experts), (1, assignment.pim_experts))
            if seg_time > worst:
                worst = seg_time
            seg_layers = layers * multiplicity
            for unit, experts in charged:
                unit_dram = drams[unit]
                unit_compute = computes[unit]
                for i in experts:
                    dram += unit_dram[start + i] * seg_layers
                    compute += unit_compute[start + i] * seg_layers
        result.dram_energy_by_category[OpCategory.MOE] = dram
        result.compute_energy_by_category[OpCategory.MOE] = compute
        result.add_time(OpCategory.MOE, worst * layers)
        return (gate_time + shared_time + worst) * layers

    def _expected_counts(self, tokens: int) -> np.ndarray:
        """Deterministic-gating routed counts (rounded expectations), cached."""
        counts = self._expected_counts_cache.get(tokens)
        if counts is None:
            assert self._router is not None
            counts = np.rint(self._router.expected_counts(tokens)).astype(np.int64)
            self._expected_counts_cache[tokens] = counts
        return counts

    def _gate_charge(self, local_tokens: int) -> tuple:
        """Charge of the MoE gate at one local token count (cached)."""
        charge = self._gate_cache.get(local_tokens)
        if charge is None:
            gate_unit = self._xpu if self._xpu is not None else self._pim
            assert gate_unit is not None
            gate = self.math.gate(local_tokens, self._fc_fraction)
            charge = self._build_charge(gate_unit, gate, self._fc_replica_count)
            self._gate_cache[local_tokens] = charge
        return charge

    def _shared_expert_charge(self, local_tokens: int) -> tuple | None:
        """Charge of the always-on shared experts at one local token count.

        Shared experts (DeepSeekMoE) are replicated on every device and run
        sequence-parallel within the tensor-parallel group: each device
        pushes its ``ceil(local_tokens / tp)`` token slice through every
        shared expert at full width, and the slices are gathered back (the
        all-gather is priced in :meth:`_communication_cost`).  Cached per
        token count so the scalar and columnar paths replay the exact same
        floats.
        """
        model = self.model
        if model.num_shared_experts == 0 or local_tokens == 0:
            return None
        charge = self._shared_expert_cache.get(local_tokens)
        if charge is None:
            if self.system.kind is SystemKind.HETERO:
                split = self.system.hetero_gpu_count
            else:
                assert self._placement is not None
                split = self._placement.tp_group_size
            shard_tokens = -(-local_tokens // split)
            op = self.math.expert_ffn(0, shard_tokens, 1.0)
            unit = self._min_time_unit(op)
            assert unit is not None
            base = self._build_charge(unit, op, self._fc_replicas())
            n = model.num_shared_experts
            charge = (base[0], base[1] * n, base[2] * n, base[3] * n)
            self._shared_expert_cache[local_tokens] = charge
        return charge

    # ------------------------------------------------------------------
    # attention unit selection
    # ------------------------------------------------------------------
    def _decode_attention_unit(
        self, flops: float, bytes_read: float, bytes_written: float
    ) -> ProcessingUnit:
        system = self.system
        if system.kind is SystemKind.GPU or self._pim is None:
            assert self._xpu is not None
            return self._xpu
        if system.kind is SystemKind.HETERO:
            return self._pim
        if self._xpu is None:
            return self._pim
        t_x = self._xpu.op_time(flops, bytes_read, bytes_written)
        t_p = self._pim.op_time(flops, bytes_read, bytes_written)
        return self._xpu if t_x <= t_p else self._pim

    def _min_time_unit(self, op: Operator) -> ProcessingUnit | None:
        if self._xpu is None:
            return self._pim
        if self._pim is None:
            return self._xpu
        t_x = self._xpu.op_time(op.flops, op.bytes_read, op.bytes_written)
        t_p = self._pim.op_time(op.flops, op.bytes_read, op.bytes_written)
        return self._xpu if t_x <= t_p else self._pim

    # ------------------------------------------------------------------
    # communication
    # ------------------------------------------------------------------
    def _communication_time(self, result: StageResult, local_tokens: int) -> float:
        """Per-stage collective time (all layers), recorded and returned.

        Collective time and wire energy depend only on the local token
        count, so each distinct count is derived once and replayed from the
        cache afterwards (the cached floats are exactly what the uncached
        path computed).
        """
        if local_tokens == 0:
            return 0.0
        total, energy = self._communication_cost(local_tokens)
        if total > 0:
            result.add_time(OpCategory.COMMUNICATION, total)
            result.comm_energy_j += energy
        return total

    def _communication_cost(self, local_tokens: int) -> tuple[float, float]:
        """(collective seconds, wire joules) for one stage's local tokens (cached)."""
        cached = self._comm_cache.get(local_tokens)
        if cached is None:
            cached = self._derive_communication_cost(local_tokens)
            self._comm_cache[local_tokens] = cached
        return cached

    def _derive_communication_cost(self, local_tokens: int) -> tuple[float, float]:
        model, system = self.model, self.system
        coll = self.collectives
        activation_bytes = local_tokens * model.hidden * model.dtype_bytes
        if system.kind is SystemKind.HETERO:
            tp_group = system.hetero_gpu_count
        else:
            assert self._placement is not None
            tp_group = self._placement.tp_group_size

        total = 0.0
        wire = 0.0
        # Attention-output all-reduce, every layer.
        if tp_group > 1:
            total += coll.all_reduce_time(activation_bytes, tp_group) * model.n_layers
            wire += coll.all_reduce_wire_bytes(activation_bytes, tp_group) * model.n_layers

        if model.is_moe:
            moe_bytes = local_tokens * model.top_k * model.hidden * model.dtype_bytes
            if system.kind is SystemKind.HETERO:
                uses_a2a, uses_ar = True, False
                group, group_crosses = system.topology.n_devices, False
            else:
                assert self._placement is not None
                uses_a2a = self._placement.moe_uses_all_to_all
                uses_ar = self._placement.moe_uses_tp_all_reduce
                group, group_crosses = self._placement.moe_all_to_all_group
            if uses_a2a:
                total += 2 * coll.all_to_all_time(moe_bytes, group, group_crosses) * model.n_moe_layers
                wire += 2 * coll.all_to_all_wire_bytes(moe_bytes, group) * model.n_moe_layers
            if uses_ar and tp_group > 1:
                total += coll.all_reduce_time(activation_bytes, tp_group) * model.n_moe_layers
                wire += coll.all_reduce_wire_bytes(activation_bytes, tp_group) * model.n_moe_layers
            if model.num_shared_experts > 0 and tp_group > 1:
                # Sequence-parallel shared experts: gather every device's
                # output slice back across the tensor-parallel group.
                shard_bytes = (-(-local_tokens // tp_group)) * model.hidden * model.dtype_bytes
                total += coll.all_gather_time(shard_bytes, tp_group) * model.n_moe_layers
                wire += coll.all_gather_wire_bytes(shard_bytes, tp_group) * model.n_moe_layers
            if model.n_dense_ffn_layers > 0 and tp_group > 1:
                total += coll.all_reduce_time(activation_bytes, tp_group) * model.n_dense_ffn_layers
                wire += (
                    coll.all_reduce_wire_bytes(activation_bytes, tp_group) * model.n_dense_ffn_layers
                )
        elif tp_group > 1:
            # Dense model: FFN all-reduce per layer.
            total += coll.all_reduce_time(activation_bytes, tp_group) * model.n_layers
            wire += coll.all_reduce_wire_bytes(activation_bytes, tp_group) * model.n_layers

        return total, coll.wire_energy(wire) * self._n_devices

    # ------------------------------------------------------------------
    # KV migration (Section V-C)
    # ------------------------------------------------------------------
    def _kv_migration_time(self, result: StageResult, local_prefill: tuple[int, ...]) -> float:
        if not local_prefill:
            return 0.0
        system, model = self.system, self.model
        if system.kind is SystemKind.GPU:
            return 0.0  # KV is written to its final location directly
        produced = sum(local_prefill) * model.kv_bytes_per_token
        if system.kind is SystemKind.HETERO:
            # Prefill KV is produced on the GPUs and shipped to the PIM devices.
            time = self.collectives.point_to_point_time(produced / system.hetero_gpu_count)
            result.add_time(OpCategory.MIGRATION, time)
            result.comm_energy_j += self.collectives.wire_energy(produced)
            return time
        # Duplex: the xPU moves K/V from the scratch space to the KV spaces.
        moved = produced * self._decode_kv_fraction
        op = Operator("kv_migration", OpCategory.MIGRATION, 0.0, moved, moved)
        assert self._xpu is not None
        return self._charge(result, self._xpu, op, self._n_devices, 1)

    # ------------------------------------------------------------------
    # charging helper
    # ------------------------------------------------------------------
    def _fc_replicas(self) -> int:
        """Devices doing replicated/tensor-parallel FC work (for energy)."""
        if self.system.kind is SystemKind.HETERO:
            return self.system.hetero_gpu_count
        return self._n_devices

    def _attention_replicas(self) -> int:
        if self.system.kind is SystemKind.HETERO:
            return self.system.hetero_pim_count
        return self._n_devices

    def _charge(
        self,
        result: StageResult,
        unit: ProcessingUnit,
        op: Operator,
        replicas: int,
        layers: int,
    ) -> float:
        """Record an operator across ``layers`` layers; return per-layer time."""
        time = unit.op_time(op.flops, op.bytes_read, op.bytes_written)
        result.add_time(op.category, time * layers)
        result.add_dram_energy(
            op.category, unit.dram_energy(op.bytes_read, op.bytes_written) * replicas * layers
        )
        result.add_compute_energy(op.category, unit.compute_energy(op.flops) * replicas * layers)
        return time

    @staticmethod
    def _build_charge(unit: ProcessingUnit, op: Operator, replicas: int) -> tuple:
        """Precomputed :meth:`_charge` of one operator on one unit.

        (category, per-layer time, per-replica-scaled dram J, compute J) —
        everything :meth:`_apply_charge` needs, so token-count-keyed caches
        can replay a charge without re-deriving time or energy.
        """
        return (
            op.category,
            unit.op_time(op.flops, op.bytes_read, op.bytes_written),
            unit.dram_energy(op.bytes_read, op.bytes_written) * replicas,
            unit.compute_energy(op.flops) * replicas,
        )

    @staticmethod
    def _apply_charge(result: StageResult, charge: tuple, layers: int) -> float:
        """Replay a precomputed charge across ``layers``; return per-layer time."""
        category, time, dram_j, compute_j = charge
        times = result.time_by_category
        times[category] = times.get(category, 0.0) + time * layers
        dram = result.dram_energy_by_category
        dram[category] = dram.get(category, 0.0) + dram_j * layers
        compute = result.compute_energy_by_category
        compute[category] = compute.get(category, 0.0) + compute_j * layers
        return time

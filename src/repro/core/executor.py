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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.coprocessing import (
    SpaceGroupPlan,
    assign_from_time_lists,
    assign_from_times,
    round_robin_space_groups,
)
from repro.core.system import SystemConfig, SystemKind
from repro.errors import ConfigError, SimulationError
from repro.hardware.processor import ProcessingUnit
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
    run (1-based) prices the batch with every context grown by ``k``
    tokens.  Each element of every array is bit-identical to what the
    scalar per-stage path would compute for that stage, so committing a
    (possibly truncated) prefix of the run is indistinguishable from
    having stepped the stages one by one.

    Attributes:
        latencies: per-stage latency, in stage order.
        categories: energy categories in the scalar path's dict insertion
            order (FC, decode attention, then MoE when present).
        dram / compute: per-category per-stage joule vectors, parallel to
            ``categories``.
        comm_energy_j: constant per-stage fabric energy (0.0 when the
            scalar path would record none).
        total_tokens: the stage's global decode token count (the
            :meth:`~repro.models.gating.ExpertRouter.route` argument).
        rng_state: gating-RNG snapshot taken *before* the batched routing
            draw, or None when no randomness was consumed (dense models,
            deterministic gating) — what a truncating commit rewinds to.
        n_stages: priced run length.
    """

    latencies: np.ndarray
    categories: tuple
    dram: tuple
    compute: tuple
    comm_energy_j: float
    total_tokens: int
    rng_state: dict | None
    n_stages: int


#: At or below this many resident experts, the scalar per-count price cache
#: beats the batched numpy pass (dict hits vs fixed array overhead).
_SCALAR_EXPERT_MAX = 16


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
        # Count-indexed expert price lookup tables for the decode-run fast
        # path over counts 0..bound, grown by doubling when a run's
        # routed-token bound (batch * top_k) exceeds them.  A LUT entry
        # depends only on its own count, so indexing a larger table yields
        # the same floats as building one per run.
        self._run_lut_bound = -1
        self._run_lut: tuple = ()
        # Scalar per-token-count expert prices — the runtime lookup table of
        # Section V-B extended with energies.  Decode-stage routing repeats
        # the same small counts constantly, so small expert sets price from
        # dict hits; large sets use the batched numpy pass instead.
        self._expert_price_cache: dict[int, tuple] = {}

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
        self._space_groups = (
            round_robin_space_groups(
                self._placement.resident_experts_per_device, system.device.num_memory_spaces
            )
            if model.is_moe and self._placement is not None
            else None
        )
        self._assign_groups = (
            self._space_groups if self._space_groups and len(self._space_groups) > 1 else None
        )
        self._assign_plan = (
            SpaceGroupPlan(self._placement.resident_experts_per_device, self._assign_groups)
            if model.is_moe and self._placement is not None
            else None
        )
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
        self, context_lengths: np.ndarray, n_stages: int
    ) -> DecodeRunPricing | None:
        """Price ``n_stages`` consecutive steady decode stages in one pass.

        Stage ``k`` (1-based) prices the decoding-only composition with
        contexts ``context_lengths + k`` — exactly the stages a scheduler
        in steady decode would emit.  Every float is produced by the same
        IEEE operation sequence as ``n_stages`` scalar
        :meth:`run_stage` calls (constant FC/gate/collective charges are
        replayed from the same caches; attention and MoE vectorize over
        the stage axis elementwise), so a committed run is bit-identical
        to having priced the stages one at a time — including the gating
        RNG stream, batched via
        :meth:`~repro.models.gating.ExpertRouter.route_batch`.

        Returns None for an empty batch or run.
        """
        if n_stages < 1:
            return None
        model = self.model
        ctx = np.asarray(context_lengths, dtype=np.int64)
        batch = int(ctx.size)
        if batch == 0:
            return None
        n_run = int(n_stages)
        local0 = ctx if self._n_nodes == 1 else ctx[:: self._n_nodes]
        b_local = int(local0.size)
        local_tokens = b_local
        n_layers = model.n_layers

        fc_charge = self._fc_stage_charge(local_tokens, b_local)

        # ---- attention, vectorized over the stage axis ----------------
        m = model
        kvf = self._decode_kv_fraction
        total0 = int(np.add.reduce(local0))
        steps = np.arange(1, n_run + 1, dtype=np.int64)
        totals = (total0 + steps * b_local).astype(np.float64)
        qk_coeff = 4.0 * m.n_heads * m.d_head
        sm_coeff = SOFTMAX_FLOPS_PER_SCORE * m.n_heads
        flops_v = (qk_coeff * totals) * kvf + (sm_coeff * totals) * kvf
        kv_read_v = (totals * m.kv_bytes_per_token_per_layer) * kvf
        q_read = float(b_local) * m.n_heads * m.d_head * m.dtype_bytes * kvf
        br_v = kv_read_v + q_read
        bw_v = np.full(n_run, q_read)
        system = self.system
        if system.kind is SystemKind.GPU or self._pim is None:
            assert self._xpu is not None
            attn_units: tuple[ProcessingUnit, ...] = (self._xpu,)
        elif system.kind is SystemKind.HETERO or self._xpu is None:
            attn_units = (self._pim,)
        else:
            attn_units = (self._xpu, self._pim)
        if len(attn_units) == 1:
            unit = attn_units[0]
            attn_time_v = unit.op_times(flops_v, br_v, bw_v, validate=False)
            attn_dram_v = unit.dram_energies(br_v, bw_v)
            attn_comp_v = unit.compute_energies(flops_v)
        else:
            xpu, pim = attn_units
            t_x = xpu.op_times(flops_v, br_v, bw_v, validate=False)
            t_p = pim.op_times(flops_v, br_v, bw_v, validate=False)
            on_xpu = t_x <= t_p
            attn_time_v = np.where(on_xpu, t_x, t_p)
            attn_dram_v = np.where(
                on_xpu, xpu.dram_energies(br_v, bw_v), pim.dram_energies(br_v, bw_v)
            )
            attn_comp_v = np.where(
                on_xpu, xpu.compute_energies(flops_v), pim.compute_energies(flops_v)
            )
        replicas = self._attention_replica_count
        attn_dram_stage = (attn_dram_v * replicas) * n_layers
        attn_comp_stage = (attn_comp_v * replicas) * n_layers

        latency_v = fc_charge[0] + attn_time_v * n_layers

        # ---- MoE, vectorized over the stage axis ----------------------
        rng_state: dict | None = None
        moe_priced = False
        moe_dram_v = moe_comp_v = None
        if model.is_moe and model.n_moe_layers > 0:
            moe_priced = True
            assert self._router is not None
            if self.deterministic_gating:
                counts_mat = np.tile(self._expected_counts(batch), (n_run, 1))
            else:
                rng_state = self._router.state_snapshot()
                counts_mat = self._router.route_batch(batch, n_run)
            moe_time_v, moe_dram_v, moe_comp_v = self._price_moe_run(
                counts_mat, local_tokens, n_run, batch * self._router.top_k
            )
            latency_v = latency_v + moe_time_v
        latency_v = latency_v + fc_charge[1]

        comm_total, comm_energy = self._communication_cost(local_tokens)
        latency_v = latency_v + comm_total
        latency_v = latency_v + fc_charge[2]
        latency_v = latency_v + fc_charge[3]

        categories: list[OpCategory] = [OpCategory.FC, OpCategory.ATTENTION_DECODE]
        dram = [np.full(n_run, fc_charge[5]), attn_dram_stage]
        compute = [np.full(n_run, fc_charge[6]), attn_comp_stage]
        if moe_priced:
            categories.append(OpCategory.MOE)
            dram.append(moe_dram_v)
            compute.append(moe_comp_v)
        return DecodeRunPricing(
            latencies=latency_v,
            categories=tuple(categories),
            dram=tuple(dram),
            compute=tuple(compute),
            comm_energy_j=comm_energy if comm_total > 0 else 0.0,
            total_tokens=batch,
            rng_state=rng_state,
            n_stages=n_run,
        )

    def rewind_decode_run(self, pricing: DecodeRunPricing, n_committed: int) -> None:
        """Reposition the gating RNG after a truncated run commit.

        A run priced for ``pricing.n_stages`` stages but committed for
        only ``n_committed`` must leave the random stream exactly where
        ``n_committed`` scalar stages would have: restore the
        pre-batch-draw snapshot and redraw the committed prefix (batched
        multinomial rows are drawn in stream order, so the prefix rows —
        already consumed by the commit — reproduce bit-for-bit).
        """
        if pricing.rng_state is None or n_committed >= pricing.n_stages:
            return
        assert self._router is not None
        self._router.state_restore(pricing.rng_state)
        if n_committed > 0:
            self._router.route_batch(pricing.total_tokens, n_committed)

    def replay_decode_run(self, pricing: DecodeRunPricing, n_stages: int) -> None:
        """Advance the gating RNG over ``n_stages`` more stages of a run.

        The continuation of a run whose first commit was rewound to its
        committed prefix (:meth:`rewind_decode_run`): the stream sits
        there, and drawing the next ``n_stages`` rows again (batched rows
        come out in stream order) leaves it where that many more scalar
        stages would.
        """
        if pricing.rng_state is None:
            return
        assert self._router is not None
        self._router.route_batch(pricing.total_tokens, n_stages)

    def _run_luts(self, max_count: int) -> tuple:
        """Count-indexed expert price LUTs covering ``0..max_count``.

        GPU/HETERO executors get ``(time, dram, compute)``; Duplex-style
        two-unit executors get ``(tx, tp, dx, dp, cx, cp)``.  One table
        per executor, rebuilt at double its bound (at least
        ``max_count``) when a run outgrows it.  Each LUT entry is a pure
        function of its own count, so the grown table indexes to the same
        floats a table bounded by this run's maximum count would.
        """
        if max_count <= self._run_lut_bound:
            return self._run_lut
        bound = max(max_count, 2 * self._run_lut_bound)
        lut_counts = np.arange(bound + 1, dtype=np.int64)
        idle = lut_counts == 0
        fl, brr, bww = self.math.expert_ffn_arrays(
            lut_counts, self._expert_fraction, validate=False, idle=idle
        )
        system = self.system
        luts: tuple
        if system.kind is SystemKind.GPU or system.kind is SystemKind.HETERO:
            unit = self._xpu if system.kind is SystemKind.GPU else self._pim
            assert unit is not None
            luts = (
                unit.op_times(fl, brr, bww, zero_mask=idle, validate=False),
                unit.dram_energies(brr, bww),
                unit.compute_energies(fl),
            )
        else:
            assert self._xpu is not None and self._pim is not None
            luts = (
                self._xpu.op_times(fl, brr, bww, zero_mask=idle, validate=False),
                self._pim.op_times(fl, brr, bww, zero_mask=idle, validate=False),
                self._xpu.dram_energies(brr, bww),
                self._pim.dram_energies(brr, bww),
                self._xpu.compute_energies(fl),
                self._pim.compute_energies(fl),
            )
        self._run_lut_bound = bound
        self._run_lut = luts
        return luts

    def _price_moe_run(
        self, counts_mat: np.ndarray, local_tokens: int, n_run: int, max_count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-stage MoE (latency, dram J, compute J) for a decode run.

        ``counts_mat`` holds one routed-count row per stage.  It is
        transposed once into a stage-minor layout — one row per expert (or
        space group), one column per stage — so every per-expert step is a
        contiguous vector op and every in-order sum runs down axis 0.
        Per-expert prices come from a lookup table over every possible
        count (counts are bounded by ``max_count = batch * top_k``) — the
        exact floats the per-stage array path derives, in the same
        accumulation order (segment by segment, xPU charges before
        Logic-PIM, expert energies folded in order after the gate's and
        the shared experts' contributions).
        """
        model, system = self.model, self.system
        layers = model.n_moe_layers
        charge = self._gate_charge(local_tokens)
        gate_time = charge[1]
        shared = self._shared_expert_charge(local_tokens) if local_tokens > 0 else None

        counts = np.ascontiguousarray(counts_mat.T)
        luts = self._run_luts(max_count)
        worst_v = np.zeros(n_run)
        # Energy rows in the scalar path's order: gate, shared experts,
        # then the routed-expert blocks.
        dram_rows = [np.full((1, n_run), charge[2] * layers)]
        comp_rows = [np.full((1, n_run), charge[3] * layers)]
        shared_time = 0.0
        if shared is not None:
            shared_time = shared[1]
            dram_rows.append(np.full((1, n_run), shared[2] * layers))
            comp_rows.append(np.full((1, n_run), shared[3] * layers))

        if system.kind is SystemKind.GPU or system.kind is SystemKind.HETERO:
            t_lut, d_lut, c_lut = luts
            times = t_lut[counts]
            for start, stop, _ in self._expert_segments:
                worst_v = np.maximum(worst_v, times[start:stop].cumsum(axis=0)[-1])
            charged_layers = layers * self._expert_segments[0][2]
            dram_rows.append(d_lut[counts] * charged_layers)
            comp_rows.append(c_lut[counts] * charged_layers)
        else:
            tx_lut, tp_lut, dx_lut, dp_lut, cx_lut, cp_lut = luts
            coprocess = system.expert_coprocessing and system.device.supports_coprocessing
            for start, stop, multiplicity in self._expert_segments:
                seg = counts[start:stop]
                seg_layers = layers * multiplicity
                xt = tx_lut[seg]
                pt = tp_lut[seg]
                if not coprocess:
                    x_tot = xt.cumsum(axis=0)[-1]
                    p_tot = pt.cumsum(axis=0)[-1]
                    on_xpu = x_tot <= p_tot
                    dram_rows.append(np.where(on_xpu, dx_lut[seg], dp_lut[seg]) * seg_layers)
                    comp_rows.append(np.where(on_xpu, cx_lut[seg], cp_lut[seg]) * seg_layers)
                    worst_v = np.maximum(worst_v, np.where(on_xpu, x_tot, p_tot))
                    continue
                seg_time, on_pim = self._coprocess_run(seg, xt, pt)
                dram_rows.append(np.where(on_pim, 0.0, dx_lut[seg] * seg_layers))
                dram_rows.append(np.where(on_pim, dp_lut[seg] * seg_layers, 0.0))
                comp_rows.append(np.where(on_pim, 0.0, cx_lut[seg] * seg_layers))
                comp_rows.append(np.where(on_pim, cp_lut[seg] * seg_layers, 0.0))
                worst_v = np.maximum(worst_v, seg_time)

        moe_dram_v = np.concatenate(dram_rows).cumsum(axis=0)[-1]
        moe_comp_v = np.concatenate(comp_rows).cumsum(axis=0)[-1]
        moe_time_v = (gate_time + shared_time + worst_v) * layers
        return moe_time_v, moe_dram_v, moe_comp_v

    def _coprocess_run(
        self, seg: np.ndarray, xt: np.ndarray, pt: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The paper's greedy (:func:`~repro.core.coprocessing.assign_from_times`)
        on one device's stage-minor counts and unit times.

        Moves the lightest groups to Logic-PIM while the makespan improves,
        for every stage column at once.  Returns the per-stage makespan
        and the per-expert, per-stage Logic-PIM mask.
        """
        plan = self._assign_plan
        assert plan is not None
        if plan.singletons:
            g_tokens, g_x, g_p = seg, xt, pt
        else:
            # Group sums in member order: each group's first member (copied,
            # as a slice selects a view), then one later position at a time.
            (_, first), *later = plan.member_rows
            g_tokens = seg[first].copy()
            g_x = xt[first].copy()
            g_p = pt[first].copy()
            for groups, members in later:
                g_tokens[groups] += seg[members]
                g_x[groups] += xt[members]
                g_p[groups] += pt[members]
        n_groups, n_run = g_x.shape
        cols = np.arange(n_run)
        order = np.argsort(g_tokens, axis=0, kind="stable")
        # Prefix k of each column's order == "k lightest groups moved"; the
        # seeded cumulative sums reproduce the iterative running totals.
        all_x = g_x.cumsum(axis=0)[-1:]
        running_x = np.concatenate((all_x, -g_x[order, cols])).cumsum(axis=0)
        running_p = np.concatenate((np.zeros((1, n_run)), g_p[order, cols])).cumsum(axis=0)
        makespans = np.maximum(running_x, running_p)
        best_k = makespans.argmin(axis=0)  # first minimum == strict improvement
        ranks = np.empty_like(order)
        ranks[order, cols] = np.arange(n_groups)[:, None]
        on_pim = ranks < best_k
        if not plan.singletons:
            on_pim = on_pim[plan.group_of]
        return makespans[best_k, cols], on_pim

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
        """Latency contribution of all MoE layers (gate + experts)."""
        assert self._router is not None
        model = self.model
        layers = model.n_moe_layers
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

        # Devices sharing the same count vector (tensor-parallel expert
        # replicas, sharded-expert groups) are priced once via the
        # precomputed segments; energy is still charged per replica via the
        # multiplicity.  Single-unit systems (GPU, Hetero) price every
        # device's experts in one batched pass; the Duplex family runs the
        # per-device co-processing split.
        if self.system.kind is SystemKind.GPU or self.system.kind is SystemKind.HETERO:
            worst = self._single_unit_expert_time(result, counts, layers)
        else:
            worst = 0.0
            for start, stop, multiplicity in self._expert_segments:
                worst = max(
                    worst,
                    self._device_expert_time(result, counts[start:stop], layers * multiplicity),
                )
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

    def _expert_price(self, tokens: int) -> tuple:
        """Scalar price of one expert at one token count, per unit.

        (xPU time, dram J, compute J, PIM time, dram J, compute J) —
        computed once per distinct count via the scalar operator path and
        replayed from the dict afterwards, exactly the paper's runtime
        lookup table (Section V-B) extended with energies.  Zero-count
        experts price to exact zeros.
        """
        cached = self._expert_price_cache.get(tokens)
        if cached is None:
            op = self.math.expert_ffn(0, tokens, self._expert_fraction)

            def unit_price(unit: ProcessingUnit | None) -> tuple[float, float, float]:
                if unit is None:
                    return (0.0, 0.0, 0.0)
                return (
                    unit.op_time(op.flops, op.bytes_read, op.bytes_written),
                    unit.dram_energy(op.bytes_read, op.bytes_written),
                    unit.compute_energy(op.flops),
                )

            cached = unit_price(self._xpu) + unit_price(self._pim)
            self._expert_price_cache[tokens] = cached
        return cached

    def _charge_expert_prices(
        self, result: StageResult, prices: list[tuple], indices, offset: int, layers: int
    ) -> None:
        """Charge cached expert energies (offset 0 = xPU, 3 = PIM) in order."""
        dram_bucket = result.dram_energy_by_category
        compute_bucket = result.compute_energy_by_category
        dram = dram_bucket.get(OpCategory.MOE, 0.0)
        compute = compute_bucket.get(OpCategory.MOE, 0.0)
        for i in indices:
            price = prices[i]
            dram += price[offset + 1] * layers
            compute += price[offset + 2] * layers
        dram_bucket[OpCategory.MOE] = dram
        compute_bucket[OpCategory.MOE] = compute

    def _single_unit_expert_time(
        self, result: StageResult, counts: np.ndarray, layers: int
    ) -> float:
        """Worst per-device expert time when one unit runs every expert.

        GPU and Hetero systems have no co-processing split, so all devices'
        experts are priced in one pass over the global count vector — the
        per-count price cache for small expert sets, a batched numpy pass
        for large ones — and the per-device makespan is a max over
        precomputed segment sums.  Times, energies, and accumulation order
        are bit-identical to the per-device path.
        """
        if not counts.any():
            return 0.0
        on_gpu = self.system.kind is SystemKind.GPU
        unit = self._xpu if on_gpu else self._pim
        assert unit is not None
        # Every partition mode yields one uniform multiplicity across its
        # segments (see _build_expert_segments), so one energy pass covers
        # all devices.
        charged_layers = layers * self._expert_segments[0][2]
        if counts.size <= _SCALAR_EXPERT_MAX:
            price_of = self._expert_price
            prices = [price_of(tokens) for tokens in counts.tolist()]
            offset = 0 if on_gpu else 3
            times = [price[offset] for price in prices]
            worst = 0.0
            for start, stop, _ in self._expert_segments:
                total = 0.0
                for time in times[start:stop]:
                    total += time
                if total > worst:
                    worst = total
            self._charge_expert_prices(
                result, prices, range(len(prices)), offset, charged_layers
            )
            return worst
        idle = counts == 0
        flops, bytes_read, bytes_written = self.math.expert_ffn_arrays(
            counts, self._expert_fraction, validate=False, idle=idle
        )
        times_list = unit.op_times(
            flops, bytes_read, bytes_written, zero_mask=idle, validate=False
        ).tolist()
        worst = 0.0
        for start, stop, _ in self._expert_segments:
            total = 0.0
            for time in times_list[start:stop]:
                total += time
            if total > worst:
                worst = total
        self._charge_expert_energy(
            result, unit, flops, bytes_read, bytes_written, None, charged_layers
        )
        return worst

    def _device_expert_time(
        self, result: StageResult, device_counts: np.ndarray, layers: int
    ) -> float:
        """One device's expert time per MoE layer; charges its energy.

        All resident experts are priced in one numpy pass (per-expert
        operator fields and roofline times elementwise); energies accumulate
        in the scalar loop's expert order, so the result is bit-identical
        to per-expert iteration at a fraction of the cost.
        """
        system = self.system
        if not device_counts.size or not device_counts.any():
            return 0.0
        if device_counts.size <= _SCALAR_EXPERT_MAX:
            return self._device_expert_time_scalar(result, device_counts.tolist(), layers)
        idle = device_counts == 0
        flops, bytes_read, bytes_written = self.math.expert_ffn_arrays(
            device_counts, self._expert_fraction, validate=False, idle=idle
        )
        if system.kind is SystemKind.GPU or system.kind is SystemKind.HETERO:
            unit = self._xpu if system.kind is SystemKind.GPU else self._pim
            assert unit is not None
            times = unit.op_times(flops, bytes_read, bytes_written, zero_mask=idle, validate=False)
            self._charge_expert_energy(result, unit, flops, bytes_read, bytes_written, None, layers)
            return float(times.cumsum()[-1])
        # Duplex family.
        assert self._xpu is not None and self._pim is not None
        xpu_times = self._xpu.op_times(flops, bytes_read, bytes_written, zero_mask=idle, validate=False)
        pim_times = self._pim.op_times(flops, bytes_read, bytes_written, zero_mask=idle, validate=False)
        if not system.expert_coprocessing or not system.device.supports_coprocessing:
            # Base Duplex: the whole layer on whichever unit finishes sooner.
            xpu_total = float(xpu_times.cumsum()[-1])
            pim_total = float(pim_times.cumsum()[-1])
            on_xpu = xpu_total <= pim_total
            unit = self._xpu if on_xpu else self._pim
            self._charge_expert_energy(result, unit, flops, bytes_read, bytes_written, None, layers)
            return xpu_total if on_xpu else pim_total
        assignment = assign_from_times(device_counts, xpu_times, pim_times, self._assign_plan)
        self._charge_expert_energy(
            result, self._xpu, flops, bytes_read, bytes_written, assignment.xpu_experts, layers
        )
        self._charge_expert_energy(
            result, self._pim, flops, bytes_read, bytes_written, assignment.pim_experts, layers
        )
        return assignment.makespan_s

    def _device_expert_time_scalar(
        self, result: StageResult, counts: list[int], layers: int
    ) -> float:
        """:meth:`_device_expert_time` on the per-count price cache.

        For small expert sets, per-expert dict hits beat the batched array
        pass; time and energy values are the very scalars the array path
        (and the original per-operator loop) computes.
        """
        system = self.system
        price_of = self._expert_price
        prices = [price_of(tokens) for tokens in counts]
        if system.kind is SystemKind.GPU or system.kind is SystemKind.HETERO:
            offset = 0 if system.kind is SystemKind.GPU else 3
            total = 0.0
            for price in prices:
                total += price[offset]
            self._charge_expert_prices(result, prices, range(len(prices)), offset, layers)
            return total
        # Duplex family.
        xpu_times = [price[0] for price in prices]
        pim_times = [price[3] for price in prices]
        if not system.expert_coprocessing or not system.device.supports_coprocessing:
            xpu_total = 0.0
            for time in xpu_times:
                xpu_total += time
            pim_total = 0.0
            for time in pim_times:
                pim_total += time
            on_xpu = xpu_total <= pim_total
            self._charge_expert_prices(
                result, prices, range(len(prices)), 0 if on_xpu else 3, layers
            )
            return xpu_total if on_xpu else pim_total
        assert self._assign_plan is not None
        assignment = assign_from_time_lists(counts, xpu_times, pim_times, self._assign_plan)
        self._charge_expert_prices(result, prices, assignment.xpu_experts, 0, layers)
        self._charge_expert_prices(result, prices, assignment.pim_experts, 3, layers)
        return assignment.makespan_s

    def _charge_expert_energy(
        self,
        result: StageResult,
        unit: ProcessingUnit,
        flops: np.ndarray,
        bytes_read: np.ndarray,
        bytes_written: np.ndarray,
        expert_indices: tuple[int, ...] | None,
        layers: int,
    ) -> None:
        """Charge one unit's expert energies into the MoE buckets.

        Energies come from the unit's own batch formulas
        (:meth:`~repro.hardware.processor.ProcessingUnit.dram_energies` /
        :meth:`~repro.hardware.processor.ProcessingUnit.compute_energies`);
        the cumulative sum seeded with the bucket's current value then
        reproduces the old per-operator expert-by-expert accumulation
        bit-for-bit.  Zero-token experts hold exact zeros and contribute
        nothing.  ``None`` indices mean every expert of the device.
        """
        if expert_indices is not None:
            if not expert_indices:
                return
            select = np.asarray(expert_indices, dtype=np.intp)
            flops = flops[select]
            bytes_read = bytes_read[select]
            bytes_written = bytes_written[select]
        dram = unit.dram_energies(bytes_read, bytes_written) * layers
        compute = unit.compute_energies(flops) * layers
        dram_bucket = result.dram_energy_by_category
        compute_bucket = result.compute_energy_by_category
        base = dram_bucket.get(OpCategory.MOE, 0.0)
        dram_bucket[OpCategory.MOE] = float(np.concatenate(([base], dram)).cumsum()[-1])
        base = compute_bucket.get(OpCategory.MOE, 0.0)
        compute_bucket[OpCategory.MOE] = float(np.concatenate(([base], compute)).cumsum()[-1])

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

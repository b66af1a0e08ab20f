"""Scalar reference oracles for the vectorized pricing primitives.

Each function here is the pre-vectorization loop a serving-path
primitive replaced, kept only so property tests can assert the
vectorized version reproduces it bit-for-bit:

* :func:`assign_experts_reference` — the iterative co-processing greedy
  (Section V-B/V-C) behind :func:`repro.core.coprocessing.assign_experts`;
* :func:`attention_prefill_reference` — the per-request prefill-attention
  accumulation behind :meth:`repro.models.layers.LayerMath.attention_prefill`;
* :func:`moe_stage_reference` — one stage's MoE charges priced expert by
  expert from scalar operators, independent of the executor's expert
  price table, behind :meth:`repro.core.executor.StageExecutor.run_stage`.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.coprocessing import (
    ExpertAssignment,
    ExpertTimeLookup,
    SpaceGroupPlan,
    round_robin_space_groups,
)
from repro.core.executor import StageExecutor, StageWorkload
from repro.core.system import SystemKind
from repro.errors import ConfigError
from repro.hardware.processor import ProcessingUnit
from repro.models.layers import SOFTMAX_FLOPS_PER_SCORE, LayerMath
from repro.models.ops import OpCategory, Operator


def assign_experts_reference(
    token_counts: np.ndarray | Sequence[int],
    lookup: ExpertTimeLookup,
    groups: Sequence[Sequence[int]] | None = None,
) -> ExpertAssignment:
    """The pre-vectorization iterative greedy.

    Starts with every unit on the xPU and moves units to Logic-PIM in
    ascending token order, with ``-=``/``+=`` running totals, keeping the
    first strictly better makespan.
    """
    counts = np.asarray(token_counts, dtype=np.int64)
    if counts.ndim != 1:
        raise ConfigError("token_counts must be one-dimensional")
    if (counts < 0).any():
        raise ConfigError("token counts must be non-negative")
    units = SpaceGroupPlan(counts.size, groups).units

    def group_tokens(group: tuple[int, ...]) -> int:
        return int(counts[list(group)].sum())

    def group_time(group: tuple[int, ...], on_pim: bool) -> float:
        time = 0.0
        for index in group:
            tokens = int(counts[index])
            if tokens == 0:
                continue
            time += lookup.pim_time(tokens) if on_pim else lookup.xpu_time(tokens)
        return time

    order = sorted(range(len(units)), key=lambda g: group_tokens(units[g]))
    xpu_total = sum(group_time(group, on_pim=False) for group in units)
    pim_total = 0.0
    on_pim: set[int] = set()
    best = (max(xpu_total, pim_total), frozenset(on_pim), xpu_total, pim_total)
    for g in order:
        xpu_total -= group_time(units[g], on_pim=False)
        pim_total += group_time(units[g], on_pim=True)
        on_pim.add(g)
        makespan = max(xpu_total, pim_total)
        if makespan < best[0]:
            best = (makespan, frozenset(on_pim), xpu_total, pim_total)

    _, chosen, best_xpu, best_pim = best
    xpu_experts: list[int] = []
    pim_experts: list[int] = []
    for g, group in enumerate(units):
        target = pim_experts if g in chosen else xpu_experts
        target.extend(group)
    return ExpertAssignment(
        xpu_experts=tuple(sorted(xpu_experts)),
        pim_experts=tuple(sorted(pim_experts)),
        xpu_time_s=best_xpu,
        pim_time_s=best_pim,
    )


def attention_prefill_reference(
    math: LayerMath,
    prefill_lengths: Iterable[int],
    kv_fraction: float = 1.0,
    context_lengths: Iterable[int] | None = None,
) -> Operator:
    """The pre-vectorization scalar prefill-attention loop."""
    m = math.model
    lengths = list(prefill_lengths)
    contexts = [0] * len(lengths) if context_lengths is None else list(context_lengths)
    if len(contexts) != len(lengths):
        raise ConfigError("context_lengths must parallel prefill_lengths")
    flops = 0.0
    bytes_read = 0.0
    bytes_written = 0.0
    for length, past in zip(lengths, contexts, strict=True):
        if length < 0 or past < 0:
            raise ConfigError("prefill lengths must be non-negative")
        if length == 0:
            continue
        causal_scores = past * length + 0.5 * length * length
        flops += 4.0 * m.n_heads * m.d_head * causal_scores * kv_fraction
        flops += SOFTMAX_FLOPS_PER_SCORE * m.n_heads * causal_scores * kv_fraction
        q_bytes = length * m.n_heads * m.d_head * m.dtype_bytes * kv_fraction
        kv_bytes = (past + length) * m.kv_bytes_per_token_per_layer * kv_fraction
        bytes_read += q_bytes + kv_bytes
        bytes_written += q_bytes
    return Operator(
        "attention_prefill", OpCategory.ATTENTION_PREFILL, flops, bytes_read, bytes_written
    )


def moe_stage_reference(
    executor: StageExecutor, workload: StageWorkload, counts: np.ndarray
) -> tuple[float, float, float]:
    """One stage's MoE (time, DRAM joules, compute joules), expert by expert.

    ``counts`` are the stage's routed global counts.  Each bucket opens
    with the gate's and the shared experts' charges at node 0's local
    token count, as the executor's buckets do.  Then, on each of the
    executor's device segments, every expert is priced from
    :meth:`LayerMath.expert_ffn` and the unit's scalar ``op_time``,
    ``dram_energy`` and ``compute_energy``.  Co-processing systems split
    the segment with :func:`assign_experts_reference` over the device's
    memory-space groups; the others run the whole segment on the unit
    that finishes it sooner (the xPU on ties).  Energies fold in expert
    order, the xPU's experts before Logic-PIM's, scaled by the segment's
    device multiplicity; the worst segment's time is the layer's.
    """
    system, model = executor.system, executor.model
    math = LayerMath(model)
    layers = model.n_moe_layers
    fraction = executor._expert_fraction
    n_nodes = system.topology.n_nodes
    local_tokens = len(workload.decode_context_lengths[::n_nodes]) + sum(
        workload.prefill_lengths[::n_nodes]
    )

    time = dram = compute = 0.0
    for charge in (
        executor._gate_charge(local_tokens),
        executor._shared_expert_charge(local_tokens),
    ):
        if charge is not None:
            _, charge_time, charge_dram, charge_compute = charge
            time += charge_time * layers
            dram += charge_dram * layers
            compute += charge_compute * layers

    def price(unit: ProcessingUnit, tokens: int) -> tuple[float, float, float]:
        op = math.expert_ffn(0, tokens, fraction)
        return (
            unit.op_time(op.flops, op.bytes_read, op.bytes_written),
            unit.dram_energy(op.bytes_read, op.bytes_written),
            unit.compute_energy(op.flops),
        )

    xpu, pim = executor._xpu, executor._pim
    if system.kind is SystemKind.GPU:
        units = [xpu]
    elif system.kind is SystemKind.HETERO:
        units = [pim]
    else:
        units = [xpu, pim]
    coprocess = (
        system.kind is SystemKind.DUPLEX
        and system.expert_coprocessing
        and system.device.supports_coprocessing
    )
    worst = 0.0
    for start, stop, multiplicity in executor._expert_segments:
        segment = [int(n) for n in counts[start:stop]]
        if coprocess:
            spaces = round_robin_space_groups(len(segment), system.device.num_memory_spaces)
            assignment = assign_experts_reference(
                segment,
                ExpertTimeLookup(math, xpu, pim, fraction),
                spaces if len(spaces) > 1 else None,
            )
            segment_time = assignment.makespan_s
            charged = [(xpu, assignment.xpu_experts), (pim, assignment.pim_experts)]
        else:
            totals = []
            for unit in units:
                total = 0.0
                for tokens in segment:
                    total += price(unit, tokens)[0]
                totals.append(total)
            chosen = 0 if len(units) == 1 or totals[0] <= totals[1] else 1
            segment_time = totals[chosen]
            charged = [(units[chosen], range(len(segment)))]
        worst = max(worst, segment_time)
        for unit, experts in charged:
            for index in experts:
                _, expert_dram, expert_compute = price(unit, segment[index])
                dram += expert_dram * (layers * multiplicity)
                compute += expert_compute * (layers * multiplicity)
    time += worst * layers
    return time, dram, compute

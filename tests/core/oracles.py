"""Scalar reference oracles for the vectorized pricing primitives.

Each function here is the pre-vectorization loop a serving-path
primitive replaced, kept only so property tests can assert the
vectorized version reproduces it bit-for-bit:

* :func:`assign_experts_reference` — the iterative co-processing greedy
  (Section V-B/V-C) behind :func:`repro.core.coprocessing.assign_experts`;
* :func:`attention_prefill_reference` — the per-request prefill-attention
  accumulation behind :meth:`repro.models.layers.LayerMath.attention_prefill`.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.coprocessing import ExpertAssignment, ExpertTimeLookup, SpaceGroupPlan
from repro.errors import ConfigError
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

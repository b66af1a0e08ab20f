"""Expert co-processing: the lookup table and greedy assignment (Section V-B).

At runtime Duplex must decide, per MoE layer, which experts the xPU runs and
which Logic-PIM runs.  The paper's algorithm:

1. precompute (and cache) per-unit processing times as a function of routed
   token count — the "lookup table";
2. start with every expert on the xPU;
3. repeatedly move the expert with the fewest tokens to Logic-PIM while the
   makespan ``max(xpu_total, pim_total)`` keeps improving.

Section V-C adds a granularity constraint: experts living in the same
bank-bundle memory space must move together, so the two units never touch
the same bundle concurrently.  :func:`assign_experts` supports both expert
granularity (``groups=None``) and space granularity.

The greedy has two implementations over precomputed unit times, both
reproducing the original iterative ``-=``/``+=`` accumulation bit-for-bit
(serving-stack exact pricing and the golden snapshots depend on that):

* :func:`assign_from_time_lists` — one stage on Python floats, as the
  stage executor prices every MoE layer of a stage;
* :func:`assign_columns` — every stage of a steady decode run at once, one
  column per stage: a stable argsort orders each column's move candidates,
  and cumulative sums seeded by the all-xPU total give every prefix's
  makespan in one pass.

The property tests pin both against the iterative loop kept in
``tests/core/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.hardware.processor import ProcessingUnit
from repro.models.layers import LayerMath


@dataclass(frozen=True)
class ExpertAssignment:
    """Outcome of one co-processing decision.

    Attributes:
        xpu_experts: resident-expert indices assigned to the xPU.
        pim_experts: resident-expert indices assigned to Logic-PIM.
        xpu_time_s: total xPU time for its experts.
        pim_time_s: total Logic-PIM time for its experts.
    """

    xpu_experts: tuple[int, ...]
    pim_experts: tuple[int, ...]
    xpu_time_s: float
    pim_time_s: float

    @property
    def makespan_s(self) -> float:
        """Layer completion time: both units run concurrently."""
        return max(self.xpu_time_s, self.pim_time_s)

    @property
    def serial_time_s(self) -> float:
        """What the same work would cost with no overlap (base Duplex)."""
        return self.xpu_time_s + self.pim_time_s


@dataclass
class ExpertTimeLookup:
    """Cached per-unit expert processing times keyed by token count.

    Mirrors the paper's runtime lookup table: the first query for a token
    count computes the roofline time; later queries hit the cache.  The
    :meth:`unit_times` variant prices a whole count vector in one numpy
    pass, as :func:`assign_experts` needs it.  (The stage executor keeps
    its own count-indexed table, with energies.)

    Args:
        layer_math: layer math of the model being served.
        xpu: the high-Op/B unit.
        pim: the low-Op/B unit.
        expert_fraction: weight share of each resident expert on this device.
    """

    layer_math: LayerMath
    xpu: ProcessingUnit
    pim: ProcessingUnit
    expert_fraction: float = 1.0
    _xpu_cache: dict[int, float] = field(default_factory=dict, repr=False)
    _pim_cache: dict[int, float] = field(default_factory=dict, repr=False)

    def xpu_time(self, tokens: int) -> float:
        """xPU time for one expert processing ``tokens`` tokens."""
        cached = self._xpu_cache.get(tokens)
        if cached is None:
            cached = self._op_time(self.xpu, tokens)
            self._xpu_cache[tokens] = cached
        return cached

    def pim_time(self, tokens: int) -> float:
        """Logic-PIM time for one expert processing ``tokens`` tokens."""
        cached = self._pim_cache.get(tokens)
        if cached is None:
            cached = self._op_time(self.pim, tokens)
            self._pim_cache[tokens] = cached
        return cached

    def unit_times(
        self, token_counts: np.ndarray | Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-expert (xPU, Logic-PIM) times for a whole count vector.

        Each element is bit-identical to the scalar :meth:`xpu_time` /
        :meth:`pim_time` for the same count; zero-count experts cost 0.0.
        """
        flops, bytes_read, bytes_written = self.layer_math.expert_ffn_arrays(
            token_counts, self.expert_fraction
        )
        return (
            self.xpu.op_times(flops, bytes_read, bytes_written),
            self.pim.op_times(flops, bytes_read, bytes_written),
        )

    def _op_time(self, unit: ProcessingUnit, tokens: int) -> float:
        op = self.layer_math.expert_ffn(0, tokens, self.expert_fraction)
        return unit.op_time(op.flops, op.bytes_read, op.bytes_written)


def _group_structure(
    n_experts: int, groups: Sequence[Sequence[int]] | None
) -> list[tuple[int, ...]]:
    """Validate and normalise the move-granularity units."""
    if groups is None:
        return [(i,) for i in range(n_experts)]
    seen = [index for group in groups for index in group]
    if not all(groups) or sorted(seen) != list(range(n_experts)):
        raise ConfigError("groups must partition the resident experts exactly")
    return [tuple(group) for group in groups]


class SpaceGroupPlan:
    """Precompiled move-granularity groups for repeated greedy assignments.

    Validating and normalising the group structure costs more than the
    assignment itself on small expert counts, so callers pricing thousands
    of stages (the stage executor) compile the groups once and pass the
    plan to :func:`assign_from_time_lists` or :func:`assign_columns`.

    For :func:`assign_columns` (one row per expert, one column per stage)
    the plan also holds ``group_of``, each expert's unit index, and
    ``member_rows``: for each position ``p`` within a unit, the pair
    (units with a member at ``p``, those members), each a row selector.
    Starting from every unit's first member and adding each later
    position's member rows onto their units sums every unit in member
    order, as :func:`_accumulate_groups` does.

    Args:
        n_experts: resident experts the plan covers.
        groups: space-granularity groups, or None for expert granularity.
    """

    __slots__ = ("n_experts", "units", "singletons", "group_of", "member_rows")

    def __init__(self, n_experts: int, groups: Sequence[Sequence[int]] | None) -> None:
        self.n_experts = n_experts
        self.units = _group_structure(n_experts, groups)
        self.singletons = groups is None
        self.group_of = np.empty(n_experts, dtype=np.intp)
        for g, members in enumerate(self.units):
            self.group_of[list(members)] = g
        depth = max((len(members) for members in self.units), default=0)
        self.member_rows = tuple(
            (
                _row_index([g for g, m in enumerate(self.units) if len(m) > p]),
                _row_index([m[p] for m in self.units if len(m) > p]),
            )
            for p in range(depth)
        )


def _row_index(indices: list[int]) -> slice | np.ndarray:
    """Row selector: a slice for a contiguous ascending run, else an index
    array.  Round-robin space groups give slices only, which select rows
    without a gather."""
    start = indices[0]
    if indices == list(range(start, start + len(indices))):
        return slice(start, start + len(indices))
    return np.array(indices, dtype=np.intp)


def assign_experts(
    token_counts: np.ndarray | Sequence[int],
    lookup: ExpertTimeLookup,
    groups: Sequence[Sequence[int]] | None = None,
) -> ExpertAssignment:
    """Split resident experts between the xPU and Logic-PIM.

    Args:
        token_counts: tokens routed to each resident expert.
        lookup: per-unit expert time oracle.
        groups: optional memory-space granularity — each inner sequence
            lists resident-expert indices that must move together
            (Section V-C).  ``None`` moves experts individually.

    Returns:
        The greedy assignment.  Zero-token experts carry no time and no
        energy, and move to Logic-PIM only as part of the lightest-first
        prefix the greedy moves: all-zero counts leave every expert on the
        xPU.
    """
    counts = np.asarray(token_counts, dtype=np.int64)
    if counts.ndim != 1:
        raise ConfigError("token_counts must be one-dimensional")
    if (counts < 0).any():
        raise ConfigError("token counts must be non-negative")
    xpu_times, pim_times = lookup.unit_times(counts)
    return assign_from_time_lists(
        counts.tolist(),
        xpu_times.tolist(),
        pim_times.tolist(),
        SpaceGroupPlan(int(counts.size), groups),
    )


def _scalar_scan(
    tokens: list[int], xpu_times: list[float], pim_times: list[float]
) -> tuple[list[int], int, float, float]:
    """The greedy prefix scan on Python scalars.

    Returns (lightest-first order, units moved to PIM, xPU time, PIM time),
    accumulated in the sequence of the iterative greedy.
    """
    order = sorted(range(len(tokens)), key=tokens.__getitem__)
    xpu_total = 0.0
    for time in xpu_times:
        xpu_total += time
    pim_total = 0.0
    best_k, best_makespan, best_xpu, best_pim = 0, max(xpu_total, 0.0), xpu_total, 0.0
    moved = 0
    for g in order:
        xpu_total -= xpu_times[g]
        pim_total += pim_times[g]
        moved += 1
        makespan = max(xpu_total, pim_total)
        if makespan < best_makespan:
            best_k, best_makespan, best_xpu, best_pim = moved, makespan, xpu_total, pim_total
    return order, best_k, best_xpu, best_pim


def _accumulate_groups(
    counts: list[int],
    xpu_times: list[float],
    pim_times: list[float],
    units: Sequence[tuple[int, ...]],
) -> tuple[list[int], list[float], list[float]]:
    """Per-group (tokens, xPU time, PIM time) sums in member order.

    Sequential member-order Python sums reproduce the scalar group walk of
    the reference greedy bit-for-bit (numpy reductions would reassociate);
    :attr:`SpaceGroupPlan.member_rows` sums stage columns in the same
    order.
    """
    tokens_acc: list[int] = []
    xpu_acc: list[float] = []
    pim_acc: list[float] = []
    for members in units:
        tokens = 0
        xpu_sum = 0.0
        pim_sum = 0.0
        for index in members:
            tokens += counts[index]
            xpu_sum += xpu_times[index]
            pim_sum += pim_times[index]
        tokens_acc.append(tokens)
        xpu_acc.append(xpu_sum)
        pim_acc.append(pim_sum)
    return tokens_acc, xpu_acc, pim_acc


def assign_from_time_lists(
    counts: list[int],
    xpu_times: list[float],
    pim_times: list[float],
    plan: SpaceGroupPlan,
) -> ExpertAssignment:
    """The greedy over Python lists of precomputed per-expert times.

    One stage's assignment: the stage executor gathers a stage's unit
    times from its expert price table as plain floats, and every
    accumulation below runs in the exact sequence of the original
    iterative greedy (bit-identical results, no array overhead).
    """
    if plan.singletons:
        order, best_k, best_xpu, best_pim = _scalar_scan(counts, xpu_times, pim_times)
        return ExpertAssignment(
            xpu_experts=tuple(sorted(order[best_k:])),
            pim_experts=tuple(sorted(order[:best_k])),
            xpu_time_s=best_xpu,
            pim_time_s=best_pim,
        )
    tokens_acc, xpu_acc, pim_acc = _accumulate_groups(counts, xpu_times, pim_times, plan.units)
    group_order, best_k, best_xpu, best_pim = _scalar_scan(tokens_acc, xpu_acc, pim_acc)
    return _expand_groups(plan, group_order, best_k, best_xpu, best_pim)


def assign_columns(
    plan: SpaceGroupPlan, tokens: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The greedy for every stage of a run at once, one column per stage.

    ``tokens`` holds one device's routed counts, ``(experts, stages)``;
    ``times`` its ``(2, experts, stages)`` xPU and Logic-PIM unit times.
    Each column's outcome is :func:`assign_from_time_lists` on that
    column, float for float.  Returns the per-stage makespan and the
    ``(experts, stages)`` Logic-PIM mask.
    """
    if plan.singletons:
        g_tokens, g_times = tokens, times
    else:
        # Group sums in member order: each group's first member (copied,
        # as a slice selects a view), then one later position at a time.
        (_, first), *later = plan.member_rows
        g_tokens = tokens[first].copy()
        g_times = times[:, first].copy()
        for groups, members in later:
            g_tokens[groups] += tokens[members]
            g_times[:, groups] += times[:, members]
    n_groups, n_run = g_tokens.shape
    cols = np.arange(n_run)
    order = np.argsort(g_tokens, axis=0, kind="stable")
    # Prefix k of each column's order == "k lightest groups moved": the xPU
    # starts with every group and sheds them, Logic-PIM gains them, and the
    # seeded cumulative sums reproduce the iterative running totals.
    running = np.empty((2, n_groups + 1, n_run))
    running[0, 0] = g_times[0].cumsum(axis=0)[-1]
    running[1, 0] = 0.0
    moved = g_times[:, order, cols]
    np.negative(moved[0], out=running[0, 1:])
    running[1, 1:] = moved[1]
    running = running.cumsum(axis=1)
    makespans = np.maximum(running[0], running[1])
    best_k = makespans.argmin(axis=0)  # first minimum == strict improvement
    ranks = np.empty_like(order)
    ranks[order, cols] = np.arange(n_groups)[:, None]
    on_pim = ranks < best_k
    if not plan.singletons:
        on_pim = on_pim[plan.group_of]
    return makespans[best_k, cols], on_pim


def _expand_groups(
    plan: SpaceGroupPlan,
    group_order: list[int],
    best_k: int,
    best_xpu: float,
    best_pim: float,
) -> ExpertAssignment:
    """Expand a group-level greedy outcome to per-expert assignments."""
    moved = set(group_order[:best_k])
    xpu_experts: list[int] = []
    pim_experts: list[int] = []
    for g, members in enumerate(plan.units):
        target = pim_experts if g in moved else xpu_experts
        target.extend(members)
    return ExpertAssignment(
        xpu_experts=tuple(sorted(xpu_experts)),
        pim_experts=tuple(sorted(pim_experts)),
        xpu_time_s=best_xpu,
        pim_time_s=best_pim,
    )


def round_robin_space_groups(n_experts: int, num_spaces: int) -> list[list[int]]:
    """Memory-space groups for experts placed round-robin (Section V-C)."""
    if n_experts < 0 or num_spaces < 1:
        raise ConfigError("need non-negative experts and at least one space")
    groups: list[list[int]] = [[] for _ in range(min(num_spaces, max(1, n_experts)))]
    for expert in range(n_experts):
        groups[expert % len(groups)].append(expert)
    return [group for group in groups if group]

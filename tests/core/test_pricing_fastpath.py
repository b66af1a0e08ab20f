"""Property tests: the vectorized pricing fast path is bit-exact.

The golden snapshots (tests/golden) pin the end-to-end serving stack
byte-for-byte; these tests pin the *mechanism* — every vectorized pricing
primitive must reproduce its scalar reference (the ``*_reference`` loops
live in ``oracles.py`` beside this file) bit-for-bit, for randomized
inputs far beyond what the goldens exercise:

* :meth:`LayerMath.attention_prefill` vs :func:`attention_prefill_reference`
  (the pre-vectorization per-request loop);
* :meth:`LayerMath.expert_ffn_arrays` vs per-expert :meth:`LayerMath.expert_ffn`;
* :meth:`ProcessingUnit.op_times` / energy batches vs the scalar calls;
* :func:`assign_experts` (stable argsort + seeded cumulative sums, with the
  scalar small-count path) vs :func:`assign_experts_reference` (the
  original iterative greedy), with and without memory-space groups;
* :class:`SpaceGroupPlan` member rows (stage-minor group sums) vs the
  scalar member-order group walk, on arbitrary partitions;
* :meth:`StageExecutor.price_decode_run` vs sequential
  :meth:`StageExecutor.run_stage` calls, on every system family, and the
  gating-RNG position after a truncated run's rewind.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.coprocessing import (  # noqa: E402
    ExpertTimeLookup,
    SpaceGroupPlan,
    _accumulate_groups,
    assign_experts,
    round_robin_space_groups,
)
from repro.core.executor import StageExecutor, StageWorkload  # noqa: E402
from repro.core.system import (  # noqa: E402
    bank_pim_system,
    duplex_system,
    gpu_system,
    hetero_system,
    sharded_system,
)
from repro.hardware.specs import h100_xpu, logic_pim_unit  # noqa: E402
from repro.models.config import glam, mixtral  # noqa: E402
from repro.models.layers import LayerMath  # noqa: E402

from oracles import assign_experts_reference, attention_prefill_reference  # noqa: E402

MODELS = {"mixtral": mixtral(), "glam": glam()}
FRACTIONS = (1.0, 0.5, 0.25, 1.0 / 3.0, 0.125)

lengths_strategy = st.lists(st.integers(0, 8192), min_size=1, max_size=12)
counts_strategy = st.lists(st.integers(0, 8000), min_size=1, max_size=70)


@settings(max_examples=60, deadline=None)
@given(
    model_key=st.sampled_from(sorted(MODELS)),
    lengths=lengths_strategy,
    contexts=st.lists(st.integers(0, 8192), min_size=12, max_size=12),
    kv_fraction=st.sampled_from(FRACTIONS),
    with_contexts=st.booleans(),
)
def test_attention_prefill_matches_scalar_reference(
    model_key, lengths, contexts, kv_fraction, with_contexts
):
    math = LayerMath(MODELS[model_key])
    ctx = contexts[: len(lengths)] if with_contexts else None
    vectorized = math.attention_prefill(lengths, kv_fraction, ctx)
    reference = attention_prefill_reference(math, lengths, kv_fraction, ctx)
    assert vectorized.flops == reference.flops
    assert vectorized.bytes_read == reference.bytes_read
    assert vectorized.bytes_written == reference.bytes_written


@settings(max_examples=60, deadline=None)
@given(
    model_key=st.sampled_from(sorted(MODELS)),
    counts=counts_strategy,
    fraction=st.sampled_from(FRACTIONS),
)
def test_expert_ffn_arrays_match_scalar_operators(model_key, counts, fraction):
    math = LayerMath(MODELS[model_key])
    flops, bytes_read, bytes_written = math.expert_ffn_arrays(counts, fraction)
    for index, tokens in enumerate(counts):
        op = math.expert_ffn(index, tokens, fraction)
        assert flops[index] == op.flops
        assert bytes_read[index] == op.bytes_read
        assert bytes_written[index] == op.bytes_written


@settings(max_examples=60, deadline=None)
@given(
    counts=counts_strategy,
    fraction=st.sampled_from(FRACTIONS),
    unit_key=st.sampled_from(("xpu", "pim")),
)
def test_op_time_and_energy_batches_match_scalar(counts, fraction, unit_key):
    math = LayerMath(MODELS["mixtral"])
    unit = h100_xpu() if unit_key == "xpu" else logic_pim_unit()
    flops, bytes_read, bytes_written = math.expert_ffn_arrays(counts, fraction)
    times = unit.op_times(flops, bytes_read, bytes_written)
    dram = unit.dram_energies(bytes_read, bytes_written)
    compute = unit.compute_energies(flops)
    for i in range(len(counts)):
        assert times[i] == unit.op_time(float(flops[i]), float(bytes_read[i]), float(bytes_written[i]))
        assert dram[i] == unit.dram_energy(float(bytes_read[i]), float(bytes_written[i]))
        assert compute[i] == unit.compute_energy(float(flops[i]))


@settings(max_examples=80, deadline=None)
@given(
    model_key=st.sampled_from(sorted(MODELS)),
    counts=counts_strategy,
    fraction=st.sampled_from((1.0, 0.25)),
    spaces=st.integers(0, 7),
)
def test_greedy_assignment_matches_iterative_reference(model_key, counts, fraction, spaces):
    lookup = ExpertTimeLookup(
        LayerMath(MODELS[model_key]), h100_xpu(), logic_pim_unit(), fraction
    )
    groups = round_robin_space_groups(len(counts), spaces) if spaces > 0 else None
    arr = np.asarray(counts, dtype=np.int64)
    fast = assign_experts(arr, lookup, groups)
    reference = assign_experts_reference(arr, lookup, groups)
    assert fast.xpu_experts == reference.xpu_experts
    assert fast.pim_experts == reference.pim_experts
    assert fast.xpu_time_s == reference.xpu_time_s
    assert fast.pim_time_s == reference.pim_time_s


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n_experts=st.integers(1, 24))
def test_member_rows_sum_groups_in_member_order(data, n_experts):
    # Any partition, including non-contiguous and unequal groups: the
    # stage-minor group sums must equal the scalar member-order walk.
    order = data.draw(st.permutations(range(n_experts)))
    cuts = sorted(data.draw(st.sets(st.integers(1, max(1, n_experts - 1)))) - {n_experts})
    groups = [list(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n_experts], strict=True)]
    plan = SpaceGroupPlan(n_experts, groups)
    rng = np.random.default_rng(n_experts)
    counts = rng.integers(0, 50, (n_experts, 4))
    times = rng.random((n_experts, 4)) * 10.0 ** rng.integers(-6, 0, (n_experts, 4))
    (_, first), *later = plan.member_rows
    group_tokens, group_times = counts[first].copy(), times[first].copy()
    for units, members in later:
        group_tokens[units] += counts[members]
        group_times[units] += times[members]
    for stage in range(4):
        tokens, sums, _ = _accumulate_groups(
            counts[:, stage].tolist(), times[:, stage].tolist(), [0.0] * n_experts, plan.units
        )
        assert group_tokens[:, stage].tolist() == tokens
        assert group_times[:, stage].tolist() == sums
    for g, members in enumerate(plan.units):
        assert all(plan.group_of[index] == g for index in members)


def test_zero_and_empty_edge_cases_match():
    math = LayerMath(MODELS["mixtral"])
    lookup = ExpertTimeLookup(math, h100_xpu(), logic_pim_unit())
    # all-zero counts: no time, everything parked on PIM by convention
    outcome = assign_experts(np.zeros(6, dtype=np.int64), lookup)
    reference = assign_experts_reference(np.zeros(6, dtype=np.int64), lookup)
    assert outcome == reference
    assert outcome.makespan_s == 0.0
    # empty prefill
    vec = math.attention_prefill([])
    ref = attention_prefill_reference(math, [])
    assert (vec.flops, vec.bytes_read, vec.bytes_written) == (
        ref.flops,
        ref.bytes_read,
        ref.bytes_written,
    )
    # zero-length requests are skipped exactly
    vec = math.attention_prefill([0, 64, 0], 0.5, [10, 20, 30])
    ref = attention_prefill_reference(math, [0, 64, 0], 0.5, [10, 20, 30])
    assert (vec.flops, vec.bytes_read, vec.bytes_written) == (
        ref.flops,
        ref.bytes_read,
        ref.bytes_written,
    )


# ----------------------------------------------------------------------
# price_decode_run against sequential run_stage calls
# ----------------------------------------------------------------------
def _oracle_systems():
    base = mixtral()
    six = replace(base, n_experts=6)  # 6 experts over 4 spaces: unequal groups
    shared = replace(base, num_shared_experts=2)
    wide = glam()  # 16-member space groups
    return {
        "gpu": (gpu_system(base), base),
        "2xgpu": (gpu_system(base, doubled=True), base),
        "hetero": (hetero_system(base), base),
        "duplex": (duplex_system(base), base),
        "duplex_pe": (duplex_system(base, co_processing=True), base),
        "duplex_pe_et": (
            duplex_system(base, co_processing=True, expert_tensor_parallel=True),
            base,
        ),
        "bankpim": (bank_pim_system(base), base),
        "tp2_ep2": (sharded_system(base, tp=2, ep=2), base),
        "tp2_ep2_et": (sharded_system(base, tp=2, ep=2, expert_tensor_parallel=True), base),
        "six_experts_pe_et": (
            duplex_system(six, co_processing=True, expert_tensor_parallel=True),
            six,
        ),
        "shared_experts": (
            duplex_system(shared, co_processing=True, expert_tensor_parallel=True),
            shared,
        ),
        "glam_pe_et": (
            duplex_system(wide, co_processing=True, expert_tensor_parallel=True),
            wide,
        ),
    }


ORACLE_SYSTEMS = _oracle_systems()
RUN_STAGES = 6


def _contexts(batch):
    return np.random.default_rng(batch).integers(0, 4096, batch)


@pytest.mark.parametrize("deterministic", [False, True], ids=["sampled", "deterministic"])
@pytest.mark.parametrize("batch", [1, 3, 32])
@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_decode_run_equals_sequential_stages(name, batch, deterministic):
    system, model = ORACLE_SYSTEMS[name]
    ctx = _contexts(batch)
    run_exec = StageExecutor(system, model, seed=7, deterministic_gating=deterministic)
    scalar_exec = StageExecutor(system, model, seed=7, deterministic_gating=deterministic)
    pricing = run_exec.price_decode_run(ctx, RUN_STAGES)
    assert pricing.n_stages == RUN_STAGES
    for k in range(1, RUN_STAGES + 1):
        result = scalar_exec.run_stage(StageWorkload(decode_context_lengths=ctx + k))
        assert pricing.latencies[k - 1] == result.latency_s
        assert pricing.categories == tuple(result.dram_energy_by_category)
        assert pricing.categories == tuple(result.compute_energy_by_category)
        for category, dram, compute in zip(
            pricing.categories, pricing.dram, pricing.compute, strict=True
        ):
            assert dram[k - 1] == result.dram_energy_by_category[category]
            assert compute[k - 1] == result.compute_energy_by_category[category]
        assert pricing.comm_energy_j == result.comm_energy_j


@pytest.mark.parametrize("committed", [0, 1, RUN_STAGES - 1, RUN_STAGES])
@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_truncated_run_rewinds_gating_rng(name, committed):
    system, model = ORACLE_SYSTEMS[name]
    ctx = _contexts(3)
    run_exec = StageExecutor(system, model, seed=7)
    scalar_exec = StageExecutor(system, model, seed=7)
    pricing = run_exec.price_decode_run(ctx, RUN_STAGES)
    run_exec.rewind_decode_run(pricing, committed)
    for k in range(1, committed + 1):
        scalar_exec.run_stage(StageWorkload(decode_context_lengths=ctx + k))
    assert run_exec._router.state_snapshot() == scalar_exec._router.state_snapshot()


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_grown_expert_luts_equal_fresh_tables(name):
    # One executor prices ever wider batches, so its single LUT grows
    # (exactly to 6, by doubling to 12, exactly to 64 routed tokens);
    # every entry must equal a table built fresh for that bound, and the
    # last run must price as it would on a fresh executor.
    system, model = ORACLE_SYSTEMS[name]
    grown = StageExecutor(system, model, seed=7)
    for batch in (3, 5, 32):
        ctx = _contexts(batch)
        fresh = StageExecutor(system, model, seed=7)
        fresh._router.state_restore(grown._router.state_snapshot())
        pricing = grown.price_decode_run(ctx, RUN_STAGES)
        expected = fresh.price_decode_run(ctx, RUN_STAGES)
        bound = batch * model.top_k
        fresh_luts = StageExecutor(system, model)._run_luts(bound)
        assert grown._run_lut_bound >= bound
        for lut, fresh_lut in zip(grown._run_lut, fresh_luts, strict=True):
            assert np.array_equal(lut[: bound + 1], fresh_lut)
        assert np.array_equal(pricing.latencies, expected.latencies)
        for ours, theirs in zip(
            pricing.dram + pricing.compute, expected.dram + expected.compute, strict=True
        ):
            assert np.array_equal(ours, theirs)
        assert pricing.comm_energy_j == expected.comm_energy_j
    assert grown._run_lut_bound == 32 * model.top_k

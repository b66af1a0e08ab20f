"""Tests for expert co-processing (lookup table + greedy assignment)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coprocessing import (
    ExpertTimeLookup,
    assign_experts,
    round_robin_space_groups,
)
from repro.errors import ConfigError
from repro.hardware.specs import h100_xpu, logic_pim_unit
from repro.models.config import mixtral
from repro.models.layers import LayerMath


@pytest.fixture(scope="module")
def lookup():
    return ExpertTimeLookup(LayerMath(mixtral()), h100_xpu(), logic_pim_unit())


class TestLookup:
    def test_caches_results(self, lookup):
        first = lookup.pim_time(8)
        assert lookup.pim_time(8) == first
        assert 8 in lookup._pim_cache

    def test_pim_faster_at_low_tokens(self, lookup):
        # Few tokens = low Op/B = Logic-PIM territory.
        assert lookup.pim_time(4) < lookup.xpu_time(4)

    def test_xpu_faster_at_high_tokens(self, lookup):
        # Thousands of tokens = compute-bound = xPU territory.
        assert lookup.xpu_time(8192) < lookup.pim_time(8192)

    def test_times_monotone_in_tokens(self, lookup):
        xpu_times = [lookup.xpu_time(t) for t in (1, 16, 256, 4096)]
        pim_times = [lookup.pim_time(t) for t in (1, 16, 256, 4096)]
        assert xpu_times == sorted(xpu_times)
        assert pim_times == sorted(pim_times)


class TestGreedyAssignment:
    def test_never_worse_than_single_unit(self, lookup):
        counts = np.array([3, 9, 14, 2, 8, 8, 11, 9])
        assignment = assign_experts(counts, lookup)
        all_xpu = sum(lookup.xpu_time(int(t)) for t in counts)
        all_pim = sum(lookup.pim_time(int(t)) for t in counts)
        assert assignment.makespan_s <= min(all_xpu, all_pim) + 1e-12

    def test_uniform_low_counts_mostly_on_pim(self, lookup):
        # Decode-stage counts: Logic-PIM keeps the majority; the xPU takes a
        # small share (its bandwidth is ~1/4 of Logic-PIM's) to cut the
        # makespan below the all-PIM time.
        counts = np.full(8, 8)
        assignment = assign_experts(counts, lookup)
        all_pim = sum(lookup.pim_time(8) for _ in range(8))
        assert len(assignment.xpu_experts) <= 2
        assert len(assignment.pim_experts) >= 6
        assert assignment.makespan_s < all_pim

    def test_heavy_experts_go_to_xpu(self, lookup):
        # A mixed stage: one expert swallows most of the prefill.
        counts = np.array([4000, 30, 20, 25, 30, 15, 20, 25])
        assignment = assign_experts(counts, lookup)
        assert 0 in assignment.xpu_experts

    def test_partition_is_complete_and_disjoint(self, lookup):
        counts = np.array([5, 100, 7, 2000, 3, 60, 11, 9])
        assignment = assign_experts(counts, lookup)
        combined = sorted(assignment.xpu_experts + assignment.pim_experts)
        assert combined == list(range(8))

    def test_makespan_is_max_of_sides(self, lookup):
        counts = np.array([500, 40, 8, 8])
        assignment = assign_experts(counts, lookup)
        assert assignment.makespan_s == pytest.approx(
            max(assignment.xpu_time_s, assignment.pim_time_s)
        )

    def test_zero_count_experts_cost_nothing(self, lookup):
        counts = np.array([0, 0, 0, 0])
        assignment = assign_experts(counts, lookup)
        assert assignment.makespan_s == 0.0

    @settings(max_examples=25, deadline=None)
    @given(counts=st.lists(st.integers(0, 5000), min_size=2, max_size=16))
    def test_greedy_beats_or_ties_single_unit(self, lookup, counts):
        arr = np.array(counts)
        assignment = assign_experts(arr, lookup)
        all_xpu = sum(lookup.xpu_time(int(t)) for t in arr if t > 0)
        all_pim = sum(lookup.pim_time(int(t)) for t in arr if t > 0)
        assert assignment.makespan_s <= min(all_xpu, all_pim) + 1e-12


class TestSpaceGranularity:
    def test_groups_move_together(self, lookup):
        counts = np.array([4000, 10, 10, 10, 4000, 10, 10, 10])
        groups = round_robin_space_groups(8, 4)  # [[0,4],[1,5],[2,6],[3,7]]
        assignment = assign_experts(counts, lookup, groups)
        # Experts 0 and 4 share a space: both on the same side.
        assert (0 in assignment.xpu_experts) == (4 in assignment.xpu_experts)

    def test_space_constraint_cannot_beat_free_assignment(self, lookup):
        counts = np.array([4000, 10, 10, 10, 15, 10, 10, 10])
        free = assign_experts(counts, lookup)
        spaced = assign_experts(counts, lookup, round_robin_space_groups(8, 4))
        assert spaced.makespan_s >= free.makespan_s - 1e-12

    def test_bad_groups_rejected(self, lookup):
        with pytest.raises(ConfigError):
            assign_experts(np.array([1, 2, 3]), lookup, [[0, 1]])  # missing expert 2
        with pytest.raises(ConfigError):
            assign_experts(np.array([1, 2, 3]), lookup, [[0, 1, 2], []])  # empty space

    def test_round_robin_groups_cover_all(self):
        groups = round_robin_space_groups(10, 4)
        assert sorted(i for g in groups for i in g) == list(range(10))

    def test_fewer_experts_than_spaces(self):
        groups = round_robin_space_groups(2, 4)
        assert groups == [[0], [1]]


class TestValidation:
    def test_rejects_negative_counts(self, lookup):
        with pytest.raises(ConfigError):
            assign_experts(np.array([-1, 2]), lookup)

    def test_rejects_2d_counts(self, lookup):
        with pytest.raises(ConfigError):
            assign_experts(np.zeros((2, 2)), lookup)

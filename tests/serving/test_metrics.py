"""Tests for serving metrics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError, SimulationError
from repro.models.ops import OpCategory
from repro.serving.metrics import (
    _COMPUTE_KEYS,
    _DRAM_KEYS,
    MetricsCollector,
    weighted_percentile,
)


class TestWeightedPercentile:
    def test_uniform_weights_match_median(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        weights = np.ones(5)
        assert weighted_percentile(values, weights, 50) == 3.0

    def test_heavy_weight_dominates(self):
        values = np.array([1.0, 100.0])
        weights = np.array([99.0, 1.0])
        assert weighted_percentile(values, weights, 50) == 1.0
        assert weighted_percentile(values, weights, 99.5) == 100.0

    def test_unsorted_input(self):
        values = np.array([5.0, 1.0, 3.0])
        weights = np.ones(3)
        assert weighted_percentile(values, weights, 0) == 1.0
        assert weighted_percentile(values, weights, 100) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            weighted_percentile(np.array([]), np.array([]), 50)

    def test_out_of_range_percentile_rejected(self):
        with pytest.raises(ConfigError):
            weighted_percentile(np.array([1.0]), np.array([1.0]), 101)

    @given(q=st.floats(0, 100), values=st.lists(st.floats(0.1, 1e6), min_size=1, max_size=50))
    def test_result_is_an_observed_value(self, q, values):
        arr = np.asarray(values)
        result = weighted_percentile(arr, np.ones(arr.size), q)
        assert result in arr

    def test_single_sample_is_every_percentile(self):
        values = np.array([7.5])
        weights = np.array([3.0])
        for q in (0, 50, 100):
            assert weighted_percentile(values, weights, q) == 7.5

    def test_zero_weight_entries_are_ignored(self):
        # A zero-weight value owns no cumulative mass and must never be
        # returned, at any percentile.
        values = np.array([1.0, 2.0, 3.0])
        weights = np.array([1.0, 0.0, 1.0])
        assert weighted_percentile(values, weights, 50) == 1.0
        assert weighted_percentile(values, weights, 51) == 3.0
        assert weighted_percentile(values, weights, 100) == 3.0

    def test_zero_weight_smallest_value_never_returned(self):
        # Regression: with side="left" a zero-weight smallest value used to
        # survive the cumsum and win every low percentile.
        values = np.array([1.0, 2.0])
        weights = np.array([0.0, 1.0])
        for q in (0, 10, 50, 100):
            assert weighted_percentile(values, weights, q) == 2.0

    def test_all_zero_weights_rejected(self):
        with pytest.raises(SimulationError):
            weighted_percentile(np.array([1.0, 2.0]), np.zeros(2), 50)

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError):
            weighted_percentile(np.array([1.0, 2.0]), np.array([1.0, -1.0]), 50)

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ConfigError):
            weighted_percentile(np.array([1.0, 2.0]), np.array([1.0]), 50)

    @given(q=st.floats(0, 100), values=st.lists(st.floats(0.1, 1e6), min_size=2, max_size=20))
    def test_result_always_carries_weight(self, q, values):
        arr = np.asarray(values)
        weights = np.ones(arr.size)
        weights[::2] = 0.0  # zero out every other entry
        result = weighted_percentile(arr, weights, q)
        assert result in arr[weights > 0]

    def test_q_zero_returns_smallest_value(self):
        values = np.array([4.0, 2.0, 9.0])
        weights = np.array([1.0, 5.0, 1.0])
        assert weighted_percentile(values, weights, 0) == 2.0

    def test_q_hundred_returns_largest_weighted_value(self):
        values = np.array([4.0, 2.0, 9.0])
        weights = np.array([1.0, 5.0, 1.0])
        assert weighted_percentile(values, weights, 100) == 9.0

    def test_negative_percentile_rejected(self):
        with pytest.raises(ConfigError):
            weighted_percentile(np.array([1.0]), np.array([1.0]), -0.1)


class TestMergedCollectors:
    def _collector(self, latency, tokens, idle=0.0):
        collector = MetricsCollector()
        collector.effective_batch = 8
        collector.record_stage(
            latency_s=latency,
            is_mixed=False,
            decode_tokens=tokens,
            total_tokens_generated=tokens,
            dram_energy={OpCategory.MOE: 1.0},
            compute_energy={},
            comm_energy_j=0.0,
        )
        if idle:
            collector.record_idle(idle)
        return collector

    def test_merge_pools_samples_and_takes_max_elapsed(self):
        fast = self._collector(latency=0.01, tokens=10)
        slow = self._collector(latency=0.04, tokens=10, idle=0.06)
        fleet = MetricsCollector.merged([fast, slow]).report()
        assert fleet.tokens_generated == 20
        assert fleet.elapsed_s == pytest.approx(0.1)  # max, not sum
        assert fleet.tbt_p50_s in (0.01, 0.04)
        assert fleet.energy_by_component["moe:dram"] == pytest.approx(2.0)
        assert fleet.effective_batch == 16

    def test_merge_of_empty_collectors_rejected(self):
        with pytest.raises(SimulationError):
            MetricsCollector.merged([MetricsCollector()]).report()

    def test_merge_of_no_collectors_is_empty(self):
        fleet = MetricsCollector.merged([])
        assert fleet.stages_recorded == 0
        with pytest.raises(SimulationError):
            fleet.report()

    def test_merge_skips_empty_members_without_distortion(self):
        # An idle replica (nothing recorded) must not shift percentiles,
        # counts, or the wall clock of the pooled report.
        busy = self._collector(latency=0.02, tokens=10, idle=0.03)
        alone = busy.report()
        pooled = MetricsCollector.merged([MetricsCollector(), busy, MetricsCollector()]).report()
        assert pooled.tokens_generated == alone.tokens_generated
        assert pooled.elapsed_s == alone.elapsed_s
        assert pooled.tbt_p50_s == alone.tbt_p50_s
        assert pooled.requests_completed == alone.requests_completed

    def test_merge_unions_heterogeneous_tenant_keys(self):
        left = self._collector(latency=0.01, tokens=4)
        left.record_first_token(0.1, tenant="interactive", slo_s=0.5)
        left.record_completion(1.0, tenant="interactive")
        right = self._collector(latency=0.01, tokens=4)
        right.record_first_token(0.8, tenant="batch", slo_s=0.5)
        right.record_completion(3.0, tenant="batch")
        right.record_first_token(0.2, tenant="interactive", slo_s=0.5)
        right.record_completion(1.5, tenant="interactive")
        report = MetricsCollector.merged([left, right]).report()
        assert set(report.per_tenant) == {"interactive", "batch"}
        assert report.per_tenant["interactive"]["requests_completed"] == 2.0
        assert report.per_tenant["batch"]["requests_completed"] == 1.0
        # SLO attainment counters union too: interactive met 2/2, batch 0/1.
        assert report.per_tenant["interactive"]["t2ft_slo_attainment"] == pytest.approx(1.0)
        assert report.per_tenant["batch"]["t2ft_slo_attainment"] == pytest.approx(0.0)

    def test_merge_with_one_sided_tenant_samples(self):
        # A tenant with first tokens recorded but no completions (still
        # mid-flight on one replica) must survive the union.
        left = self._collector(latency=0.01, tokens=4)
        left.record_first_token(0.1, tenant="a")
        right = self._collector(latency=0.01, tokens=4)
        right.record_completion(2.0, tenant="b")
        report = MetricsCollector.merged([left, right]).report()
        assert set(report.per_tenant) == {"a", "b"}
        assert report.per_tenant["a"]["requests_completed"] == 0.0
        assert report.per_tenant["a"]["t2ft_p50_s"] == pytest.approx(0.1)
        assert report.per_tenant["b"]["e2e_p50_s"] == pytest.approx(2.0)

    def test_merge_idle_time_accounting(self):
        # Idle time lives in elapsed (max across replicas) but not in
        # busy time (summed): a mostly-idle replica drags fleet
        # throughput down without inflating fleet work done.
        worker = self._collector(latency=0.05, tokens=50)
        idler = self._collector(latency=0.01, tokens=2, idle=0.99)
        fleet = MetricsCollector.merged([worker, idler])
        assert fleet.elapsed_s == pytest.approx(1.0)  # the idler's clock
        assert fleet.busy_s == pytest.approx(0.06)  # work sums, idle does not
        report = fleet.report()
        assert report.throughput_tokens_per_s == pytest.approx(52 / 1.0)

    def test_busy_time_tracks_recorded_stages(self):
        collector = self._collector(latency=0.04, tokens=10)
        assert collector.busy_s == pytest.approx(0.04)
        collector.record_idle(0.5)
        assert collector.busy_s == pytest.approx(0.04)  # idle excluded
        assert collector.elapsed_s == pytest.approx(0.54)


class TestCollector:
    def _record_simple(self, collector, latency=0.01, mixed=False, decode_tokens=8):
        collector.record_stage(
            latency_s=latency,
            is_mixed=mixed,
            decode_tokens=decode_tokens,
            total_tokens_generated=decode_tokens + (1 if mixed else 0),
            dram_energy={OpCategory.MOE: 1.0},
            compute_energy={OpCategory.FC: 0.5},
            comm_energy_j=0.1,
        )

    def test_throughput(self):
        collector = MetricsCollector()
        for _ in range(10):
            self._record_simple(collector, latency=0.01, decode_tokens=8)
        report = collector.report()
        assert report.throughput_tokens_per_s == pytest.approx(800.0)

    def test_stage_ratio(self):
        collector = MetricsCollector()
        for i in range(10):
            self._record_simple(collector, mixed=(i == 0))
        assert collector.report().decoding_only_stage_ratio == pytest.approx(0.9)

    def test_tbt_percentiles_weighted_by_tokens(self):
        collector = MetricsCollector()
        self._record_simple(collector, latency=0.001, decode_tokens=99)
        self._record_simple(collector, latency=1.0, decode_tokens=1)
        report = collector.report()
        assert report.tbt_p50_s == pytest.approx(0.001)
        assert report.tbt_p99_s == pytest.approx(0.001)

    def test_energy_accounting(self):
        collector = MetricsCollector()
        self._record_simple(collector, decode_tokens=16)
        report = collector.report()
        assert report.energy_by_component["moe:dram"] == 1.0
        assert report.energy_by_component["fc:compute"] == 0.5
        assert report.energy_by_component["fabric"] == pytest.approx(0.1)
        assert report.energy_per_token_j == pytest.approx(1.6 / 16)

    def test_latency_metrics(self):
        collector = MetricsCollector()
        self._record_simple(collector)
        collector.record_first_token(0.2)
        collector.record_first_token(0.4)
        collector.record_completion(2.0)
        report = collector.report()
        assert report.t2ft_p50_s == pytest.approx(0.3)
        assert report.e2e_p50_s == pytest.approx(2.0)
        assert report.requests_completed == 1

    def test_idle_time_counts_toward_elapsed(self):
        collector = MetricsCollector()
        self._record_simple(collector, latency=0.01, decode_tokens=10)
        collector.record_idle(0.09)
        assert collector.report().throughput_tokens_per_s == pytest.approx(100.0)

    def test_empty_report_rejected(self):
        with pytest.raises(SimulationError):
            MetricsCollector().report()

    def test_non_positive_latency_rejected(self):
        collector = MetricsCollector()
        with pytest.raises(SimulationError):
            self._record_simple(collector, latency=0.0)


RUN_CATEGORIES = (OpCategory.FC, OpCategory.ATTENTION_DECODE, OpCategory.MOE)


def _decode_run(seed, n):
    """(latencies, dram, compute) of an n-stage run; latencies repeat."""
    rng = np.random.default_rng(seed)
    latencies = 0.0105 + rng.integers(0, 6, n) * 5e-4
    return latencies, rng.random((3, n)), rng.random((3, n))


def _record_run(collector, run, tokens, comm_j):
    latencies, dram, compute = run
    components = [(_DRAM_KEYS[c], dram[i]) for i, c in enumerate(RUN_CATEGORIES)]
    components += [(_COMPUTE_KEYS[c], compute[i]) for i, c in enumerate(RUN_CATEGORIES)]
    collector.record_decode_run(latencies, tokens, components, comm_j)


def _record_run_stagewise(collector, run, tokens, comm_j):
    latencies, dram, compute = run
    for k, latency in enumerate(latencies.tolist()):
        collector.record_stage(
            latency_s=latency,
            is_mixed=False,
            decode_tokens=tokens,
            total_tokens_generated=tokens,
            dram_energy={c: float(dram[i, k]) for i, c in enumerate(RUN_CATEGORIES)},
            compute_energy={c: float(compute[i, k]) for i, c in enumerate(RUN_CATEGORIES)},
            comm_energy_j=comm_j,
        )


def _prefill_stage(collector):
    collector.record_stage(
        latency_s=0.2,
        is_mixed=True,
        decode_tokens=0,
        total_tokens_generated=1,
        dram_energy={OpCategory.FC: 2.0},
        compute_energy={OpCategory.FC: 1.0},
        comm_energy_j=0.3,
    )


def _twins(seed):
    """The same history recorded with decode runs and stage by stage."""
    runs = [
        (_decode_run(seed, 300), 32, 0.25),  # past the initial column capacity
        (_decode_run(seed + 1, 40), 7, 0.0),
        (_decode_run(seed + 2, 700), 3, 0.5),
    ]
    batched, stagewise = MetricsCollector(), MetricsCollector()
    for index, (run, tokens, comm_j) in enumerate(runs):
        if index == 1:
            _prefill_stage(batched)
            _prefill_stage(stagewise)
        _record_run(batched, run, tokens, comm_j)
        _record_run_stagewise(stagewise, run, tokens, comm_j)
    return batched, stagewise


def _assert_twins(batched, stagewise):
    report, expected = batched.report(), stagewise.report()
    assert report == expected
    assert list(report.energy_by_component.items()) == list(
        expected.energy_by_component.items()
    )
    for slo in (0.0105, 0.011, 0.0121, 0.013, 1.0):
        assert batched.tbt_slo_attainment(slo) == stagewise.tbt_slo_attainment(slo)
    count = stagewise.tbt_samples_since(0, 1)[2]
    for cursor in (0, 1, 150, 299, 300, 301, count - 1, count, count + 3):
        for bound in (1, 64, 10_000):
            assert batched.tbt_samples_since(cursor, bound) == stagewise.tbt_samples_since(
                cursor, bound
            )


class TestDecodeRunTwin:
    """One record_decode_run call lands exactly where n record_stage calls do."""

    def test_batched_run_equals_stagewise_recording(self):
        _assert_twins(*_twins(seed=1))

    def test_merged_mix_of_run_and_stagewise_collectors(self):
        (a_run, a_stage), (b_run, b_stage), (c_run, c_stage) = (
            _twins(seed) for seed in (2, 5, 9)
        )
        mixed = MetricsCollector.merged([a_run, b_stage, MetricsCollector(), c_run])
        stagewise = MetricsCollector.merged([a_stage, b_stage, MetricsCollector(), c_stage])
        _assert_twins(mixed, stagewise)


class TestTbtPoll:
    def test_poll_returns_the_newest_samples_up_to_the_bound(self):
        collector = MetricsCollector()
        latencies = 0.01 + np.arange(3000) * 1e-6
        collector.record_decode_run(latencies, 4, [], 0.0)
        values, weights, cursor = collector.tbt_samples_since(0, 2048)
        assert cursor == 3000
        assert values == latencies[-2048:].tolist()
        assert weights == [4.0] * 2048
        values, _, cursor = collector.tbt_samples_since(2990, 2048)
        assert (values, cursor) == (latencies[2990:].tolist(), 3000)
        assert collector.tbt_samples_since(3000, 2048) == ([], [], 3000)

"""Cross-simulator equivalence tests (tier 2 — see TESTING.md).

The unified event-driven core makes strong equivalences *structural*
rather than coincidental; these tests pin them down:

* a :class:`ClusterSimulator` of one round-robin replica IS a
  :class:`ServingSimulator`, both with their default pricing — identical
  per-request metrics, identical report, float-for-float;
* the refactored two-partition :class:`SplitServingSimulator` reproduces
  the pre-refactor Fig. 16 numbers captured in
  ``tests/golden/fig16_split.json`` before the engine extraction landed.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.system import duplex_system
from repro.models.config import mixtral
from repro.serving.cluster import ClusterSimulator, RoundRobinRouter
from repro.serving.generator import WorkloadSpec
from repro.serving.simulator import ServingSimulator, SimulationLimits
from repro.serving.trace import TraceRecord, TraceReplayGenerator

GOLDEN_FIG16 = Path(__file__).parent.parent / "golden" / "fig16_split.json"

MODEL = mixtral()
SYSTEM = duplex_system(MODEL, co_processing=True, expert_tensor_parallel=True)


def _pair(workload, seed=3, max_batch=24, limits=None, **cluster_kwargs):
    """Run the same workload through both simulators, same seed."""
    limits = limits or SimulationLimits(max_stages=200, warmup_stages=12)
    solo = ServingSimulator(
        SYSTEM, MODEL, workload, max_batch=max_batch, seed=seed
    )
    solo_report = solo.run(limits)
    fleet = ClusterSimulator(
        SYSTEM,
        MODEL,
        workload,
        n_replicas=1,
        router=RoundRobinRouter(),
        max_batch=max_batch,
        seed=seed,
        **cluster_kwargs,
    )
    fleet_report = fleet.run(limits)
    return solo, solo_report, fleet, fleet_report


class TestClusterOfOneEqualsSimulator:
    def test_reports_identical_under_poisson(self):
        spec = WorkloadSpec(lin_mean=1024, lout_mean=128, lin_cv=0.5, lout_cv=0.5, qps=10.0)
        _, solo_report, _, fleet_report = _pair(spec)
        assert solo_report == fleet_report.fleet

    def test_per_request_samples_identical(self):
        # Field-level equality of the pooled report could in principle hide
        # compensating per-request differences; the raw sample lists cannot.
        spec = WorkloadSpec(lin_mean=2048, lout_mean=96, lin_cv=1.0, lout_cv=0.3, qps=14.0)
        solo, _, fleet, _ = _pair(spec, seed=11)
        solo_metrics = solo.engine.metrics
        replica_metrics = fleet.handles[0].metrics
        assert solo_metrics._t2ft == replica_metrics._t2ft
        assert solo_metrics._e2e == replica_metrics._e2e
        # Per-stage TBT columns in record order (order-sensitive).
        for solo_column, replica_column in zip(
            solo_metrics._tbt_columns(), replica_metrics._tbt_columns(), strict=True
        ):
            assert solo_column.tolist() == replica_column.tolist()

    def test_every_report_field_matches(self):
        # Report every diverging field by name (debuggability when it breaks).
        spec = WorkloadSpec(lin_mean=512, lout_mean=64, lin_cv=0.2, lout_cv=0.2, qps=30.0)
        _, solo_report, _, fleet_report = _pair(spec, seed=5)
        for field in dataclasses.fields(solo_report):
            assert getattr(solo_report, field.name) == getattr(fleet_report.fleet, field.name), (
                f"field {field.name} diverges between simulator and cluster-of-one"
            )

    def test_trace_replay_identical(self):
        def trace():
            return TraceReplayGenerator(
                [
                    TraceRecord(
                        arrival_s=0.02 * i,
                        input_len=4096 if i % 5 == 0 else 512,
                        output_len=48,
                    )
                    for i in range(80)
                ]
            )

        limits = SimulationLimits(max_stages=400, warmup_stages=8)
        solo_report = ServingSimulator(
            SYSTEM, MODEL, trace(), max_batch=16, seed=2
        ).run(limits)
        fleet_report = ClusterSimulator(
            SYSTEM, MODEL, trace(), n_replicas=1, router=RoundRobinRouter(),
            max_batch=16, seed=2,
        ).run(limits)
        assert solo_report == fleet_report.fleet


class TestSplitMatchesPreRefactorGolden:
    """The two-partition engine must reproduce the hand-rolled split loop.

    ``tests/golden/fig16_split.json`` was captured from the pre-refactor
    ``SplitServingSimulator`` (its own clock and admission loop); the
    engine-based reimplementation must land on the same floats.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        assert GOLDEN_FIG16.exists(), "fig16 golden snapshot missing"
        return json.loads(GOLDEN_FIG16.read_text())

    @pytest.fixture(scope="class")
    def rows(self):
        from repro.experiments import fig16

        return fig16.run(
            pairs=((256, 256),),
            batch=32,
            limits=SimulationLimits(max_stages=340, warmup_stages=8),
            seed=0,
        )

    def test_split_throughput_exact(self, golden, rows):
        assert rows[0].split_tokens_per_s == golden[0]["split_tokens_per_s"]

    def test_split_latency_percentiles_exact(self, golden, rows):
        assert rows[0].split_tbt == golden[0]["split_tbt"]
        assert rows[0].split_t2ft_p50 == golden[0]["split_t2ft_p50"]

    def test_split_effective_batch_exact(self, golden, rows):
        assert rows[0].split_batch == golden[0]["split_batch"]

    def test_duplex_side_untouched(self, golden, rows):
        # The monolithic comparison arm moved onto the engine too.
        assert rows[0].duplex_tokens_per_s == golden[0]["duplex_tokens_per_s"]
        assert rows[0].duplex_tbt == golden[0]["duplex_tbt"]

"""Golden-report regression tests (tier 3 — see TESTING.md).

Each case runs a figure on a *tiny preset* (reduced grid, short
simulation window) and serializes the resulting rows to canonical JSON.
The serialized text must match the snapshot under ``tests/golden/``
byte-for-byte: any behavioural drift in the serving core — scheduler
ordering, RNG consumption, metric accounting, float summation order —
shows up as a diff, not as a silently shifted percentile.  The
``fleet_recovery`` case does the same for whole fleet reports: routing,
crash harvest and retry, MIGRATE adoption, and elastic scaling.

Workflow:

* ``pytest tests/golden`` — compare against the snapshots.
* ``pytest tests/golden --update-golden`` — rewrite the snapshots after an
  *intentional* behaviour change (review the diff before committing).

The determinism test runs one case twice in the same process and requires
byte-identical output, which is what makes the snapshots trustworthy: a
mismatch there means a seeded run depends on iteration order of an
unordered container (or other hidden state), not on the seed.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.system import duplex_system
from repro.experiments import fig11, fig12, fig13, fig16
from repro.models.config import mixtral
from repro.serving.autoscaler import ElasticFleetSimulator, QueueDepthPolicy
from repro.serving.cluster import (
    ClusterSimulator,
    LeastOutstandingTokensRouter,
    MonolithicReplicaSpec,
    ShardedReplicaSpec,
    SplitReplicaSpec,
)
from repro.serving.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.serving.paging import PagingConfig
from repro.serving.scenarios import get_scenario
from repro.serving.simulator import SimulationLimits
from repro.serving.trace import TraceRecord, TraceReplayGenerator

GOLDEN_DIR = Path(__file__).parent

pytestmark = pytest.mark.golden


# ----------------------------------------------------------------------
# tiny presets — small enough for tier-1 CI, large enough to exercise
# admission, completion, and percentile paths
# ----------------------------------------------------------------------
def _fig11_tiny():
    return fig11.run(
        model_keys=("mixtral",),
        batches=(32,),
        pairs_by_model={"mixtral": ((256, 256),)},
        limits=SimulationLimits(max_stages=60, warmup_stages=8),
        seed=0,
    )


def _fig12_tiny():
    return fig12.run(
        model_key="glam",
        pairs=((128, 128),),
        batch=32,
        seed=0,
        limits=SimulationLimits(max_stages=220, warmup_stages=8, target_completions=16),
    )


def _fig13_tiny():
    return fig13.run(
        qps_values=(6.0,),
        lin=1024,
        lout=128,
        max_batch=32,
        limits=SimulationLimits(max_stages=120, warmup_stages=12),
        seed=0,
        workers=1,
    )


def _fig16_tiny():
    return fig16.run(
        pairs=((256, 256),),
        batch=32,
        # No completion target: the window must cover the split system's
        # *second* prefill cohort so T2FT lands in the measured region.
        limits=SimulationLimits(max_stages=340, warmup_stages=8),
        seed=0,
    )


FLEET_LIMITS = SimulationLimits(max_stages=60_000, warmup_stages=0)


def _burst(n: int, input_len: int, output_len: int, spacing_s: float) -> TraceReplayGenerator:
    return TraceReplayGenerator(
        [
            TraceRecord(arrival_s=i * spacing_s, input_len=input_len, output_len=output_len)
            for i in range(n)
        ]
    )


def _fleet_recovery():
    """Three fleet runs covering every replica kind, crash recovery, and
    autoscaling:

    * a monolithic + sharded + split fleet under paging, each replica
      crashing once and repairing in place, with retries (3 crashes, 22
      retries);
    * two paged replicas of long-context requests where the crashed
      replica's MIGRATE-parked victim is adopted by its peer (one
      ``migrate_recoveries``);
    * an elastic fleet of split replicas scaling out to 4 under bursty
      chat.
    """
    model = mixtral()
    system = duplex_system(model, co_processing=True, expert_tensor_parallel=True)
    mixed = ClusterSimulator(
        system,
        model,
        _burst(60, 2048, 96, 0.02),
        replicas=(MonolithicReplicaSpec(), ShardedReplicaSpec(tp=2), SplitReplicaSpec()),
        router=LeastOutstandingTokensRouter(),
        max_batch=8,
        seed=1,
        paging=PagingConfig(),
        faults=FaultInjector(
            FaultConfig(
                crash_times=((0.4, 0), (0.6, 1), (0.8, 2)),
                crash_mttr_s=0.5,
                detection_latency_s=0.1,
            )
        ),
        retry=RetryPolicy(max_attempts=4),
    )
    adoption = ClusterSimulator(
        system,
        model,
        _burst(24, 150_000, 300, 0.05),
        n_replicas=2,
        max_batch=16,
        seed=1,
        paging=PagingConfig(),
        faults=FaultInjector(
            FaultConfig(crash_times=((5.0, 0),), crash_mttr_s=1.0, detection_latency_s=0.2)
        ),
        retry=RetryPolicy(max_attempts=4),
    )
    elastic = ElasticFleetSimulator(
        system,
        model,
        get_scenario("bursty-chat").at_qps(30.0).source(seed=1, max_requests=300),
        policy=QueueDepthPolicy(scale_up_depth=2.0, scale_down_depth=0.25, cooldown_s=1.0),
        min_replicas=1,
        max_replicas=4,
        replica_template=SplitReplicaSpec(),
        control_interval_s=1.0,
        provision_delay_s=1.0,
        warmup_delay_s=1.0,
        max_batch=8,
        seed=1,
        max_requests=300,
    )
    return [sim.run(FLEET_LIMITS) for sim in (mixed, adoption, elastic)]


CASES = {
    "fig11_throughput": _fig11_tiny,
    "fig12_latency": _fig12_tiny,
    "fig13_qps": _fig13_tiny,
    "fig16_split": _fig16_tiny,
    "fleet_recovery": _fleet_recovery,
}


def render_rows(rows) -> str:
    """Canonical JSON for a list of figure-row dataclasses.

    ``json`` serializes floats with ``repr`` (shortest round-trip), so two
    runs agree byte-for-byte exactly when every float is bit-identical.
    """
    payload = [dataclasses.asdict(row) for row in rows]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="session")
def update_golden(request) -> bool:
    return bool(request.config.getoption("--update-golden"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name: str, update_golden: bool):
    text = render_rows(CASES[name]())
    path = GOLDEN_DIR / f"{name}.json"
    if update_golden:
        path.write_text(text)
        pytest.skip(f"golden snapshot rewritten: {path}")
    assert path.exists(), (
        f"missing golden snapshot {path} — run `pytest tests/golden --update-golden`"
    )
    assert text == path.read_text(), (
        f"{name} drifted from its golden snapshot; if the change is intentional, "
        f"regenerate with `pytest tests/golden --update-golden` and review the diff"
    )


def test_fleet_recovery_snapshot_covers_its_paths():
    """The fleet snapshot exercises what its case claims to cover."""
    mixed, adoption, elastic = json.loads((GOLDEN_DIR / "fleet_recovery.json").read_text())
    assert mixed["replica_kinds"] == ["monolithic", "sharded", "split"]
    assert mixed["fleet"]["faults"]["crashes"] == 3
    assert mixed["fleet"]["faults"]["retries"] == 22
    assert adoption["fleet"]["faults"]["migrate_recoveries"] == 1
    assert elastic["replica_kinds"] == ["split"] * 4
    assert max(sample["active"] for sample in elastic["fleet_samples"]) == 4


def test_same_seed_is_byte_identical_in_process():
    """Two same-seed runs in one process must serialize identically.

    This is the determinism canary for the whole serving stack: fig16
    drives both the monolithic simulator and the split two-partition
    engine, so hidden unordered-container iteration anywhere in the
    scheduler/executor path breaks this before it breaks a platform
    cross-check.
    """
    first = render_rows(_fig16_tiny())
    second = render_rows(_fig16_tiny())
    assert first == second

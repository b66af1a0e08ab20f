"""Golden-report regression tests (tier 3 — see TESTING.md).

Each case runs a figure on a *tiny preset* (reduced grid, short
simulation window) and serializes the resulting rows to canonical JSON.
The serialized text must match the snapshot under ``tests/golden/``
byte-for-byte: any behavioural drift in the serving core — scheduler
ordering, RNG consumption, metric accounting, float summation order —
shows up as a diff, not as a silently shifted percentile.

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

from repro.experiments import fig11, fig12, fig13, fig16
from repro.serving.simulator import SimulationLimits

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


CASES = {
    "fig11_throughput": _fig11_tiny,
    "fig12_latency": _fig12_tiny,
    "fig13_qps": _fig13_tiny,
    "fig16_split": _fig16_tiny,
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

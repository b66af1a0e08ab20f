"""Smoke tests for the perf microbenchmark suite and its regression gate.

The suite itself runs at a tiny scale here (structure and units, not
timings — CI clocks are too noisy to assert absolute numbers); the
compare-gate logic is exercised with synthetic payloads.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from compare import calibration_drift, compare, speedup  # noqa: E402
from grid import run_grid, smoke_grid  # noqa: E402
from perf_suite import SCHEMA_VERSION, calibration_score, run_suite  # noqa: E402


def test_suite_smoke_produces_all_microbenchmarks():
    payload = run_suite(scale=0.02, repeats=1)
    assert payload["schema"] == SCHEMA_VERSION
    assert payload["calibration_ops_per_s"] > 0
    for name in (
        "pure_decode",
        "mixed",
        "moe_heavy",
        "engine_grid",
        "autoscaled_cluster",
        "sharded_fleet",
        "paged_serving",
        "chaos_recovery",
        "prefix_reuse",
    ):
        entry = payload["benchmarks"][name]
        assert entry["value"] > 0
        assert entry["normalized"] > 0
        assert entry["unit"] == "stages/s"
        assert not entry["lower_is_better"]
    # The end-to-end sweep points only run at full scale.
    assert "fig13_sweep" not in payload["benchmarks"]


def test_calibration_is_positive_and_repeatable_order_of_magnitude():
    first = calibration_score(loops=5)
    second = calibration_score(loops=5)
    assert first > 0 and second > 0
    assert 0.2 < first / second < 5.0


def _payload(value: float, lower_is_better: bool = False) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "calibration_ops_per_s": 100.0,
        "benchmarks": {
            "bench": {
                "value": value,
                "normalized": value / 100.0 if not lower_is_better else value * 100.0,
                "unit": "s" if lower_is_better else "stages/s",
                "lower_is_better": lower_is_better,
            }
        },
    }


def test_gate_passes_within_tolerance(capsys):
    failures = compare(_payload(1000.0), _payload(900.0), max_regression=0.20, raw=False)
    assert failures == []
    capsys.readouterr()


def test_gate_fails_beyond_tolerance(capsys):
    failures = compare(_payload(1000.0), _payload(700.0), max_regression=0.20, raw=False)
    assert len(failures) == 1
    capsys.readouterr()


def test_gate_handles_lower_is_better(capsys):
    fast = _payload(1.0, lower_is_better=True)
    slow = _payload(2.0, lower_is_better=True)
    assert compare(fast, slow, max_regression=0.20, raw=False)  # slower wall = regression
    assert compare(slow, fast, max_regression=0.20, raw=False) == []  # faster passes
    capsys.readouterr()


def test_grid_smoke_cells_cover_both_fleet_sizes():
    cells = run_grid(smoke_grid(), requests=8)
    assert len(cells) == 2
    assert {cell["fleet"] for cell in cells} == {1, 2}
    for cell in cells:
        assert cell["stages"] > 0
        assert cell["stages_per_s"] > 0


def test_calibration_drift_flags_mismatched_machines(capsys):
    base = _payload(1000.0)
    fresh = _payload(1000.0)
    base["calibration_ops_per_s"] = 100.0
    fresh["calibration_ops_per_s"] = 450.0  # 4.5x apart: not the same machine class
    assert calibration_drift(base, fresh) == 4.5
    failures = compare(base, fresh, max_regression=0.20, raw=False, max_calibration_drift=2.0)
    assert any("calibration drift" in f for f in failures)
    # Within the band (or with the check disabled) the gate stays quiet.
    fresh["calibration_ops_per_s"] = 150.0
    assert compare(base, fresh, max_regression=0.20, raw=False, max_calibration_drift=2.0) == []
    fresh["calibration_ops_per_s"] = 450.0
    assert compare(base, fresh, max_regression=0.20, raw=False, max_calibration_drift=0.0) == []
    capsys.readouterr()


def test_speedup_direction():
    higher = {"value": 200.0, "normalized": 2.0, "lower_is_better": False}
    base = {"value": 100.0, "normalized": 1.0, "lower_is_better": False}
    assert speedup(base, higher, raw=False) == 2.0
    wall_base = {"value": 2.0, "normalized": 2.0, "lower_is_better": True}
    wall_new = {"value": 1.0, "normalized": 1.0, "lower_is_better": True}
    assert speedup(wall_base, wall_new, raw=False) == 2.0

"""Parameter-grid perf harness for the columnar serving engine.

Sweeps the engine hot loop across the three axes that shape its cost
profile — per-replica batch size, control/telemetry cadence, and fleet
size — running one elastic fleet per cell so every cell exercises the
columnar steady-run commit path, and recording end-to-end stages/second
per cell.

Usage (from the repo root, with ``PYTHONPATH=src``)::

    python benchmarks/perf/grid.py [--smoke] [--requests N]
                                   [--output engine_grid.json]

``--smoke`` runs the reduced CI grid (2 cells, fewer requests) — the same
cells the ``engine_grid`` BENCH_PERF entry summarizes as a geometric
mean, so the committed regression gate covers the sweep while the
per-cell breakdown ships as a CI artifact.  The full grid (12 cells) is
for local before/after comparisons when touching the engine hot loop.

Every cell also records a calibration-normalized rate (see
``perf_suite.calibration_score``) so sweeps from different machines can
be compared, and the payload carries the calibration itself so a
mismatch is visible rather than silently normalized away.
"""

from __future__ import annotations

import argparse
import itertools
import json
import time
from pathlib import Path

from repro.core.system import duplex_system
from repro.models.config import mixtral
from repro.serving.autoscaler import ElasticFleetSimulator, QueueDepthPolicy
from repro.serving.generator import WorkloadSpec
from repro.serving.simulator import SimulationLimits

SCHEMA_VERSION = 1

#: Full sweep: 3 batches x 2 cadences x 2 fleet sizes.
FULL_AXES: dict[str, tuple] = {
    "batch": (4, 8, 16),
    "control_interval_s": (0.25, 1.0),
    "fleet": (2, 4),
}

#: CI smoke: two fleet sizes, one batch/cadence.
SMOKE_AXES: dict[str, tuple] = {
    "batch": (8,),
    "control_interval_s": (0.5,),
    "fleet": (1, 2),
}


def _cells(axes: dict[str, tuple]) -> list[dict]:
    names = list(axes)
    return [
        dict(zip(names, values, strict=True))
        for values in itertools.product(*(axes[name] for name in names))
    ]


def full_grid() -> list[dict]:
    return _cells(FULL_AXES)


def smoke_grid() -> list[dict]:
    return _cells(SMOKE_AXES)


def run_cell(cell: dict, requests: int, seed: int = 0) -> dict:
    """Run one grid cell and return it annotated with its measured rate.

    The moderate ``lout_mean`` gives each arrival a decode tail long
    enough for vectorized runs between arrivals without making a cell
    take more than a couple of seconds.
    """
    model = mixtral()
    system = duplex_system(model, co_processing=True, expert_tensor_parallel=True)
    workload = WorkloadSpec(lin_mean=512, lout_mean=96, lin_cv=0.3, lout_cv=0.3, qps=40.0)
    limits = SimulationLimits(max_stages=1_000_000, warmup_stages=0)
    sim = ElasticFleetSimulator(
        system,
        model,
        workload,
        policy=QueueDepthPolicy(scale_up_depth=2.0, scale_down_depth=0.25, cooldown_s=1.0),
        min_replicas=1,
        max_replicas=cell["fleet"],
        control_interval_s=cell["control_interval_s"],
        provision_delay_s=0.5,
        warmup_delay_s=0.5,
        warm_start_delay_s=0.1,
        max_batch=cell["batch"],
        seed=seed,
        max_requests=requests,
    )
    start = time.perf_counter()
    sim.run(limits)
    elapsed = time.perf_counter() - start
    stages = sum(engine.stages for engine in sim.engines)
    return {**cell, "stages": stages, "stages_per_s": stages / elapsed}


def run_grid(cells: list[dict], requests: int, seed: int = 0) -> list[dict]:
    """Run every cell (in grid order) and return the annotated cells."""
    return [run_cell(cell, requests=requests, seed=seed) for cell in cells]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="reduced CI grid")
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        help="arrivals per cell (default: 120 smoke / 400 full)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("engine_grid.json"),
        help="where to write the sweep payload (default: ./engine_grid.json)",
    )
    args = parser.parse_args()

    from perf_suite import calibration_score

    cells = smoke_grid() if args.smoke else full_grid()
    requests = args.requests if args.requests is not None else (120 if args.smoke else 400)
    results = run_grid(cells, requests=requests)
    calibration = calibration_score()
    for cell in results:
        cell["normalized"] = cell["stages_per_s"] / calibration

    payload = {
        "schema": SCHEMA_VERSION,
        "smoke": args.smoke,
        "requests": requests,
        "calibration_ops_per_s": calibration,
        "cells": results,
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print(f"wrote {args.output} ({len(results)} cells, {requests} requests/cell)")
    print(f"calibration: {calibration:.1f} ops/s")
    print(f"{'batch':>5s} {'cadence':>7s} {'fleet':>5s} {'stages/s':>10s}")
    for cell in results:
        print(
            f"{cell['batch']:>5d} {cell['control_interval_s']:>7g} "
            f"{cell['fleet']:>5d} {cell['stages_per_s']:>10.1f}"
        )


if __name__ == "__main__":
    main()

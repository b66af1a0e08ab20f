"""Regenerate every paper table and figure in one pass.

Usage::

    python -m repro.experiments.run_all [output_dir] [--workers N]

Writes one text file per artefact (default ``./results``) and prints each
table as it completes.  The same code paths back the pytest-benchmark suite
in ``benchmarks/``; this runner exists for people who want the numbers
without pytest.

Sweep-shaped artefacts (currently Fig. 13's 21-point QPS grid) fan their
grid points out over a process pool; ``--workers`` sets the pool width
(default: one per CPU, ``--workers 1`` for serial).
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro.experiments import (
    ablations,
    area,
    capacity,
    chaos,
    fig4,
    fig5,
    fig8,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    paging,
    prefix,
    sharding,
    table1,
)


def _artefacts(workers: int | None = None):
    """(name, callable returning rendered text) for every artefact."""
    yield "table1_models", lambda: table1.format_rows(table1.run())
    yield "fig04a_breakdown", lambda: fig4.format_breakdown(fig4.run_breakdown())
    yield "fig04b_roofline", lambda: fig4.format_roofline(fig4.run_roofline())
    yield "fig05a_stage_ratio", lambda: fig5.format_stage_ratio(fig5.run_stage_ratio())
    yield "fig05b_hetero_latency", lambda: fig5.format_hetero_latency(fig5.run_hetero_latency())
    yield "fig05c_hetero_throughput", lambda: fig5.format_hetero_throughput(
        fig5.run_hetero_throughput()
    )
    yield "fig08_edap", lambda: fig8.format_rows(fig8.run())
    yield "fig11_throughput", lambda: fig11.format_rows(fig11.run())
    yield "fig12_latency", lambda: fig12.format_rows(fig12.run())
    yield "fig13_qps", lambda: fig13.format_rows(fig13.run(workers=workers))
    yield "capacity_planning", lambda: capacity.format_rows(capacity.run(workers=workers))
    yield "paging_policies", lambda: paging.format_rows(paging.run(workers=workers))
    yield "prefix_reuse", lambda: prefix.format_rows(prefix.run(workers=workers))
    yield "sharded_fleet", lambda: sharding.format_rows(sharding.run(workers=workers))
    yield "chaos_recovery", lambda: chaos.format_rows(chaos.run(workers=workers))
    yield "fig14_bankpim", lambda: fig14.format_rows(fig14.run())
    yield "fig15_energy", lambda: fig15.format_rows(fig15.run())
    yield "fig16_split", lambda: fig16.format_rows(fig16.run())
    yield "area_overhead", lambda: area.format_report(area.run())
    yield "ablation_bundles", lambda: ablations.format_bundle_rows(ablations.bundle_interleaving())
    yield "ablation_granularity", lambda: ablations.format_granularity_rows(
        ablations.coprocessing_granularity()
    )
    yield "ablation_dispatch", lambda: ablations.format_dispatch_rows(ablations.dispatch_policy())
    yield "ablation_skew", lambda: ablations.format_skew_rows(ablations.skew_sensitivity())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output_dir", nargs="?", default="results", type=Path)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool width for sweep artefacts (default: one per CPU)",
    )
    args = parser.parse_args(argv)
    output_dir = args.output_dir
    output_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    # Calling _artefacts() arg-less under default flags keeps the registry
    # monkeypatchable as a zero-arg callable.
    artefacts = _artefacts() if args.workers is None else _artefacts(workers=args.workers)
    for name, render in artefacts:
        t0 = time.perf_counter()
        text = render()
        (output_dir / f"{name}.txt").write_text(text + "\n")
        print(text)
        print(f"[{name}: {time.perf_counter() - t0:.1f}s]\n")
    print(f"All artefacts written to {output_dir}/ in {time.perf_counter() - started:.0f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

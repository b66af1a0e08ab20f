"""Host-speed benchmark of the Duplex serving simulator.

Run from the repository root:

    python3 perfbench/run.py --workload paper_qps --seed 1 --seconds 10 --trace 0

One run builds the workload from ``--seed``, runs one untimed warm-up pass,
checks the committed reference digest, then repeats timed passes for
``--seconds`` (each pass rebuilds its simulators: they are single-shot).
Every pass is one attempted operation; a pass fails when a conservation
check, the same-seed determinism check or the reference digest fails.

``--trace 0`` prints the end-to-end metrics (host time, tracing off):

* ``sim_tokens_per_s``: simulated output tokens per host second, median
  over timed passes;
* ``setup_s``: host seconds to build systems, executors and request
  sources for one pass, median over every pass of the run;
* ``peak_rss_mb``: peak resident memory of the process.

Host seconds are reference seconds: each pass's wall time is scaled by the
host speed a :class:`SpeedProbe` measures during that same pass, so that
a shared host's contended phases (identical passes ran up to 2x slower)
do not read as simulator slowdowns.  On an uncontended host the two agree.

``--trace 1`` runs untraced passes, then installs span wrappers
around each layer's public functions (see ``tracing.py``), runs traced
passes, prints per-layer metrics and writes a Chrome trace-event file
to ``.perfbench_out/``.  The last line of standard output is always one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--scale`` shrinks request counts for smoke tests (reference digests are
only checked at scale 1) and ``--plant drop-completion`` corrupts one
pass's output to prove the checks catch it; see ``selftest.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCES = HERE / "references.json"

MIN_TIMED_PASSES = 3
MIN_TRACED_PASSES = 2

END_TO_END_UNITS = {"sim_tokens_per_s": "tokens/s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_NAMES = (
    "executor", "engine", "scheduler", "columnar", "metrics", "cluster", "autoscaler", "paging",
)
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYER_NAMES},
    **{f"{layer}.calls": "count" for layer in LAYER_NAMES if layer != "engine"},
    "executor.run_stages_priced": "stages",
    "executor.run_stages_rewound": "stages",
    "executor.rewound_share": "ratio",
    "executor.cache_hit_rate": "ratio",
    "engine.stages": "stages",
    "engine.run_coverage": "ratio",
    "engine.run_len_mean": "stages",
    "scheduler.tokens_per_stage": "tokens",
    "cluster.route_share_max": "ratio",
    "autoscaler.replica_events": "count",
    "paging.preemptions": "count",
    "paging.migrated_tokens": "tokens",
    "paging.prefix_hit_share": "ratio",
    "paging.prefix_evictions": "tokens",
    "trace.overhead_ratio": "ratio",
}


#: Probe cadence during a pass, and the probe snippet's duration on an
#: uncontended host (2-vCPU Firecracker VM, Python 3.11, NumPy: 230 us).
PROBE_INTERVAL_S = 0.02
PROBE_REFERENCE_S = 230e-6
_PROBE_VALUES = np.arange(32, dtype=np.float64)


def _probe_once() -> float:
    """Time a fixed snippet of small-array NumPy and dict work.

    It shares no code with the simulator, so a simulator change cannot move
    it, but it is the same kind of work the simulator does per stage.
    """
    start = perf_counter()
    sink = 0.0
    for i in range(60):
        sink += float((_PROBE_VALUES * 1.5 + i).sum())
        sink += {j: j * i for j in range(6)}[3]
    return perf_counter() - start


class SpeedProbe:
    """Samples host speed every ``PROBE_INTERVAL_S`` while active.

    A ``SIGALRM`` handler times :func:`_probe_once` between the simulator's
    own bytecodes, so the samples see exactly the contention the pass sees;
    their mean over the pass, against ``PROBE_REFERENCE_S``, is the pass's
    slowdown.  One more sample is taken on exit, so even a pass shorter
    than the interval has one.  Costs about 1.5% of a pass.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum: int, frame: object) -> None:
        self.samples.append(_probe_once())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(_probe_once())

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / PROBE_REFERENCE_S


def _import_program() -> None:
    """Put the simulator sources and this directory on the import path."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit("perfbench: simulator sources not found at src/repro")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


@dataclass
class PassResult:
    """One pass; times are in reference seconds (see :class:`SpeedProbe`)."""

    setup_s: float
    run_s: float
    slowdown: float
    digest: str
    counts: dict
    errors: list[str]
    tokens_per_s: float


@dataclass
class Ledger:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.reasons.extend(errors[:3])


def run_pass(name: str, seed: int, scale: float, tracer=None, plant: str | None = None):
    """Build, run and check one pass of workload ``name``."""
    from checks import conservation_errors, digest, exact_counts
    from workloads import WORKLOADS

    with SpeedProbe() as probe:
        start = perf_counter()
        case = WORKLOADS[name](seed, scale)
        setup_s = perf_counter() - start
        gc.collect()
        if tracer is not None:
            tracer.reset()
            tracer.active = True
        try:
            start = perf_counter()
            case.run()
            run_s = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.active = False
    if plant == "drop-completion":
        case.units[0].engines[0].finished_ids.pop()
    counts = exact_counts(case)
    slowdown = probe.slowdown
    return PassResult(
        setup_s=setup_s / slowdown,
        run_s=run_s / slowdown,
        slowdown=slowdown,
        digest=digest(case),
        counts=counts,
        errors=conservation_errors(case),
        tokens_per_s=counts["tokens"] * slowdown / run_s,
    )


def _same_as(result: PassResult, reference: PassResult) -> list[str]:
    errors = []
    if result.digest != reference.digest:
        errors.append("simulated statistics differ from the warm-up pass of the same seed")
    if result.counts != reference.counts:
        errors.append(f"exact counts differ: {result.counts} vs {reference.counts}")
    return errors


def _reference_errors(args, warm: PassResult, ledger: Ledger, setups: list) -> list[str]:
    """Compare with the committed digest: this seed's, else the first seed's
    (whose pass is then recorded here)."""
    table = json.loads(REFERENCES.read_text()).get(args.workload) if args.scale == 1.0 else None
    if not table:
        return []
    mismatch = [f"reference digest mismatch for {args.workload}"]
    if str(args.seed) in table:
        return mismatch if warm.digest != table[str(args.seed)] else []
    seed = next(iter(table))
    result = run_pass(args.workload, int(seed), args.scale)
    setups.append(result.setup_s)
    ledger.record(result.errors + (mismatch if result.digest != table[seed] else []))
    return []


def measure(args) -> tuple[Ledger, dict]:
    ledger = Ledger()
    warm = run_pass(args.workload, args.seed, args.scale)
    setups = [warm.setup_s]
    ledger.record(warm.errors + _reference_errors(args, warm, ledger, setups))
    if args.trace:
        return ledger, trace_phase(args, warm, ledger)

    timed: list[PassResult] = []
    start = perf_counter()
    while len(timed) < MIN_TIMED_PASSES or perf_counter() - start < args.seconds:
        plant = args.plant if not timed else None
        result = run_pass(args.workload, args.seed, args.scale, plant=plant)
        ledger.record(result.errors + _same_as(result, warm))
        timed.append(result)
        setups.append(result.setup_s)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "sim_tokens_per_s": statistics.median(r.tokens_per_s for r in timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kib * 1024 / 1e6,
    }
    return ledger, metrics


def trace_phase(args, warm: PassResult, ledger: Ledger) -> dict:
    """Untraced passes, then traced passes; per-layer metrics."""
    from tracing import Tracer

    half = args.seconds / 2
    untraced: list[float] = []
    start = perf_counter()
    while len(untraced) < MIN_TRACED_PASSES or perf_counter() - start < half:
        result = run_pass(args.workload, args.seed, args.scale)
        ledger.record(result.errors + _same_as(result, warm))
        untraced.append(result.run_s)

    tracer = Tracer()
    tracer.install()
    traced: list[tuple[PassResult, dict, dict, dict]] = []
    try:
        start = perf_counter()
        while len(traced) < MIN_TRACED_PASSES or perf_counter() - start < half:
            plant = args.plant if not traced else None
            result = run_pass(args.workload, args.seed, args.scale, tracer, plant)
            errors = result.errors + _same_as(result, warm)
            snapshot = (dict(tracer.calls), dict(tracer.counts))
            if traced and snapshot != (traced[0][2], traced[0][3]):
                errors.append("traced call counts differ between passes of one seed")
            ledger.record(errors)
            self_s = {layer: t / result.slowdown for layer, t in tracer.self_s.items()}
            traced.append((result, self_s, *snapshot))
    finally:
        tracer.uninstall()
    tracer.write_chrome_trace(
        OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
        {"workload": args.workload, "seed": args.seed},
    )

    result, _, calls, counts = traced[-1]
    public = result.counts
    stages = public["stages"]
    metrics: dict[str, float] = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.self_s"] = statistics.median(t[1].get(layer, 0.0) for t in traced)
        if layer != "engine":
            metrics[f"{layer}.calls"] = calls.get(layer, 0)
    priced = counts.get("run_stages_priced", 0)
    rewound = counts.get("run_stages_rewound", 0)
    committed = counts.get("run_stages_committed", 0)
    runs = counts.get("runs_committed", 0)
    metrics.update({
        "executor.run_stages_priced": priced,
        "executor.run_stages_rewound": rewound,
        "executor.rewound_share": rewound / priced if priced else 0.0,
        "executor.cache_hit_rate": public["cache_hit_rate"],
        "engine.stages": stages,
        "engine.run_coverage": committed / stages if stages else 0.0,
        "engine.run_len_mean": committed / runs if runs else 0.0,
        "scheduler.tokens_per_stage": public["tokens"] / stages if stages else 0.0,
        "cluster.route_share_max": public["route_share_max"],
        "autoscaler.replica_events": public["replica_events"],
        "paging.preemptions": public["preemptions"],
        "paging.migrated_tokens": public["migrated_tokens"],
        "paging.prefix_hit_share": public["prefix_hit_share"],
        "paging.prefix_evictions": public["prefix_evicted_tokens"],
        "trace.overhead_ratio": statistics.median(t[0].run_s for t in traced)
        / statistics.median(untraced),
    })
    return metrics


def parse_args(argv: list[str] | None, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--plant", choices=("drop-completion",), default=None)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    _import_program()
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    ledger, values = measure(args)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for reason in ledger.reasons:
        print(f"perfbench: FAILED: {reason}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{args.workload:>15} {name:<28} {values[name]:>16.6g} {unit}")
    print(f"{args.workload:>15} operations attempted {ledger.attempted}, failed {ledger.failed}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

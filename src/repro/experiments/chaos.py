"""Chaos sweep: crash schedule x detection latency x recovery x fleet shape.

The serving figures assume replicas never die; a fleet operator sizes
recovery machinery against the day they do.  This sweep injects a *fixed,
seed-independent crash schedule* (same virtual-clock instants, same
device-budget slots, for every grid point) into a fixed-fleet
:class:`~repro.serving.cluster.ClusterSimulator` and prices the recovery
stack end to end:

* **recovery = retry** — the full stack: health-checked detection after
  ``detect_s``, in-place repair after the MTTR dwell, and a
  :class:`~repro.serving.faults.RetryPolicy` that re-admits every lost
  in-flight request through the cluster router (with exponential backoff,
  and MIGRATE-parked victims adopted from their surviving host-side KV).
* **recovery = none** — the same crashes and the same health checker, but
  ``max_attempts=1``: whatever was in flight when a replica died is
  permanently lost.

Fleet shapes reuse the sharded-fleet grid
(:func:`repro.experiments.sharding.build_fleet`) so a many-replica
monolithic fleet and one wide TP x EP replica are compared at the *same
device budget* — blast radius is part of the trade: the wide fleet loses
everything on any crash, the narrow one only a slice.

Reported axes: completions vs permanently lost requests, goodput
(SLO-attained completions per second), P99 T2FT with lost requests
counted as unbounded (``inf`` — a lost request never produced its first
token, and a tail percentile that ignores it would reward dropping work),
retries and MIGRATE adoptions, lost generated tokens, re-prefill seconds,
and fleet unavailability.  Expected shape: the retry stack completes
*everything* the no-retry baseline loses (zero permanently lost), so its
P99 stays finite where the baseline's diverges; with fast detection and
replicas to spare it also wins goodput outright (the multi-replica
fleets at 0.5 s detection).  The counter-cases are the finding: on a
single wide replica, or behind a slow health checker, re-served prefills
compete with fresh arrivals for the same queue and the recovery tax
shows up as SLO-missed completions — blast radius and detection latency
are goodput knobs, not just availability knobs.

Grid points are independent, so the sweep fans out over
:func:`repro.experiments.sweep.run_sweep`'s process pool exactly like the
sharding sweep; ``run_all`` renders it as the ``chaos_recovery`` artefact,
and ``--smoke`` runs a reduced grid (the CI slow stage uses it as a
regression canary).
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.report import format_table
from repro.core.system import duplex_system
from repro.errors import ConfigError
from repro.experiments.presets import model_by_key
from repro.experiments.sharding import DEVICE_BUDGET, build_fleet
from repro.experiments.sweep import run_sweep
from repro.serving.cluster import ClusterSimulator, replica_spec_devices
from repro.serving.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.serving.metrics import MetricsCollector
from repro.serving.scenarios import get_scenario
from repro.serving.simulator import SimulationLimits

#: Fleet shapes under test (same device budget, different blast radius).
DEFAULT_FLEETS = ("2xMono", "4xTP2", "1xTP4xEP2")

#: Health-checker detection latencies (seconds of undetected freeze).
DEFAULT_DETECTION = (0.5, 2.0)

#: Recovery grid, in rendering order.
DEFAULT_RECOVERY = ("retry", "none")

#: The fixed crash schedule: (virtual-clock instant, replica slot).  The
#: slot is taken modulo the fleet's replica count, so every shape suffers
#: the same three outages at the same instants — a one-replica fleet
#: absorbs all three on its only replica.  Instants sit inside the busy
#: window of the default workload (long-prompt summarisation holds 2-8
#: requests resident per replica there), so each crash strands real work.
CRASH_SCHEDULE = ((4.0, 0), (9.0, 1), (14.0, 0))

#: In-place repair dwell after detection (the fixed-fleet capacity
#: restore path — there is no autoscaler to provision replacements here).
MTTR_S = 5.0


@dataclass(frozen=True)
class ChaosRow:
    """One (fleet shape, detection latency, recovery) chaos grid point."""

    fleet: str
    detect_s: float
    recovery: str
    completed: int
    lost: int
    goodput_rps: float
    t2ft_p99_s: float
    retries: int
    migrate_recoveries: int
    crashes: int
    lost_tokens: int
    re_prefill_s: float
    unavailability_s: float


def retry_policy(key: str) -> RetryPolicy:
    """Map a recovery grid key to a :class:`RetryPolicy`.

    ``none`` still builds a policy — ``max_attempts=1`` admits each
    request exactly once, so every crash-harvested request is declared
    lost.  The detection/repair control plane is identical across the
    two keys; only the data-plane recovery differs.
    """
    if key == "retry":
        return RetryPolicy(max_attempts=4, backoff_base_s=0.05)
    if key == "none":
        return RetryPolicy(max_attempts=1)
    raise ConfigError(f"unknown recovery '{key}'; choose from {DEFAULT_RECOVERY}")


def crash_trace(fleet_key: str, schedule=CRASH_SCHEDULE) -> tuple[tuple[float, int], ...]:
    """Pin the shared schedule onto a concrete fleet's replica indices."""
    n = len(build_fleet(fleet_key))
    return tuple((t, slot % n) for t, slot in schedule)


def _p99_with_lost(samples, lost: int) -> float:
    """P99 T2FT with each lost request counted as an unbounded sample.

    A lost request never produced its first token — a tail percentile
    that ignored it would reward dropping work on the floor.  Matches
    ``np.percentile``'s linear interpolation, except that positions
    falling into the ``inf`` padding yield ``inf`` rather than the
    ``nan`` that ``inf - inf`` interpolation produces.
    """
    finite = sorted(samples)
    n_total = len(finite) + lost
    if n_total == 0:
        return 0.0
    k = 0.99 * (n_total - 1)
    lo, hi = math.floor(k), math.ceil(k)
    if hi >= len(finite):
        return math.inf
    if lo == hi:
        return float(finite[lo])
    return float(finite[lo] + (k - lo) * (finite[hi] - finite[lo]))


def _chaos_point(
    fleet_key: str,
    detect_s: float,
    recovery_key: str,
    scenario_name: str,
    qps: float,
    max_batch: int,
    max_requests: int,
    limits: SimulationLimits,
    seed: int,
    slo_t2ft_s: float,
) -> ChaosRow:
    """Price one chaos grid point (process-pool worker)."""
    model = model_by_key("mixtral")
    system = duplex_system(model, co_processing=True)
    replicas = build_fleet(fleet_key)
    scenario = get_scenario(scenario_name).at_qps(qps)
    faults = FaultInjector(
        FaultConfig(
            crash_times=crash_trace(fleet_key),
            crash_mttr_s=MTTR_S,
            detection_latency_s=detect_s,
        )
    )
    sim = ClusterSimulator(
        system,
        model,
        scenario.source(seed=seed, max_requests=max_requests),
        replicas=replicas,
        max_batch=max_batch,
        seed=seed,
        faults=faults,
        retry=retry_policy(recovery_key),
    )
    report = sim.run(limits)
    merged = MetricsCollector.merged([h.metrics for h in sim.handles])
    fault_stats = report.fleet.faults
    lost = int(fault_stats.get("requests_lost", 0.0))
    t2ft_p99 = _p99_with_lost(merged.t2ft_samples, lost)
    attainment = merged.t2ft_slo_attainment(slo_t2ft_s)
    completed = report.fleet.requests_completed
    # Goodput normalizes SLO-met completions by the *offered-load window*
    # (arrival count over the mean rate), which is identical across
    # recovery keys — normalizing by each run's own makespan would credit
    # the no-retry fleet for finishing early after dropping requests.
    horizon_s = max_requests / qps
    goodput = attainment * completed / horizon_s if horizon_s > 0 else 0.0
    return ChaosRow(
        fleet=fleet_key,
        detect_s=detect_s,
        recovery=recovery_key,
        completed=completed,
        lost=lost,
        goodput_rps=goodput,
        t2ft_p99_s=t2ft_p99,
        retries=int(fault_stats.get("retries", 0.0)),
        migrate_recoveries=int(fault_stats.get("migrate_recoveries", 0.0)),
        crashes=int(fault_stats.get("crashes", 0.0)),
        lost_tokens=int(
            fault_stats.get("lost_generated_tokens", 0.0)
            + fault_stats.get("lost_prefill_tokens", 0.0)
        ),
        re_prefill_s=fault_stats.get("re_prefill_s", 0.0),
        unavailability_s=fault_stats.get("unavailability_s", 0.0),
    )


def run(
    fleets: tuple[str, ...] = DEFAULT_FLEETS,
    detection: tuple[float, ...] = DEFAULT_DETECTION,
    recovery: tuple[str, ...] = DEFAULT_RECOVERY,
    scenario: str = "heavy-tail-summarize",
    qps: float = 12.0,
    max_batch: int = 16,
    max_requests: int = 200,
    limits: SimulationLimits | None = None,
    seed: int = 0,
    slo_t2ft_s: float = 4.0,
    workers: int | None = 1,
) -> list[ChaosRow]:
    """Run the chaos sweep; rows in grid order (fleet-major).

    Args:
        fleets: fleet-shape grid keys (see
            :func:`repro.experiments.sharding.build_fleet`); every default
            shape spends the sharding sweep's device budget.
        detection: health-checker detection latencies to sweep.
        recovery: recovery grid keys (see :func:`retry_policy`).
        scenario: registered scenario name driving every point.
        qps: mean arrival rate the scenario is rescaled to.
        max_batch: per-replica batch-size request.
        max_requests: arrivals simulated per grid point.
        limits: per-replica stage budgets (default sized for the grid).
        seed: base RNG seed (workload and replica executors; the fault
            injector derives its own isolated stream from it).
        slo_t2ft_s: T2FT objective the goodput column scores against.
        workers: process-pool width (1 = in-process; None = per CPU).
    """
    limits = limits or SimulationLimits(max_stages=100_000, warmup_stages=0)
    model = model_by_key("mixtral")
    system = duplex_system(model, co_processing=True)
    for key in fleets:
        # Validate grid keys (and the equal-budget premise) before any
        # pool spins up.
        specs = build_fleet(key)
        spent = sum(replica_spec_devices(spec, system, model) for spec in specs)
        if spent != DEVICE_BUDGET:
            raise ConfigError(
                f"fleet '{key}' spends {spent} devices, not the {DEVICE_BUDGET}-device budget"
            )
    for key in recovery:
        retry_policy(key)
    get_scenario(scenario)
    param_sets = [
        dict(
            fleet_key=fleet,
            detect_s=detect_s,
            recovery_key=key,
            scenario_name=scenario,
            qps=qps,
            max_batch=max_batch,
            max_requests=max_requests,
            limits=limits,
            seed=seed,
            slo_t2ft_s=slo_t2ft_s,
        )
        for fleet in fleets
        for detect_s in detection
        for key in recovery
    ]
    return run_sweep(_chaos_point, param_sets, workers=workers)


def format_rows(rows: list[ChaosRow]) -> str:
    if not rows:
        raise ConfigError("no chaos rows to format")
    return format_table(
        headers=[
            "fleet", "detect(s)", "recovery", "done", "lost", "goodput(r/s)",
            "T2FT p99(s)", "retries", "adopted", "crashes", "lost tok",
            "re-prefill(s)", "outage(s)",
        ],
        rows=[
            [
                r.fleet, r.detect_s, r.recovery, r.completed, r.lost,
                r.goodput_rps, r.t2ft_p99_s, r.retries, r.migrate_recoveries,
                r.crashes, r.lost_tokens, r.re_prefill_s, r.unavailability_s,
            ]
            for r in rows
        ],
        title=(
            f"Chaos recovery — fixed crash schedule x detection latency x "
            f"retry policy at a fixed {DEVICE_BUDGET}-device budget (Mixtral)"
        ),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", nargs="?", type=Path, default=None,
                        help="write the rendered table here (default: stdout only)")
    parser.add_argument("--qps", type=float, default=12.0)
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool width (default: one per CPU)")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced grid: 1 fleet x 1 latency x 2 recoveries (CI canary)")
    args = parser.parse_args(argv)
    if args.smoke:
        rows = run(
            fleets=("2xMono",),
            detection=(1.0,),
            qps=args.qps,
            max_requests=80,
            limits=SimulationLimits(max_stages=40_000, warmup_stages=0),
            workers=args.workers if args.workers is not None else 1,
        )
    else:
        rows = run(qps=args.qps, workers=args.workers)
    text = format_rows(rows)
    print(text)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

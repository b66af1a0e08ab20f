"""Capacity planning: offered load x autoscaling policy x fleet bounds.

The paper's serving figures hold the device count fixed; a production
operator instead asks *how much capacity a traffic level needs under a
given scaling policy*.  This sweep answers that: each grid point drives a
registered workload scenario — rescaled to a target mean QPS — through an
:class:`~repro.serving.autoscaler.ElasticFleetSimulator` under one
autoscaling policy and a ``[min_replicas, max_replicas]`` fleet bound,
and reports the operator's three axes side by side:

* **quality** — fleet T2FT SLO attainment, plus median T2FT and p99 TBT;
* **cost** — provisioned replica-seconds (the cloud bill) and the mean /
  peak ACTIVE replica counts behind it;
* **energy** — joules per generated token from the existing per-stage
  energy accounting.

Policies are named (picklable) grid keys, not live objects, so the sweep
fans out over :func:`repro.experiments.sweep.run_sweep`'s process pool
exactly like Fig. 13.  ``run_all`` renders the default grid as the
``capacity_planning`` artefact; ``--smoke`` from the CLI runs a reduced
grid (the CI slow stage uses it as a regression canary).

Expected shape: ``static-min`` is cheapest and collapses first as QPS
grows; ``static-max`` holds attainment at the highest cost; the reactive
policies (``queue-depth``, ``slo-tracking``) and the predictive
``scheduled`` policy land between the two — near-max attainment at
well-under-max replica-seconds — which is the entire case for elastic
serving.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.report import format_table
from repro.core.system import duplex_system
from repro.errors import ConfigError
from repro.experiments.presets import model_by_key
from repro.experiments.sweep import run_sweep
from repro.serving.autoscaler import (
    AutoscalingPolicy,
    QueueDepthPolicy,
    ScheduledScalingPolicy,
    SloTrackingPolicy,
    StaticReplicaPolicy,
)
from repro.serving.metrics import MetricsCollector
from repro.serving.scenarios import Scenario, get_scenario
from repro.serving.simulator import SimulationLimits

#: Default policy grid, in rendering order.
DEFAULT_POLICIES = ("static-min", "static-max", "queue-depth", "slo-tracking", "scheduled")

#: Default offered-load grid (mean QPS the scenario is rescaled to):
#: one Mixtral Duplex replica at batch 8 saturates near 16 QPS of
#: 'bursty-chat', so the grid brackets the single-replica knee.
DEFAULT_QPS = (8.0, 16.0, 24.0)


@dataclass(frozen=True)
class CapacityRow:
    """One (scenario, policy, QPS, fleet-bound) capacity sweep point."""

    scenario: str
    policy: str
    qps: float
    min_replicas: int
    max_replicas: int
    t2ft_attainment: float
    t2ft_p50_s: float
    tbt_p99_s: float
    replica_seconds: float
    device_seconds: float
    energy_per_token_j: float
    requests_completed: int
    requests_shed: int
    peak_active: int
    mean_active: float


def build_policy(
    key: str,
    min_replicas: int,
    max_replicas: int,
    scenario: Scenario,
    slo_t2ft_s: float,
    qps_per_replica: float,
) -> tuple[AutoscalingPolicy, int]:
    """Build the named policy; returns (policy, initial fleet size).

    Names (not instances) cross the sweep's process boundary, so every
    worker rebuilds its policy here — policies are stateful (cooldowns)
    and must never be shared between grid points.
    """
    if key == "static-min":
        return StaticReplicaPolicy(min_replicas), min_replicas
    if key == "static-max":
        return StaticReplicaPolicy(max_replicas), max_replicas
    if key == "queue-depth":
        return (
            QueueDepthPolicy(scale_up_depth=4.0, scale_down_depth=0.5, cooldown_s=5.0),
            min_replicas,
        )
    if key == "slo-tracking":
        return (
            SloTrackingPolicy(t2ft_slo_s=slo_t2ft_s, cooldown_s=3.0, min_samples=8),
            min_replicas,
        )
    if key == "scheduled":
        return (
            ScheduledScalingPolicy.from_arrivals(
                scenario.arrivals, qps_per_replica=qps_per_replica, headroom=1.1
            ),
            min_replicas,
        )
    raise ConfigError(f"unknown capacity policy '{key}'; choose from {DEFAULT_POLICIES}")


def _capacity_point(
    scenario_name: str,
    policy_key: str,
    qps: float,
    min_replicas: int,
    max_replicas: int,
    max_requests: int,
    limits: SimulationLimits,
    seed: int,
    slo_t2ft_s: float,
    qps_per_replica: float,
    control_interval_s: float,
) -> CapacityRow:
    """Price one capacity grid point (process-pool worker)."""
    from repro.serving.autoscaler import ElasticFleetSimulator

    model = model_by_key("mixtral")
    system = duplex_system(model, co_processing=True, expert_tensor_parallel=True)
    scenario = get_scenario(scenario_name).at_qps(qps)
    policy, initial = build_policy(
        policy_key, min_replicas, max_replicas, scenario, slo_t2ft_s, qps_per_replica
    )
    sim = ElasticFleetSimulator(
        system,
        model,
        scenario.source(seed=seed, max_requests=max_requests),
        policy=policy,
        min_replicas=min_replicas,
        max_replicas=max_replicas,
        initial_replicas=initial,
        control_interval_s=control_interval_s,
        provision_delay_s=2.0,
        warmup_delay_s=2.0,
        warm_start_delay_s=0.5,
        max_batch=8,
        seed=seed,
        slo_window=32,
    )
    report = sim.run(limits)
    merged = MetricsCollector.merged([h.metrics for h in sim.handles])
    return CapacityRow(
        scenario=scenario_name,
        policy=policy_key,
        qps=qps,
        min_replicas=min_replicas,
        max_replicas=max_replicas,
        t2ft_attainment=merged.t2ft_slo_attainment(slo_t2ft_s),
        t2ft_p50_s=report.fleet.t2ft_p50_s,
        tbt_p99_s=report.fleet.tbt_p99_s,
        replica_seconds=report.replica_seconds,
        device_seconds=report.device_seconds,
        energy_per_token_j=report.fleet.energy_per_token_j,
        requests_completed=report.fleet.requests_completed,
        requests_shed=report.requests_rejected,
        peak_active=report.peak_active_replicas,
        mean_active=report.mean_active_replicas,
    )


def run(
    scenario: str = "bursty-chat",
    qps_values: tuple[float, ...] = DEFAULT_QPS,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    min_replicas: int = 1,
    max_replicas: int = 4,
    max_requests: int = 300,
    limits: SimulationLimits | None = None,
    seed: int = 0,
    slo_t2ft_s: float = 1.0,
    qps_per_replica: float = 8.0,
    control_interval_s: float = 1.0,
    workers: int | None = 1,
) -> list[CapacityRow]:
    """Run the capacity-planning sweep; rows in grid order.

    Args:
        scenario: registered scenario name (arrival shape + lengths).
        qps_values: mean arrival rates the scenario is rescaled to.
        policies: policy grid keys (see :func:`build_policy`).
        min_replicas / max_replicas: the fleet bound every policy works
            inside (``static-min`` / ``static-max`` pin its corners).
        max_requests: arrivals simulated per grid point.
        limits: per-replica stage budgets (default sized for the grid).
        seed: base RNG seed (workload and replica executors).
        slo_t2ft_s: the T2FT objective attainment is scored against (and
            the ``slo-tracking`` policy tracks).
        qps_per_replica: the ``scheduled`` policy's per-replica capacity
            estimate (an operator-calibrated constant).
        control_interval_s: controller tick cadence.
        workers: process-pool width (1 = in-process; None = per CPU).
    """
    limits = limits or SimulationLimits(max_stages=100_000, warmup_stages=0)
    for key in policies:
        # Validate grid keys before any pool spins up.
        build_policy(key, min_replicas, max_replicas, get_scenario(scenario), 1.0, 1.0)
    param_sets = [
        dict(
            scenario_name=scenario,
            policy_key=key,
            qps=qps,
            min_replicas=min_replicas,
            max_replicas=max_replicas,
            max_requests=max_requests,
            limits=limits,
            seed=seed,
            slo_t2ft_s=slo_t2ft_s,
            qps_per_replica=qps_per_replica,
            control_interval_s=control_interval_s,
        )
        for qps in qps_values
        for key in policies
    ]
    return run_sweep(_capacity_point, param_sets, workers=workers)


def format_rows(rows: list[CapacityRow]) -> str:
    if not rows:
        raise ConfigError("no capacity rows to format")
    scenario = rows[0].scenario
    bound = f"{rows[0].min_replicas}..{rows[0].max_replicas}"
    return format_table(
        headers=[
            "QPS", "policy", "SLO att", "T2FT p50(s)", "TBT p99(ms)",
            "replica-s", "device-s", "J/token", "peak", "mean", "shed",
        ],
        rows=[
            [
                r.qps, r.policy, r.t2ft_attainment, r.t2ft_p50_s, r.tbt_p99_s * 1e3,
                r.replica_seconds, r.device_seconds, r.energy_per_token_j, r.peak_active,
                r.mean_active, r.requests_shed,
            ]
            for r in rows
        ],
        title=(
            f"Capacity planning — '{scenario}' x autoscaling policy, fleet bound {bound}"
        ),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", nargs="?", type=Path, default=None,
                        help="write the rendered table here (default: stdout only)")
    parser.add_argument("--scenario", default="bursty-chat")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool width (default: one per CPU)")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced grid: 1 QPS x 3 policies, few requests (CI canary)")
    args = parser.parse_args(argv)
    if args.smoke:
        rows = run(
            scenario=args.scenario,
            qps_values=(16.0,),
            policies=("static-min", "static-max", "slo-tracking"),
            max_requests=60,
            limits=SimulationLimits(max_stages=40_000, warmup_stages=0),
            workers=args.workers if args.workers is not None else 1,
        )
    else:
        rows = run(scenario=args.scenario, workers=args.workers)
    text = format_rows(rows)
    print(text)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

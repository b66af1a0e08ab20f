#!/usr/bin/env python
"""Elastic serving: ride a diurnal load curve with an autoscaled fleet.

The ``diurnal-mixed`` scenario swings its arrival rate sinusoidally
between a nighttime trough and a daytime peak.  A fixed fleet must be
provisioned for the peak (wasting replicas all night) or for the trough
(missing SLOs all day); an elastic fleet tracks the curve.  This example
drives one day-cycle through the SLO-tracking policy and prints the
fleet time series — watch replicas provision (warm once the fleet has
served), serve, and drain back down
as the wave passes — then compares SLO attainment and replica-seconds
against the two fixed-fleet corner cases.

Run:
    python examples/autoscaling_diurnal.py
"""

import dataclasses

from repro import (
    ElasticFleetSimulator,
    SimulationLimits,
    SloTrackingPolicy,
    StaticReplicaPolicy,
    duplex_system,
    get_scenario,
    mixtral,
)
from repro.analysis.report import format_table
from repro.serving.metrics import MetricsCollector

DAY_S = 80.0              # one compressed day-cycle (simulation seconds)
MEAN_QPS = 18.0           # rescale the scenario's mean rate to this
T2FT_SLO_S = 1.0
MIN_REPLICAS, MAX_REPLICAS = 1, 4
REQUESTS = int(MEAN_QPS * DAY_S)  # about one full cycle of arrivals
LIMITS = SimulationLimits(max_stages=400_000, warmup_stages=0)


def day_cycle_scenario():
    """The library's diurnal scenario with its day compressed to DAY_S."""
    scenario = get_scenario("diurnal-mixed").at_qps(MEAN_QPS)
    return dataclasses.replace(
        scenario, arrivals=dataclasses.replace(scenario.arrivals, period_s=DAY_S)
    )


def run_fleet(policy, initial=None):
    model = mixtral()
    system = duplex_system(model, co_processing=True, expert_tensor_parallel=True)
    scenario = day_cycle_scenario()
    sim = ElasticFleetSimulator(
        system,
        model,
        scenario.source(seed=7, max_requests=REQUESTS),
        policy=policy,
        min_replicas=MIN_REPLICAS,
        max_replicas=MAX_REPLICAS,
        initial_replicas=initial,
        control_interval_s=1.0,
        provision_delay_s=2.0,
        warmup_delay_s=2.0,
        warm_start_delay_s=0.5,
        max_batch=8,
        seed=3,
        slo_window=32,
    )
    report = sim.run(LIMITS)
    merged = MetricsCollector.merged([h.metrics for h in sim.handles])
    return sim, report, merged


def main() -> None:
    sim, report, merged = run_fleet(
        SloTrackingPolicy(t2ft_slo_s=T2FT_SLO_S, cooldown_s=4.0, min_samples=8)
    )

    print("Replica lifecycle events (SLO-tracking policy):")
    for event in report.replica_events:
        print(f"  t={event.time_s:7.1f}s  replica {event.replica}  -> {event.state}")

    print("\nFleet time series (every 5th control tick):")
    print(f"  {'t(s)':>7} {'boot':>4} {'act':>4} {'drain':>5} {'ret':>4} {'queue':>5} {'util':>5}")
    for sample in report.fleet_samples[::5]:
        boot = sample.provisioning + sample.warming
        print(
            f"  {sample.time_s:7.1f} {boot:4d} {sample.active:4d} "
            f"{sample.draining:5d} {sample.retired:4d} {sample.queue_depth:5d} "
            f"{sample.utilization:5.2f}"
        )

    rows = [
        [
            "slo-tracking",
            merged.t2ft_slo_attainment(T2FT_SLO_S),
            report.replica_seconds,
            report.peak_active_replicas,
            report.mean_active_replicas,
            report.fleet.energy_per_token_j,
        ]
    ]
    for name, policy, initial in (
        (f"static-{MIN_REPLICAS}", StaticReplicaPolicy(MIN_REPLICAS), MIN_REPLICAS),
        (f"static-{MAX_REPLICAS}", StaticReplicaPolicy(MAX_REPLICAS), MAX_REPLICAS),
    ):
        _, fixed_report, fixed_merged = run_fleet(policy, initial=initial)
        rows.append(
            [
                name,
                fixed_merged.t2ft_slo_attainment(T2FT_SLO_S),
                fixed_report.replica_seconds,
                fixed_report.peak_active_replicas,
                fixed_report.mean_active_replicas,
                fixed_report.fleet.energy_per_token_j,
            ]
        )
    print()
    print(
        format_table(
            headers=["policy", "SLO att", "replica-s", "peak", "mean", "J/token"],
            rows=rows,
            title=(
                f"One diurnal cycle at mean {MEAN_QPS:.0f} QPS — "
                f"autoscaling vs fixed fleets (T2FT SLO {T2FT_SLO_S:.1f}s)"
            ),
        )
    )


if __name__ == "__main__":
    main()

"""Sharded fleets: TP x EP degree x fleet size at a fixed device budget.

The paper's serving figures size one replica per system; a fleet operator
with a fixed device budget instead chooses *how to cut the budget into
replicas*: many small tensor-parallel replicas (more independent queues,
slower prefill each), or one wide TP x EP replica (fastest prefill, a
single queue, all-to-all dispatch on every MoE layer).  This sweep prices
that trade-off: every grid point spends the same device budget on a
different fleet shape — monolithic paper-sized replicas next to
:class:`~repro.serving.cluster.ShardedReplicaSpec` fleets — and drives the
same workload scenario through a fixed-fleet
:class:`~repro.serving.cluster.ClusterSimulator`, reporting:

* **goodput** — completed requests per second that met the T2FT SLO;
* **tails** — P99 T2FT (merged fleet samples) and P99 TBT;
* **energy** — joules per generated token;
* **communication** — estimated all-to-all seconds spent on MoE
  dispatch/combine over the run (analytic, from each replica's placement).

Fleet shapes are named (picklable) grid keys, not live spec lists, so the
sweep fans out over :func:`repro.experiments.sweep.run_sweep`'s process
pool exactly like the capacity sweep.  ``run_all`` renders the default
grid as the ``sharded_fleet`` artefact; ``--smoke`` runs a reduced grid
(the CI slow stage uses it as a regression canary).

Expected shape: on short-prompt chat traffic the many-replica fleets win —
independent queues absorb bursts and the all-to-all group is small.  On
long-prompt heavy-tail traffic the wide fleets win P99 T2FT: prefill time
scales down with TP degree, and one 8-way replica prefills a 16k-token
summarisation prompt far faster than a 2-way replica ever can, which is
exactly the Section III layout argument for sharding wide.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.analysis.report import format_table
from repro.core.system import duplex_system
from repro.errors import ConfigError
from repro.experiments.presets import model_by_key
from repro.experiments.sweep import run_sweep
from repro.parallel.collectives import CollectiveModel
from repro.serving.cluster import (
    ClusterSimulator,
    MonolithicReplicaSpec,
    ReplicaSpec,
    ShardedReplicaSpec,
    replica_spec_devices,
)
from repro.serving.metrics import MetricsCollector
from repro.serving.scenarios import get_scenario
from repro.serving.simulator import SimulationLimits

#: Every default fleet shape spends exactly this many devices (Mixtral's
#: paper sizing is one node of four, so two monolithic replicas fit).
DEVICE_BUDGET = 8

#: Default fleet grid, in rendering order: replica count descending, so
#: the table reads narrow-and-many down to wide-and-few.
DEFAULT_FLEETS = ("4xTP2", "2xMono", "2xTP4", "1xTP4xEP2", "1xTP8")

#: Default workload grid: short-prompt chat bursts vs long-prompt
#: summarisation heavy tails (the two ends of the prefill-cost spectrum).
DEFAULT_SCENARIOS = ("bursty-chat", "heavy-tail-summarize")


@dataclass(frozen=True)
class ShardingRow:
    """One (fleet shape, scenario) sweep point at the fixed device budget."""

    fleet: str
    scenario: str
    qps: float
    n_replicas: int
    devices: int
    goodput_rps: float
    t2ft_attainment: float
    t2ft_p99_s: float
    tbt_p99_s: float
    energy_per_token_j: float
    all_to_all_s: float
    requests_completed: int


def build_fleet(key: str) -> list[ReplicaSpec]:
    """Build the named fleet's replica specs (every shape spends
    :data:`DEVICE_BUDGET` devices on Mixtral).

    Names (not spec lists) cross the sweep's process boundary; typos fail
    here before any pool spins up.
    """
    if key == "2xMono":
        # Two paper-sized monolithic replicas (4 devices each for Mixtral).
        return [MonolithicReplicaSpec(), MonolithicReplicaSpec()]
    if key == "4xTP2":
        return [ShardedReplicaSpec(tp=2, ep=1) for _ in range(4)]
    if key == "2xTP4":
        return [ShardedReplicaSpec(tp=4, ep=1) for _ in range(2)]
    if key == "1xTP4xEP2":
        return [ShardedReplicaSpec(tp=4, ep=2)]
    if key == "1xTP8":
        return [ShardedReplicaSpec(tp=8, ep=1)]
    raise ConfigError(f"unknown fleet shape '{key}'; choose from {DEFAULT_FLEETS}")


def _fleet_all_to_all_seconds(sim: ClusterSimulator, fleet_tokens: int) -> float:
    """Estimated MoE all-to-all seconds the fleet spent over the run.

    Analytic, not traced: per replica, the dispatch+combine time of one
    decode stage at its effective batch (priced through the replica's own
    :class:`~repro.parallel.collectives.CollectiveModel`) is amortised to
    a per-generated-token cost, then charged for the replica's share of
    the fleet's generated tokens.  Replicas whose placement routes experts
    without all-to-all (single device, or local-expert layouts) charge
    nothing.
    """
    per_token_costs = []
    for handle in sim.handles:
        if handle.kind == "split":  # split replicas price communication internally
            continue
        engine = handle.engines[0]
        system, model = engine.executor.system, engine.executor.model
        placement = system.placement(model)
        if not placement.moe_uses_all_to_all:
            per_token_costs.append(0.0)
            continue
        group, crosses = placement.moe_all_to_all_group
        batch = engine.metrics.effective_batch
        local_tokens = max(1, math.ceil(batch * placement.node_batch_fraction))
        moe_bytes = local_tokens * model.top_k * model.hidden * model.dtype_bytes
        collectives = CollectiveModel(system.topology)
        stage_s = (
            2.0
            * collectives.all_to_all_time(moe_bytes, group, crosses_nodes=crosses)
            * model.n_moe_layers
        )
        per_token_costs.append(stage_s / batch)
    if not per_token_costs:
        return 0.0
    return fleet_tokens * float(np.mean(per_token_costs))


def _sharding_point(
    fleet_key: str,
    scenario_name: str,
    qps: float,
    max_batch: int,
    max_requests: int,
    limits: SimulationLimits,
    seed: int,
    slo_t2ft_s: float,
) -> ShardingRow:
    """Price one fleet-shape grid point (process-pool worker)."""
    model = model_by_key("mixtral")
    system = duplex_system(model, co_processing=True)
    replicas = build_fleet(fleet_key)
    scenario = get_scenario(scenario_name).at_qps(qps)
    sim = ClusterSimulator(
        system,
        model,
        scenario.source(seed=seed, max_requests=max_requests),
        replicas=replicas,
        max_batch=max_batch,
        seed=seed,
    )
    report = sim.run(limits)
    merged = MetricsCollector.merged([h.metrics for h in sim.handles])
    samples = list(merged.t2ft_samples)
    t2ft_p99 = float(np.percentile(samples, 99)) if samples else 0.0
    attainment = merged.t2ft_slo_attainment(slo_t2ft_s)
    elapsed = report.fleet.elapsed_s
    goodput = attainment * report.fleet.requests_completed / elapsed if elapsed > 0 else 0.0
    return ShardingRow(
        fleet=fleet_key,
        scenario=scenario_name,
        qps=qps,
        n_replicas=len(replicas),
        devices=sum(replica_spec_devices(spec, system, model) for spec in replicas),
        goodput_rps=goodput,
        t2ft_attainment=attainment,
        t2ft_p99_s=t2ft_p99,
        tbt_p99_s=report.fleet.tbt_p99_s,
        energy_per_token_j=report.fleet.energy_per_token_j,
        all_to_all_s=_fleet_all_to_all_seconds(sim, report.fleet.tokens_generated),
        requests_completed=report.fleet.requests_completed,
    )


def run(
    fleets: tuple[str, ...] = DEFAULT_FLEETS,
    scenarios: tuple[str, ...] = DEFAULT_SCENARIOS,
    qps: float = 12.0,
    max_batch: int = 16,
    max_requests: int = 200,
    limits: SimulationLimits | None = None,
    seed: int = 0,
    slo_t2ft_s: float = 2.0,
    workers: int | None = 1,
) -> list[ShardingRow]:
    """Run the sharded-fleet sweep; rows in grid order (scenario-major).

    Args:
        fleets: fleet-shape grid keys (see :func:`build_fleet`); every
            default shape spends :data:`DEVICE_BUDGET` devices.
        scenarios: registered scenario names to drive each fleet through.
        qps: mean arrival rate every scenario is rescaled to.
        max_batch: per-replica batch-size request (KV-capacity capped —
            wide replicas cap higher than narrow ones, which is part of
            the trade being priced).
        max_requests: arrivals simulated per grid point.
        limits: per-replica stage budgets (default sized for the grid).
        seed: base RNG seed (workload and replica executors).
        slo_t2ft_s: T2FT objective the goodput/attainment columns score
            against (long-prompt scenarios need a looser SLO than chat).
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
    for name in scenarios:
        get_scenario(name)
    param_sets = [
        dict(
            fleet_key=key,
            scenario_name=name,
            qps=qps,
            max_batch=max_batch,
            max_requests=max_requests,
            limits=limits,
            seed=seed,
            slo_t2ft_s=slo_t2ft_s,
        )
        for name in scenarios
        for key in fleets
    ]
    return run_sweep(_sharding_point, param_sets, workers=workers)


def format_rows(rows: list[ShardingRow]) -> str:
    if not rows:
        raise ConfigError("no sharding rows to format")
    budget = rows[0].devices
    return format_table(
        headers=[
            "scenario", "fleet", "reps", "devs", "goodput(r/s)", "SLO att",
            "T2FT p99(s)", "TBT p99(ms)", "J/token", "a2a(s)", "done",
        ],
        rows=[
            [
                r.scenario, r.fleet, r.n_replicas, r.devices, r.goodput_rps,
                r.t2ft_attainment, r.t2ft_p99_s, r.tbt_p99_s * 1e3,
                r.energy_per_token_j, r.all_to_all_s, r.requests_completed,
            ]
            for r in rows
        ],
        title=(
            f"Sharded fleets — TP x EP shape x workload at a fixed "
            f"{budget}-device budget (Mixtral)"
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
                        help="reduced grid: 3 fleets x 1 scenario, few requests (CI canary)")
    args = parser.parse_args(argv)
    if args.smoke:
        rows = run(
            fleets=("2xMono", "2xTP4", "1xTP8"),
            scenarios=("bursty-chat",),
            qps=args.qps,
            max_requests=60,
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

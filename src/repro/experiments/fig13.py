"""Fig. 13: latency under Poisson load (queries per second).

Mixtral at (Lin, Lout) = (4096, 512), max batch 128, QPS swept 4-16.
Expected shape: Duplex's median TBT beats 2xGPU at every load (decode
stages are bandwidth-bound); at high QPS the 2xGPU system wins the tail
(it has twice the compute for the now-frequent mixed stages); the GPU
saturates first — beyond its capacity the queue grows without bound and
T2FT explodes — while Duplex sustains roughly the 2xGPU arrival rate.

The 21-point grid can fan out over a process pool (``workers``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.core.system import SystemConfig, duplex_system, gpu_system
from repro.experiments.presets import model_by_key
from repro.experiments.sweep import run_sweep
from repro.serving.generator import WorkloadSpec
from repro.serving.scenarios import get_scenario
from repro.serving.simulator import ServingSimulator, SimulationLimits


@dataclass(frozen=True)
class QpsRow:
    """Latency metrics of one system at one arrival rate."""

    system: str
    qps: float
    tbt_p50: float
    tbt_p90: float
    tbt_p99: float
    t2ft_p50: float
    e2e_p50: float
    throughput: float


def default_systems() -> dict[str, SystemConfig]:
    model = model_by_key("mixtral")
    return {
        "GPU": gpu_system(model),
        "2xGPU": gpu_system(model, doubled=True),
        "Duplex": duplex_system(model, co_processing=True, expert_tensor_parallel=True),
    }


def _qps_point(
    system_key: str,
    qps: float,
    lin: int,
    lout: int,
    max_batch: int,
    limits: SimulationLimits,
    seed: int,
    scenario: str | None = None,
) -> QpsRow:
    """Price one (system, QPS) grid point (process-pool worker).

    With ``scenario`` set, the registered scenario — rescaled so its mean
    arrival rate hits ``qps`` — replaces the Gaussian-Poisson spec (its
    own length distributions then override ``lin``/``lout``).
    """
    model = model_by_key("mixtral")
    system = default_systems()[system_key]
    if scenario is not None:
        workload: WorkloadSpec | object = get_scenario(scenario).at_qps(qps).source(seed=seed)
    else:
        workload = WorkloadSpec(lin_mean=lin, lout_mean=lout, qps=qps)
    sim = ServingSimulator(system, model, workload, max_batch=max_batch, seed=seed)
    report = sim.run(limits)
    return QpsRow(
        system_key, qps,
        report.tbt_p50_s, report.tbt_p90_s, report.tbt_p99_s,
        report.t2ft_p50_s, report.e2e_p50_s, report.throughput_tokens_per_s,
    )


def run(
    qps_values: tuple[float, ...] = (4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0),
    lin: int = 4096,
    lout: int = 512,
    max_batch: int = 128,
    limits: SimulationLimits | None = None,
    seed: int = 0,
    workers: int | None = 1,
    scenario: str | None = None,
) -> list[QpsRow]:
    """Regenerate the Fig. 13 QPS sweep.

    Args:
        workers: process-pool width; 1 (default) runs in-process,
            None uses one worker per CPU.
        scenario: registered scenario name (see
            :mod:`repro.serving.scenarios`) to sweep instead of the
            Gaussian-Poisson spec; each grid point rescales its arrival
            process to the point's QPS.
    """
    limits = limits or SimulationLimits(max_stages=1500, warmup_stages=150)
    param_sets = [
        dict(
            system_key=name, qps=qps, lin=lin, lout=lout,
            max_batch=max_batch, limits=limits, seed=seed, scenario=scenario,
        )
        for name in default_systems()
        for qps in qps_values
    ]
    return run_sweep(_qps_point, param_sets, workers=workers)


def saturation_qps(rows: list[QpsRow], system: str, blowup_factor: float = 10.0) -> float:
    """Smallest swept QPS at which ``system``'s T2FT has blown up.

    Returns infinity if it never blows up within the sweep (compared to the
    system's own T2FT at the lightest load).
    """
    mine = sorted((r for r in rows if r.system == system), key=lambda r: r.qps)
    assert mine, f"no rows for {system}"
    baseline = mine[0].t2ft_p50
    for row in mine:
        if baseline > 0 and row.t2ft_p50 > blowup_factor * baseline:
            return row.qps
    return float("inf")


def format_rows(rows: list[QpsRow], scenario: str | None = None) -> str:
    # A scenario's own length distributions replace the (Lin, Lout)
    # spec; naming the paper's lengths here would misattribute rows.
    subtitle = "Lin 4096, Lout 512" if scenario is None else f"scenario '{scenario}'"
    return format_table(
        headers=["system", "QPS", "TBT p50(ms)", "TBT p90(ms)", "TBT p99(ms)",
                 "T2FT p50(s)", "E2E p50(s)", "tokens/s"],
        rows=[
            [r.system, r.qps, r.tbt_p50 * 1e3, r.tbt_p90 * 1e3, r.tbt_p99 * 1e3,
             r.t2ft_p50, r.e2e_p50, r.throughput]
            for r in rows
        ],
        title=f"Fig. 13 — Mixtral latency vs queries per second ({subtitle})",
    )

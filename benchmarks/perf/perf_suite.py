"""Perf-regression microbenchmarks for the stage-pricing fast path.

The serving stack's wall-clock budget is dominated by stage pricing —
thousands of continuous-batching stages per simulation, multiplied by
replicas x sweep points — so this suite times the pricing hot paths
directly and records the repo's perf trajectory in a repo-root
``BENCH_PERF.json``:

* ``pure_decode`` — exact-mode stages/second through
  :class:`~repro.core.executor.StageExecutor` (Mixtral Duplex+PE+ET), the
  per-stage pricing floor the engine fast path amortizes away;
* ``mixed`` / ``moe_heavy`` — end-to-end engine stages/second on a
  closed-loop long-decode serving run through the columnar steady-run
  fast path (Mixtral Duplex+PE+ET for ``mixed``, whose cycles interleave
  admission/prefill stages with vectorized decode runs; GLaM's 64
  experts make ``moe_heavy`` the MoE-dispatch stress test);
* ``engine_grid`` — geometric-mean stages/second over the smoke cells of
  the parameter-grid harness (``grid.py``: batch size x telemetry cadence
  x fleet size);
* ``autoscaled_cluster`` — end-to-end stages/second of an elastic fleet
  under the queue-depth policy (the control-plane hot path: routing,
  control ticks, lifecycle, cadence telemetry, engine stepping);
* ``paged_serving`` — end-to-end stages/second of one engine serving the
  long-context scenario beyond its KV capacity under MIGRATE paging (the
  preemption hot path: victim selection, evict/resume accounting, the
  resume feed, host-link pricing);
* ``chaos_recovery`` — end-to-end stages/second of a fleet carrying an
  armed-but-quiescent fault injector (beyond-horizon crash trace, empty
  stage-time profiles): the overhead fault support adds to the
  fault-free hot path, which must stay negligible;
* ``prefix_reuse`` — end-to-end stages/second of one engine serving the
  agent-loop session scenario with shared-prefix KV dedup on (the
  cache-hit admission hot path: radix acquire/commit/release per
  request, suffix-only reservation, counterfactual saved-prefill
  pricing);
* ``fig13_sweep`` — end-to-end Fig. 13 sweep wall-clock on a reduced
  grid, single worker.

Because CI hardware varies, every result also carries a *normalized*
value: the raw metric divided by a fixed-work calibration score measured
in the same process.  ``compare.py`` gates regressions on the normalized
values, so a slower runner does not read as a code regression.

Run ``python benchmarks/perf/run_perf.py`` to produce ``BENCH_PERF.json``
and ``python benchmarks/perf/compare.py`` to diff two such files.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.core.executor import StageExecutor, StageWorkload
from repro.core.system import duplex_system
from repro.experiments import fig13
from repro.models.config import glam, mixtral
from repro.serving.autoscaler import ElasticFleetSimulator, QueueDepthPolicy
from repro.serving.generator import WorkloadSpec
from repro.serving.simulator import ServingSimulator, SimulationLimits

SCHEMA_VERSION = 1

#: Reduced Fig. 13 grid: 3 systems x 3 QPS points, single worker.
FIG13_QPS = (6.0, 10.0, 14.0)
FIG13_LIMITS = dict(max_stages=400, warmup_stages=40)


def calibration_score(loops: int = 40) -> float:
    """Fixed-work calibration (iterations/second) for normalization.

    A deterministic mix of small-array numpy work and Python arithmetic —
    the same kind of work the pricing hot paths do — so normalized
    benchmark values transfer across hosts of different speeds.
    """
    counts = np.arange(1, 65, dtype=np.int64)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        sink = 0.0
        for _ in range(loops):
            floats = counts.astype(np.float64)
            values = 2.0 * floats * 1.25e9 + floats * 14336.0
            total = float(values.cumsum()[-1])
            for value in values.tolist():
                sink += value / 1.0e12
            order = np.argsort(counts, kind="stable")
            sink += float(values[order].sum()) + total * 1e-30
        best = min(best, time.perf_counter() - start)
    if sink == float("inf"):  # pragma: no cover - keeps `sink` live
        raise RuntimeError
    return loops / best


def _best_rate(run: Callable[[], int], repeats: int) -> float:
    """Highest observed rate (units/second) over ``repeats`` timings."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        units = run()
        elapsed = time.perf_counter() - start
        best = max(best, units / elapsed)
    return best


def _best_wall(run: Callable[[], object], repeats: int) -> float:
    """Lowest observed wall-clock seconds over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# microbenchmarks
# ----------------------------------------------------------------------
def bench_pure_decode(iterations: int, repeats: int) -> float:
    model = mixtral()
    executor = StageExecutor(
        duplex_system(model, co_processing=True, expert_tensor_parallel=True), model
    )
    contexts = np.random.default_rng(0).integers(100, 4000, size=64)
    workload = StageWorkload(decode_context_lengths=contexts)
    executor.run_stage(workload)  # warm the operator caches

    def run() -> int:
        for _ in range(iterations):
            executor.run_stage(workload)
        return iterations

    return _best_rate(run, repeats)


def _engine_hot_loop_rate(model_factory, stages: int, repeats: int) -> float:
    """End-to-end engine stages/second on a closed-loop long-decode run.

    The workload that the columnar steady-run fast path exists for: a
    warm-started closed loop whose cycles are one admission/prefill stage
    followed by hundreds of pure-decode stages committed as vectorized
    runs.  Simulators are single-shot, so each repeat rebuilds one (and
    only times :meth:`run`, like the executor benches only time pricing).
    """
    model = model_factory()
    system = duplex_system(model, co_processing=True, expert_tensor_parallel=True)
    spec = WorkloadSpec(lin_mean=512, lout_mean=4096, lin_cv=0.3, lout_cv=0.3)
    limits = SimulationLimits(max_stages=stages, warmup_stages=16)
    best = 0.0
    for _ in range(repeats):
        sim = ServingSimulator(system, model, spec, max_batch=8, seed=0)
        start = time.perf_counter()
        sim.run(limits)
        elapsed = time.perf_counter() - start
        best = max(best, sim.engine.stages / elapsed)
    return best


def bench_mixed(stages: int, repeats: int) -> float:
    return _engine_hot_loop_rate(mixtral, stages, repeats)


def bench_moe_heavy(stages: int, repeats: int) -> float:
    # GLaM's 64 experts: expert dispatch dominates every decode stage.
    return _engine_hot_loop_rate(glam, stages, repeats)


def bench_autoscaled_cluster(requests: int, repeats: int) -> float:
    """Stages/second through an elastic fleet end to end.

    Exercises the control-plane hot path — per-arrival routing over
    ACTIVE views, fixed-cadence control ticks (lifecycle + policy +
    fleet telemetry), and sliced drain — together with the replicas'
    stage pricing.  Each repeat rebuilds the fleet so every run does
    identical work.
    """
    model = mixtral()
    system = duplex_system(model, co_processing=True, expert_tensor_parallel=True)
    workload = WorkloadSpec(lin_mean=512, lout_mean=48, lin_cv=0.3, lout_cv=0.3, qps=40.0)
    limits = SimulationLimits(max_stages=100_000, warmup_stages=0)

    def run() -> int:
        sim = ElasticFleetSimulator(
            system,
            model,
            workload,
            policy=QueueDepthPolicy(scale_up_depth=2.0, scale_down_depth=0.25, cooldown_s=1.0),
            min_replicas=1,
            max_replicas=4,
            control_interval_s=0.5,
            provision_delay_s=0.5,
            warmup_delay_s=0.5,
            warm_start_delay_s=0.1,
            max_batch=8,
            seed=0,
            max_requests=requests,
        )
        sim.run(limits)
        return sum(engine.stages for engine in sim.engines)

    return _best_rate(run, repeats)


def bench_sharded_fleet(requests: int, repeats: int) -> float:
    """Stages/second through a heterogeneous sharded fleet end to end.

    Exercises the TP x EP replica path — per-spec system construction,
    shared-expert-free all-to-all pricing over multi-node topologies, and
    device-budget accounting — behind the cluster router.  The fleet
    mixes a wide single replica with two narrow ones, so routing sees
    genuinely unequal replicas.  Each repeat rebuilds the fleet so every
    run does identical work.
    """
    from repro.serving.cluster import ClusterSimulator, ShardedReplicaSpec

    model = mixtral()
    system = duplex_system(model, co_processing=True)
    workload = WorkloadSpec(lin_mean=512, lout_mean=48, lin_cv=0.3, lout_cv=0.3, qps=40.0)
    limits = SimulationLimits(max_stages=100_000, warmup_stages=0)

    def run() -> int:
        sim = ClusterSimulator(
            system,
            model,
            workload,
            replicas=[
                ShardedReplicaSpec(tp=4, ep=2),
                ShardedReplicaSpec(tp=2, ep=1),
                ShardedReplicaSpec(tp=2, ep=1),
            ],
            max_batch=8,
            seed=0,
            max_requests=requests,
        )
        sim.run(limits)
        return sum(engine.stages for engine in sim.engines)

    return _best_rate(run, repeats)


def bench_paged_serving(requests: int, repeats: int) -> float:
    """Stages/second through a KV-paged engine end to end.

    The long-context scenario holds more resident KV than the device
    fits, so every run exercises the live-preemption machinery — policy
    victim ordering, manager evict/resume accounting, the resume
    TransferFeed, and host-link pricing — on top of regular stage
    pricing.  Each repeat rebuilds the simulator so every run does
    identical work.
    """
    from repro.serving.paging import PagingConfig
    from repro.serving.policy import SloAwarePolicy
    from repro.serving.scenarios import long_context
    from repro.serving.simulator import ServingSimulator

    model = mixtral()
    system = duplex_system(model, co_processing=True, expert_tensor_parallel=True)
    scenario = long_context().at_qps(4.0)
    limits = SimulationLimits(max_stages=1_000_000, warmup_stages=0)

    def run() -> int:
        sim = ServingSimulator(
            system,
            model,
            scenario.source(seed=0, max_requests=requests),
            max_batch=96,
            seed=0,
            policy=SloAwarePolicy(t2ft_slo_s=10.0, shed_expired=True),
            paging=PagingConfig(),
        )
        sim.run(limits)
        # Pressure only builds once ~70 concurrent residents accumulate,
        # so only the full-scale configuration asserts real evictions.
        if requests >= 80:
            assert sim.paging.manager.stats.evictions > 0
        return sim.engine.stages

    return _best_rate(run, repeats)


def bench_prefix_reuse(requests: int, repeats: int) -> float:
    """Stages/second through a prefix-deduped engine end to end.

    The agent-loop session scenario resubmits one long context every
    iteration, so every admission exercises the radix-index hot path —
    acquire/hit accounting, suffix-only reservation, commit on prefill
    completion, release on finish, and the counterfactual saved-prefill
    pricing (cached per distinct hit size).  Each repeat rebuilds the
    simulator so every run does identical work.
    """
    from repro.serving.paging import PrefixConfig
    from repro.serving.scenarios import agent_loop
    from repro.serving.simulator import ServingSimulator

    model = mixtral()
    system = duplex_system(model, co_processing=True, expert_tensor_parallel=True)
    scenario = agent_loop()
    limits = SimulationLimits(max_stages=1_000_000, warmup_stages=0)

    def run() -> int:
        sim = ServingSimulator(
            system,
            model,
            scenario.source(seed=0, max_requests=requests),
            max_batch=64,
            seed=0,
            prefix=PrefixConfig(capacity_tokens=64 * 1024),
        )
        report = sim.run(limits)
        assert report.prefix.get("hit_tokens", 0.0) > 0
        return sim.engine.stages

    return _best_rate(run, repeats)


def bench_chaos_recovery(requests: int, repeats: int) -> float:
    """Stages/second through a fault-armed fleet that never fires.

    The fault machinery must be free when quiescent: every stage pays
    the armed-injector checks (crash capping, detect-event polling, the
    attached — but empty — stage-time profile) while the beyond-horizon
    crash trace guarantees no fault ever fires, so the measurement
    isolates exactly the overhead fault support adds to the fault-free
    hot path.  Each repeat rebuilds the fleet so every run does identical
    work.
    """
    from repro.serving.cluster import ClusterSimulator
    from repro.serving.faults import FaultConfig, FaultInjector, RetryPolicy, StageTimeProfile

    model = mixtral()
    system = duplex_system(model, co_processing=True, expert_tensor_parallel=True)
    workload = WorkloadSpec(lin_mean=512, lout_mean=48, lin_cv=0.3, lout_cv=0.3, qps=40.0)
    limits = SimulationLimits(max_stages=100_000, warmup_stages=0)

    def run() -> int:
        sim = ClusterSimulator(
            system,
            model,
            workload,
            n_replicas=2,
            max_batch=8,
            seed=0,
            max_requests=requests,
            faults=FaultInjector(FaultConfig(crash_times=((1e9, 0),), crash_mttr_s=1.0)),
            retry=RetryPolicy(),
        )
        for handle in sim.handles:
            for engine in handle.engines:
                engine.fault_profile = StageTimeProfile(())
        sim.run(limits)
        return sum(engine.stages for engine in sim.engines)

    return _best_rate(run, repeats)


def bench_engine_grid(requests: int, repeats: int) -> float:
    """Geometric-mean stages/second over the grid harness's smoke cells.

    One scalar summary of the batch x cadence x fleet-size sweep (see
    ``grid.py``), so the regression gate covers the whole
    columnar-engine parameter surface with a single BENCH_PERF key; the
    per-cell breakdown ships as the ``engine_grid.json`` CI artifact.
    """
    from grid import run_grid, smoke_grid

    best = 0.0
    for _ in range(repeats):
        cells = run_grid(smoke_grid(), requests=requests)
        rates = [cell["stages_per_s"] for cell in cells]
        best = max(best, float(np.exp(np.mean(np.log(rates)))))
    return best


def bench_fig13_sweep(repeats: int) -> float:
    limits = SimulationLimits(**FIG13_LIMITS)

    def run() -> None:
        fig13.run(qps_values=FIG13_QPS, limits=limits, workers=1)

    run()  # warm imports and caches outside the timed window
    return _best_wall(run, repeats)


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------
def run_suite(scale: float = 1.0, repeats: int = 3) -> dict:
    """Run every benchmark and return the ``BENCH_PERF.json`` payload.

    Args:
        scale: iteration-count multiplier (the pytest smoke run uses a
            small fraction; 1.0 is the committed-baseline configuration).
        repeats: timing repetitions per benchmark (best-of).
    """
    calibration = calibration_score()
    iters = lambda n: max(1, int(n * scale))  # noqa: E731

    results: dict[str, dict] = {}

    def record(name: str, value: float, unit: str, lower_is_better: bool = False) -> None:
        normalized = (value * calibration) if lower_is_better else (value / calibration)
        results[name] = {
            "value": value,
            "normalized": normalized,
            "unit": unit,
            "lower_is_better": lower_is_better,
        }

    record("pure_decode", bench_pure_decode(iters(3000), repeats), "stages/s")
    record("mixed", bench_mixed(iters(12000), repeats), "stages/s")
    record("moe_heavy", bench_moe_heavy(iters(6000), repeats), "stages/s")
    record("engine_grid", bench_engine_grid(iters(160), repeats), "stages/s")
    record("autoscaled_cluster", bench_autoscaled_cluster(iters(400), repeats), "stages/s")
    record("sharded_fleet", bench_sharded_fleet(iters(400), repeats), "stages/s")
    record("paged_serving", bench_paged_serving(iters(80), repeats), "stages/s")
    record("chaos_recovery", bench_chaos_recovery(iters(400), repeats), "stages/s")
    record("prefix_reuse", bench_prefix_reuse(iters(200), repeats), "stages/s")
    if scale >= 0.99:
        record("fig13_sweep", bench_fig13_sweep(repeats), "s", lower_is_better=True)

    return {
        "schema": SCHEMA_VERSION,
        "calibration_ops_per_s": calibration,
        "benchmarks": results,
    }

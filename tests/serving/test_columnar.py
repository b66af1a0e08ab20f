"""Columnar engine core: unit tests and the columnar↔scalar oracle suite.

Four layers (tier 1 — see TESTING.md):

* unit tests for the :class:`EventClock` (lazy cancellation, fire
  ordering);
* the property suite pinning the tentpole exactness claim: a full run
  with the columnar steady-run fast path enabled reproduces the scalar
  per-stage oracle (``columnar=False``) trajectory *exactly* — same
  finished ids in the same order, same completion/shed/admission
  ledgers, same virtual clocks, and an identical ``ServingReport`` —
  across all 8 invariant-suite configurations, plus both paging
  policies under heavy preemption.  Exact equality is deliberately
  stronger than a float tolerance: the fast path is built from
  bit-stable primitives, so any drift is a bug;
* the steady state the scheduler carries across finished prefills,
  completions and runs, audited against the object layer on the same
  configurations (both oracle arms share the scheduler, so the oracle
  alone cannot see a wrong carried context), regression tests that no
  run is priced unless it commits, and checks that runs are as long as
  the batch allows (the oracle cannot see a cap that is too small) and,
  on an open loop, continue past in-batch completions;
* held runs and full-batch runs: a run sliced by the driving loop's
  horizons is priced once and equals the scalar twin after every slice,
  a held run resumed in a split pipeline that has filled ends at its
  next completion, a full batch runs over a growing queue and leaves it
  where the scalar loop does, and a fleet-level oracle (an elastic, a
  crash-and-retry and a split fleet) requires the scalar fleet's report
  and trajectories.

Split decode engines take steady runs too, so every configuration with a
split pipeline must commit at least one: an oracle arm that never leaves
the scalar loop would pass vacuously.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from repro.core.executor import StageExecutor  # noqa: E402
from repro.core.system import duplex_system  # noqa: E402
from repro.errors import ConfigError  # noqa: E402
from repro.models.config import mixtral  # noqa: E402
from repro.serving.autoscaler import ElasticFleetSimulator, QueueDepthPolicy  # noqa: E402
from repro.serving.cluster import (  # noqa: E402
    ClusterSimulator,
    MonolithicReplicaSpec,
    SplitReplicaSpec,
)
from repro.serving.columnar import EventClock  # noqa: E402
from repro.serving.engine import _RUN_CAP, ServingEngine, SimulationLimits  # noqa: E402
from repro.serving.faults import FaultConfig, FaultInjector, RetryPolicy  # noqa: E402
from repro.serving.generator import QueueSource, WorkloadSpec  # noqa: E402
from repro.serving.paging import EvictionPolicy, PagingConfig  # noqa: E402
from repro.serving.policy import (  # noqa: E402
    ChunkedPrefillPolicy,
    FcfsPolicy,
    SloAwarePolicy,
)
from repro.serving.request import Request, RequestState  # noqa: E402
from repro.serving.scheduler import ContinuousBatchingScheduler  # noqa: E402
from repro.serving.simulator import ServingSimulator  # noqa: E402
from repro.serving.split import SplitServingSimulator  # noqa: E402
from repro.serving.trace import TraceRecord, TraceReplayGenerator  # noqa: E402

from test_invariants import CONFIGURATIONS, spec_strategy  # noqa: E402


# ----------------------------------------------------------------------
# EventClock
# ----------------------------------------------------------------------
class TestEventClock:
    def test_fires_in_time_then_insertion_order(self):
        clock = EventClock()
        clock.schedule("b", 2.0)
        clock.schedule("a", 1.0)
        clock.schedule("c", 2.0)
        assert clock.next_time() == 1.0
        assert clock.pop_due(0.5) == []
        assert clock.pop_due(2.0) == ["a", "b", "c"]
        assert clock.next_time() == float("inf")
        assert len(clock) == 0

    def test_reschedule_moves_and_cancel_forgets(self):
        clock = EventClock()
        clock.schedule("a", 5.0)
        clock.schedule("b", 1.0)
        clock.schedule("a", 0.25)  # moved earlier
        clock.cancel("b")
        assert clock.next_time() == 0.25
        assert clock.pop_due(10.0) == ["a"]
        clock.cancel("missing")  # no-op

    def test_partial_drain_keeps_future_events(self):
        clock = EventClock()
        clock.extend([("early", 0.1), ("late", 0.4), ("far", 3.7)])
        assert clock.pop_due(0.2) == ["early"]
        assert clock.next_time() == 0.4
        assert clock.pop_due(5.0) == ["late", "far"]

    def test_rejects_non_finite_times(self):
        clock = EventClock()
        with pytest.raises(ConfigError):
            clock.schedule("a", float("inf"))


def test_clock_matches_a_sorted_reference_on_a_random_schedule():
    rng = np.random.default_rng(0)
    clock = EventClock()
    pending: dict[int, tuple[float, int]] = {}
    for seq, key in enumerate(rng.integers(0, 150, size=200).tolist()):
        when = float(rng.uniform(0.0, 20.0))
        clock.schedule(key, when)  # a repeated key moves
        pending[key] = (when, seq)
    for key in rng.choice(150, size=40, replace=False).tolist():
        clock.cancel(key)
        pending.pop(key, None)
    now = 0.0
    while pending:
        assert clock.next_time() == min(when for when, _ in pending.values())
        now += float(rng.uniform(0.1, 2.0))
        due = sorted((entry, key) for key, entry in pending.items() if entry[0] <= now)
        assert clock.pop_due(now) == [key for _, key in due]
        for _, key in due:
            del pending[key]
    assert clock.next_time() == float("inf") and len(clock) == 0


# ----------------------------------------------------------------------
# columnar ↔ scalar oracle equivalence
# ----------------------------------------------------------------------
def _run_config(config: str, spec_params, seed: int, columnar: bool):
    """Run one invariant-suite config with the fast path on or off.

    The invariant builders attach a :class:`StageEvent` probe; observers
    force the scalar loop (batched runs would have to synthesize their
    per-stage events), so the probe is detached on both arms and the
    engines are pinned to the requested mode.
    """
    run, probe, recorder = CONFIGURATIONS[config](spec_params, seed)
    for engine in probe.engines:
        engine.observers.clear()
        engine.columnar = columnar
    report = run()
    return report, probe.engines


def _trajectory(report, engines):
    fleet = getattr(report, "fleet", report)
    return {
        "report": fleet,
        "routed": getattr(report, "requests_routed", None),
        "engines": [
            (
                engine.label,
                engine.stages,
                engine.measured,
                engine.completions,
                engine.now_s,
                tuple(engine.finished_ids),
                tuple(engine.handed_off_ids),
                tuple(engine.scheduler.admitted_log),
                tuple(r.request_id for r in engine.scheduler.rejected),
                tuple(
                    (r.request_id, r.context_len, r.tokens_generated)
                    for r in engine.scheduler.running
                ),
            )
            for engine in engines
        ],
    }


@contextmanager
def _counting_split_runs():
    """Count the steady runs that split decode engines commit."""
    attempt = ServingEngine._attempt_steady_run
    runs: Counter[str] = Counter()

    def counting(self, *args, **kwargs):
        committed = attempt(self, *args, **kwargs)
        if committed and self.label.endswith("/decode"):
            runs["split"] += 1
        return committed

    with mock.patch.object(ServingEngine, "_attempt_steady_run", counting):
        yield runs


#: Configurations with a split pipeline: its decode engine must take runs,
#: or the oracle would compare the scalar loop with itself.
SPLIT_CONFIGS = {"split-closed", "split-poisson", "cluster-heterogeneous"}


@pytest.mark.invariants
@pytest.mark.parametrize("config", sorted(CONFIGURATIONS))
@given(spec_params=spec_strategy, seed=st.integers(min_value=0, max_value=2**16))
def test_columnar_matches_scalar_oracle(config, spec_params, seed):
    with _counting_split_runs() as runs:
        fast_report, fast_engines = _run_config(config, spec_params, seed, columnar=True)
    oracle_report, oracle_engines = _run_config(config, spec_params, seed, columnar=False)
    assert _trajectory(fast_report, fast_engines) == _trajectory(
        oracle_report, oracle_engines
    )
    if config in SPLIT_CONFIGS:
        assert runs["split"] > 0


MODEL = mixtral()
SYSTEM = duplex_system(MODEL, co_processing=True, expert_tensor_parallel=True)


def _run_paging_pressure(policy: str, columnar: bool):
    """Long prompts at 40 QPS into a 64-slot paged engine: thousands of
    evictions and resumes in 600 stages."""
    spec = WorkloadSpec(lin_mean=30000, lout_mean=64, lin_cv=0.3, lout_cv=0.3, qps=40.0)
    sim = ServingSimulator(
        SYSTEM, MODEL, spec, max_batch=64, seed=0,
        paging=PagingConfig(policy=EvictionPolicy(policy)), columnar=columnar,
    )
    report = sim.run(SimulationLimits(max_stages=600, warmup_stages=20))
    stats = sim.paging.manager.stats
    return report, sim.engine, (stats.evictions, stats.resumes)


@pytest.mark.paging
@pytest.mark.parametrize("policy", ["migrate", "recompute"])
def test_columnar_matches_scalar_under_paging_pressure(policy):
    """Heavy live preemption (thousands of evictions) stays bit-exact."""
    fast_report, fast_engine, fast_stats = _run_paging_pressure(policy, columnar=True)
    oracle_report, oracle_engine, oracle_stats = _run_paging_pressure(policy, columnar=False)
    assert fast_stats == oracle_stats
    assert fast_stats[0] > 0, "the workload must actually exercise preemption"
    assert fast_report == oracle_report
    assert _trajectory(fast_report, [fast_engine]) == _trajectory(
        oracle_report, [oracle_engine]
    )


# ----------------------------------------------------------------------
# the carried steady state
# ----------------------------------------------------------------------
def _steady_matches_objects(scheduler) -> bool:
    """Audit one scheduler; True when it is steady (and the audit ran)."""
    if scheduler._steady_ctx is None:
        return False
    running = scheduler.running
    assert all(r.state is RequestState.DECODING for r in running)
    assert (scheduler.steady_context_base() + 1).tolist() == [r.context_len for r in running]
    return True


@contextmanager
def _auditing_steady_state():
    """Audit the steady state after every stage completion and run commit.

    Yields a counter: ``carried`` counts audits right after a finished
    prefill or a completion, the states the scheduler re-derives.
    """
    complete = ContinuousBatchingScheduler.complete_stage
    commit = ContinuousBatchingScheduler.commit_steady_run
    audits: Counter[str] = Counter()

    def complete_stage(self, latency_s):
        had_prefill = bool(self.pending_chunks)
        finished = complete(self, latency_s)
        if _steady_matches_objects(self) and (finished or had_prefill):
            audits["carried"] += 1
        return finished

    def commit_steady_run(self, n_stages, boundaries):
        finished = commit(self, n_stages, boundaries)
        if _steady_matches_objects(self) and finished:
            audits["carried"] += 1
        return finished

    with mock.patch.object(
        ContinuousBatchingScheduler, "complete_stage", complete_stage
    ), mock.patch.object(ContinuousBatchingScheduler, "commit_steady_run", commit_steady_run):
        yield audits


@pytest.mark.invariants
@pytest.mark.parametrize("config", sorted(CONFIGURATIONS))
@given(spec_params=spec_strategy, seed=st.integers(min_value=0, max_value=2**16))
def test_carried_steady_context_matches_object_layer(config, spec_params, seed):
    with _auditing_steady_state():
        _run_config(config, spec_params, seed, columnar=True)


@pytest.mark.paging
@pytest.mark.parametrize("policy", ["migrate", "recompute"])
def test_carried_steady_context_matches_object_layer_under_paging_pressure(policy):
    with _auditing_steady_state() as audits:
        _run_paging_pressure(policy, columnar=True)
    assert audits["carried"] > 0


# ----------------------------------------------------------------------
# no run is priced unless it commits
# ----------------------------------------------------------------------
def _steady_engine(columnar: bool = True):
    """An open-loop engine whose three requests have prefilled and decoded
    one stage: steady, with nothing left to arrive."""
    source = QueueSource()
    for rid in range(3):
        source.push(Request(request_id=rid, arrival_time_s=0.0, input_len=64, output_len=40))
    scheduler = ContinuousBatchingScheduler(source, max_batch=4)
    engine = ServingEngine(scheduler, StageExecutor(SYSTEM, MODEL, seed=0), columnar=columnar)
    limits = SimulationLimits(max_stages=200, warmup_stages=0)
    assert engine.step(limits) and engine.step(limits)
    assert scheduler.steady_run_threshold() == float("inf")
    return engine, source, limits


def _engine_state(engine):
    """Everything a stage changes: clock, counters, report, RNG, batch."""
    return (
        engine.now_s,
        engine.stages,
        engine.measured,
        engine.metrics.report(),
        engine.executor._router.state_snapshot(),
        [
            (r.request_id, r.state, r.context_len, r.tokens_generated)
            for r in engine.scheduler.running
        ],
    )


def _count_pricing(executor) -> list[int]:
    """Record the stage count of every ``price_decode_run`` call."""
    priced: list[int] = []
    price = executor.price_decode_run

    def recording(context_lengths, n_stages, remaining=None):
        priced.append(n_stages)
        return price(context_lengths, n_stages, remaining)

    executor.price_decode_run = recording
    return priced


def test_due_arrival_is_admitted_without_pricing_a_run():
    engine, source, limits = _steady_engine()
    source.push(
        Request(request_id=3, arrival_time_s=engine.now_s, input_len=64, output_len=40)
    )
    priced = _count_pricing(engine.executor)
    assert engine._attempt_steady_run(limits) == 0
    assert priced == []
    assert engine.step(limits)
    assert engine.scheduler.admitted_log == [0, 1, 2, 3]


def test_one_stage_run_equals_the_scalar_stage():
    run_engine, run_source, limits = _steady_engine()
    step_engine, step_source, _ = _steady_engine()
    arrival = run_engine.now_s + 1e-6  # only the first stage starts before it
    for source in (run_source, step_source):
        source.push(Request(request_id=3, arrival_time_s=arrival, input_len=64, output_len=40))
    priced = _count_pricing(run_engine.executor)
    assert run_engine._attempt_steady_run(limits) == 1
    # Priced past the arrival, then rewound to the one committed stage.
    assert len(priced) == 1 and priced[0] > 1
    assert step_engine.step(limits)
    assert _engine_state(run_engine) == _engine_state(step_engine)
    run_engine.drain_until(float("inf"), limits)
    step_engine.drain_until(float("inf"), limits)
    assert _engine_state(run_engine) == _engine_state(step_engine)
    assert run_engine.finished_ids == step_engine.finished_ids


def test_every_priced_run_commits_on_an_open_loop_run():
    """Fig. 13 shape: long prompts arriving open-loop into a wide batch."""
    sim = ServingSimulator(
        SYSTEM, MODEL, WorkloadSpec(lin_mean=4096, lout_mean=128, qps=8.0),
        max_batch=128, seed=0,
    )
    events: list[str] = []
    price, commit = sim.executor.price_decode_run, sim.scheduler.commit_steady_run

    def priced(context_lengths, n_stages, remaining=None):
        events.append("price")
        return price(context_lengths, n_stages, remaining)

    def committed(n_stages, boundaries):
        events.append("commit")
        return commit(n_stages, boundaries)

    sim.executor.price_decode_run = priced
    sim.scheduler.commit_steady_run = committed
    sim.run(SimulationLimits(max_stages=2000, warmup_stages=20))
    runs = events.count("price")
    assert runs >= 40
    assert events == ["price", "commit"] * runs


def test_steady_runs_are_as_long_as_the_batch_allows():
    """Fig. 11 shape: a closed loop keeps the batch full, so no arrival
    bounds a run and, with no warm-up gate, only the batch's first
    completion or the run cap may end one.  The oracle suites cannot see
    a cap that is too small: shorter runs are still exact."""
    sim = ServingSimulator(
        SYSTEM, MODEL, WorkloadSpec(lin_mean=512, lout_mean=300, lout_cv=0.3),
        max_batch=8, seed=1,
    )
    runs: list[tuple[int, int]] = []
    commit = sim.scheduler.commit_steady_run

    def committed(n_stages, boundaries):
        finished = commit(n_stages, boundaries)
        runs.append((n_stages, len(finished)))
        return finished

    sim.scheduler.commit_steady_run = committed
    sim.run(SimulationLimits(max_stages=4000, warmup_stages=0))
    assert len(runs) >= 50
    # The last run may stop at the stage budget instead.
    assert all(finished or n == _RUN_CAP for n, finished in runs[:-1])


def _open_loop_completions(columnar: bool):
    """An open-loop twin of the closed loop above: arrivals at 2 QPS into a
    batch of 8, so the batch has room and nothing waits.  Returns the
    (request id, completion instant) of every finished request in order,
    and the (stages, stages left per request, queue length) of every run
    commit."""
    sim = ServingSimulator(
        SYSTEM, MODEL, WorkloadSpec(lin_mean=512, lout_mean=300, lout_cv=0.3, qps=2.0),
        max_batch=8, seed=1, columnar=columnar,
    )
    scheduler = sim.scheduler
    finished: list[tuple[int, float]] = []
    commits: list[tuple[int, list[int], int]] = []
    complete, commit = scheduler.complete_stage, scheduler.commit_steady_run

    def complete_stage(latency_s):
        done = complete(latency_s)
        finished.extend((r.request_id, r.completion_time_s) for r in done)
        return done

    def committed(n_stages, boundaries):
        left = [r.output_len - r.tokens_generated for r in scheduler.running]
        commits.append((n_stages, left, len(scheduler.waiting)))
        done = commit(n_stages, boundaries)
        finished.extend((r.request_id, r.completion_time_s) for r in done)
        return done

    scheduler.complete_stage = complete_stage
    scheduler.commit_steady_run = committed
    sim.run(SimulationLimits(max_stages=4000, warmup_stages=0))
    return finished, commits


def test_open_loop_runs_pass_in_batch_completions():
    """With room in the batch and nothing waiting, a completion admits
    nothing, so runs continue through it: some commit finishes a request
    before the run's last stage, and every request finishes at the
    instant the scalar loop finishes it."""
    finished, commits = _open_loop_completions(columnar=True)
    oracle, _ = _open_loop_completions(columnar=False)
    passed = [(n, left) for n, left, queued in commits if min(left) < n]
    assert passed
    assert all(queued == 0 for n, left, queued in commits if min(left) < n)
    assert len(finished) >= 10
    assert finished == oracle


# ----------------------------------------------------------------------
# held runs: one pricing across the driving loop's horizons
# ----------------------------------------------------------------------
def test_held_run_prices_once_across_horizons():
    """Three horizons inside one steady run price it once, and each slice
    leaves the engine exactly where the scalar loop would."""
    engine, _, limits = _steady_engine()
    twin, _, _ = _steady_engine(columnar=False)
    priced = _count_pricing(engine.executor)
    start = engine.now_s
    for k in (1, 2, 3):
        engine.advance_to(start + 0.02 * k, limits)
        twin.advance_to(start + 0.02 * k, limits)
        assert _engine_state(engine) == _engine_state(twin)
    # Sized by the batch's first completion (38 decode stages left), not
    # by the first horizon; the three slices stop short of its end.
    assert priced == [38]
    assert engine.stages < 2 + 38


def test_routed_arrival_drops_the_held_run():
    """An arrival routed between two slices is admitted by a scalar stage,
    not run over by the held pricing."""
    engine, source, limits = _steady_engine()
    twin, twin_source, _ = _steady_engine(columnar=False)
    priced = _count_pricing(engine.executor)
    horizon = engine.now_s + 0.02
    engine.advance_to(horizon, limits)
    twin.advance_to(horizon, limits)
    assert _engine_state(engine) == _engine_state(twin)
    for queue in (source, twin_source):
        queue.push(Request(request_id=3, arrival_time_s=horizon, input_len=64, output_len=40))
    assert engine._attempt_steady_run(limits, horizon_s=horizon + 0.02) == 0
    assert priced == [38]
    assert engine.step(limits) and twin.step(limits)
    assert engine.scheduler.admitted_log == [0, 1, 2, 3]
    assert _engine_state(engine) == _engine_state(twin)
    engine.advance_to(horizon + 0.02, limits)
    twin.advance_to(horizon + 0.02, limits)
    assert _engine_state(engine) == _engine_state(twin)
    engine.drain_until(float("inf"), limits)
    twin.drain_until(float("inf"), limits)
    assert _engine_state(engine) == _engine_state(twin)
    assert engine.finished_ids == twin.finished_ids
    assert len(priced) > 1  # the grown batch priced runs of its own


#: (arrival s, prompt tokens, output tokens) into a split pipeline of four:
#: arrivals come in pairs less than one decode stage apart, so the second
#: of a pair waits for room while the first fills the pipeline.
SPLIT_TRACE = (
    (0.19, 64, 11), (0.5, 64, 11), (0.57, 64, 59), (0.58, 128, 37),
    (0.924, 256, 40), (0.937, 256, 40), (0.937, 256, 27), (1.05, 256, 34),
    (1.06, 128, 25),
)


def _split_pipeline(columnar: bool):
    """Run :data:`SPLIT_TRACE` through a split pipeline of four.  Returns
    the simulator, its requests in arrival order, and one flag per held
    run resumed while the pipeline had no room: whether its held stages
    pass an in-batch completion."""
    trace = TraceReplayGenerator([TraceRecord(*record) for record in SPLIT_TRACE])
    requests: list[Request] = []
    take = trace.take

    def taking(now_s):
        requests.append(take(now_s))
        return requests[-1]

    trace.take = taking
    sim = SplitServingSimulator(MODEL, trace, max_batch=4, seed=0)
    engine = sim.decode_engine
    engine.columnar = columnar
    resumed: list[bool] = []
    attempt = engine._attempt_steady_run

    def attempting(limits, horizon_s, sim_time_s, pass_completions):
        held = engine._held_run
        if held is not None and held[1][held[2]] == engine.now_s and not pass_completions:
            pricing, _, start = held
            resumed.append(bool(pricing.widths[start] != pricing.widths[-1]))
        return attempt(limits, horizon_s, sim_time_s, pass_completions=pass_completions)

    engine._attempt_steady_run = attempting
    sim.run(SimulationLimits(max_stages=5000, warmup_stages=0))
    return sim, requests, resumed


def test_held_run_resumed_in_a_full_split_pipeline_ends_at_its_next_completion():
    """A run priced while the pipeline has room passes completions and is
    cut at an arrival; that arrival fills the pipeline.  Resumed, the held
    stages must end at their next completion, where the scalar loop
    dispatches the queued second arrival of the pair: running past it
    would start that prefill, and its first token, late."""
    sim, requests, resumed = _split_pipeline(columnar=True)
    twin, oracle, _ = _split_pipeline(columnar=False)
    assert any(resumed)

    def timeline(batch):
        return [(r.request_id, r.first_token_time_s, r.completion_time_s) for r in batch]

    assert len(requests) == len(SPLIT_TRACE)
    assert timeline(requests) == timeline(oracle)
    for engine, scalar in zip(sim.engines, twin.engines, strict=True):
        assert engine.scheduler.admitted_log == scalar.scheduler.admitted_log
        assert engine.finished_ids == scalar.finished_ids
        assert (engine.now_s, engine.stages) == (scalar.now_s, scalar.stages)
    assert sim.metrics.report() == twin.metrics.report()


# ----------------------------------------------------------------------
# a full batch stays steady while its queue grows
# ----------------------------------------------------------------------
def _queued_scheduler(policy, max_batch: int, capacity_tokens: int | None = None):
    """Two decoding requests and one queued behind them, with a later
    arrival still in the source."""
    source = QueueSource()
    for rid in range(3):
        source.push(Request(request_id=rid, arrival_time_s=0.0, input_len=64, output_len=40))
    scheduler = ContinuousBatchingScheduler(
        source, max_batch=max_batch, capacity_tokens=capacity_tokens, policy=policy
    )
    engine = ServingEngine(scheduler, StageExecutor(SYSTEM, MODEL, seed=0))
    limits = SimulationLimits(max_stages=200, warmup_stages=0)
    assert engine.step(limits) and engine.step(limits)
    assert len(scheduler.running) == 2 and len(scheduler.waiting) == 1
    source.push(Request(request_id=3, arrival_time_s=1.0, input_len=64, output_len=40))
    return scheduler


POLICIES = {
    "fcfs": FcfsPolicy,
    "chunked-prefill": ChunkedPrefillPolicy,
    "slo-keep-expired": lambda: SloAwarePolicy(t2ft_slo_s=1.0, shed_expired=False),
    "slo-shed-expired": lambda: SloAwarePolicy(t2ft_slo_s=1.0),
}


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_full_batch_with_a_queue_is_steady_unless_the_policy_reads_the_clock(policy):
    scheduler = _queued_scheduler(POLICIES[policy](), max_batch=2)
    threshold = scheduler.steady_run_threshold()
    if policy == "slo-shed-expired":
        assert threshold is None  # an expiry could shed mid-run
    else:
        assert threshold == float("inf")  # the queued arrival bounds nothing


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_a_free_slot_keeps_a_queued_batch_scalar(policy):
    # Room for two requests' KV under a batch of three: the slot is free.
    scheduler = _queued_scheduler(POLICIES[policy](), max_batch=3, capacity_tokens=2 * 104)
    assert scheduler.steady_run_threshold() is None


FULL_LIMITS = SimulationLimits(max_stages=60_000, warmup_stages=0)


def _record_commits(scheduler) -> list[tuple[int, int]]:
    """Record (stages, queue length) of every run the scheduler commits."""
    commits: list[tuple[int, int]] = []
    commit = scheduler.commit_steady_run

    def recording(n_stages, boundaries):
        commits.append((n_stages, len(scheduler.waiting)))
        return commit(n_stages, boundaries)

    scheduler.commit_steady_run = recording
    return commits


def _stopped_full_replica(stop_s: float, columnar: bool):
    """One FCFS replica of batch 4 under 60 x 512/200 requests at 5 ms
    spacing, routed and advanced to ``stop_s``: a full batch with a
    growing queue.  Returns the handle and the (stages, queue length) of
    every run commit."""
    trace = TraceReplayGenerator(
        [TraceRecord(arrival_s=0.005 * i, input_len=512, output_len=200) for i in range(60)]
    )
    sim = ClusterSimulator(SYSTEM, MODEL, trace, n_replicas=1, max_batch=4, seed=1)
    handle = sim.handles[0]
    (engine,) = handle.engines
    engine.columnar = columnar
    commits = _record_commits(engine.scheduler)
    sim._begin_run(FULL_LIMITS)
    while sim.source.peek_arrival() <= stop_s:
        sim._route_arrival(sim.source.peek_arrival())
    handle.driver.advance_to(stop_s, FULL_LIMITS)
    return handle, commits


@pytest.mark.parametrize("stop_s", [0.12, 0.2])
def test_full_batch_runs_leave_the_queue_where_the_scalar_loop_does(stop_s):
    handle, commits = _stopped_full_replica(stop_s, columnar=True)
    twin, _ = _stopped_full_replica(stop_s, columnar=False)
    assert any(n > 1 and queued for n, queued in commits)

    def queues(h):
        return len(h.inbox), len(h.engines[0].scheduler.waiting)

    assert queues(handle) == queues(twin)
    assert queues(handle)[1] > 0
    assert _engine_state(handle.engines[0]) == _engine_state(twin.engines[0])

    def ids(harvest):
        queued, active, parked = harvest
        return (
            [r.request_id for r in queued],
            [r.request_id for r in active],
            [r.request_id for r, _ in parked],
        )

    assert ids(handle.harvest_in_flight()) == ids(twin.harvest_in_flight())


def test_full_batch_run_orders_the_queue_as_the_scalar_loop_does():
    """Under deadline ordering, the arrivals a full-batch run queues come
    out in the order the scalar loop's per-stage sorts leave them."""

    def build(columnar: bool):
        source = QueueSource()
        for rid in range(2):
            source.push(Request(request_id=rid, arrival_time_s=0.0, input_len=64, output_len=40))
        scheduler = ContinuousBatchingScheduler(
            source, max_batch=2, policy=SloAwarePolicy(t2ft_slo_s=1.0, shed_expired=False)
        )
        engine = ServingEngine(
            scheduler, StageExecutor(SYSTEM, MODEL, seed=0), columnar=columnar
        )
        limits = SimulationLimits(max_stages=200, warmup_stages=0)
        assert engine.step(limits) and engine.step(limits)
        # Later arrivals carry tighter SLOs, so each overtakes the last.
        for rid in range(2, 8):
            source.push(
                Request(
                    request_id=rid,
                    arrival_time_s=engine.now_s + 0.001 * rid,
                    input_len=64,
                    output_len=40,
                    t2ft_slo_s=1.0 / rid,
                )
            )
        return engine, limits

    engine, limits = build(columnar=True)
    twin, _ = build(columnar=False)
    commits = _record_commits(engine.scheduler)
    horizon = engine.now_s + 0.02
    engine.advance_to(horizon, limits)
    twin.advance_to(horizon, limits)
    assert any(n > 1 and queued for n, queued in commits)
    assert _engine_state(engine) == _engine_state(twin)
    queue = [r.request_id for r in engine.scheduler.waiting]
    assert queue == [r.request_id for r in twin.scheduler.waiting] == [7, 6, 5, 4, 3, 2]


# ----------------------------------------------------------------------
# fleet columnar <-> scalar oracle
# ----------------------------------------------------------------------
FLEET_LIMITS = SimulationLimits(max_stages=50_000, warmup_stages=4)


def _phased_trace(seed: int, phases) -> TraceReplayGenerator:
    """Uniform arrivals at each phase's rate, lengths drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    records = []
    start = 0.0
    for duration_s, qps in phases:
        for t in np.sort(rng.uniform(start, start + duration_s, int(duration_s * qps))):
            records.append(
                TraceRecord(
                    arrival_s=float(t),
                    input_len=int(rng.integers(128, 1024)),
                    output_len=int(rng.integers(16, 160)),
                )
            )
        start += duration_s
    return TraceReplayGenerator(records)


def _elastic_fleet(seed: int):
    """``fleet_elastic`` in miniature: queue-depth scaling from one to
    three batch-8 FCFS replicas through a burst."""
    return ElasticFleetSimulator(
        SYSTEM, MODEL, _phased_trace(seed, ((1.0, 20.0), (0.5, 120.0), (1.0, 20.0))),
        policy=QueueDepthPolicy(scale_up_depth=2.0, scale_down_depth=0.25, cooldown_s=0.25),
        min_replicas=1, max_replicas=3, control_interval_s=0.25,
        provision_delay_s=0.25, warmup_delay_s=0.25, max_batch=8, seed=seed,
    )


def _crashing_fleet(seed: int):
    """Three batch-8 FCFS replicas; replica 1 crashes and its requests
    retry on the others."""
    return ClusterSimulator(
        SYSTEM, MODEL, _phased_trace(seed, ((1.5, 70.0),)), n_replicas=3, max_batch=8,
        seed=seed, retry=RetryPolicy(max_attempts=3),
        faults=FaultInjector(
            FaultConfig(crash_times=((0.6, 1),), crash_mttr_s=0.5, detection_latency_s=0.1)
        ),
    )


def _split_fleet(seed: int):
    """A batch-8 monolithic replica and a split replica; the split replica
    crashes, its requests retry on the monolithic one, and it is repaired."""
    return ClusterSimulator(
        SYSTEM, MODEL, _phased_trace(seed, ((1.5, 40.0),)),
        replicas=(MonolithicReplicaSpec(), SplitReplicaSpec()), max_batch=8, seed=seed,
        retry=RetryPolicy(max_attempts=3),
        faults=FaultInjector(
            FaultConfig(crash_times=((0.6, 1),), crash_mttr_s=0.5, detection_latency_s=0.1)
        ),
    )


FLEETS = {"elastic": _elastic_fleet, "crash-retry": _crashing_fleet, "split": _split_fleet}


@pytest.mark.invariants
@pytest.mark.parametrize("fleet", sorted(FLEETS))
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_fleet_columnar_matches_scalar_oracle(fleet, seed):
    """Held runs across routing horizons and full-batch runs over a queue
    reproduce the scalar fleet: same report, same per-engine trajectory.
    The scalar arm patches the engine class, so replicas the autoscaler
    builds mid-run are scalar too."""
    counts: Counter[str] = Counter()
    replay = StageExecutor.replay_decode_run
    commit = ContinuousBatchingScheduler.commit_steady_run

    def replay_decode_run(self, pricing, start, end):
        counts["held"] += 1
        return replay(self, pricing, start, end)

    def commit_steady_run(self, n_stages, boundaries):
        if self.waiting:
            counts["queued"] += 1
        return commit(self, n_stages, boundaries)

    with mock.patch.object(
        StageExecutor, "replay_decode_run", replay_decode_run
    ), mock.patch.object(
        ContinuousBatchingScheduler, "commit_steady_run", commit_steady_run
    ), _counting_split_runs() as runs:
        fast = FLEETS[fleet](seed)
        fast_report = fast.run(FLEET_LIMITS)
    with mock.patch.object(ServingEngine, "_attempt_steady_run", return_value=0):
        oracle = FLEETS[fleet](seed)
        oracle_report = oracle.run(FLEET_LIMITS)
    assert counts["held"] > 0 and counts["queued"] > 0
    if any(handle.kind == "split" for handle in fast.handles):
        assert runs["split"] > 0
    assert fast_report == oracle_report
    assert _trajectory(fast_report, fast.engines) == _trajectory(oracle_report, oracle.engines)

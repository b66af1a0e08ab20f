"""Columnar engine core: unit tests and the columnar↔scalar oracle suite.

Three layers (tier 1 — see TESTING.md):

* unit tests for the struct-of-arrays :class:`RequestTable` (slot
  recycling, growth, lazy refresh, vectorized advance) and the
  :class:`EventClock` (lazy cancellation, fire ordering);
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
  alone cannot see a wrong carried context), and regression tests that
  no run is priced unless it commits.
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
from repro.errors import ConfigError, SchedulingError  # noqa: E402
from repro.models.config import mixtral  # noqa: E402
from repro.serving.columnar import EventClock, RequestTable  # noqa: E402
from repro.serving.engine import ServingEngine, SimulationLimits  # noqa: E402
from repro.serving.generator import QueueSource, WorkloadSpec  # noqa: E402
from repro.serving.paging import EvictionPolicy, PagingConfig  # noqa: E402
from repro.serving.request import Request, RequestState  # noqa: E402
from repro.serving.scheduler import ContinuousBatchingScheduler  # noqa: E402
from repro.serving.simulator import ServingSimulator  # noqa: E402

from test_invariants import CONFIGURATIONS, spec_strategy  # noqa: E402


# ----------------------------------------------------------------------
# RequestTable
# ----------------------------------------------------------------------
def _request(rid: int, input_len: int = 16, output_len: int = 8) -> Request:
    request = Request(
        request_id=rid,
        arrival_time_s=float(rid),
        input_len=input_len,
        output_len=output_len,
    )
    request.start_prefill()
    request.finish_prefill(float(rid) + 0.5)
    return request


class TestRequestTable:
    def test_add_free_recycles_slots_lifo(self):
        table = RequestTable(capacity=2)
        a = table.add(_request(1))
        b = table.add(_request(2))
        assert a != b and len(table) == 2
        table.free(1)
        assert 1 not in table and 2 in table
        assert table.add(_request(3)) == a  # LIFO recycling
        assert table.request_id[a] == 3

    def test_duplicate_add_rejected_and_unknown_free_is_noop(self):
        table = RequestTable(capacity=2)
        table.add(_request(7))
        with pytest.raises(SchedulingError):
            table.add(_request(7))
        table.free(999)  # silently ignored
        assert len(table) == 1

    def test_grows_by_doubling(self):
        table = RequestTable(capacity=2)
        for rid in range(5):
            table.add(_request(rid))
        assert table.capacity == 8
        assert len(table) == 5
        assert {int(table.request_id[table.slot_of(r)]) for r in range(5)} == set(range(5))

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigError):
            RequestTable(capacity=0)

    def test_refresh_advance_matches_object_layer(self):
        table = RequestTable(capacity=4)
        running = [_request(1, output_len=5), _request(2, output_len=9)]
        for request in running:
            table.add(request)
        slots = table.refresh(running)
        assert not table.dirty
        # finish_prefill emitted token 1, so request 1 needs 4 more stages.
        assert table.min_remaining() == 4
        table.advance_decode(3)
        assert list(table.tokens_generated[slots]) == [4, 4]
        assert list(table.context_len[slots]) == [r.context_len + 3 for r in running]
        # A scalar stage mutates the objects; refresh resyncs when dirty.
        running[0].advance_decode(0.0)
        table.dirty = True
        table.refresh(running)
        assert table.tokens_generated[table.slot_of(1)] == 2
        assert table.min_remaining() == 3

    def test_residency_flag(self):
        table = RequestTable(capacity=2)
        slot = table.add(_request(1))
        assert bool(table.kv_resident[slot])
        table.set_residency(1, False)
        assert not bool(table.kv_resident[slot])
        table.set_residency(404, True)  # unknown id: no-op


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


@pytest.mark.invariants
@pytest.mark.parametrize("config", sorted(CONFIGURATIONS))
@given(spec_params=spec_strategy, seed=st.integers(min_value=0, max_value=2**16))
def test_columnar_matches_scalar_oracle(config, spec_params, seed):
    fast_report, fast_engines = _run_config(config, spec_params, seed, columnar=True)
    oracle_report, oracle_engines = _run_config(config, spec_params, seed, columnar=False)
    assert _trajectory(fast_report, fast_engines) == _trajectory(
        oracle_report, oracle_engines
    )


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
    if not scheduler._steady:
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

    def commit_steady_run(self, n_stages, final_now_s):
        finished = commit(self, n_stages, final_now_s)
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
def _steady_engine():
    """An open-loop engine whose three requests have prefilled and decoded
    one stage: steady, with nothing left to arrive."""
    source = QueueSource()
    for rid in range(3):
        source.push(Request(request_id=rid, arrival_time_s=0.0, input_len=64, output_len=40))
    scheduler = ContinuousBatchingScheduler(source, max_batch=4)
    engine = ServingEngine(scheduler, StageExecutor(SYSTEM, MODEL, seed=0))
    limits = SimulationLimits(max_stages=200, warmup_stages=0)
    assert engine.step(limits) and engine.step(limits)
    assert scheduler.steady_run_threshold() == float("inf")
    return engine, source, limits


def _count_pricing(executor) -> list[int]:
    """Record the stage count of every ``price_decode_run`` call."""
    priced: list[int] = []
    price = executor.price_decode_run

    def recording(context_lengths, n_stages):
        priced.append(n_stages)
        return price(context_lengths, n_stages)

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

    def state(engine):
        return (
            engine.stages,
            engine.measured,
            engine.now_s,
            engine.metrics.report(),
            engine.executor._router.state_snapshot(),
            [(r.request_id, r.context_len, r.tokens_generated) for r in engine.scheduler.running],
        )

    assert state(run_engine) == state(step_engine)
    run_engine.drain(limits)
    step_engine.drain(limits)
    assert state(run_engine) == state(step_engine)
    assert run_engine.finished_ids == step_engine.finished_ids


def test_every_priced_run_commits_on_an_open_loop_run():
    """Fig. 13 shape: long prompts arriving open-loop into a wide batch."""
    sim = ServingSimulator(
        SYSTEM, MODEL, WorkloadSpec(lin_mean=4096, lout_mean=128, qps=8.0),
        max_batch=128, seed=0,
    )
    events: list[str] = []
    price, commit = sim.executor.price_decode_run, sim.scheduler.commit_steady_run

    def priced(context_lengths, n_stages):
        events.append("price")
        return price(context_lengths, n_stages)

    def committed(n_stages, final_now_s):
        events.append("commit")
        return commit(n_stages, final_now_s)

    sim.executor.price_decode_run = priced
    sim.scheduler.commit_steady_run = committed
    sim.run(SimulationLimits(max_stages=1500, warmup_stages=20))
    runs = events.count("price")
    assert runs >= 40
    assert events == ["price", "commit"] * runs

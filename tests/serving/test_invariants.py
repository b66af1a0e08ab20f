"""Property-based serving-core invariants (tier 1 — see TESTING.md).

One harness, every engine configuration: the monolithic simulator (open
loop, warm-started closed loop, chunked prefill, SLO shedding), the split
two-partition deployment, and homogeneous/heterogeneous clusters.  For
randomized seeds and workload shapes, the harness wraps every request
source with a recorder, attaches a :class:`StageEvent` probe to every
engine, runs the simulation, and audits the ledgers:

* **lifecycle** — every admitted request finishes, hands off downstream,
  or is still in flight, exactly once; shed requests are never admitted;
  nothing finishes twice anywhere in the deployment;
* **token conservation** — a finished request booked exactly its input
  length of prefill chunks and ``output_len - 1`` decode steps across all
  engines (chunked prefill included), and its Request object agrees;
* **KV capacity** — committed tokens never exceed the scheduler's
  capacity, at any stage, in any engine;
* **virtual time** — per-engine stage-completion clocks are monotone,
  stage latencies strictly positive, per-request timestamps ordered.

Run ``pytest -m invariants`` to select just this suite, and crank the
random search with ``--invariant-examples N`` (the default is a small,
derandomized CI-sized run).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.core.system import duplex_system  # noqa: E402
from repro.models.config import mixtral  # noqa: E402
from repro.serving.cluster import (  # noqa: E402
    ClusterSimulator,
    MonolithicReplicaSpec,
    PowerOfTwoChoicesRouter,
    SplitReplicaSpec,
)
from repro.serving.engine import StageEvent  # noqa: E402
from repro.serving.generator import WorkloadSpec  # noqa: E402
from repro.serving.policy import ChunkedPrefillPolicy, SloAwarePolicy  # noqa: E402
from repro.serving.request import Request, RequestState  # noqa: E402
from repro.serving.simulator import ServingSimulator, SimulationLimits  # noqa: E402
from repro.serving.split import SplitServingSimulator  # noqa: E402

pytestmark = pytest.mark.invariants

MODEL = mixtral()
SYSTEM = duplex_system(MODEL, co_processing=True, expert_tensor_parallel=True)
LIMITS = SimulationLimits(max_stages=40, warmup_stages=6)


class RecordingSource:
    """Wraps a request source, remembering every request it hands out."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.taken: dict[int, Request] = {}

    def __getattr__(self, name):
        return getattr(self._inner, name)

    @property
    def closed_loop(self) -> bool:
        return self._inner.closed_loop

    def take(self, now_s: float) -> Request:
        request = self._inner.take(now_s)
        self.taken[request.request_id] = request
        return request


class Probe:
    """Collects every engine's stage events, keyed per engine."""

    def __init__(self, engines) -> None:
        self.engines = tuple(engines)
        self.events: dict[int, list[StageEvent]] = {}
        for index, engine in enumerate(self.engines):
            self.events[index] = []
            engine.observers.append(self.events[index].append)

    def events_for(self, engine) -> list[StageEvent]:
        return self.events[self.engines.index(engine)]

    def labelled(self):
        for index, engine in enumerate(self.engines):
            yield engine.label, self.events[index]


# ----------------------------------------------------------------------
# configuration harness: each builder returns (run, probe, recorder)
# ----------------------------------------------------------------------
def _spec(draw_spec, qps=None):
    lin, lout, lin_cv, lout_cv = draw_spec
    return WorkloadSpec(
        lin_mean=lin, lout_mean=lout, lin_cv=lin_cv, lout_cv=lout_cv, qps=qps
    )


def build_mono_open(spec_params, seed):
    sim = ServingSimulator(
        SYSTEM, MODEL, _spec(spec_params, qps=25.0), max_batch=6, seed=seed
    )
    recorder = RecordingSource(sim.scheduler.source)
    sim.scheduler.source = recorder
    return lambda: sim.run(LIMITS), Probe(sim.engines), recorder


def build_mono_warm_closed(spec_params, seed):
    sim = ServingSimulator(SYSTEM, MODEL, _spec(spec_params), max_batch=6, seed=seed)
    assert sim.warm_start
    recorder = RecordingSource(sim.scheduler.source)
    sim.scheduler.source = recorder
    return lambda: sim.run(LIMITS), Probe(sim.engines), recorder


def build_mono_chunked(spec_params, seed):
    sim = ServingSimulator(
        SYSTEM, MODEL, _spec(spec_params, qps=25.0), max_batch=6, seed=seed,
        policy=ChunkedPrefillPolicy(max_prefill_tokens=64),
    )
    recorder = RecordingSource(sim.scheduler.source)
    sim.scheduler.source = recorder
    return lambda: sim.run(LIMITS), Probe(sim.engines), recorder


def build_mono_shedding(spec_params, seed):
    sim = ServingSimulator(
        SYSTEM, MODEL, _spec(spec_params, qps=400.0), max_batch=4, seed=seed,
        policy=SloAwarePolicy(t2ft_slo_s=0.02, prefer_short_inputs=True),
    )
    recorder = RecordingSource(sim.scheduler.source)
    sim.scheduler.source = recorder
    return lambda: sim.run(LIMITS), Probe(sim.engines), recorder


def build_split_closed(spec_params, seed):
    sim = SplitServingSimulator(MODEL, _spec(spec_params), max_batch=8, seed=seed)
    recorder = RecordingSource(sim.prefill_engine.scheduler.source)
    sim.prefill_engine.scheduler.source = recorder
    sim.source = recorder
    return lambda: sim.run(LIMITS), Probe(sim.engines), recorder


def build_split_poisson(spec_params, seed):
    sim = SplitServingSimulator(
        MODEL, _spec(spec_params, qps=25.0), max_batch=8, seed=seed
    )
    recorder = RecordingSource(sim.prefill_engine.scheduler.source)
    sim.prefill_engine.scheduler.source = recorder
    sim.source = recorder
    return lambda: sim.run(LIMITS), Probe(sim.engines), recorder


def build_cluster(spec_params, seed):
    sim = ClusterSimulator(
        SYSTEM, MODEL, _spec(spec_params, qps=120.0), n_replicas=2,
        router=PowerOfTwoChoicesRouter(seed=seed), max_batch=4, seed=seed,
        policy_factory=lambda: SloAwarePolicy(t2ft_slo_s=0.05),
        max_requests=60,
    )
    recorder = RecordingSource(sim.source)
    sim.source = recorder
    return lambda: sim.run(LIMITS), Probe(sim.engines), recorder


def build_cluster_hetero(spec_params, seed):
    sim = ClusterSimulator(
        SYSTEM, MODEL, _spec(spec_params, qps=80.0),
        max_batch=6, seed=seed, max_requests=50,
        replicas=(MonolithicReplicaSpec(), SplitReplicaSpec()),
    )
    recorder = RecordingSource(sim.source)
    sim.source = recorder
    return lambda: sim.run(LIMITS), Probe(sim.engines), recorder


CONFIGURATIONS = {
    "mono-open": build_mono_open,
    "mono-warm-closed": build_mono_warm_closed,
    "mono-chunked-prefill": build_mono_chunked,
    "mono-slo-shedding": build_mono_shedding,
    "split-closed": build_split_closed,
    "split-poisson": build_split_poisson,
    "cluster-homogeneous": build_cluster,
    "cluster-heterogeneous": build_cluster_hetero,
}

spec_strategy = st.tuples(
    st.sampled_from((24, 64, 160, 384)),   # lin mean
    st.sampled_from((4, 8, 24, 48)),       # lout mean
    st.sampled_from((0.0, 0.2, 0.5)),      # lin cv
    st.sampled_from((0.0, 0.2, 0.5)),      # lout cv
)


# ----------------------------------------------------------------------
# the invariant audit
# ----------------------------------------------------------------------
def audit_clocks(probe: Probe) -> None:
    for label, events in probe.labelled():
        last = float("-inf")
        for event in events:
            assert event.latency_s > 0, f"{label}: non-positive stage latency"
            assert event.now_s >= last, f"{label}: stage clock went backwards"
            last = event.now_s


def audit_kv_occupancy(probe: Probe) -> None:
    for label, events in probe.labelled():
        for event in events:
            assert event.committed_tokens >= 0, f"{label}: negative KV commitment"
            if event.capacity_tokens is not None:
                assert event.committed_tokens <= event.capacity_tokens, (
                    f"{label}: KV occupancy {event.committed_tokens} exceeds "
                    f"capacity {event.capacity_tokens}"
                )


def audit_lifecycle(probe: Probe) -> None:
    all_finished: list[int] = []
    all_admitted: set[int] = set()
    all_rejected: list[int] = []
    for engine in probe.engines:
        admitted = engine.scheduler.admitted_log
        assert len(admitted) == len(set(admitted)), (
            f"{engine.label}: a request was admitted twice"
        )
        # Every admission is attributed to exactly one stage event, in
        # admission order (split prefill admissions happen outside step()).
        event_admitted = [
            rid for event in probe.events_for(engine) for rid in event.admitted
        ]
        assert event_admitted == list(admitted), (
            f"{engine.label}: stage events misattribute admissions"
        )
        finished = set(engine.finished_ids)
        assert len(engine.finished_ids) == len(finished), (
            f"{engine.label}: a request finished twice in one engine"
        )
        handed = set(engine.handed_off_ids)
        running = {r.request_id for r in engine.scheduler.running}
        # Exactly-once terminal accounting per engine:
        assert finished | handed | running == set(admitted), (
            f"{engine.label}: admitted requests unaccounted for"
        )
        assert finished & handed == set(), f"{engine.label}: finished AND handed off"
        assert finished & running == set(), f"{engine.label}: finished but still running"
        assert handed & running == set(), f"{engine.label}: handed off but still running"
        all_finished.extend(engine.finished_ids)
        all_admitted |= set(admitted)
        all_rejected.extend(r.request_id for r in engine.scheduler.rejected)
    assert len(all_finished) == len(set(all_finished)), (
        "a request finished in two different engines"
    )
    assert len(all_rejected) == len(set(all_rejected)), "a request was shed twice"
    assert set(all_rejected) & all_admitted == set(), "a shed request was admitted"


def audit_token_conservation(probe: Probe, recorder: RecordingSource) -> None:
    finished_ids = {rid for engine in probe.engines for rid in engine.finished_ids}
    # Object-level conservation for every finished request (covers
    # warm-start synthetics, which never prefill through a stage).
    for rid, request in recorder.taken.items():
        if request.state is RequestState.FINISHED:
            assert rid in finished_ids, f"request {rid} finished outside any engine"
            assert request.prefilled_tokens == request.input_len
            assert request.tokens_generated == request.output_len
            assert request.arrival_time_s <= request.first_token_time_s
            assert request.first_token_time_s <= request.completion_time_s
        else:
            assert rid not in finished_ids, (
                f"request {rid} in engine ledgers but not FINISHED"
            )
    # Event-ledger conservation for fully simulated requests: chunks booked
    # sum to the input, decode steps to output_len - 1 (the first token
    # rides on the final prefill chunk).
    chunks: dict[int, int] = {}
    decode_steps: dict[int, int] = {}
    for events in probe.events.values():
        for event in events:
            for rid, tokens in event.prefill_chunks:
                chunks[rid] = chunks.get(rid, 0) + tokens
            for rid in event.decode_ids:
                decode_steps[rid] = decode_steps.get(rid, 0) + 1
    for rid in finished_ids:
        if rid not in chunks:
            continue  # warm-start synthetic: entered mid-flight
        request = recorder.taken[rid]
        assert chunks[rid] == request.input_len, (
            f"request {rid} booked {chunks[rid]} prefill tokens for a "
            f"{request.input_len}-token input"
        )
        assert decode_steps.get(rid, 0) == request.output_len - 1, (
            f"request {rid} booked {decode_steps.get(rid, 0)} decode steps for a "
            f"{request.output_len}-token output"
        )


@pytest.mark.parametrize("config", sorted(CONFIGURATIONS))
@given(spec_params=spec_strategy, seed=st.integers(min_value=0, max_value=2**16))
def test_serving_invariants(config, spec_params, seed):
    run, probe, recorder = CONFIGURATIONS[config](spec_params, seed)
    report = run()
    assert any(probe.events.values()), "no stages executed — the run was vacuous"
    audit_clocks(probe)
    audit_kv_occupancy(probe)
    audit_lifecycle(probe)
    audit_token_conservation(probe, recorder)
    # Percentile ordering comes free with a correct weighted-sample pool.
    fleet = getattr(report, "fleet", report)
    assert fleet.tbt_p50_s <= fleet.tbt_p90_s <= fleet.tbt_p99_s

"""Tests for the discrete-event serving core."""

import pytest

from repro.core.executor import StageExecutor
from repro.core.system import duplex_system
from repro.errors import SchedulingError
from repro.models.config import mixtral
from repro.serving.engine import ServingEngine, SimulationLimits, TransferFeed
from repro.serving.generator import QueueSource, RequestGenerator, WorkloadSpec
from repro.serving.request import Request, RequestState
from repro.serving.scheduler import ContinuousBatchingScheduler

MODEL = mixtral()
SYSTEM = duplex_system(MODEL, co_processing=True, expert_tensor_parallel=True)


def _request(rid, arrival=0.0, lin=32, lout=8, state=RequestState.QUEUED):
    request = Request(request_id=rid, arrival_time_s=arrival, input_len=lin, output_len=lout)
    if state is RequestState.DECODING:
        request.start_prefill()
        request.finish_prefill(arrival)
    return request


def _engine(source=None, max_batch=4, **kwargs):
    source = source if source is not None else RequestGenerator(WorkloadSpec(32, 8), seed=0)
    scheduler = ContinuousBatchingScheduler(source, max_batch, capacity_tokens=None)
    executor = StageExecutor(SYSTEM, MODEL, seed=0)
    return ServingEngine(scheduler, executor, label="test", **kwargs)


class TestTransferFeed:
    def test_orders_by_ready_time_then_push_order(self):
        feed = TransferFeed()
        feed.push(2.0, _request(0, state=RequestState.DECODING))
        feed.push(1.0, _request(1, state=RequestState.DECODING))
        feed.push(1.0, _request(2, state=RequestState.DECODING))
        assert feed.peek_arrival() == 1.0
        assert [feed.take(5.0).request_id for _ in range(3)] == [1, 2, 0]

    def test_request_source_protocol(self):
        feed = TransferFeed()
        assert feed.peek() is None
        assert feed.peek_arrival() == float("inf")
        assert not feed.has_request_at(10.0)
        request = _request(7, state=RequestState.DECODING)
        feed.push(3.0, request)
        assert feed.peek() is request
        assert not feed.has_request_at(2.9)
        assert feed.has_request_at(3.0)
        assert feed.queued_tokens == request.total_seq_len
        assert len(feed) == 1
        with pytest.raises(SchedulingError):
            TransferFeed().take(0.0)

    def test_feeds_a_decode_only_engine(self):
        # A transfer-fed engine runs decoding-only stages: the split decode
        # partition's whole existence.
        feed = TransferFeed()
        for rid in range(3):
            feed.push(0.0, _request(rid, lout=4, state=RequestState.DECODING))
        engine = _engine(source=feed)
        report = engine.run(SimulationLimits(max_stages=20, warmup_stages=0))
        assert report.requests_completed == 3
        assert report.decoding_only_stage_ratio == 1.0


class TestStageEvents:
    def test_observer_sees_admissions_and_completions(self):
        engine = _engine()
        events = []
        engine.observers.append(events.append)
        engine.run(SimulationLimits(max_stages=12, warmup_stages=0))
        assert events, "no stage events emitted"
        admitted = [rid for event in events for rid in event.admitted]
        finished = [rid for event in events for rid in event.finished]
        assert admitted and finished
        assert set(finished) <= set(admitted)
        assert all(event.latency_s > 0 for event in events)
        # Clock monotone across events.
        times = [event.now_s for event in events]
        assert times == sorted(times)

    def test_handoff_releases_and_forwards(self):
        inbox = QueueSource()
        inbox.push(_request(0, lin=16, lout=4))
        handed = []
        engine = _engine(source=inbox, handoff=lambda request, now: handed.append((request, now)))
        limits = SimulationLimits(max_stages=4, warmup_stages=0)
        assert engine.step(limits)
        assert len(handed) == 1
        request, when = handed[0]
        assert request.request_id == 0
        assert request.state is RequestState.DECODING
        assert when == engine.now_s
        assert engine.scheduler.running == []  # released from the batch
        assert engine.scheduler.committed_tokens == 0
        assert engine.handed_off_ids == [0]

    def test_single_token_output_finishes_instead_of_handing_off(self):
        inbox = QueueSource()
        inbox.push(_request(0, lin=16, lout=1))
        handed = []
        engine = _engine(source=inbox, handoff=lambda request, now: handed.append(request))
        engine.step(SimulationLimits(max_stages=4, warmup_stages=0))
        assert handed == []
        assert engine.finished_ids == [0]


class TestEngineBudget:
    def test_record_gate_overrides_warmup(self):
        gate_open = []
        engine = _engine(record_gate=lambda limits: bool(gate_open))
        limits = SimulationLimits(max_stages=10, warmup_stages=0)
        engine.step(limits)
        assert engine.metrics.stages_recorded == 0  # gate closed
        gate_open.append(True)
        engine.step(limits)
        assert engine.metrics.stages_recorded == 1


class TestDrainUntilComposesLikeDrain:
    """Slices of drain_until must reproduce one unbounded drain exactly —
    including across arrival gaps, where the engine advances (and books
    idle) to the same future-arrival instants an unbounded drain would."""

    def _gapped_source(self):
        # Three bursts separated by idle gaps larger than any slice.
        source = QueueSource()
        for rid, arrival in enumerate((0.0, 0.1, 2.5, 2.6, 7.3)):
            source.push(_request(rid, arrival=arrival, lin=64, lout=6))
        return source

    def test_slices_serve_work_beyond_idle_gaps(self):
        limits = SimulationLimits(max_stages=500, warmup_stages=0)
        whole = _engine(self._gapped_source())
        whole.drain_until(float("inf"), limits)
        sliced = _engine(self._gapped_source())
        t = 0.5
        for _ in range(200):
            sliced.drain_until(t, limits)
            t += 0.5
        sliced.drain_until(float("inf"), limits)  # terminal no-op if the slices finished
        assert sliced.finished_ids == whole.finished_ids == [0, 1, 2, 3, 4]
        assert sliced.stages == whole.stages
        assert sliced.metrics.elapsed_s == whole.metrics.elapsed_s  # idle splits agree
        assert sliced.now_s == whole.now_s

    def test_slice_leaves_arrivals_beyond_its_boundary(self):
        limits = SimulationLimits(max_stages=500, warmup_stages=0)
        engine = _engine(self._gapped_source())
        engine.drain_until(1.0, limits)  # first burst only
        assert engine.finished_ids == [0, 1]
        assert engine.now_s < 2.5  # did not advance into the idle gap


class TestSimulationLimitsHome:
    def test_simulator_reexports_limits(self):
        # The dataclass moved into the engine; the historical import path
        # must keep working.
        from repro.serving.simulator import SimulationLimits as FromSimulator

        assert FromSimulator is SimulationLimits

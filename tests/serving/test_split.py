"""Tests for the two-partition split deployment beyond the Fig. 16 path."""

import pytest

from repro.errors import ConfigError
from repro.models.config import mixtral
from repro.parallel.topology import ClusterTopology
from repro.serving.generator import QueueSource, WorkloadSpec
from repro.serving.request import Request
from repro.serving.simulator import SimulationLimits
from repro.serving.split import SplitServingSimulator, split_partitions
from repro.serving.trace import TraceRecord, TraceReplayGenerator

MODEL = mixtral()


def _trace(records):
    return TraceReplayGenerator(records)


def _replica(*requests):
    """A split pipeline over an inbox, the way a fleet builds one."""
    inbox = QueueSource()
    for request in requests:
        inbox.push(request)
    return SplitServingSimulator(MODEL, inbox, max_batch=8, seed=0, worst_case_tokens=8192), inbox


def _request(rid, arrival, lin=2048, lout=16):
    return Request(request_id=rid, arrival_time_s=arrival, input_len=lin, output_len=lout)


class TestKvHandoffLink:
    """The KV handoff must ride the link the topology actually provides."""

    def test_single_node_split_stays_on_nvlink(self):
        sim = SplitServingSimulator(
            MODEL, _trace([TraceRecord(0.0, 256, 4)]), max_batch=8, seed=0
        )
        assert sim._kv_crosses_nodes is False

    def test_multi_node_split_crosses_the_fabric(self):
        sim = SplitServingSimulator(
            MODEL,
            _trace([TraceRecord(0.0, 256, 4)]),
            max_batch=8,
            seed=0,
            topology=ClusterTopology(2, 8),
        )
        assert sim._kv_crosses_nodes is True

    def test_handoff_prices_the_topology_link(self):
        # Identical request, two deployments: the multi-node handoff must
        # be priced over the slower inter-node link, never NVLink.
        record = TraceRecord(arrival_s=0.0, input_len=4096, output_len=2)
        kv_bytes = record.input_len * MODEL.kv_bytes_per_token

        intra = SplitServingSimulator(MODEL, _trace([record]), max_batch=8, seed=0)
        inter = SplitServingSimulator(
            MODEL, _trace([record]), max_batch=8, seed=0, topology=ClusterTopology(2, 8)
        )
        t_intra = intra._collectives.point_to_point_time(
            kv_bytes, crosses_nodes=intra._kv_crosses_nodes
        )
        t_inter = inter._collectives.point_to_point_time(
            kv_bytes, crosses_nodes=inter._kv_crosses_nodes
        )
        assert t_inter > t_intra
        # Both legs match a hand-priced transfer over their own link.
        for sim, t in ((intra, t_intra), (inter, t_inter)):
            bandwidth, latency = sim._collectives.topology.link(sim._kv_crosses_nodes)
            assert t == pytest.approx(kv_bytes / bandwidth + latency)

    def test_multi_node_partitions_split_by_nodes(self):
        prefill, decode = split_partitions(MODEL, ClusterTopology(2, 8))
        assert prefill.topology.n_nodes == 1
        assert prefill.topology.devices_per_node == 8
        assert decode.topology == prefill.topology

    def test_odd_node_count_rejected(self):
        with pytest.raises(ConfigError):
            split_partitions(MODEL, ClusterTopology(3, 8))


class TestOpenLoopSplit:
    def test_finite_trace_drains_and_stops(self):
        source = _trace(
            [TraceRecord(arrival_s=0.05 * i, input_len=256, output_len=8) for i in range(12)]
        )
        sim = SplitServingSimulator(MODEL, source, max_batch=8, seed=0)
        report = sim.run(SimulationLimits(max_stages=200, warmup_stages=0))
        assert report.requests_completed == 12
        assert source.exhausted

    def test_arrival_during_transfer_window_is_not_starved(self):
        # Request 0 prefills immediately; its KV transfer is in flight when
        # request 1 arrives with the prefill partition free.  The idle jump
        # must stop at the arrival, not skip ahead to the transfer-ready
        # instant — request 1's T2FT is prefill work, not someone else's
        # transfer wait.
        first = SplitServingSimulator(
            MODEL,
            _trace([TraceRecord(arrival_s=0.0, input_len=4096, output_len=4)]),
            max_batch=8,
            seed=0,
        )
        first.run(SimulationLimits(max_stages=40, warmup_stages=0))
        solo_prefill_t2ft = first.metrics._t2ft[0]

        both = SplitServingSimulator(
            MODEL,
            _trace(
                [
                    TraceRecord(arrival_s=0.0, input_len=4096, output_len=4),
                    # Arrives mid-transfer: after request 0's prefill ends,
                    # well before a 4096-token KV transfer completes.
                    TraceRecord(
                        arrival_s=solo_prefill_t2ft * 1.001, input_len=4096, output_len=4
                    ),
                ]
            ),
            max_batch=8,
            seed=0,
        )
        both.run(SimulationLimits(max_stages=60, warmup_stages=0))
        t2fts = both.metrics._t2ft
        assert len(t2fts) == 2
        # With the prefill partition free at its arrival, request 1's T2FT
        # matches a solo prefill (small numeric slack for context effects);
        # a starved jump would add the KV-transfer wait on top.
        assert t2fts[1] <= solo_prefill_t2ft * 1.05

    def test_poisson_split_completes_requests(self):
        spec = WorkloadSpec(lin_mean=512, lout_mean=16, lin_cv=0.3, lout_cv=0.3, qps=20.0)
        report = SplitServingSimulator(MODEL, spec, max_batch=8, seed=1).run(
            SimulationLimits(max_stages=150, warmup_stages=4)
        )
        assert report.requests_completed > 0
        assert report.tbt_p50_s > 0


class TestStageBudget:
    def test_prefill_stages_never_spend_the_stage_budget(self):
        # Single-token requests finish at prefill: twelve prefill stages
        # against a five-stage budget, and no decode stage at all.  Only
        # decode stages bound a split run, so every request completes.
        source = _trace(
            [TraceRecord(arrival_s=0.05 * i, input_len=256, output_len=1) for i in range(12)]
        )
        sim = SplitServingSimulator(MODEL, source, max_batch=8, seed=0)
        report = sim.run(SimulationLimits(max_stages=5, warmup_stages=0))
        assert report.requests_completed == 12
        assert sim.prefill_engine.stages == 12
        assert sim.decode_engine.stages == 0


class TestDrainSlices:
    """``drain_until`` slices of a split pipeline (the cluster's drain
    phase) must serve work exactly as one unbounded drain does — the
    split twin of the engine's ``TestDrainUntilComposesLikeDrain``."""

    LIMITS = SimulationLimits(max_stages=500, warmup_stages=0)

    def _gapped(self):
        # Three bursts separated by idle gaps larger than any slice.
        return _replica(
            *(
                _request(rid, arrival, lin=64, lout=6)
                for rid, arrival in enumerate((0.0, 0.1, 2.5, 2.6, 7.3))
            )
        )[0]

    def test_request_routed_between_slices_is_served_as_if_queued_from_the_start(self):
        # Request 0's KV lands on the decode partition at about 41 ms,
        # well past the first slice boundary.  Request 1, routed at that
        # boundary, must prefill as soon as the prefill partition frees
        # up — not wait for the landing.
        sliced, inbox = _replica(_request(0, 0.0))
        sliced.drain_until(1e-4, self.LIMITS)
        late = _request(1, 1e-4)
        inbox.push(late)
        sliced.drain_until(float("inf"), self.LIMITS)

        twin_late = _request(1, 1e-4)
        twin, _ = _replica(_request(0, 0.0), twin_late)
        twin.drain_until(float("inf"), self.LIMITS)
        assert late.first_token_time_s == twin_late.first_token_time_s
        assert sliced.metrics.report() == twin.metrics.report()

    def test_slice_leaves_the_decode_clock_at_its_boundary(self):
        sim, _ = _replica(_request(0, 0.0))
        sim.drain_until(1e-4, self.LIMITS)
        assert sim.decode_engine.now_s <= 1e-4  # the KV landing waits
        gapped = self._gapped()
        gapped.drain_until(1.0, self.LIMITS)  # first burst only
        assert gapped.decode_engine.finished_ids == [0, 1]
        assert gapped.decode_engine.now_s <= 1.0  # not advanced into the gap

    def test_slices_compose_like_one_unbounded_drain(self):
        whole = self._gapped()
        whole.drain_until(float("inf"), self.LIMITS)
        sliced = self._gapped()
        t = 0.5
        for _ in range(200):
            sliced.drain_until(t, self.LIMITS)
            t += 0.5
        sliced.drain_until(float("inf"), self.LIMITS)  # terminal no-op if the slices finished
        for engine, twin in zip(sliced.engines, whole.engines, strict=True):
            assert engine.finished_ids == twin.finished_ids
            assert engine.stages == twin.stages
            assert engine.now_s == twin.now_s
        assert sliced.decode_engine.finished_ids == [0, 1, 2, 3, 4]
        assert sliced.metrics.report() == whole.metrics.report()

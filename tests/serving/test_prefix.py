"""Shared-prefix KV dedup tests (tier: ``-m prefix`` — see TESTING.md).

Four layers:

* **index properties** — hypothesis drives interleaved
  acquire/commit/release/evict (and release→reacquire round trips)
  against :class:`~repro.serving.paging.PrefixIndex`, auditing at every
  boundary: resident tokens equal the tree's block sum, refcounts equal
  the live holders pinning each path (so ``refcount(parent) >=
  refcount(child)``), no zero-ref pending block survives, and the pool
  cap holds;
* **scheduler mechanism** — suffix-only prefill for cache hits, one pool
  copy per concurrent family, family-wide preemption when a shared
  prefix must be evicted (with the device invariant ``committed + pool
  <= capacity`` audited at every stage boundary), and pool-cap-bounded
  sharing;
* **router units** — :class:`PrefixAffinityRouter` stickiness, fallback
  re-pinning when the owner leaves the routing set, seeded tie-breaks,
  and the no-randomness fleet-of-one guarantee;
* **equivalence anchors** — dedup enabled with zero shared prefixes is
  byte-identical to dedup-off across every invariant-suite engine
  configuration, and a prefix-affinity cluster of one matches the
  deterministic-router cluster float-for-float.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.core.system import duplex_system  # noqa: E402
from repro.errors import ConfigError, SchedulingError  # noqa: E402
from repro.models.config import mixtral  # noqa: E402
from repro.serving.cluster import (  # noqa: E402
    ClusterSimulator,
    PrefixAffinityRouter,
    ReplicaView,
    RoundRobinRouter,
)
from repro.serving.engine import KvPagingCoordinator, ServingEngine  # noqa: E402
from repro.serving.generator import QueueSource, WorkloadSpec  # noqa: E402
from repro.serving.paging import (  # noqa: E402
    EvictionPolicy,
    HostLink,
    PagedKvManager,
    PagingConfig,
    PrefixConfig,
    PrefixIndex,
)
from repro.serving.request import Request  # noqa: E402
from repro.serving.scenarios import agent_loop  # noqa: E402
from repro.serving.scheduler import ContinuousBatchingScheduler  # noqa: E402
from repro.serving.simulator import SimulationLimits  # noqa: E402

from test_invariants import CONFIGURATIONS  # noqa: E402

pytestmark = pytest.mark.prefix

MODEL = mixtral()
SYSTEM = duplex_system(MODEL, co_processing=True, expert_tensor_parallel=True)


# ----------------------------------------------------------------------
# index properties (hypothesis)
# ----------------------------------------------------------------------
#: Declared paths over a fixed segment catalog; shared roots guarantee
#: the interleaving actually exercises sharing, extension, and divergence.
PATHS = (
    ((0, 32),),
    ((0, 32), (1, 16)),
    ((0, 32), (1, 16), (2, 8)),
    ((0, 32), (3, 24)),
    ((4, 12),),
    ((4, 12), (5, 8)),
)


def _nodes(index: PrefixIndex):
    stack = list(index._root.children.values())
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children.values())


def _pinned(blocks, shared_tokens):
    """The path prefix an acquisition with ``shared_tokens`` pinned."""
    path, total = [], 0
    for key, tokens in blocks:
        if total == shared_tokens:
            break
        path.append((key, tokens))
        total += tokens
    assert total == shared_tokens, "shared span must end on a block boundary"
    return tuple(path)


def _expected_hit(index: PrefixIndex, blocks) -> int:
    """Contiguous-from-root ready tokens the next acquire should report."""
    node = index._root
    hit = 0
    for key, tokens in blocks:
        child = node.children.get(key)
        if child is None or not child.ready:
            break
        hit += tokens
        node = child
    return hit


def _audit(index: PrefixIndex, holders, cap) -> None:
    """The per-boundary invariants every interleaving must preserve."""
    nodes = list(_nodes(index))
    assert index.resident_tokens == sum(n.tokens for n in nodes), (
        "resident tokens diverge from the tree's block sum"
    )
    if cap is not None:
        assert index.resident_tokens <= cap, "pool exceeded its capacity"
    pins: dict[tuple[int, ...], int] = {}
    for path in holders.values():
        for i in range(1, len(path) + 1):
            key = tuple(k for k, _ in path[:i])
            pins[key] = pins.get(key, 0) + 1
    refcounts = index.refcounts()
    assert set(pins) <= set(refcounts), "a holder pins a block the tree lost"
    for path_key, refs in refcounts.items():
        assert refs == pins.get(path_key, 0), (
            f"refcount of {path_key} diverges from its live holders"
        )
        if len(path_key) > 1:
            assert refcounts[path_key[:-1]] >= refs, "child out-refs its parent"
    for node in nodes:
        if node.refcount == 0:
            assert node.ready, "a zero-ref pending block survived"


@given(data=st.data())
def test_index_invariants_under_interleaving(data):
    cap = data.draw(st.sampled_from((None, 40, 64, 96)), label="cap")
    index = PrefixIndex(PrefixConfig(capacity_tokens=cap))
    holders: dict[int, tuple] = {}   # rid -> pinned path
    declared: dict[int, tuple] = {}  # rid -> declared blocks (for reacquire)
    released: list[tuple[int, tuple, int]] = []
    next_rid = 0
    acquires = 0
    ops = ["acquire", "acquire", "commit", "release", "evict"]
    if cap is None:
        ops.append("reacquire")  # reacquire is cap-exempt by design
    for _ in range(data.draw(st.integers(min_value=8, max_value=40), label="ops")):
        op = data.draw(st.sampled_from(ops))
        if op == "acquire":
            rid, next_rid = next_rid, next_rid + 1
            blocks = data.draw(st.sampled_from(PATHS))
            existing = set(index.refcounts())
            hit = _expected_hit(index, blocks)
            acq = index.acquire(rid, blocks)
            acquires += 1
            pinned = _pinned(blocks, acq.shared_tokens)
            inserted = sum(
                tokens
                for i, (_, tokens) in enumerate(pinned)
                if tuple(k for k, _ in pinned[: i + 1]) not in existing
            )
            assert acq.inserted_tokens == inserted
            assert acq.hit_tokens == min(hit, acq.shared_tokens)
            if pinned:
                holders[rid] = pinned
                declared[rid] = blocks
                with pytest.raises(SchedulingError):
                    index.acquire(rid, blocks)  # double-acquire rejected
            else:
                assert not index.holds(rid)
        elif op == "commit" and holders:
            rid = data.draw(st.sampled_from(sorted(holders)))
            index.commit(rid)
        elif op == "release" and holders:
            rid = data.draw(st.sampled_from(sorted(holders)))
            before = index.resident_tokens
            dropped = index.release(rid)
            released.append((rid, declared.pop(rid), sum(t for _, t in holders.pop(rid))))
            assert dropped == before - index.resident_tokens, (
                "release dropped different tokens than it reported"
            )
        elif op == "reacquire" and released:
            rid, blocks, budget = released.pop(
                data.draw(st.integers(min_value=0, max_value=len(released) - 1))
            )
            ready_hit, missing = index.probe_resume(blocks, budget)
            acq = index.reacquire(rid, blocks, budget)
            assert acq.shared_tokens == budget
            assert acq.hit_tokens == ready_hit, "probe_resume disagrees with reacquire"
            assert acq.inserted_tokens == missing
            holders[rid] = _pinned(blocks, budget)
            declared[rid] = blocks
        elif op == "evict":
            needed = data.draw(st.integers(min_value=1, max_value=64))
            before = index.resident_tokens
            evictable = index.evictable_tokens()
            freed = index.evict_cached(needed)
            assert freed == before - index.resident_tokens
            assert freed <= evictable
            if evictable >= needed:
                assert freed >= needed, "room existed but eviction fell short"
        _audit(index, holders, cap)
    assert index.stats.acquisitions == acquires
    # Drain: releasing every holder leaves only zero-ref ready cache, all
    # of it evictable; a full eviction returns the pool to empty.
    for rid in sorted(holders):
        index.release(rid)
    holders.clear()
    _audit(index, holders, cap)
    assert index.holder_count == 0
    assert index.evictable_tokens() == index.resident_tokens
    index.evict_cached(index.resident_tokens)
    assert index.resident_tokens == 0


def test_block_validation():
    index = PrefixIndex()
    with pytest.raises(ConfigError):
        index.acquire(0, ())
    with pytest.raises(ConfigError):
        index.acquire(0, ((1, 0),))
    index.acquire(0, ((1, 16),))
    with pytest.raises(ConfigError):
        index.acquire(1, ((1, 8),))  # segment re-declared with new length
    with pytest.raises(SchedulingError):
        index.release(99)  # not a holder


# ----------------------------------------------------------------------
# scheduler mechanism (stub executor, hand-fed requests)
# ----------------------------------------------------------------------
class _StubExecutor:
    """Fixed-latency pricing, enough surface for engine + coordinator."""

    latency_s = 0.01

    def run_stage(self, workload):
        class _Result:
            latency_s = self.latency_s
            is_mixed = workload.is_mixed
            dram_energy_by_category: dict = {}
            compute_energy_by_category: dict = {}
            comm_energy_j = 0.0

        return _Result()

    def price_decode_run(self, context_lengths, n_stages):
        return None  # no steady runs: every stage goes through run_stage


def _request(rid, arrival, lin=30, lout=4, blocks=None):
    return Request(
        request_id=rid,
        arrival_time_s=arrival,
        input_len=lin,
        output_len=lout,
        prefix_blocks=blocks,
    )


def make_prefix_engine(
    capacity=200,
    max_batch=8,
    pool_cap=None,
    paging_policy=None,
):
    source = QueueSource()
    executor = _StubExecutor()
    index = PrefixIndex(PrefixConfig(capacity_tokens=pool_cap))
    coordinator = None
    if paging_policy is not None:
        manager = PagedKvManager(
            capacity_tokens=capacity,
            kv_bytes_per_token=1.0,
            policy=paging_policy,
            link=HostLink(bandwidth=1e6, latency_s=0.001),
        )
        coordinator = KvPagingCoordinator(manager, executor)
    scheduler = ContinuousBatchingScheduler(
        source, max_batch, capacity, paging=coordinator, prefix=index
    )
    engine = ServingEngine(scheduler, executor, label="prefix-test")
    return engine, scheduler, index, source


LIMITS = SimulationLimits(max_stages=2000, warmup_stages=0)


def _chunks_by_request(events):
    booked: dict[int, int] = {}
    for event in events:
        for rid, tokens in event.prefill_chunks:
            booked[rid] = booked.get(rid, 0) + tokens
    return booked


def test_prefix_requires_finite_capacity():
    with pytest.raises(ConfigError):
        ContinuousBatchingScheduler(QueueSource(), 4, None, prefix=PrefixIndex())


def test_second_holder_prefills_only_the_suffix():
    engine, scheduler, index, source = make_prefix_engine()
    source.push(_request(0, 0.0, lin=30, blocks=((7, 20),)))
    source.push(_request(1, 0.1, lin=30, blocks=((7, 20),)))  # after 0 commits
    events = []
    engine.observers.append(events.append)
    engine.run(LIMITS)
    assert sorted(engine.finished_ids) == [0, 1]
    booked = _chunks_by_request(events)
    assert booked[0] == 30, "the first holder computes the whole prompt"
    assert booked[1] == 10, "the second holder prefills only the uncached suffix"
    assert index.stats.hit_tokens == 20
    assert index.holder_count == 0, "finish must release every hold"


def test_concurrent_family_occupies_one_pool_copy():
    engine, scheduler, index, source = make_prefix_engine(capacity=100)
    # Both arrive before either prefill commits: the second shares the
    # first's *pending* blocks (one reservation) but cannot hit them yet.
    source.push(_request(0, 0.0, lin=30, blocks=((9, 20),)))
    source.push(_request(1, 0.0, lin=30, blocks=((9, 20),)))
    events = []
    engine.observers.append(events.append)
    engine.run(LIMITS)
    assert sorted(engine.finished_ids) == [0, 1]
    assert index.stats.inserted_tokens == 20, "the family inserted one copy"
    assert index.stats.hit_tokens == 0, "pending blocks are not hit-able"
    booked = _chunks_by_request(events)
    assert booked[0] == 30 and booked[1] == 30


def test_pool_cap_bounds_the_shared_span():
    engine, scheduler, index, source = make_prefix_engine(capacity=400, pool_cap=32)
    blocks = ((11, 24), (12, 24))  # 48 declared > 32 of pool cap
    source.push(_request(0, 0.0, lin=60, blocks=blocks))
    source.push(_request(1, 0.1, lin=60, blocks=blocks))
    events = []
    engine.observers.append(events.append)
    engine.run(LIMITS)
    assert sorted(engine.finished_ids) == [0, 1]
    assert index.peak_resident_tokens <= 32
    booked = _chunks_by_request(events)
    # Only the first (cap-fitting) block is shared and hit-able.
    assert booked[0] == 60
    assert booked[1] == 60 - 24


@pytest.mark.parametrize("policy", [EvictionPolicy.MIGRATE, EvictionPolicy.RECOMPUTE])
def test_shared_prefix_eviction_preempts_the_whole_family(policy):
    engine, scheduler, index, source = make_prefix_engine(
        capacity=100, paging_policy=policy
    )
    # Family 0+1 shares a 40-token prefix: 2 x 30 private + 40 pooled fill
    # the device exactly, so the private arrival can only fit by evicting
    # the shared span — which preempts *both* holders at one boundary.
    source.push(_request(0, 0.0, lin=50, lout=20, blocks=((13, 40),)))
    source.push(_request(1, 0.0, lin=50, lout=20, blocks=((13, 40),)))
    source.push(_request(2, 0.05, lin=60, lout=8))
    events = []
    engine.observers.append(events.append)

    def device_invariant(event):
        pool = scheduler.prefix_resident_tokens
        assert event.committed_tokens + pool <= event.capacity_tokens, (
            f"device over-committed: {event.committed_tokens} private + "
            f"{pool} pooled > {event.capacity_tokens}"
        )

    engine.observers.append(device_invariant)
    engine.run(LIMITS)
    family_evictions = [set(e.preempted) for e in events if e.preempted]
    assert {0, 1} in family_evictions, "the prefix family must be preempted together"
    assert sorted(engine.finished_ids) == [0, 1, 2]
    assert sorted(scheduler.admitted_log) == [0, 1, 2]
    assert index.holder_count == 0
    # Exact token conservation across evict/resume: the pool dropped its
    # copy once and the family re-pinned on resume, never double-counted.
    assert all(refs == 0 for refs in index.refcounts().values())


def test_resumed_family_repins_its_shared_span():
    engine, scheduler, index, source = make_prefix_engine(
        capacity=100, paging_policy=EvictionPolicy.MIGRATE
    )
    source.push(_request(0, 0.0, lin=50, lout=20, blocks=((13, 40),)))
    source.push(_request(1, 0.0, lin=50, lout=20, blocks=((13, 40),)))
    source.push(_request(2, 0.05, lin=60, lout=8))
    resumed_holds = []
    events = []
    engine.observers.append(events.append)
    engine.observers.append(
        lambda event: resumed_holds.extend(
            (rid, index.holds(rid)) for rid in event.resumed
        )
    )
    engine.run(LIMITS)
    assert resumed_holds, "the family never resumed"
    assert all(held for _, held in resumed_holds), (
        "a resumed family member landed without re-pinning its prefix"
    )


# ----------------------------------------------------------------------
# prefix-affinity router
# ----------------------------------------------------------------------
def _view(index, outstanding=0, resident=0, capacity=None):
    return ReplicaView(
        index=index,
        queue_depth=0,
        outstanding_tokens=outstanding,
        now_s=0.0,
        resident_tokens=resident,
        capacity_tokens=capacity,
    )


def _routed(rid, root=None):
    blocks = ((root, 64),) if root is not None else None
    return _request(rid, 0.0, lin=128, blocks=blocks)


class TestPrefixAffinityRouter:
    def test_sessions_stick_to_their_owner(self):
        router = PrefixAffinityRouter(seed=0)
        views = [_view(0, outstanding=500), _view(1, outstanding=10)]
        assert router.choose(views, _routed(0, root=5)) == 1  # lighter wins
        # The owner keeps the session even once it is the heavier replica.
        views = [_view(0, outstanding=10), _view(1, outstanding=500)]
        assert router.choose(views, _routed(1, root=5)) == 1

    def test_fallback_repins_when_owner_leaves_the_routing_set(self):
        router = PrefixAffinityRouter(seed=0)
        views = [_view(0, outstanding=500), _view(1, outstanding=10)]
        assert router.choose(views, _routed(0, root=5)) == 1
        # Replica 1 drains/fails: its view is no longer offered, so the
        # key falls back to pressure scoring and re-pins to the survivor.
        assert router.choose([_view(0, outstanding=500)], _routed(1, root=5)) == 0
        # The re-pin is durable: with the old owner back and idle, the
        # session stays where its cache now actually lives.
        views = [_view(0, outstanding=500), _view(1, outstanding=0)]
        assert router.choose(views, _routed(2, root=5)) == 0

    def test_memory_pressure_steers_unpinned_requests(self):
        router = PrefixAffinityRouter(seed=0, pressure_weight=4.0)
        views = [
            _view(0, outstanding=100, resident=95, capacity=100),
            _view(1, outstanding=110, resident=5, capacity=100),
        ]
        # Equal-ish queues, but replica 0 is nearly out of KV: the
        # pressure-inflated score sends the new session to replica 1.
        assert router.choose(views, _routed(0, root=8)) == 1

    def test_exact_ties_break_by_seed_not_by_index(self):
        views = [_view(0, outstanding=0), _view(1, outstanding=0)]
        chosen = [
            PrefixAffinityRouter(seed=0).choose(views, _routed(i)) for i in range(32)
        ]
        # Identical routers replay the identical sequence …
        replay = [
            PrefixAffinityRouter(seed=0).choose(views, _routed(i)) for i in range(32)
        ]
        assert chosen == replay
        # … and a *stateful* router's seeded stream visits both replicas.
        router = PrefixAffinityRouter(seed=0)
        stream = {router.choose(views, _routed(i)) for i in range(32)}
        assert stream == {0, 1}, "ties funnelled onto one replica"

    def test_fleet_of_one_consumes_no_randomness(self):
        router = PrefixAffinityRouter(seed=0)
        for rid in range(16):
            assert router.choose([_view(3)], _routed(rid)) == 3
        probe = np.random.default_rng(0)
        assert router._rng.integers(1 << 30) == probe.integers(1 << 30), (
            "a fleet of one must not advance the tie-break RNG"
        )

    def test_cluster_of_one_matches_deterministic_router(self):
        spec = WorkloadSpec(lin_mean=256, lout_mean=32, lin_cv=0.3, lout_cv=0.3, qps=30.0)
        limits = SimulationLimits(max_stages=60, warmup_stages=6)
        reports = []
        for router in (RoundRobinRouter(), PrefixAffinityRouter(seed=0)):
            sim = ClusterSimulator(
                SYSTEM, MODEL, spec, n_replicas=1, router=router,
                max_batch=8, seed=3, max_requests=40,
            )
            reports.append(sim.run(limits))
        assert reports[0].fleet == reports[1].fleet


# ----------------------------------------------------------------------
# equivalence anchor: dedup on + zero shared prefixes == dedup off
# ----------------------------------------------------------------------
def _force_dedup(probe) -> int:
    """Enable an (unused) prefix index on every capacity-bearing engine."""
    enabled = 0
    for engine in probe.engines:
        scheduler = engine.scheduler
        if getattr(scheduler, "capacity_tokens", None) is None:
            continue  # e.g. a split partition without a KV budget
        scheduler.prefix = PrefixIndex(PrefixConfig())
        engine._prefix_enabled = True
        enabled += 1
    return enabled


ANCHOR_SPECS = [((64, 8, 0.2, 0.2), 7), ((160, 24, 0.5, 0.0), 12345)]


@pytest.mark.parametrize("config", sorted(CONFIGURATIONS))
@pytest.mark.parametrize("spec_params,seed", ANCHOR_SPECS)
def test_zero_shared_trajectory_is_byte_identical(config, spec_params, seed):
    run_off, probe_off, _ = CONFIGURATIONS[config](spec_params, seed)
    report_off = run_off()
    run_on, probe_on, _ = CONFIGURATIONS[config](spec_params, seed)
    assert _force_dedup(probe_on) > 0, "no engine could host a prefix index"
    report_on = run_on()
    assert probe_on.events == probe_off.events, (
        "an idle prefix index perturbed the stage-event trajectory"
    )
    assert report_on == report_off
    fleet = getattr(report_on, "fleet", report_on)
    assert fleet.prefix == {}, "dedup metrics fired without any prefix request"
    for engine in probe_on.engines:
        index = getattr(engine.scheduler, "prefix", None)
        if index is not None:
            assert index.resident_tokens == 0 and index.stats.acquisitions == 0


# ----------------------------------------------------------------------
# fleet pooling: prefix counters aggregate across replicas
# ----------------------------------------------------------------------
def test_fleet_report_pools_prefix_counters():
    source = agent_loop().source(seed=3, max_requests=40)
    sim = ClusterSimulator(
        SYSTEM, MODEL, source,
        n_replicas=2,
        router=PrefixAffinityRouter(seed=0),
        max_batch=16,
        seed=3,
        prefix=PrefixConfig(capacity_tokens=64 * 1024),
    )
    report = sim.run(SimulationLimits(max_stages=3000, warmup_stages=0))
    fleet = report.fleet
    assert fleet.prefix.get("hit_tokens", 0.0) > 0, "agent loops must hit the cache"
    measured = [replica for replica in report.replicas if replica is not None]
    # Counters sum across replicas; so do the per-pool high-water marks
    # (each replica owns a distinct pool, so the sum bounds the fleet's
    # concurrent shared-residency footprint).
    for key in (
        "admissions", "hit_tokens", "miss_tokens",
        "saved_prefill_s", "peak_shared_tokens",
    ):
        assert fleet.prefix.get(key, 0.0) == pytest.approx(
            sum(replica.prefix.get(key, 0.0) for replica in measured)
        )


# ----------------------------------------------------------------------
# SL005 regression: ``index.stats`` is an immutable snapshot
# ----------------------------------------------------------------------
def test_stats_snapshot_does_not_change_retroactively():
    """The pre-simlint PrefixStats was mutated in place; a captured
    ``.stats`` alias kept changing as the pool worked.  Pin the frozen
    snapshot contract that replaced it."""
    index = PrefixIndex()
    index.acquire(0, ((1, 16),))
    before = index.stats
    assert before.acquisitions == 1 and before.inserted_tokens == 16
    index.commit(0)
    index.acquire(1, ((1, 16),))
    assert before.acquisitions == 1, "captured snapshot must not change under its feet"
    assert index.stats.acquisitions == 2
    assert index.stats.hit_tokens == 16


def test_stats_snapshot_is_frozen():
    import dataclasses

    with pytest.raises(dataclasses.FrozenInstanceError):
        PrefixIndex().stats.acquisitions = 3


def test_stats_snapshots_equal_across_identical_runs():
    def run():
        index = PrefixIndex(PrefixConfig(capacity_tokens=64))
        index.acquire(0, ((1, 16), (2, 8)))
        index.commit(0)
        index.acquire(1, ((1, 16), (2, 8)))
        index.release(0)
        index.release(1)
        return index.stats

    assert run() == run()

"""Failure injection and recovery policies for fleet serving.

Design note — the failure model
-------------------------------

Production accelerator fleets fail in a handful of recurring ways, and
this module prices each of them against the simulator's virtual clock:

* **Replica crashes** — the whole serving process dies (host kernel
  panic, accelerator driver wedge).  Modeled as an exponential
  inter-failure draw (``crash_mtbf_s``) per replica life, or as an
  explicit trace of ``(crash_s, replica_index)`` pairs
  (``crash_times``) when an experiment needs the *same* crash schedule
  across fleet shapes.  A crashed replica freezes at the first stage
  boundary at or after its crash instant: in-flight KV is gone, queued
  requests are stranded until the control plane notices.
* **Device-level failures** — one accelerator in a multi-device
  (sharded TP×EP) replica dies and takes the whole replica with it: the
  per-device rate ``1 / device_mtbf_s`` scales with the replica's device
  footprint, so an 8-device sharded replica draws failures eight times
  as often as a monolith.  This is the blast-radius asymmetry the chaos
  sweep quantifies.
* **Transient stragglers** — a replica intermittently slows down
  (thermal throttling, noisy neighbour): stage latencies are multiplied
  by ``straggler_factor`` over sampled windows of
  ``straggler_duration_s``.  Energy is *not* scaled — a straggler wastes
  wall-clock, not joules per token.
* **Interconnect degradation** — the host link that prices KV paging
  and migration transfers degrades fleet-wide: transfer times are
  multiplied by ``link_factor`` over sampled windows.

Detection is not free: the health checker only observes a crash
``detection_latency_s`` after it happens, and the window between crash
and detection is exactly where requests pile onto a dead replica.
Recovery is priced honestly — lost prefill re-runs through the
RECOMPUTE path on the retry target, paged-out requests whose KV
survived on the host resume via a MIGRATE-style transfer, and retried
requests keep their original submission time so T2FT/E2E percentiles
absorb the full failure penalty.

RNG stream map
--------------

Every stochastic component of a serving run owns its own named child
stream of the top-level seed so subsystems can be enabled or disabled
without perturbing each other:

=====================  =============================================
component              stream
=====================  =============================================
workload / scenario    ``np.random.default_rng(seed)`` (the root
                       arrival/length stream; predates this module
                       and is pinned by the golden snapshots)
replica ``k`` gating   executor RNG seeded ``seed + k`` (pinned by
                       the cluster-of-one equivalence tests)
router tie-breaks      the router's own ``seed`` argument
fault injector         ``stream_seed(seed, "faults")`` — a
                       :class:`numpy.random.SeedSequence` child keyed
                       by the CRC-32 of the stream name
=====================  =============================================

The invariant enforced by ``tests/serving/test_faults.py``: arming a
:class:`FaultInjector` whose schedule produces no faults inside the
simulated horizon leaves the entire trajectory — every report field —
byte-identical to a run with no injector at all.  New stochastic
components must derive their stream via :func:`stream_seed` with a
fresh name rather than consuming draws from an existing stream.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "FaultConfig",
    "FaultInjector",
    "RetryPolicy",
    "StageTimeProfile",
    "stream_seed",
]


def stream_seed(seed: int | None, name: str) -> int | None:
    """Derive a named child seed from a top-level seed.

    Uses a :class:`numpy.random.SeedSequence` spawn keyed by the CRC-32
    of ``name``, so distinct component names get statistically
    independent streams while the same ``(seed, name)`` pair is
    reproducible across runs and platforms.  ``None`` passes through
    (an unseeded component stays unseeded).
    """
    if seed is None:
        return None
    sequence = np.random.SeedSequence(
        int(seed), spawn_key=(zlib.crc32(name.encode("utf-8")),)
    )
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


class StageTimeProfile:
    """A piecewise stage-time multiplier with a monotone read cursor.

    ``windows`` is a sorted, non-overlapping sequence of
    ``(start_s, end_s, factor)`` triples; outside every window the
    multiplier is 1.0.  Reads must be non-decreasing in time (each
    engine's virtual clock is), which lets the lookup keep a cursor
    instead of bisecting — the armed-but-quiescent case (no windows)
    costs two attribute reads per stage.
    """

    __slots__ = ("windows", "_cursor")

    def __init__(self, windows: tuple[tuple[float, float, float], ...]) -> None:
        self.windows = tuple(windows)
        self._cursor = 0

    def scale_at(self, t: float) -> float:
        """Multiplier in effect at time ``t`` (1.0 outside windows)."""
        windows = self.windows
        i = self._cursor
        while i < len(windows) and windows[i][1] <= t:
            i += 1
        self._cursor = i
        if i < len(windows) and windows[i][0] <= t:
            return windows[i][2]
        return 1.0

    def next_change_s(self, t: float) -> float:
        """Earliest instant after ``t`` where the multiplier changes.

        ``inf`` once the schedule is exhausted — the steady-run fast
        path uses this as a horizon so it never coasts across a window
        boundary at the wrong multiplier.
        """
        windows = self.windows
        i = self._cursor
        while i < len(windows) and windows[i][1] <= t:
            i += 1
        if i >= len(windows):
            return float("inf")
        start, end, _ = windows[i]
        return end if start <= t else start


@dataclass(frozen=True)
class FaultConfig:
    """What the :class:`FaultInjector` schedules.

    All sources default to off; the default config injects nothing and
    an injector built from it is byte-identical to no injector at all.

    Attributes:
        crash_mtbf_s: mean time between whole-replica crashes (per
            replica life; exponential draws).  None disables.
        device_mtbf_s: mean time between failures *per device*; a
            replica spanning ``n`` devices draws at ``n`` times the
            rate, and a device failure kills the owning replica.
        crash_mttr_s: mean time to repair.  When set, a FAILED replica
            returns to ACTIVE after this fixed dwell (in-place repair);
            None leaves failures terminal for the rest of the run.
        detection_latency_s: delay between a crash and the health
            checker observing it; routers keep routing to the dead
            replica inside this window.
        crash_times: explicit ``(crash_s, replica_index)`` schedule
            replayed verbatim — the fixed crash schedule the chaos
            sweep holds constant across fleet shapes and retry
            policies.
        straggler_mtbf_s / straggler_duration_s / straggler_factor:
            per-replica transient slowdown windows (stage-time
            multiplier ``straggler_factor`` for ``straggler_duration_s``
            at exponential ``straggler_mtbf_s`` spacing).
        link_mtbf_s / link_duration_s / link_factor: fleet-wide host
            link degradation windows (KV paging/migration transfer
            times scale by ``link_factor``).
        horizon_s: pre-sampling horizon for straggler/link window
            schedules (required when either is enabled), and an upper
            bound on sampled crash instants when set.
    """

    crash_mtbf_s: float | None = None
    device_mtbf_s: float | None = None
    crash_mttr_s: float | None = None
    detection_latency_s: float = 1.0
    crash_times: tuple[tuple[float, int], ...] = ()
    straggler_mtbf_s: float | None = None
    straggler_duration_s: float = 5.0
    straggler_factor: float = 2.0
    link_mtbf_s: float | None = None
    link_duration_s: float = 10.0
    link_factor: float = 4.0
    horizon_s: float | None = None

    def __post_init__(self) -> None:
        for name in ("crash_mtbf_s", "device_mtbf_s", "crash_mttr_s",
                     "straggler_mtbf_s", "link_mtbf_s", "horizon_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(f"{name} must be positive when set")
        if self.detection_latency_s < 0:
            raise ConfigError("detection_latency_s must be non-negative")
        for name in ("straggler_duration_s", "link_duration_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("straggler_factor", "link_factor"):
            if getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be at least 1.0 (a slowdown)")
        object.__setattr__(
            self, "crash_times", tuple((float(t), int(i)) for t, i in self.crash_times)
        )
        for crash_s, index in self.crash_times:
            if crash_s < 0 or index < 0:
                raise ConfigError("crash_times entries must be (time >= 0, index >= 0)")
        if self.horizon_s is None and (
            self.straggler_mtbf_s is not None or self.link_mtbf_s is not None
        ):
            raise ConfigError(
                "straggler/link schedules are pre-sampled: set horizon_s to bound them"
            )


@dataclass(frozen=True)
class RetryPolicy:
    """How lost in-flight requests are re-admitted after a crash.

    Attributes:
        max_attempts: total admission attempts per request (the first
            admission counts as attempt 1; ``max_attempts=1`` retries
            nothing — the no-retry baseline).
        backoff_base_s: delay before the first retry.
        backoff_multiplier: exponential growth factor per further
            attempt.
        jitter_fraction: symmetric jitter applied to each delay (drawn
            on the fault injector's RNG stream, never the engine's).
        per_tenant_budget: optional cap on total retries per tenant —
            a noisy tenant's crash-looping cannot starve the rest of
            the retry capacity.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    jitter_fraction: float = 0.25
    per_tenant_budget: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be at least 1")
        if self.backoff_base_s <= 0:
            raise ConfigError("backoff_base_s must be positive")
        if self.backoff_multiplier < 1.0:
            raise ConfigError("backoff_multiplier must be at least 1.0")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ConfigError("jitter_fraction must lie in [0, 1)")
        if self.per_tenant_budget is not None and self.per_tenant_budget < 0:
            raise ConfigError("per_tenant_budget must be non-negative")

    def delay_s(self, attempt: int, rng: np.random.Generator | None = None) -> float:
        """Backoff before admission attempt ``attempt`` (2 = first retry)."""
        delay = self.backoff_base_s * self.backoff_multiplier ** max(0, attempt - 2)
        if rng is not None and self.jitter_fraction > 0.0:
            delay *= 1.0 + self.jitter_fraction * (2.0 * float(rng.random()) - 1.0)
        return delay


class FaultInjector:
    """Schedules failures against the fleet's virtual clock.

    The injector owns its own RNG stream (``stream_seed(seed,
    "faults")``) so its draws never perturb workload, gating, or router
    streams: a schedule that injects nothing inside the horizon leaves
    the run byte-identical to an injector-free run.  Built with
    ``seed=None`` it derives its stream from the cluster seed at
    :meth:`bind` time.
    """

    def __init__(self, config: FaultConfig | None = None, seed: int | None = None) -> None:
        self.config = config if config is not None else FaultConfig()
        self._rng: np.random.Generator | None = (
            np.random.default_rng(stream_seed(seed, "faults")) if seed is not None else None
        )
        self._straggler_windows: dict[int, tuple[tuple[float, float, float], ...]] = {}
        self._link_windows: tuple[tuple[float, float, float], ...] | None = None

    def bind(self, seed: int | None) -> None:
        """Adopt the cluster's top-level seed (no-op if already seeded)."""
        if self._rng is None:
            self._rng = np.random.default_rng(stream_seed(seed, "faults"))

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            self.bind(None)
        assert self._rng is not None
        return self._rng

    @property
    def detection_latency_s(self) -> float:
        return self.config.detection_latency_s

    # ------------------------------------------------------------------
    # crash schedule
    # ------------------------------------------------------------------
    def sample_crash(
        self, index: int, active_from_s: float, n_devices: int = 1
    ) -> tuple[float, str] | None:
        """Next crash for replica ``index`` active from ``active_from_s``.

        Returns ``(crash_s, cause)`` with cause ``"replica"`` or
        ``"device"``, or None when no crash is scheduled.  Trace
        entries take precedence over an MTBF draw landing later; the
        per-device rate scales with ``n_devices`` so wider sharded
        replicas fail proportionally more often.
        """
        cfg = self.config
        best = float("inf")
        cause = "replica"
        for crash_s, target in cfg.crash_times:
            if target == index and active_from_s <= crash_s < best:
                best = crash_s
        replica_rate = (1.0 / cfg.crash_mtbf_s) if cfg.crash_mtbf_s else 0.0
        device_rate = (n_devices / cfg.device_mtbf_s) if cfg.device_mtbf_s else 0.0
        rate = replica_rate + device_rate
        if rate > 0.0:
            drawn = active_from_s + float(self.rng.exponential(1.0 / rate))
            inside = cfg.horizon_s is None or drawn <= cfg.horizon_s
            if inside and drawn < best:
                best = drawn
                if device_rate and replica_rate:
                    cause = "device" if float(self.rng.random()) < device_rate / rate else "replica"
                elif device_rate:
                    cause = "device"
        if best == float("inf"):
            return None
        return best, cause

    # ------------------------------------------------------------------
    # slowdown schedules
    # ------------------------------------------------------------------
    def _sample_windows(
        self, mtbf_s: float, duration_s: float, factor: float
    ) -> tuple[tuple[float, float, float], ...]:
        horizon = self.config.horizon_s
        assert horizon is not None  # enforced by FaultConfig
        windows: list[tuple[float, float, float]] = []
        t = float(self.rng.exponential(mtbf_s))
        while t < horizon:
            windows.append((t, t + duration_s, factor))
            t += duration_s + float(self.rng.exponential(mtbf_s))
        return tuple(windows)

    def straggler_windows(self, index: int) -> tuple[tuple[float, float, float], ...]:
        """Replica ``index``'s slowdown windows (sampled once, cached)."""
        if self.config.straggler_mtbf_s is None:
            return ()
        if index not in self._straggler_windows:
            self._straggler_windows[index] = self._sample_windows(
                self.config.straggler_mtbf_s,
                self.config.straggler_duration_s,
                self.config.straggler_factor,
            )
        return self._straggler_windows[index]

    def straggler_profile(self, index: int) -> StageTimeProfile | None:
        """Fresh cursor over replica ``index``'s windows (None if none)."""
        windows = self.straggler_windows(index)
        return StageTimeProfile(windows) if windows else None

    def link_windows(self) -> tuple[tuple[float, float, float], ...]:
        """Fleet-wide host-link degradation windows (sampled once)."""
        if self.config.link_mtbf_s is None:
            return ()
        if self._link_windows is None:
            self._link_windows = self._sample_windows(
                self.config.link_mtbf_s,
                self.config.link_duration_s,
                self.config.link_factor,
            )
        return self._link_windows

    def link_profile(self) -> StageTimeProfile | None:
        """Per-replica cursor over the shared link windows (None if none).

        Each replica gets its own cursor instance because replica
        clocks advance independently; the window schedule itself is
        sampled once and shared.
        """
        windows = self.link_windows()
        return StageTimeProfile(windows) if windows else None

"""Workload scenario library: traffic shapes beyond Gaussian-Poisson.

The paper evaluates synthetic Gaussian-length workloads under closed-loop
or Poisson arrivals (Section VI).  Production serving sees much richer
regimes — flash crowds, diurnal cycles, heavy-tailed summarization
prompts, tenants with different SLOs sharing a fleet.  This module makes
those regimes first-class and composable:

* an :class:`ArrivalProcess` shapes *when* requests arrive — Poisson,
  Markov-modulated bursts, a diurnal sinusoid, or a replayed arrival
  trace;
* a :class:`LengthDistribution` shapes *what* arrives — Gaussian,
  lognormal heavy-tail, or a bimodal chat/summarize mix;
* a :class:`TenantSpec` attaches a name, traffic share, and optional
  per-tenant T2FT SLO to one length distribution;
* a :class:`Scenario` composes one arrival process with a tenant mix and
  yields a standard :class:`~repro.serving.generator.RequestSource`, so
  every simulator in this library — single engine, split deployment,
  heterogeneous cluster — runs it unchanged.

Scenarios are *specifications* (frozen dataclasses): building a source
with a seed is what instantiates RNG state, so one scenario can drive many
independent, reproducible runs.  The registry at the bottom maps names to
scenario factories; ``repro.experiments.sweep.scenario_param_sets`` turns
registered names into process-pool-safe sweep points, ``fig13`` accepts a
``scenario=`` override, and ``examples/scenario_gallery.py`` tours the
built-ins on a heterogeneous fleet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from itertools import count
from typing import Callable, Iterator, Protocol, runtime_checkable

import numpy as np

from repro.errors import ConfigError, SchedulingError
from repro.serving.request import Request


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------
@runtime_checkable
class ArrivalProcess(Protocol):
    """When requests arrive.

    ``stream`` yields non-decreasing absolute arrival times (seconds);
    ``mean_qps`` is the long-run average rate (used to rescale a scenario
    to a target load); ``rate_at`` is the rate envelope a scheduled scaler
    plans against (``mean_qps`` for processes without a known envelope);
    ``scaled`` multiplies the offered load.
    """

    def stream(self, rng: np.random.Generator) -> Iterator[float]: ...

    @property
    def mean_qps(self) -> float: ...

    def rate_at(self, t: float) -> float: ...

    def scaled(self, factor: float) -> "ArrivalProcess": ...


def _require_positive(name: str, value: float) -> None:
    if value <= 0:
        raise ConfigError(f"{name} must be positive")


@dataclass(frozen=True)
class PoissonArrivals:
    """Memoryless arrivals at a constant rate (the paper's Fig. 13 load)."""

    qps: float

    def __post_init__(self) -> None:
        _require_positive("qps", self.qps)

    @property
    def mean_qps(self) -> float:
        return self.qps

    def rate_at(self, t: float) -> float:
        return self.mean_qps

    def scaled(self, factor: float) -> "PoissonArrivals":
        _require_positive("scale factor", factor)
        return replace(self, qps=self.qps * factor)

    def stream(self, rng: np.random.Generator) -> Iterator[float]:
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / self.qps))
            yield t


@dataclass(frozen=True)
class BurstyArrivals:
    """Two-state Markov-modulated Poisson process (flash crowds).

    The process alternates between a *calm* state (rate ``base_qps``,
    exponentially distributed dwell of mean ``mean_calm_s``) and a *burst*
    state (rate ``burst_qps``, mean dwell ``mean_burst_s``).  Thanks to
    memorylessness, resampling the inter-arrival gap at each state switch
    is exact.
    """

    base_qps: float
    burst_qps: float
    mean_calm_s: float = 60.0
    mean_burst_s: float = 15.0

    def __post_init__(self) -> None:
        for name in ("base_qps", "burst_qps", "mean_calm_s", "mean_burst_s"):
            _require_positive(name, getattr(self, name))
        if self.burst_qps < self.base_qps:
            raise ConfigError("burst_qps must be at least base_qps")

    @property
    def mean_qps(self) -> float:
        weight = self.mean_calm_s + self.mean_burst_s
        return (self.base_qps * self.mean_calm_s + self.burst_qps * self.mean_burst_s) / weight

    def rate_at(self, t: float) -> float:
        """The long-run mean: bursts come at random, not on a schedule."""
        return self.mean_qps

    def scaled(self, factor: float) -> "BurstyArrivals":
        _require_positive("scale factor", factor)
        return replace(
            self, base_qps=self.base_qps * factor, burst_qps=self.burst_qps * factor
        )

    def stream(self, rng: np.random.Generator) -> Iterator[float]:
        t = 0.0
        in_burst = False
        state_end = float(rng.exponential(self.mean_calm_s))
        while True:
            rate = self.burst_qps if in_burst else self.base_qps
            gap = float(rng.exponential(1.0 / rate))
            if t + gap <= state_end:
                t += gap
                yield t
            else:
                t = state_end
                in_burst = not in_burst
                dwell = self.mean_burst_s if in_burst else self.mean_calm_s
                state_end = t + float(rng.exponential(dwell))


@dataclass(frozen=True)
class DiurnalArrivals:
    """Sinusoidally rate-modulated arrivals (day/night traffic).

    The instantaneous rate swings between ``base_qps`` and ``peak_qps``
    over one ``period_s``; sampling uses thinning against the peak rate,
    which is exact because the rate never exceeds it.
    """

    base_qps: float
    peak_qps: float
    period_s: float = 3600.0
    phase_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("base_qps", "peak_qps", "period_s"):
            _require_positive(name, getattr(self, name))
        if self.peak_qps < self.base_qps:
            raise ConfigError("peak_qps must be at least base_qps")

    def rate_at(self, t: float) -> float:
        swing = 0.5 * (1.0 + math.sin(2.0 * math.pi * (t + self.phase_s) / self.period_s))
        return self.base_qps + (self.peak_qps - self.base_qps) * swing

    @property
    def mean_qps(self) -> float:
        return 0.5 * (self.base_qps + self.peak_qps)

    def scaled(self, factor: float) -> "DiurnalArrivals":
        _require_positive("scale factor", factor)
        return replace(
            self, base_qps=self.base_qps * factor, peak_qps=self.peak_qps * factor
        )

    def stream(self, rng: np.random.Generator) -> Iterator[float]:
        t = 0.0
        while True:
            while True:
                t += float(rng.exponential(1.0 / self.peak_qps))
                if float(rng.random()) * self.peak_qps <= self.rate_at(t):
                    break
            yield t


@dataclass(frozen=True)
class ReplayedArrivals:
    """Arrivals replayed from an explicit (sorted) timestamp list.

    The deterministic complement of the stochastic processes: spike
    patterns, recorded production bursts, adversarial resonance traces.
    The pattern repeats every ``period_s`` (default: its own span plus one
    mean gap), so the stream never runs dry (simulation limits bound the
    run instead).
    """

    times_s: tuple[float, ...]
    period_s: float | None = None

    def __post_init__(self) -> None:
        if not self.times_s:
            raise ConfigError("a replayed arrival pattern needs at least one timestamp")
        if any(b < a for a, b in zip(self.times_s, self.times_s[1:], strict=False)):
            raise ConfigError("replayed arrival times must be non-decreasing")
        if self.times_s[0] < 0:
            raise ConfigError("replayed arrival times must be non-negative")
        if self.period_s is None:
            if len(self.times_s) > 1 and self.times_s[-1] <= 0:
                # An all-zero multi-point pattern has zero span: its
                # repetition never advances time and its rate is undefined.
                raise ConfigError("a replayed arrival pattern must span a positive duration")
        elif self.period_s <= 0 or self.period_s < self.times_s[-1]:
            raise ConfigError("period_s must be positive and cover the whole pattern")

    @property
    def span_s(self) -> float:
        """One repetition of the pattern (mean gap padding past the end)."""
        if self.period_s is not None:
            return self.period_s
        if len(self.times_s) == 1:
            return max(self.times_s[0], 1.0)
        mean_gap = self.times_s[-1] / max(1, len(self.times_s) - 1)
        return self.times_s[-1] + mean_gap

    @property
    def mean_qps(self) -> float:
        return len(self.times_s) / self.span_s

    def rate_at(self, t: float) -> float:
        return self.mean_qps

    def scaled(self, factor: float) -> "ReplayedArrivals":
        # Pin the period explicitly so the rate scales exactly even where
        # the derived span would not (single-timestamp patterns clamp
        # their span to at least one second).
        _require_positive("scale factor", factor)
        return replace(
            self,
            times_s=tuple(t / factor for t in self.times_s),
            period_s=self.span_s / factor,
        )

    def stream(self, rng: np.random.Generator) -> Iterator[float]:
        offset = 0.0
        while True:
            for t in self.times_s:
                yield offset + t
            offset += self.span_s


# ----------------------------------------------------------------------
# length distributions
# ----------------------------------------------------------------------
@runtime_checkable
class LengthDistribution(Protocol):
    """What arrives: per-request (input, output) token lengths.

    ``worst_case_tokens`` sizes KV-capacity admission (the effective
    batch), exactly like a :class:`~repro.serving.generator.WorkloadSpec`'s
    3-sigma estimate.
    """

    def sample(self, rng: np.random.Generator) -> tuple[int, int]: ...

    def worst_case_tokens(self) -> int: ...


@dataclass(frozen=True)
class GaussianLengths:
    """The paper's Gaussian (Lin, Lout) lengths (Section VI)."""

    lin_mean: float
    lout_mean: float
    lin_cv: float = 0.0
    lout_cv: float = 0.0
    min_len: int = 4

    def __post_init__(self) -> None:
        if self.lin_mean < 1 or self.lout_mean < 1:
            raise ConfigError("mean lengths must be at least one token")
        if self.lin_cv < 0 or self.lout_cv < 0:
            raise ConfigError("coefficients of variation must be non-negative")
        if self.min_len < 1:
            raise ConfigError("min_len must be at least one token")

    def worst_case_tokens(self) -> int:
        return int(
            self.lin_mean * (1 + 3 * self.lin_cv) + self.lout_mean * (1 + 3 * self.lout_cv)
        )

    def _one(self, rng: np.random.Generator, mean: float, cv: float) -> int:
        if cv == 0.0:
            return max(self.min_len, int(round(mean)))
        return max(self.min_len, int(round(float(rng.normal(mean, cv * mean)))))

    def sample(self, rng: np.random.Generator) -> tuple[int, int]:
        return (
            self._one(rng, self.lin_mean, self.lin_cv),
            self._one(rng, self.lout_mean, self.lout_cv),
        )


@dataclass(frozen=True)
class LognormalLengths:
    """Heavy-tailed lengths (document summarization, code context dumps).

    Lengths are lognormal around the given medians; samples are clipped to
    ``max_factor`` times the median so a single request cannot outgrow the
    KV sizing this distribution reports (at sigma 0.8 the clip touches
    roughly the 99.5th percentile).
    """

    lin_median: float
    lout_median: float
    sigma: float = 0.8
    min_len: int = 4
    max_factor: float = 8.0

    def __post_init__(self) -> None:
        if self.lin_median < 1 or self.lout_median < 1:
            raise ConfigError("median lengths must be at least one token")
        _require_positive("sigma", self.sigma)
        if self.min_len < 1:
            raise ConfigError("min_len must be at least one token")
        if self.max_factor < 1:
            raise ConfigError("max_factor must be at least 1")

    def worst_case_tokens(self) -> int:
        return int(self.lin_median * self.max_factor + self.lout_median * self.max_factor)

    def _one(self, rng: np.random.Generator, median: float) -> int:
        sampled = float(rng.lognormal(math.log(median), self.sigma))
        return int(min(max(self.min_len, round(sampled)), round(median * self.max_factor)))

    def sample(self, rng: np.random.Generator) -> tuple[int, int]:
        return self._one(rng, self.lin_median), self._one(rng, self.lout_median)


@dataclass(frozen=True)
class BimodalLengths:
    """A chat/summarize mix: two Gaussian modes with a mixing weight."""

    chat: GaussianLengths
    summarize: GaussianLengths
    summarize_fraction: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.summarize_fraction <= 1.0:
            raise ConfigError("summarize_fraction must be within [0, 1]")

    def worst_case_tokens(self) -> int:
        return max(self.chat.worst_case_tokens(), self.summarize.worst_case_tokens())

    def sample(self, rng: np.random.Generator) -> tuple[int, int]:
        mode = self.summarize if float(rng.random()) < self.summarize_fraction else self.chat
        return mode.sample(rng)


# ----------------------------------------------------------------------
# tenants and scenarios
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TenantSpec:
    """One tenant in a shared-fleet mix.

    Attributes:
        name: tenant identifier (tags requests and per-tenant metrics).
        lengths: the tenant's length distribution.
        weight: share of arrivals belonging to this tenant.
        t2ft_slo_s: the tenant's time-to-first-token objective, carried on
            every request (None = no SLO; SLO-aware policies and
            attainment metrics then skip this tenant).
    """

    name: str
    lengths: LengthDistribution
    weight: float = 1.0
    t2ft_slo_s: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenants need a name")
        _require_positive("weight", self.weight)
        if self.t2ft_slo_s is not None and self.t2ft_slo_s <= 0:
            raise ConfigError("a tenant T2FT SLO must be positive")


@dataclass(frozen=True)
class Scenario:
    """One named traffic regime: arrivals × tenant mix.

    A scenario is a pure specification; :meth:`source` instantiates it
    into a seeded :class:`ScenarioSource` any simulator accepts.
    """

    name: str
    arrivals: ArrivalProcess
    tenants: tuple[TenantSpec, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigError("a scenario needs at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError("tenant names must be unique within a scenario")

    @property
    def mean_qps(self) -> float:
        return self.arrivals.mean_qps

    def worst_case_tokens(self) -> int:
        return max(tenant.lengths.worst_case_tokens() for tenant in self.tenants)

    def scaled(self, factor: float) -> "Scenario":
        """The same regime at ``factor`` times the offered load."""
        return replace(self, arrivals=self.arrivals.scaled(factor))

    def at_qps(self, qps: float) -> "Scenario":
        """The same regime rescaled to a target mean arrival rate."""
        _require_positive("qps", qps)
        return self.scaled(qps / self.arrivals.mean_qps)

    def source(self, seed: int | None = 0, max_requests: int | None = None) -> "ScenarioSource":
        """Instantiate a seeded request source for this scenario.

        Args:
            max_requests: make the source finite after this many requests
                (cluster runs route arrivals until the source dries up).
        """
        return ScenarioSource(self, seed=seed, max_requests=max_requests)


class ScenarioSource:
    """A :class:`~repro.serving.generator.RequestSource` driven by a scenario.

    Requests are sampled lazily (peeking materialises the next one, like
    the synthetic generator), tagged with their tenant and its SLO, and
    numbered in arrival order.
    """

    def __init__(
        self, scenario: Scenario, seed: int | None = 0, max_requests: int | None = None
    ) -> None:
        if max_requests is not None and max_requests < 1:
            raise ConfigError("max_requests must be positive (or None for unbounded)")
        self.scenario = scenario
        self.max_requests = max_requests
        self._rng = np.random.default_rng(seed)
        self._arrivals = scenario.arrivals.stream(self._rng)
        self._weights = np.asarray([t.weight for t in scenario.tenants], dtype=float)
        self._weights = self._weights / self._weights.sum()
        self._next_id = 0
        self._pending: Request | None = None

    @property
    def closed_loop(self) -> bool:
        return False

    def worst_case_tokens(self) -> int:
        return self.scenario.worst_case_tokens()

    def _ensure_pending(self) -> None:
        if self._pending is not None:
            return
        if self.max_requests is not None and self._next_id >= self.max_requests:
            return
        arrival = next(self._arrivals)
        tenant = self.scenario.tenants[
            int(self._rng.choice(len(self.scenario.tenants), p=self._weights))
        ]
        input_len, output_len = tenant.lengths.sample(self._rng)
        self._pending = Request(
            request_id=self._next_id,
            arrival_time_s=arrival,
            input_len=input_len,
            output_len=output_len,
            tenant=tenant.name,
            t2ft_slo_s=tenant.t2ft_slo_s,
        )
        self._next_id += 1

    def peek(self) -> Request | None:
        self._ensure_pending()
        return self._pending

    def peek_arrival(self) -> float:
        pending = self.peek()
        return float("inf") if pending is None else pending.arrival_time_s

    def has_request_at(self, now_s: float) -> bool:
        pending = self.peek()
        return pending is not None and pending.arrival_time_s <= now_s

    def take(self, now_s: float) -> Request:
        pending = self.peek()
        if pending is None:
            raise SchedulingError("scenario source is exhausted")
        self._pending = None
        return pending


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Callable[[], Scenario]] = {}


def register_scenario(
    name: str, factory: Callable[[], Scenario], overwrite: bool = False
) -> None:
    """Register a scenario factory under ``name``.

    Factories (not instances) are registered so a registry entry is a pure
    recipe: every lookup builds a fresh specification, and names stay
    picklable for process-pool sweeps.
    """
    if not name:
        raise ConfigError("scenarios need a name")
    if name in _REGISTRY and not overwrite:
        raise ConfigError(f"scenario '{name}' is already registered (overwrite=True replaces)")
    _REGISTRY[name] = factory


def get_scenario(name: str) -> Scenario:
    """Build the registered scenario ``name``."""
    if name not in _REGISTRY:
        raise ConfigError(f"unknown scenario '{name}'; choose from {scenario_names()}")
    return _REGISTRY[name]()


def scenario_names() -> tuple[str, ...]:
    """Registered scenario names, sorted for determinism."""
    return tuple(sorted(_REGISTRY))


# ----------------------------------------------------------------------
# built-in scenarios
# ----------------------------------------------------------------------
def _steady_chat() -> Scenario:
    return Scenario(
        name="steady-chat",
        description="Poisson chat traffic with Gaussian lengths (the paper's regime)",
        arrivals=PoissonArrivals(qps=8.0),
        tenants=(
            TenantSpec("chat", GaussianLengths(1024, 256, lin_cv=0.3, lout_cv=0.4)),
        ),
    )


def _bursty_chat() -> Scenario:
    return Scenario(
        name="bursty-chat",
        description="Markov-modulated flash crowds over a calm chat baseline",
        arrivals=BurstyArrivals(base_qps=4.0, burst_qps=24.0, mean_calm_s=60.0, mean_burst_s=15.0),
        tenants=(
            TenantSpec("chat", GaussianLengths(1024, 256, lin_cv=0.3, lout_cv=0.4)),
        ),
    )


def _diurnal_mixed() -> Scenario:
    return Scenario(
        name="diurnal-mixed",
        description="day/night sinusoidal load over a bimodal chat/summarize mix",
        arrivals=DiurnalArrivals(base_qps=2.0, peak_qps=12.0, period_s=600.0),
        tenants=(
            TenantSpec(
                "mixed",
                BimodalLengths(
                    chat=GaussianLengths(512, 256, lin_cv=0.3, lout_cv=0.3),
                    summarize=GaussianLengths(4096, 256, lin_cv=0.2, lout_cv=0.3),
                    summarize_fraction=0.2,
                ),
            ),
        ),
    )


def _heavy_tail_summarize() -> Scenario:
    return Scenario(
        name="heavy-tail-summarize",
        description="lognormal heavy-tailed summarization prompts under Poisson load",
        arrivals=PoissonArrivals(qps=3.0),
        tenants=(
            TenantSpec("summarize", LognormalLengths(2048, 256, sigma=0.7)),
        ),
    )


def _multi_tenant_slo() -> Scenario:
    return Scenario(
        name="multi-tenant-slo",
        description="interactive and batch tenants sharing a fleet under distinct T2FT SLOs",
        arrivals=PoissonArrivals(qps=8.0),
        tenants=(
            TenantSpec(
                "interactive",
                GaussianLengths(512, 128, lin_cv=0.3, lout_cv=0.3),
                weight=0.7,
                t2ft_slo_s=0.5,
            ),
            TenantSpec(
                "batch",
                LognormalLengths(4096, 512, sigma=0.6),
                weight=0.3,
                t2ft_slo_s=4.0,
            ),
        ),
    )


def long_context(
    qps: float = 2.0,
    lin_median: float = 16384,
    lout_median: float = 2048,
    sigma: float = 0.8,
    max_factor: float = 8.0,
    t2ft_slo_s: float = 10.0,
) -> Scenario:
    """The memory-pressure scenario family (document QA over huge contexts).

    Heavy-tailed lognormal prompts an order of magnitude longer than the
    chat scenarios, with long generations that keep each request resident
    for thousands of decode stages: KV demand outgrows a replica's device
    memory long before its compute saturates, so classic capacity-capped
    admission queues arrivals past their SLO or sheds them — the regime
    KV paging (:mod:`repro.serving.paging`) exists for.  Any single
    request still fits on the device (``max_factor`` clips the tail); it
    is the *aggregate* that overflows.

    Args:
        qps: mean Poisson arrival rate.
        lin_median / lout_median: median prompt / output lengths (tokens).
        sigma: lognormal shape (heavier tail as it grows).
        max_factor: per-request clip, in multiples of the median.
        t2ft_slo_s: the tenant's first-token objective (long prefills
            justify a looser SLO than chat).
    """
    return Scenario(
        name="long-context",
        description="heavy-tailed long-document prompts that overflow device KV (paging stress)",
        arrivals=PoissonArrivals(qps=qps),
        tenants=(
            TenantSpec(
                "long-context",
                LognormalLengths(
                    lin_median, lout_median, sigma=sigma, max_factor=max_factor
                ),
                t2ft_slo_s=t2ft_slo_s,
            ),
        ),
    )


def _replayed_spike() -> Scenario:
    # A deterministic resonance pattern: a steady drip, then a spike of
    # twelve near-simultaneous arrivals (load balancers hate this).
    drip = tuple(float(i) for i in range(10))
    spike = tuple(10.0 + 0.01 * i for i in range(12))
    return Scenario(
        name="replayed-spike",
        description="deterministic drip-then-spike arrival replay (router stress test)",
        arrivals=ReplayedArrivals(times_s=drip + spike),
        tenants=(
            TenantSpec("chat", GaussianLengths(1024, 128, lin_cv=0.2, lout_cv=0.2)),
        ),
    )


# ----------------------------------------------------------------------
# session-structured workloads (shared-prefix reuse)
# ----------------------------------------------------------------------
#
# The scenarios above sample every request independently; real serving
# traffic is heavily *session*-structured — a chat turn resends the whole
# conversation so far, an agent loop resubmits the same long tool context
# every iteration, a fan-out tree prompts N continuations of one root.
# These shapes are what shared-prefix KV dedup
# (:class:`~repro.serving.paging.PrefixIndex`) exists for, so the session
# family tags every request with its
# :attr:`~repro.serving.request.Request.prefix_blocks` path.  The tags are
# declarative: with dedup disabled they are inert and the workload prices
# exactly like independent requests of the same lengths.
#
# Segment-id convention: ids below ``_FIRST_SESSION_SEGMENT`` are
# scenario-global (one system prompt shared by *every* session); fresh
# per-session segments are allocated above it.  One scenario per
# simulator — two scenarios sharing an index could collide on the global
# ids.

_GLOBAL_SYSTEM_SEGMENT = 0
_FIRST_SESSION_SEGMENT = 1024


def _sample_tokens(rng: np.random.Generator, mean: float, cv: float, min_len: int = 8) -> int:
    """One Gaussian token count, clipped to [min_len, 2 * mean].

    The hard 2x clip keeps every session shape's ``worst_case_tokens``
    a deterministic bound (like ``LognormalLengths.max_factor``).
    """
    sampled = mean if cv == 0.0 else float(rng.normal(mean, cv * mean))
    return int(min(max(min_len, round(sampled)), round(2 * mean)))


@dataclass(frozen=True)
class SessionTurn:
    """One request of a session, relative to the session start."""

    offset_s: float
    input_len: int
    output_len: int
    prefix_blocks: tuple[tuple[int, int], ...] | None

    def __post_init__(self) -> None:
        if self.offset_s < 0:
            raise ConfigError("turn offsets are measured from the session start")


@runtime_checkable
class SessionShape(Protocol):
    """What one session looks like: a correlated sequence of turns.

    ``turns`` samples a whole session; ``segments`` yields fresh
    globally-unique segment ids for the session's own prefix blocks
    (scenario-global segments are fixed small constants instead).
    """

    def turns(
        self, rng: np.random.Generator, segments: Iterator[int]
    ) -> tuple[SessionTurn, ...]: ...

    def worst_case_tokens(self) -> int: ...


@dataclass(frozen=True)
class ChatSessionShape:
    """Multi-turn chat: each turn resends the whole conversation so far.

    Turn ``i``'s prompt is the shared system prompt, every earlier turn's
    (message + reply) — all declared as prefix blocks, so a dedup-enabled
    scheduler re-prefills none of it — plus a fresh user message.  The
    system prompt uses the scenario-global segment: every session shares
    one cached copy.
    """

    min_turns: int = 2
    max_turns: int = 8
    system_tokens: int = 512
    message_mean: float = 192.0
    reply_mean: float = 160.0
    length_cv: float = 0.3
    think_mean_s: float = 15.0

    def __post_init__(self) -> None:
        if self.min_turns < 1 or self.max_turns < self.min_turns:
            raise ConfigError("need 1 <= min_turns <= max_turns")
        if self.system_tokens < 1:
            raise ConfigError("system_tokens must be at least one token")
        _require_positive("message_mean", self.message_mean)
        _require_positive("reply_mean", self.reply_mean)
        if self.length_cv < 0:
            raise ConfigError("length_cv must be non-negative")
        _require_positive("think_mean_s", self.think_mean_s)

    def worst_case_tokens(self) -> int:
        turn = round(2 * self.message_mean) + round(2 * self.reply_mean)
        return int(self.system_tokens + self.max_turns * turn)

    def turns(
        self, rng: np.random.Generator, segments: Iterator[int]
    ) -> tuple[SessionTurn, ...]:
        n_turns = int(rng.integers(self.min_turns, self.max_turns + 1))
        history: list[tuple[int, int]] = [(_GLOBAL_SYSTEM_SEGMENT, self.system_tokens)]
        turns: list[SessionTurn] = []
        offset = 0.0
        for i in range(n_turns):
            if i:
                offset += float(rng.exponential(self.think_mean_s))
            message = _sample_tokens(rng, self.message_mean, self.length_cv)
            reply = _sample_tokens(rng, self.reply_mean, self.length_cv)
            shared = sum(tokens for _, tokens in history)
            turns.append(
                SessionTurn(
                    offset_s=offset,
                    input_len=shared + message,
                    output_len=reply,
                    prefix_blocks=tuple(history),
                )
            )
            history.append((next(segments), message + reply))
        return tuple(turns)


@dataclass(frozen=True)
class AgentLoopShape:
    """An agent loop resubmitting one long tool context every iteration.

    The prompt re-sent on every iteration is the scenario-global agent
    context (system prompt + tool schemas — identical across *all*
    sessions) plus the session's accumulated observation/action history,
    all declared as prefix blocks; each iteration appends a fresh
    observation and generates a short action.  Gaps model tool-execution
    latency, so iterations come much faster than human chat turns.
    """

    min_iterations: int = 4
    max_iterations: int = 10
    context_tokens: int = 3072
    observation_mean: float = 256.0
    action_mean: float = 48.0
    length_cv: float = 0.3
    tool_mean_s: float = 2.0

    def __post_init__(self) -> None:
        if self.min_iterations < 1 or self.max_iterations < self.min_iterations:
            raise ConfigError("need 1 <= min_iterations <= max_iterations")
        if self.context_tokens < 1:
            raise ConfigError("context_tokens must be at least one token")
        _require_positive("observation_mean", self.observation_mean)
        _require_positive("action_mean", self.action_mean)
        if self.length_cv < 0:
            raise ConfigError("length_cv must be non-negative")
        _require_positive("tool_mean_s", self.tool_mean_s)

    def worst_case_tokens(self) -> int:
        step = round(2 * self.observation_mean) + round(2 * self.action_mean)
        return int(self.context_tokens + self.max_iterations * step)

    def turns(
        self, rng: np.random.Generator, segments: Iterator[int]
    ) -> tuple[SessionTurn, ...]:
        n_iterations = int(rng.integers(self.min_iterations, self.max_iterations + 1))
        history: list[tuple[int, int]] = [(_GLOBAL_SYSTEM_SEGMENT, self.context_tokens)]
        turns: list[SessionTurn] = []
        offset = 0.0
        for i in range(n_iterations):
            if i:
                offset += float(rng.exponential(self.tool_mean_s))
            observation = _sample_tokens(rng, self.observation_mean, self.length_cv)
            action = _sample_tokens(rng, self.action_mean, self.length_cv, min_len=4)
            shared = sum(tokens for _, tokens in history)
            turns.append(
                SessionTurn(
                    offset_s=offset,
                    input_len=shared + observation,
                    output_len=action,
                    prefix_blocks=tuple(history),
                )
            )
            history.append((next(segments), observation + action))
        return tuple(turns)


@dataclass(frozen=True)
class FanoutTreeShape:
    """One root prompt fanned out into N parallel continuations.

    Best-of-N sampling, tree search, and map-style document queries all
    submit many requests that share one (session-private) root context
    and differ only in a short leaf suffix.  Branches arrive in a quick
    staggered burst; with dedup the first branch prefills the root once
    and the rest hit it.
    """

    min_branches: int = 3
    max_branches: int = 8
    root_tokens: int = 2048
    branch_mean: float = 64.0
    reply_mean: float = 256.0
    length_cv: float = 0.3
    stagger_mean_s: float = 0.2

    def __post_init__(self) -> None:
        if self.min_branches < 1 or self.max_branches < self.min_branches:
            raise ConfigError("need 1 <= min_branches <= max_branches")
        if self.root_tokens < 1:
            raise ConfigError("root_tokens must be at least one token")
        _require_positive("branch_mean", self.branch_mean)
        _require_positive("reply_mean", self.reply_mean)
        if self.length_cv < 0:
            raise ConfigError("length_cv must be non-negative")
        _require_positive("stagger_mean_s", self.stagger_mean_s)

    def worst_case_tokens(self) -> int:
        return int(self.root_tokens + round(2 * self.branch_mean) + round(2 * self.reply_mean))

    def turns(
        self, rng: np.random.Generator, segments: Iterator[int]
    ) -> tuple[SessionTurn, ...]:
        n_branches = int(rng.integers(self.min_branches, self.max_branches + 1))
        root = (next(segments), self.root_tokens)
        turns: list[SessionTurn] = []
        offset = 0.0
        for i in range(n_branches):
            if i:
                offset += float(rng.exponential(self.stagger_mean_s))
            branch = _sample_tokens(rng, self.branch_mean, self.length_cv)
            reply = _sample_tokens(rng, self.reply_mean, self.length_cv)
            turns.append(
                SessionTurn(
                    offset_s=offset,
                    input_len=self.root_tokens + branch,
                    output_len=reply,
                    prefix_blocks=(root,),
                )
            )
        return tuple(turns)


@dataclass(frozen=True)
class SessionScenario:
    """A named session-structured traffic regime: arrivals × session shape.

    Mirrors :class:`Scenario`'s surface (name, ``mean_qps``, ``scaled`` /
    ``at_qps``, ``worst_case_tokens``, ``source``) so registries,
    experiments, and simulators treat both interchangeably.  The arrival
    process paces *session starts*; each session then expands into its
    turns, so the request rate is the session rate times the mean turn
    count.
    """

    name: str
    arrivals: ArrivalProcess
    shape: SessionShape
    tenant: str = "session"
    t2ft_slo_s: float | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("scenarios need a name")
        if not self.tenant:
            raise ConfigError("tenants need a name")
        if self.t2ft_slo_s is not None and self.t2ft_slo_s <= 0:
            raise ConfigError("a tenant T2FT SLO must be positive")

    @property
    def mean_qps(self) -> float:
        """Mean *session* starts per second (turns multiply the request rate)."""
        return self.arrivals.mean_qps

    def worst_case_tokens(self) -> int:
        return self.shape.worst_case_tokens()

    def scaled(self, factor: float) -> "SessionScenario":
        """The same regime at ``factor`` times the session arrival rate."""
        return replace(self, arrivals=self.arrivals.scaled(factor))

    def at_qps(self, qps: float) -> "SessionScenario":
        """The same regime rescaled to a target mean session rate."""
        _require_positive("qps", qps)
        return self.scaled(qps / self.arrivals.mean_qps)

    def source(self, seed: int | None = 0, max_requests: int | None = None) -> "SessionSource":
        """Instantiate a seeded request source for this scenario."""
        return SessionSource(self, seed=seed, max_requests=max_requests)


class SessionSource:
    """A :class:`~repro.serving.generator.RequestSource` expanding sessions.

    Session starts come from the arrival process; each start samples a
    whole session's turns at once.  Because sessions overlap in time, the
    source merges turns through a heap keyed on absolute arrival, lazily
    materialising every session that could still precede the earliest
    queued turn — requests therefore emerge in exact global arrival
    order, numbered like every other source.

    Turn timing is open-loop: think-time gaps are sampled up front, so a
    turn can arrive before its predecessor finished (its prefix blocks
    are then still pending and it simply misses the cache — the honest
    price of a thundering herd).
    """

    def __init__(
        self, scenario: SessionScenario, seed: int | None = 0, max_requests: int | None = None
    ) -> None:
        if max_requests is not None and max_requests < 1:
            raise ConfigError("max_requests must be positive (or None for unbounded)")
        self.scenario = scenario
        self.max_requests = max_requests
        self._rng = np.random.default_rng(seed)
        self._starts = scenario.arrivals.stream(self._rng)
        self._next_start: float | None = None
        self._segments = count(_FIRST_SESSION_SEGMENT)
        self._heap: list[tuple[float, int, SessionTurn]] = []
        self._heap_seq = 0
        self._next_id = 0
        self._pending: Request | None = None

    @property
    def closed_loop(self) -> bool:
        return False

    def worst_case_tokens(self) -> int:
        return self.scenario.worst_case_tokens()

    def _materialize(self, start_s: float) -> None:
        for turn in self.scenario.shape.turns(self._rng, self._segments):
            heappush(self._heap, (start_s + turn.offset_s, self._heap_seq, turn))
            self._heap_seq += 1

    def _ensure_pending(self) -> None:
        if self._pending is not None:
            return
        if self.max_requests is not None and self._next_id >= self.max_requests:
            return
        if self._next_start is None:
            self._next_start = float(next(self._starts))
        # Materialise every session that could still beat the earliest
        # queued turn (turn offsets are never negative, so a later session
        # start cannot produce an earlier arrival).
        while not self._heap or self._next_start <= self._heap[0][0]:
            self._materialize(self._next_start)
            self._next_start = float(next(self._starts))
        arrival, _, turn = heappop(self._heap)
        self._pending = Request(
            request_id=self._next_id,
            arrival_time_s=arrival,
            input_len=turn.input_len,
            output_len=turn.output_len,
            tenant=self.scenario.tenant,
            t2ft_slo_s=self.scenario.t2ft_slo_s,
            prefix_blocks=turn.prefix_blocks,
        )
        self._next_id += 1

    def peek(self) -> Request | None:
        self._ensure_pending()
        return self._pending

    def peek_arrival(self) -> float:
        pending = self.peek()
        return float("inf") if pending is None else pending.arrival_time_s

    def has_request_at(self, now_s: float) -> bool:
        pending = self.peek()
        return pending is not None and pending.arrival_time_s <= now_s

    def take(self, now_s: float) -> Request:
        pending = self.peek()
        if pending is None:
            raise SchedulingError("session source is exhausted")
        self._pending = None
        return pending


def chat_sessions(
    qps: float = 0.8, t2ft_slo_s: float = 1.0, shape: ChatSessionShape | None = None
) -> SessionScenario:
    """Multi-turn chat sessions with growing shared context."""
    return SessionScenario(
        name="chat-sessions",
        description="multi-turn chat resending the growing conversation each turn",
        arrivals=PoissonArrivals(qps=qps),
        shape=shape if shape is not None else ChatSessionShape(),
        tenant="chat-session",
        t2ft_slo_s=t2ft_slo_s,
    )


def agent_loop(
    qps: float = 0.5, t2ft_slo_s: float = 1.0, shape: AgentLoopShape | None = None
) -> SessionScenario:
    """Agent loops resubmitting one long shared tool context."""
    return SessionScenario(
        name="agent-loops",
        description="tool-calling loops resubmitting a long shared context each iteration",
        arrivals=PoissonArrivals(qps=qps),
        shape=shape if shape is not None else AgentLoopShape(),
        tenant="agent",
        t2ft_slo_s=t2ft_slo_s,
    )


def fanout_tree(
    qps: float = 0.4, t2ft_slo_s: float = 2.0, shape: FanoutTreeShape | None = None
) -> SessionScenario:
    """Fan-out trees: N near-simultaneous continuations of one root."""
    return SessionScenario(
        name="fanout-trees",
        description="best-of-N fan-out bursts sharing one root prompt",
        arrivals=PoissonArrivals(qps=qps),
        shape=shape if shape is not None else FanoutTreeShape(),
        tenant="fanout",
        t2ft_slo_s=t2ft_slo_s,
    )


for _factory in (
    _steady_chat,
    _bursty_chat,
    _diurnal_mixed,
    _heavy_tail_summarize,
    _multi_tenant_slo,
    _replayed_spike,
    long_context,
    chat_sessions,
    agent_loop,
    fanout_tree,
):
    register_scenario(_factory().name, _factory)

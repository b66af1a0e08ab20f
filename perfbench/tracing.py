"""Span tracing installed from outside the simulator.

:class:`Tracer` wraps the public methods of each layer's classes (the
``LAYERS`` map) with span recorders.  Each span has a name, start, end and
parent span; a layer's self time is its spans' durations minus the part
their child spans cover.  Spans stay in memory and are written out as Chrome
trace-event JSON (it opens in Perfetto) when the run ends.

Wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.uninstall`, and record only while :attr:`Tracer.active` is
set, so an untraced run executes the simulator's own functions untouched.
Classes or methods a later refactor removes are skipped, not errors.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

PUBLIC = "public"

#: layer -> [(module, class, methods or PUBLIC)].  A class entry ending in
#: ``+`` also wraps every subclass (in any loaded module) that defines one
#: of the methods itself.
LAYERS: dict[str, list[tuple[str, str, Any]]] = {
    "executor": [
        (
            "repro.core.executor",
            "StageExecutor",
            ("run_stage", "price_decode_run", "rewind_decode_run", "pricing_cache_info"),
        )
    ],
    "engine": [
        (
            "repro.serving.engine",
            "ServingEngine",
            ("step", "run", "advance_to", "drain", "drain_until"),
        )
    ],
    "scheduler": [
        (
            "repro.serving.scheduler",
            "ContinuousBatchingScheduler",
            ("build_stage", "admit", "complete_stage", "steady_run_threshold", "commit_steady_run"),
        )
    ],
    "columnar": [
        ("repro.serving.columnar", "RequestTable", PUBLIC),
        ("repro.serving.columnar", "EventClock", PUBLIC),
    ],
    "metrics": [
        (
            "repro.serving.metrics",
            "MetricsCollector",
            ("record_stage", "record_decode_run", "report"),
        )
    ],
    "cluster": [
        ("repro.serving.cluster", "ClusterSimulator+", ("run",)),
        ("repro.serving.cluster", "Router+", ("choose",)),
    ],
    "autoscaler": [
        ("repro.serving.autoscaler", "StaticReplicaPolicy", ("target_replicas",)),
        ("repro.serving.autoscaler", "QueueDepthPolicy", ("target_replicas",)),
        ("repro.serving.autoscaler", "SloTrackingPolicy", ("target_replicas",)),
        ("repro.serving.autoscaler", "ScheduledScalingPolicy", ("target_replicas",)),
    ],
    "paging": [
        ("repro.serving.paging", "PagedKvManager", PUBLIC),
        ("repro.serving.paging", "PrefixIndex", PUBLIC),
    ],
}

#: Span cap per traced pass for the written trace file (aggregates are
#: always complete).
MAX_STORED_SPANS = 100_000


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _count_priced(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    if result is not None:
        counts["run_stages_priced"] += result.n_stages


def _count_rewound(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    pricing = _arg(args, kwargs, 1, "pricing")
    committed = _arg(args, kwargs, 2, "n_committed")
    counts["run_stages_rewound"] += max(0, pricing.n_stages - committed)


def _count_committed(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counts["run_stages_committed"] += _arg(args, kwargs, 1, "n_stages")
    counts["runs_committed"] += 1


#: Exact counts read at the boundary where the work happens.
COUNTERS: dict[str, Callable[[dict, tuple, dict, Any], None]] = {
    "StageExecutor.price_decode_run": _count_priced,
    "StageExecutor.rewind_decode_run": _count_rewound,
    "ContinuousBatchingScheduler.commit_steady_run": _count_committed,
}


def _all_subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _all_subclasses(sub) if c not in found)
    return found


def _targets() -> list[tuple[str, type, str]]:
    """(layer, class, method name) for every method to wrap, once each."""
    targets: list[tuple[str, type, str]] = []
    seen: set[tuple[type, str]] = set()
    for layer, entries in LAYERS.items():
        for module_name, class_name, methods in entries:
            module = importlib.import_module(module_name)
            cls = getattr(module, class_name.rstrip("+"), None)
            if cls is None:
                continue
            classes = _all_subclasses(cls) if class_name.endswith("+") else [cls]
            for klass in classes:
                if methods == PUBLIC:
                    names = [n for n in vars(klass) if not n.startswith("_")]
                else:
                    names = [n for n in methods if n in vars(klass)]
                for name in names:
                    if not inspect.isfunction(vars(klass)[name]) or (klass, name) in seen:
                        continue
                    seen.add((klass, name))
                    targets.append((layer, klass, name))
    return targets


class Tracer:
    """Records spans around every layer call while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        self._originals: list[tuple[type, str, Any]] = []
        self.reset()

    # -- lifecycle -----------------------------------------------------
    def install(self) -> None:
        for layer, klass, name in _targets():
            original = vars(klass)[name]
            qualname = f"{klass.__name__}.{name}"
            counter = COUNTERS.get(qualname)
            setattr(klass, name, self._wrap(layer, qualname, original, counter))
            self._originals.append((klass, name, original))

    def uninstall(self) -> None:
        for klass, name, original in reversed(self._originals):
            setattr(klass, name, original)
        self._originals.clear()

    def reset(self) -> None:
        self._stack: list[list] = []
        self._next_id = 0
        self._origin = perf_counter()
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    # -- recording -----------------------------------------------------
    def _wrap(
        self, layer: str, qualname: str, fn: Callable, counter: Callable | None
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[layer] += duration - frame[1]
                tracer.calls[layer] += 1
                if parent is not None:
                    parent[1] += duration
                if len(tracer.spans) < MAX_STORED_SPANS:
                    tracer.spans.append(
                        (qualname, layer, start, end, frame[0], -1 if parent is None else parent[0])
                    )
                else:
                    tracer.dropped_spans += 1
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    # -- export --------------------------------------------------------
    def write_chrome_trace(self, path: Path, metadata: dict) -> None:
        """Write the stored spans as Chrome trace-event JSON."""
        origin = self._origin
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"span": span_id, "parent": parent_id},
            }
            for name, layer, start, end, span_id, parent_id in self.spans
        ]
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {**metadata, "dropped_spans": self.dropped_spans},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))

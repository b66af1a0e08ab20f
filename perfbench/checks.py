"""Output checks on a finished pass: conservation, digests, exact counts.

The simulator's model is unvalidated (the repository holds no hardware
reference), so the benchmark checks outputs for identity, not accuracy:
every simulated statistic of a pass is hashed, and the hash must repeat
across passes of one seed and match the committed reference digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

from repro.serving.request import RequestState
from workloads import Case


def conservation_errors(case: Case) -> list[str]:
    """Requests and tokens that the simulation lost or invented.

    completed + shed + lost must equal sent for every simulation, and the
    reported token total must equal the output lengths of the completed
    requests.
    """
    errors = []
    for k, unit in enumerate(case.units):
        report = unit.serving_report
        finished = [rid for engine in unit.engines for rid in engine.finished_ids]
        finished_set = set(finished)
        sent = unit.source.taken
        lost = int(report.faults.get("requests_lost", 0))
        if len(unit.source.requests) != sent:
            errors.append(f"unit {k}: sent {sent} of {len(unit.source.requests)} requests")
        if len(finished) != len(finished_set):
            errors.append(f"unit {k}: a request completed twice")
        if len(finished) + unit.shed + lost != sent:
            errors.append(
                f"unit {k}: completed {len(finished)} + shed {unit.shed} + lost {lost}"
                f" != sent {sent}"
            )
        if report.requests_completed != len(finished):
            errors.append(
                f"unit {k}: report counts {report.requests_completed} completions,"
                f" engines {len(finished)}"
            )
        done = [r for r in unit.source.requests if r.request_id in finished_set]
        expected_tokens = sum(r.output_len for r in done)
        if report.tokens_generated != expected_tokens:
            errors.append(
                f"unit {k}: {report.tokens_generated} tokens generated,"
                f" completed requests asked for {expected_tokens}"
            )
        if any(r.state is not RequestState.FINISHED or r.tokens_generated != r.output_len
               for r in done):
            errors.append(f"unit {k}: a completed request is not finished")
    return errors


def exact_counts(case: Case) -> dict[str, float]:
    """Counts read from public simulator state after a pass."""
    stages = tokens = preemptions = migrated = hits = evicted = 0
    routed = replica_events = 0
    route_share_max = 0.0
    cache_hits = cache_misses = 0
    for unit in case.units:
        report = unit.serving_report
        tokens += report.tokens_generated
        preemptions += int(report.paging.get("preemptions", 0))
        migrated += int(report.paging.get("migrated_out_tokens", 0))
        hits += int(report.prefix.get("hit_tokens", 0))
        if unit.cluster:
            per_replica = unit.report.requests_routed
            routed += sum(per_replica)
            route_share_max = max(route_share_max, max(per_replica) / sum(per_replica))
            replica_events += len(unit.report.replica_events)
        for engine in unit.engines:
            stages += engine.stages
            info = getattr(engine.executor, "pricing_cache_info", None)
            if info is not None:
                snapshot = info()
                cache_hits += snapshot.hits
                cache_misses += snapshot.misses
            prefix = getattr(engine.scheduler, "prefix", None)
            if prefix is not None:
                evicted += prefix.stats.evicted_tokens
    input_tokens = sum(r.input_len for r in case.requests)
    lookups = cache_hits + cache_misses
    return {
        "stages": stages,
        "tokens": tokens,
        "completed": sum(len(e.finished_ids) for u in case.units for e in u.engines),
        "preemptions": preemptions,
        "migrated_tokens": migrated,
        "prefix_hit_tokens": hits,
        "prefix_hit_share": hits / input_tokens if input_tokens else 0.0,
        "prefix_evicted_tokens": evicted,
        "routed": routed,
        "route_share_max": route_share_max,
        "replica_events": replica_events,
        "cache_hits": cache_hits,
        "cache_lookups": lookups,
        "cache_hit_rate": cache_hits / lookups if lookups else 0.0,
    }


def _plain(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float):
        return repr(value)  # every bit of every float
    return value


def digest(case: Case) -> str:
    """SHA-256 over every simulated statistic of a pass."""
    payload = [
        {
            "report": _plain(unit.report),
            "stages": [engine.stages for engine in unit.engines],
            "finished": [list(engine.finished_ids) for engine in unit.engines],
        }
        for unit in case.units
    ]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

"""Process-pool sweep runner for embarrassingly parallel experiments.

Paper figures sweep independent (system, load) points — e.g. Fig. 13's
3 systems x 7 QPS grid, each a full serving simulation.  ``run_sweep``
fans such points out over a process pool and returns results in input
order, so figure code stays a flat list comprehension.

The worker function must be defined at module top level (the pool pickles
it by reference) and take only picklable keyword arguments — pass model or
system *keys* and rebuild configs inside the worker, not live objects with
RNG state.  On single-core machines, with ``workers<=1``, or for a single
point, everything runs in-process with zero overhead, so tests and small
grids behave identically with or without the pool.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ConfigError


def default_workers() -> int:
    """Worker count used when ``workers=None``: one per CPU."""
    return max(1, os.cpu_count() or 1)


def run_sweep(
    fn: Callable[..., Any],
    param_sets: Sequence[Mapping[str, Any]],
    workers: int | None = None,
) -> list[Any]:
    """Evaluate ``fn(**params)`` for every params mapping, in input order.

    Args:
        fn: top-level (picklable) worker function.
        param_sets: one keyword-argument mapping per sweep point.
        workers: process count; None = one per CPU, <=1 = run serially
            in-process.

    Returns:
        Results in the same order as ``param_sets``.  A worker exception
        propagates to the caller (remaining points are cancelled by pool
        shutdown).
    """
    params = [dict(p) for p in param_sets]
    if workers is not None and workers < 0:
        raise ConfigError("workers must be non-negative")
    n_workers = default_workers() if workers is None else workers
    if n_workers <= 1 or len(params) <= 1:
        return [fn(**p) for p in params]
    with ProcessPoolExecutor(max_workers=min(n_workers, len(params))) as pool:
        futures = [pool.submit(fn, **p) for p in params]
        return [future.result() for future in futures]


def scenario_param_sets(
    scenarios: Sequence[str] | None = None, **common: Any
) -> list[dict[str, Any]]:
    """One sweep point per registered workload scenario.

    Scenario *names* (not live sources, which hold RNG state) are what
    cross the process boundary; the worker rebuilds the source via
    :func:`repro.serving.scenarios.get_scenario`.  Typos fail here, before
    any pool spins up.  Caveat: a worker process only sees scenarios whose
    ``register_scenario`` call runs at *import* time of a module the
    worker also imports — under spawn-based pools (macOS/Windows default),
    names registered dynamically in the parent resolve here but not in the
    worker; register in an imported module, or run with ``workers<=1``.

    Args:
        scenarios: scenario names to sweep (default: every registered one).
        **common: keyword arguments shared by every point.

    Returns:
        One ``{"scenario": name, **common}`` mapping per scenario, ready
        for :func:`run_sweep`.
    """
    from repro.serving.scenarios import get_scenario, scenario_names

    names = tuple(scenarios) if scenarios is not None else scenario_names()
    if not names:
        raise ConfigError("no scenarios to sweep")
    for name in names:
        get_scenario(name)  # validate early: unknown names should not reach workers
    return [dict(common, scenario=name) for name in names]

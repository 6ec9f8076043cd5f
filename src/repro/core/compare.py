"""Scheme comparison helpers used by the benchmarks and examples."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..calibration import Calibration
from .engine import ScenarioEngine
from .results import RunResult
from .scenario import Scenario, Scheme


def compare_grid(
    app_sets: Sequence[Sequence[str]],
    schemes: Sequence[str],
    windows: int = 1,
    calibration: Optional[Calibration] = None,
    waveforms: Optional[Dict[str, Any]] = None,
    engine: Optional[ScenarioEngine] = None,
    workers: int = 1,
    cache_dir: Optional[Any] = None,
    backend: Optional[str] = None,
    fidelity: Optional[str] = None,
) -> Dict[Tuple[str, ...], Dict[str, RunResult]]:
    """Run every app set under every scheme through ONE engine batch.

    The whole ``app_sets x schemes`` grid goes through a single
    :meth:`~repro.core.engine.ScenarioEngine.run_batch` call, so one
    execution backend, one memory cache and one dedup pass serve the
    entire comparison — instead of a fresh engine (and worker spawn)
    per scheme.  ``backend`` chooses where the grid executes (results
    are bit-identical across backends).  ``fidelity``
    overrides the engine's tier for this grid (``"auto"`` is a natural
    fit here: the batch holds every scheme of each app set, so the
    planner confirms exactly the per-set frontier).  Returns
    ``{tuple(app_ids): {scheme: result}}`` in input order.
    """
    owns_engine = engine is None
    engine = engine or ScenarioEngine(
        workers=workers, cache_dir=cache_dir, backend=backend
    )
    keys = [tuple(app_ids) for app_ids in app_sets]
    scenarios = [
        Scenario.of(
            list(key),
            scheme=scheme,
            windows=windows,
            calibration=calibration,
            waveforms=waveforms,
        )
        for key in keys
        for scheme in schemes
    ]
    try:
        results = engine.run_many(scenarios, fidelity=fidelity)
    finally:
        if owns_engine:
            # Only close pools we spawned; a shared engine stays warm.
            engine.close()
    grid: Dict[Tuple[str, ...], Dict[str, RunResult]] = {}
    cursor = 0
    for key in keys:
        grid[key] = {}
        for scheme in schemes:
            grid[key][scheme] = results[cursor]
            cursor += 1
    return grid


def compare_schemes(
    app_ids: Sequence[str],
    schemes: Sequence[str],
    windows: int = 1,
    calibration: Optional[Calibration] = None,
    waveforms=None,
    engine: Optional[ScenarioEngine] = None,
    workers: int = 1,
    cache_dir=None,
    backend: Optional[str] = None,
    fidelity: Optional[str] = None,
) -> Dict[str, RunResult]:
    """Run the same apps under several schemes; returns results by scheme.

    Each scheme gets fresh app instances and a fresh hub, so state never
    leaks between runs.  ``workers``/``cache_dir`` (or a pre-built
    ``engine``) route the runs through the
    :class:`~repro.core.engine.ScenarioEngine` for parallel fan-out and
    fingerprint caching.  This is :func:`compare_grid` for one app set.
    """
    grid = compare_grid(
        [list(app_ids)],
        schemes,
        windows=windows,
        calibration=calibration,
        waveforms=waveforms,
        engine=engine,
        workers=workers,
        cache_dir=cache_dir,
        backend=backend,
        fidelity=fidelity,
    )
    return grid[tuple(app_ids)]


def savings_table(
    results: Dict[str, RunResult], baseline_key: str = Scheme.BASELINE
) -> Dict[str, float]:
    """Fractional marginal-energy savings per scheme vs the baseline."""
    baseline = results[baseline_key]
    return {
        scheme: result.energy.savings_vs(baseline.energy)
        for scheme, result in results.items()
        if scheme != baseline_key
    }


def average_savings(
    per_app_results: Dict[str, Dict[str, RunResult]],
    scheme: str,
    baseline_key: str = Scheme.BASELINE,
) -> float:
    """Mean savings of ``scheme`` across per-app comparison dicts."""
    savings: List[float] = []
    for results in per_app_results.values():
        baseline = results[baseline_key]
        savings.append(results[scheme].energy.savings_vs(baseline.energy))
    if not savings:
        return 0.0
    return sum(savings) / len(savings)

"""Parameter-sweep utilities for what-if studies.

The ablation benchmarks and the examples share this small API: build a
grid of scenario variants, run them through the
:class:`~repro.core.engine.ScenarioEngine` (optionally cached on disk
and fanned out over worker processes), and collect flat result records
(plain dicts, friendly to CSV/pandas without depending on either).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from ..errors import ReproError
from .engine import ScenarioEngine
from .results import RunResult
from .scenario import Scenario


@dataclass
class SweepPoint:
    """One grid point: parameters plus the measured outcome."""

    params: Dict[str, Any]
    result: Optional[RunResult]
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether this point ran to completion."""
        return self.result is not None


@dataclass
class Sweep:
    """A completed sweep: ordered points plus helpers."""

    points: List[SweepPoint] = field(default_factory=list)

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def succeeded(self) -> List[SweepPoint]:
        """Points that produced a result."""
        return [point for point in self.points if point.ok]

    @property
    def failed(self) -> List[SweepPoint]:
        """Points that errored (e.g. offload rejected)."""
        return [point for point in self.points if not point.ok]

    def records(
        self, extractor: Callable[[RunResult], Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Flatten to dicts: params merged with extracted metrics."""
        rows = []
        for point in self.succeeded:
            row = dict(point.params)
            row.update(extractor(point.result))
            rows.append(row)
        return rows

    def series(
        self, param: str, metric: Callable[[RunResult], float]
    ) -> List[Any]:
        """(param value, metric) pairs, for plotting or asserting shapes."""
        return [
            (point.params[param], metric(point.result))
            for point in self.succeeded
        ]


def run_sweep(
    grid: Iterable[Dict[str, Any]],
    scenario_factory: Callable[..., Scenario],
    keep_errors: bool = True,
    workers: int = 1,
    cache_dir: Optional[Union[str, os.PathLike]] = None,
    engine: Optional[ScenarioEngine] = None,
    dedup: bool = True,
    cache_max_bytes: Optional[int] = None,
    backend: Optional[str] = None,
    fidelity: Optional[str] = None,
) -> Sweep:
    """Run ``scenario_factory(**params)`` for every grid point.

    Library errors (offload rejections, workload misconfigurations) are
    captured per point when ``keep_errors`` is set; programming errors
    always propagate — a :class:`TypeError` in a factory or a bug inside
    the simulator aborts the sweep instead of hiding in point errors.

    ``workers``/``backend`` choose the execution backend independent
    points fan out over — a local process pool or inline execution (the
    process backend returns results without their live hub);
    ``cache_dir`` memoizes results on disk by scenario fingerprint
    (``cache_max_bytes`` caps that cache, evicting oldest entries
    first); ``dedup`` lets grid points that are app-order permutations
    of each other simulate once.
    Pass a pre-built ``engine`` to share one cache/backend/memory-LRU
    configuration across sweeps — its workers then persist between
    calls.  ``fidelity`` overrides the engine's execution tier for this
    sweep (``"des"``, ``"analytic"``, or ``"auto"`` — see
    :class:`~repro.core.engine.ScenarioEngine`); each point's result
    records the tier that produced it in ``RunResult.fidelity``.
    """
    owns_engine = engine is None
    engine = engine or ScenarioEngine(
        workers=workers,
        cache_dir=cache_dir,
        dedup=dedup,
        cache_max_bytes=cache_max_bytes,
        backend=backend,
    )
    points: List[SweepPoint] = []
    pending: List[Tuple[int, Scenario]] = []
    for params in grid:
        params = dict(params)
        try:
            scenario = scenario_factory(**params)
        except ReproError as exc:
            if not keep_errors:
                raise
            points.append(SweepPoint(params=params, result=None, error=str(exc)))
            continue
        points.append(SweepPoint(params=params, result=None))
        pending.append((len(points) - 1, scenario))
    try:
        outcomes = engine.run_batch(
            [scenario for _, scenario in pending], fidelity=fidelity
        )
    finally:
        if owns_engine:
            # A caller-provided engine keeps its pool warm for the next
            # sweep; one we built ourselves must not leak workers.
            engine.close()
    for (slot, _), outcome in zip(pending, outcomes):
        if isinstance(outcome, ReproError):
            if not keep_errors:
                raise outcome
            points[slot].error = str(outcome)
        else:
            points[slot].result = outcome
    return Sweep(points=points)


def grid_of(**axes: Iterable[Any]) -> List[Dict[str, Any]]:
    """Cartesian product of named axes as a list of param dicts."""
    points: List[Dict[str, Any]] = [{}]
    for name, values in axes.items():
        points = [
            {**point, name: value} for point in points for value in values
        ]
    return points

"""Aggregate views: span statistics and the engine's throughput metrics.

:class:`Metrics` condenses a :class:`~repro.obs.recorder.TraceRecorder`
into per-category span statistics plus the raw counters and gauges —
the snapshot the benchmarks commit as ``BENCH_sim_throughput.json``.
:class:`EngineMetrics` is the :class:`~repro.core.engine.ScenarioEngine`
side: cache traffic, fingerprint cost and scenarios/second.  Everything
wall-clock lives here (or on the ``wall`` span track), never in the
deterministic simulation spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..units import to_ms
from .recorder import SIM_TRACK, TraceRecorder


@dataclass(frozen=True)
class SpanStat:
    """Count and accumulated duration of one span group."""

    count: int
    total_s: float

    @property
    def mean_s(self) -> float:
        """Average span duration in seconds."""
        return self.total_s / self.count if self.count else 0.0


class Metrics:
    """Immutable aggregate of one recorder's spans, counters and gauges."""

    def __init__(
        self,
        counters: Dict[str, int],
        gauges: Dict[str, float],
        by_cat: Dict[str, SpanStat],
        by_name: Dict[Tuple[str, str], SpanStat],
    ) -> None:
        self.counters = dict(counters)
        self.gauges = dict(gauges)
        self.by_cat = dict(by_cat)
        self.by_name = dict(by_name)

    @classmethod
    def from_recorder(
        cls, recorder: TraceRecorder, track: str = SIM_TRACK
    ) -> "Metrics":
        """Aggregate one track of a recorder into span statistics."""
        counts: Dict[Tuple[str, str], int] = {}
        totals: Dict[Tuple[str, str], float] = {}
        for span in recorder.spans:
            if span.track != track:
                continue
            key = (span.cat, span.name)
            counts[key] = counts.get(key, 0) + 1
            totals[key] = totals.get(key, 0.0) + span.duration_s
        by_name = {
            key: SpanStat(counts[key], totals[key]) for key in counts
        }
        cat_counts: Dict[str, int] = {}
        cat_totals: Dict[str, float] = {}
        for (cat, _name), stat in by_name.items():
            cat_counts[cat] = cat_counts.get(cat, 0) + stat.count
            cat_totals[cat] = cat_totals.get(cat, 0.0) + stat.total_s
        by_cat = {
            cat: SpanStat(cat_counts[cat], cat_totals[cat])
            for cat in cat_counts
        }
        return cls(recorder.counters, recorder.gauges, by_cat, by_name)

    def snapshot(self) -> Dict[str, Any]:
        """Plain, JSON-able, deterministically ordered dict of everything."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "spans": {
                cat: {
                    "count": stat.count,
                    "total_s": stat.total_s,
                    "by_name": {
                        name: {
                            "count": inner.count,
                            "total_s": inner.total_s,
                        }
                        for (span_cat, name), inner in sorted(
                            self.by_name.items()
                        )
                        if span_cat == cat
                    },
                }
                for cat, stat in sorted(self.by_cat.items())
            },
        }


@dataclass
class EngineMetrics:
    """Wall-clock-side instrumentation of one :class:`ScenarioEngine`.

    All fields measure *host* behavior (how fast the engine chews
    through scenarios), never simulated quantities — keep them out of
    anything that must be deterministic.
    """

    cache_hits: int = 0
    cache_misses: int = 0
    #: Of ``cache_hits``, how many the in-memory LRU tier served.
    cache_memory_hits: int = 0
    #: Of ``cache_hits``, how many came off disk (then got promoted).
    cache_disk_hits: int = 0
    #: Grid points served by fanning out another point's simulation
    #: (permutation-equivalent scenarios deduplicated pre-execution).
    dedup_hits: int = 0
    #: Name of the execution backend the engine dispatched through.
    backend_name: str = ""
    #: Workers/processes the backend brought up
    #: (1 == perfect reuse for the process pool).
    backend_spawns: int = 0
    #: Chunks dispatched to the backend (each one round-trip).
    backend_dispatches: int = 0
    #: Individual scenarios shipped inside those chunks.
    backend_tasks: int = 0
    #: Scenarios actually simulated (cache and dedup hits excluded).
    scenarios_run: int = 0
    #: Closed-form evaluations by the analytic tier (cache hits excluded).
    analytic_evals: int = 0
    #: Grid points ``fidelity="auto"`` selected as the frontier (per-app-set
    #: scheme winners plus within-band near-ties).
    frontier_points: int = 0
    #: Grid points ``fidelity="auto"`` sent to the DES: the frontier plus
    #: every point outside the analytic tier's envelope.
    des_confirmations: int = 0
    #: Host seconds spent evaluating closed-form models.
    analytic_wall_s: float = 0.0
    #: Host seconds spent computing scenario fingerprints.
    fingerprint_wall_s: float = 0.0
    #: Host seconds spent inside run()/run_batch() (includes cache I/O).
    run_wall_s: float = 0.0
    #: Host seconds of simulation per pool worker, in first-seen order
    #: (``w0``, ``w1``, ...); serial runs accumulate under ``w0``.
    worker_wall_s: Dict[str, float] = field(default_factory=dict)

    def note_worker(self, worker: str, elapsed_s: float) -> None:
        """Accumulate one scenario's wall time under a worker label."""
        self.worker_wall_s[worker] = (
            self.worker_wall_s.get(worker, 0.0) + elapsed_s
        )

    @property
    def scenarios_per_sec(self) -> float:
        """Simulated scenarios per host second of engine time."""
        if self.run_wall_s <= 0.0:
            return 0.0
        return self.scenarios_run / self.run_wall_s

    def snapshot(self) -> Dict[str, Any]:
        """Plain JSON-able dict (all values wall-clock, informational)."""
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_memory_hits": self.cache_memory_hits,
            "cache_disk_hits": self.cache_disk_hits,
            "dedup_hits": self.dedup_hits,
            "backend_name": self.backend_name,
            "backend_spawns": self.backend_spawns,
            "backend_dispatches": self.backend_dispatches,
            "backend_tasks": self.backend_tasks,
            "scenarios_run": self.scenarios_run,
            "analytic_evals": self.analytic_evals,
            "frontier_points": self.frontier_points,
            "des_confirmations": self.des_confirmations,
            "analytic_wall_s": self.analytic_wall_s,
            "fingerprint_wall_s": self.fingerprint_wall_s,
            "run_wall_s": self.run_wall_s,
            "scenarios_per_sec": self.scenarios_per_sec,
            "worker_wall_s": dict(sorted(self.worker_wall_s.items())),
        }

    def summary_lines(self) -> List[str]:
        """Human-readable rows for the text reporters."""
        lines = [
            f"cache: {self.cache_hits} hit(s), "
            f"{self.cache_misses} miss(es)"
            + (
                f" [memory {self.cache_memory_hits}, "
                f"disk {self.cache_disk_hits}]"
                if self.cache_hits
                else ""
            ),
            f"simulated {self.scenarios_run} scenario(s) in "
            f"{self.run_wall_s:.3f} s wall "
            f"({self.scenarios_per_sec:.2f}/s), fingerprinting "
            f"{to_ms(self.fingerprint_wall_s):.2f} ms",
        ]
        if self.dedup_hits:
            lines.append(
                f"dedup: {self.dedup_hits} point(s) fanned out from "
                "equivalent simulations"
            )
        if self.analytic_evals:
            line = (
                f"analytic: {self.analytic_evals} closed-form eval(s) in "
                f"{to_ms(self.analytic_wall_s):.2f} ms"
            )
            if self.des_confirmations:
                line += (
                    f"; auto confirmed {self.des_confirmations} point(s) "
                    f"via DES ({self.frontier_points} frontier)"
                )
            lines.append(line)
        if self.backend_dispatches:
            name = self.backend_name or "?"
            lines.append(
                f"backend[{name}]: {self.backend_spawns} spawn(s), "
                f"{self.backend_dispatches} dispatch(es), "
                f"{self.backend_tasks} task(s)"
            )
        if self.worker_wall_s:
            shares = "  ".join(
                f"{worker}={seconds:.3f}s"
                for worker, seconds in sorted(self.worker_wall_s.items())
            )
            lines.append(f"worker wall time: {shares}")
        return lines

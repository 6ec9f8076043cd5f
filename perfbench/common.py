"""Metric names, statistics, set-up timing and result printing."""

from __future__ import annotations

import json
import math
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

import calibrate
import spec

clock = time.perf_counter

#: (name, unit) of every end-to-end metric; printed by untraced runs.
END_TO_END = (
    ("points_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: (name, unit) of every per-layer metric; printed by traced runs.
PER_LAYER = (
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("hw.set_state_calls", "count"),
    ("hw.set_state_s", "s"),
    ("sensors.acquire_calls", "count"),
    ("sensors.acquire_s", "s"),
    ("energy.measure_calls", "count"),
    ("energy.measure_s", "s"),
    ("schemes.build_s", "s"),
    ("schemes.collect_s", "s"),
    ("fastforward.calls", "count"),
    ("fastforward.s", "s"),
    ("fastforward.hit_ratio", "ratio"),
    ("analytic.evals", "count"),
    ("analytic.s", "s"),
    ("analytic.unsupported_ratio", "ratio"),
    ("engine.fingerprint_calls", "count"),
    ("engine.fingerprint_s", "s"),
    ("engine.scenarios_run", "count"),
    ("engine.dedup_hits", "count"),
    ("engine.frontier_points", "count"),
    ("engine.des_confirmations", "count"),
    ("cache.get_s", "s"),
    ("cache.put_s", "s"),
    ("cache.memory_hits", "count"),
    ("cache.disk_hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.put_bytes", "bytes"),
    ("backends.submit_s", "s"),
    ("backends.tasks", "count"),
    ("backends.overhead_s", "s"),
    ("serve.submit_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.engine_s", "s"),
    ("serve.artifact_s", "s"),
    ("serve.artifact_bytes", "bytes"),
    ("serve.coalesced", "count"),
    ("serve.refused", "count"),
    ("trace.overhead_ratio", "ratio"),
)

#: Why a per-layer metric can read 0, by exact name, then by prefix.
ZERO_REASONS = (
    ("analytic.unsupported_ratio", "no AnalyticUnsupported fallback fired"),
    ("fastforward.hit_ratio", "no fast-forward attempt returned a result"),
    ("schemes.collect_s", "fast-forwarded runs skip SchemeContext.collect"),
    ("engine.dedup_hits", "no two points of a batch share a fingerprint"),
    ("engine.frontier_points", "only fidelity auto confirms a frontier"),
    ("engine.des_confirmations", "only fidelity auto confirms a frontier"),
    ("serve.refused", "no job was refused with HTTP 429"),
    ("serve.coalesced", "no job coalesced onto an identical one"),
    ("fastforward.", "this workload's engine runs without fast-forward"),
    ("analytic.", "this workload runs at fidelity des"),
    ("cache.", "this workload's engine has no result cache"),
    ("serve.", "no server in this workload"),
)

#: Set-up samples per run; setup_s reports their median.
SETUP_SAMPLES = 5


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def probe_setup(workload: str) -> float:
    """Reference seconds from spawning a fresh interpreter to a ready engine.

    The probe imports the library and constructs the workload's engine
    (see ``workload.py --probe``), then prints its monotonic clock,
    which is system-wide on Linux and so comparable with ours, and a
    calibration point taken in the probe itself after that clock.
    """
    started = clock()
    done = subprocess.run(
        [sys.executable, str(spec.BENCH_DIR / "workload.py"),
         "--probe", workload],
        capture_output=True, text=True, timeout=120, check=True,
    )
    ready, point = (float(word) for word in done.stdout.split()[-2:])
    return calibrate.rescale(ready - started, point)


def layer_metrics(
    summary: Dict[str, Dict[str, float]],
    counters: Dict[str, float],
    engine: Dict[str, float],
    serve: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-layer metrics from a span summary plus engine/serve counters."""

    def calls(name: str) -> float:
        return summary.get(name, {}).get("calls", 0)

    def self_s(*names: str) -> float:
        return sum(summary.get(name, {}).get("self_s", 0.0) for name in names)

    def total_s(name: str) -> float:
        return summary.get(name, {}).get("total_s", 0.0)

    serve = serve or {}
    hits = engine.get("cache_memory_hits", 0) + engine.get("cache_disk_hits", 0)
    misses = engine.get("cache_misses", 0)
    return {
        "sim.run_s": self_s("sim.run", "sim.pop"),
        "sim.events": counters.get("sim.events", 0),
        "sim.events_per_s": ratio(
            counters.get("sim.events", 0), total_s("sim.run")
        ),
        "hw.set_state_calls": calls("hw.set_state"),
        "hw.set_state_s": self_s("hw.set_state"),
        "sensors.acquire_calls": calls("sensors.acquire"),
        "sensors.acquire_s": self_s("sensors.acquire"),
        "energy.measure_calls": calls("energy.measure"),
        "energy.measure_s": self_s("energy.measure"),
        "schemes.build_s": self_s("schemes.build"),
        "schemes.collect_s": self_s("schemes.collect"),
        "fastforward.calls": calls("fastforward"),
        "fastforward.s": self_s("fastforward"),
        "fastforward.hit_ratio": ratio(
            counters.get("fastforward.hits", 0), calls("fastforward")
        ),
        "analytic.evals": calls("analytic"),
        "analytic.s": self_s("analytic"),
        "analytic.unsupported_ratio": ratio(
            counters.get("analytic.unsupported", 0), calls("analytic")
        ),
        "engine.fingerprint_calls": calls("engine.fingerprint"),
        "engine.fingerprint_s": self_s("engine.fingerprint"),
        "engine.scenarios_run": engine.get("scenarios_run", 0),
        "engine.dedup_hits": engine.get("dedup_hits", 0),
        "engine.frontier_points": engine.get("frontier_points", 0),
        "engine.des_confirmations": engine.get("des_confirmations", 0),
        "cache.get_s": self_s("cache.get"),
        "cache.put_s": self_s("cache.put", "cache.store"),
        "cache.memory_hits": engine.get("cache_memory_hits", 0),
        "cache.disk_hits": engine.get("cache_disk_hits", 0),
        "cache.misses": misses,
        "cache.hit_ratio": ratio(hits, hits + misses),
        "cache.put_bytes": counters.get("cache.put_bytes", 0),
        "backends.submit_s": total_s("backends.submit"),
        "backends.tasks": calls("backends.task"),
        "backends.overhead_s": total_s("backends.submit")
        - total_s("backends.task"),
        "serve.submit_ms": serve.get("submit_ms", 0.0),
        "serve.result_ms": serve.get("result_ms", 0.0),
        "serve.engine_s": total_s("serve.engine"),
        "serve.artifact_s": self_s("serve.artifact"),
        "serve.artifact_bytes": counters.get("serve.artifact_bytes", 0),
        "serve.coalesced": serve.get("coalesced", 0),
        "serve.refused": serve.get("refused", 0),
    }


def add_engine_metrics(total: Dict[str, float], snapshot: Dict) -> None:
    """Accumulate the numeric counters of an ``EngineMetrics`` snapshot."""
    for key, value in snapshot.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            total[key] = total.get(key, 0) + value


def zero_reason(name: str) -> str:
    for key, why in ZERO_REASONS:
        if name == key or (key.endswith(".") and name.startswith(key)):
            return why
    return "no call reached it in this run"


class Report:
    """Collects one run's metrics and prints them, then the result line."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def mismatch(self, message: str) -> None:
        self.mismatches.append(message)

    def fail(self, message: str) -> None:
        """A failed operation.  Every operation of every workload is
        chosen to succeed, so a failure is also a mismatch."""
        self.failed += 1
        self.mismatch(message)

    def note(self, message: str) -> None:
        self.notes.append(message)

    def emit(self) -> int:
        """Print the report; returns the process exit code."""
        names = PER_LAYER if self.trace else END_TO_END
        units = dict(names)
        correct = not self.mismatches
        print(f"workload {self.workload}  seed {self.seed}  "
              f"trace {int(self.trace)}")
        for message in self.mismatches[:20]:
            print(f"MISMATCH: {message}")
        if len(self.mismatches) > 20:
            print(f"MISMATCH: ... {len(self.mismatches) - 20} more")
        print(f"  attempted = {self.attempted}  failed = {self.failed}  "
              f"failed_ratio = {ratio(self.failed, self.attempted):.6g} ratio")
        metrics = {}
        if correct:
            for name, _unit in names:
                value = float(self.metrics[name])
                extra = (f"  (n={self.samples[name]})"
                         if name in self.samples else "")
                print(f"  {name} = {value:.6g} {units[name]}{extra}")
                metrics[name] = {"value": value, "unit": units[name]}
            for note in self.notes:
                print(f"  note: {note}")
            if self.trace:
                print("  note: sim.run_s, hw.set_state_s and sensors.acquire_s "
                      "are self times that include the per-event wrapper's "
                      "own cost")
                for name, _unit in names:
                    if not self.metrics[name]:
                        print(f"  note: reads 0: {name}: {zero_reason(name)}")
        print(json.dumps({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }))
        sys.stdout.flush()
        return 0 if correct else 1

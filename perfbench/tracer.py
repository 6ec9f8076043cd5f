"""Span tracing for the benchmark's traced runs, installed from outside src/.

:func:`install` wraps the public entry points of each layer (module) in
place — class methods and module-level functions the library calls by
name — and :func:`Tracer.uninstall` restores them, so untraced runs
execute the library untouched.

Each wrapped call becomes a span: name, start, end, parent span and a
request id (the grid point or serve job it works for).  Spans stay in
memory and are written out when the run ends.  A span's *self* time is
its duration minus the time its child spans cover; a layer's self time
is the sum over its spans.

Per-event functions (event pops, ``set_state``, sensor ``acquire``
steps) run millions of times per run, so they are aggregated per name
(calls, total and self time) instead of stored one record per call.
Their self times include the wrapper's own cost.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

clock = time.perf_counter


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        #: Finished spans: (id, name, start, end, parent id, request id,
        #: self seconds).
        self.spans: List[tuple] = []
        #: Aggregated per-event spans: name -> [calls, total_s, self_s].
        self.hot: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[tuple] = []

    # ------------------------------------------------------------------
    # span stack (one per thread: serve runs its engine on a worker thread)
    # ------------------------------------------------------------------
    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def span(self, name: str, rid: Optional[str] = None):
        """Context manager recording one full span."""
        return _Span(self, name, rid)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        rid_of: Optional[Callable[..., Optional[str]]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``fn`` recording one full span per call.

        ``rid_of(*args, **kwargs)`` names the call's request id (else the
        parent's is inherited); ``after(result, *args, **kwargs)`` runs
        after the span closes, for counters that must not be timed.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rid = rid_of(*args, **kwargs) if rid_of is not None else None
            with _Span(tracer, name, rid):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def wrap_hot(self, name: str, fn: Callable) -> Callable:
        """``fn`` aggregated into ``hot[name]`` (no per-call record)."""
        stack_of = self.stack
        agg = self.hot[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            frame = [0, name, clock(), 0.0, None]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[2]
                stack.pop()
                if stack:
                    stack[-1][3] += duration
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[3]

        return traced

    def wrap_hot_generator(self, name: str, fn: Callable) -> Callable:
        """Generator function ``fn`` with each resumption aggregated.

        One call counts once; its time is the sum of its steps (the time
        spent suspended belongs to the simulation, not to ``fn``).
        Values, exceptions and ``close()`` are delegated like
        ``yield from``.
        """
        stack_of = self.stack
        agg = self.hot[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            agg[0] += 1
            value: Any = None
            error: Optional[BaseException] = None
            while True:
                stack = stack_of()
                frame = [0, name, clock(), 0.0, None]
                stack.append(frame)
                try:
                    if error is None:
                        item = inner.send(value)
                    else:
                        item = inner.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    duration = clock() - frame[2]
                    stack.pop()
                    if stack:
                        stack[-1][3] += duration
                    agg[1] += duration
                    agg[2] += duration - frame[3]
                try:
                    value, error = (yield item), None
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # delegated to the inner generator
                    value, error = None, exc

        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        """Replace ``owner.attr``; :meth:`uninstall` puts it back."""
        own = vars(owner)
        self._undo.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._undo):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for _id, name, start, end, _parent, _rid, self_s in self.spans:
            entry = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_s
        for name, (calls, total_s, self_s) in self.hot.items():
            out[name] = {"calls": calls, "total_s": total_s, "self_s": self_s}
        return out

    def write(self, path: os.PathLike) -> None:
        """Spans as JSON lines, then one record per aggregated name."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, rid, self_s in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "rid": rid, "self_s": self_s,
                }) + "\n")
            for name, (calls, total_s, self_s) in sorted(self.hot.items()):
                handle.write(json.dumps({
                    "aggregate": name, "calls": calls,
                    "total_s": total_s, "self_s": self_s,
                }) + "\n")


class _Span:
    """One full span: pushed on enter, recorded with its self time on exit."""

    __slots__ = ("tracer", "frame")

    def __init__(self, tracer: Tracer, name: str, rid: Optional[str]):
        self.tracer = tracer
        self.frame = [0, name, 0.0, 0.0, rid]

    def __enter__(self) -> "_Span":
        tracer, frame = self.tracer, self.frame
        stack = tracer.stack()
        frame[0] = next(tracer._ids)
        if frame[4] is None and stack:
            frame[4] = stack[-1][4]
        stack.append(frame)
        frame[2] = clock()
        return self

    def __exit__(self, *_exc: object) -> None:
        end = clock()
        frame = self.frame
        stack = self.tracer.stack()
        stack.pop()
        duration = end - frame[2]
        parent = None
        if stack:
            stack[-1][3] += duration
            parent = stack[-1][0] or None
        self.tracer.spans.append(
            (frame[0], frame[1], frame[2], end, parent, frame[4],
             duration - frame[3])
        )


def _scenario_rid(scenario: Any) -> str:
    apps = "+".join(app.table2_id for app in scenario.apps)
    return f"{apps}:{scenario.scheme}:w{scenario.windows}"


def install(tracer: Tracer, serve: bool = False) -> Tracer:
    """Wrap every layer's entry points; ``serve`` adds the job manager."""
    from repro.core import cache, engine, fastforward
    from repro.core.backends.serial import SerialBackend
    from repro.core.schemes import base as schemes_base
    from repro.energy.meter import PowerMonitor
    from repro.errors import AnalyticUnsupported
    from repro.hw.power import PowerStateMachine
    from repro.sensors.base import SensorDevice
    from repro.sim.events import EventQueue
    from repro.sim.kernel import Simulator

    t = tracer

    # sim: kernel runs (with the events they execute) and event pops.
    run = Simulator.run

    def sim_run(self, *args, **kwargs):
        before = self.events_executed
        with _Span(t, "sim.run", None):
            try:
                return run(self, *args, **kwargs)
            finally:
                t.count("sim.events", self.events_executed - before)

    t.patch(Simulator, "run", functools.wraps(run)(sim_run))
    t.patch(EventQueue, "pop_due", t.wrap_hot("sim.pop", EventQueue.pop_due))
    # hw, sensors, energy.
    t.patch(
        PowerStateMachine, "set_state",
        t.wrap_hot("hw.set_state", PowerStateMachine.set_state),
    )
    t.patch(
        SensorDevice, "acquire",
        t.wrap_hot_generator("sensors.acquire", SensorDevice.acquire),
    )
    t.patch(
        PowerMonitor, "measure",
        t.wrap("energy.measure", PowerMonitor.measure),
    )
    # schemes: context build (also reached from fast-forward) and collect.
    build = t.wrap("schemes.build", schemes_base.build_context)
    t.patch(schemes_base, "build_context", build)
    t.patch(fastforward, "build_context", build)
    t.patch(
        schemes_base.SchemeContext, "collect",
        t.wrap("schemes.collect", schemes_base.SchemeContext.collect),
    )

    # fastforward: attempts and hits.
    def ff_after(result, *_args, **_kwargs):
        t.count("fastforward.attempts")
        if result is not None:
            t.count("fastforward.hits")

    t.patch(
        fastforward, "try_fast_forward",
        t.wrap(
            "fastforward", fastforward.try_fast_forward,
            rid_of=lambda scenario, *a, **k: _scenario_rid(scenario),
            after=ff_after,
        ),
    )

    # analytic: evaluations and AnalyticUnsupported fallbacks.
    analytic = engine.analytic_scenario_result

    def analytic_eval(scenario, *args, **kwargs):
        with _Span(t, "analytic", _scenario_rid(scenario)):
            try:
                return analytic(scenario, *args, **kwargs)
            except AnalyticUnsupported:
                t.count("analytic.unsupported")
                raise

    t.patch(
        engine, "analytic_scenario_result",
        functools.wraps(analytic)(analytic_eval),
    )
    # engine: fingerprints and batches.
    t.patch(
        engine, "scenario_fingerprint",
        t.wrap("engine.fingerprint", engine.scenario_fingerprint),
    )
    t.patch(
        engine.ScenarioEngine, "run_batch",
        t.wrap("engine.run_batch", engine.ScenarioEngine.run_batch),
    )

    # cache: tiered get/put and the bytes each disk store writes.
    def store_after(_result, disk, fingerprint, *_a, **_k):
        t.count("cache.put_bytes", os.path.getsize(disk.path_for(fingerprint)))

    t.patch(
        cache.TieredResultCache, "get",
        t.wrap("cache.get", cache.TieredResultCache.get),
    )
    t.patch(
        cache.TieredResultCache, "put",
        t.wrap("cache.put", cache.TieredResultCache.put),
    )
    t.patch(
        cache.DiskResultCache, "store",
        t.wrap("cache.store", cache.DiskResultCache.store, after=store_after),
    )

    # backends: the serial backend's dispatch and each task it runs.
    submit = SerialBackend.submit_batch

    def submit_batch(self, fn, items, chunk_size=None, labels=None):
        order = iter(labels or [])

        def task(item):
            with _Span(t, "backends.task", next(order, None)):
                return fn(item)

        with _Span(t, "backends.submit", None):
            return submit(self, task, items, chunk_size, labels)

    t.patch(SerialBackend, "submit_batch", functools.wraps(submit)(submit_batch))

    if serve:
        from repro.serve import jobs
        from repro.serve.artifacts import canonical_json

        t.patch(
            jobs.JobManager, "_run_chunk",
            t.wrap(
                "serve.engine", jobs.JobManager._run_chunk,
                rid_of=lambda _manager, job, _chunk: job.id,
            ),
        )
        artifact = jobs.result_artifact

        def result_artifact(result, fingerprint=None):
            with _Span(t, "serve.artifact", None):
                payload = artifact(result, fingerprint)
            t.count("serve.artifact_bytes", len(canonical_json(payload)))
            return payload

        t.patch(
            jobs, "result_artifact", functools.wraps(artifact)(result_artifact)
        )
    return t

"""The simulation kernel: virtual clock + event loop + process spawning."""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..errors import SchedulingError, SimulationError
from ..obs.recorder import NULL_RECORDER, NullRecorder
from .events import Event, EventQueue
from .process import Process


class Simulator:
    """Owns virtual time and executes events in order.

    Typical use::

        sim = Simulator()

        def blinker():
            while True:
                yield Delay(0.5)
                toggle_led()

        sim.spawn(blinker())
        sim.run(until=10.0)

    Pass ``obs=TraceRecorder()`` to collect kernel metrics (events
    dispatched, heap depth, per-process signal waits); the default
    :data:`~repro.obs.recorder.NULL_RECORDER` makes every hook a no-op.
    """

    def __init__(self, obs: Optional[NullRecorder] = None) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._running = False
        #: Live processes in spawn order (a dict used as an ordered set);
        #: a process removes itself when it finishes.
        self._processes: dict[Process, None] = {}
        #: Total events executed over the simulator's lifetime, across
        #: all :meth:`run` calls (segmented runs accumulate).
        self.events_executed = 0
        #: Instrumentation sink shared by the kernel and its processes.
        self.obs = obs if obs is not None else NULL_RECORDER

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of scheduled, non-cancelled events."""
        return len(self._queue)

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule {delay:g}s in the past")
        return self._queue.push(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` at absolute virtual ``time``."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at t={time:g} before now={self._now:g}"
            )
        return self._queue.push(time, callback)

    def spawn(
        self,
        generator: Generator[Any, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a generator-based process at the current time."""
        process = Process(self, generator, name=name)
        self._processes[process] = None
        process.start()
        return process

    def close(self) -> None:
        """End the simulation by finishing every live process.

        For a run that is over: a process still blocked on a signal once
        the queue has drained (a daemon such as the interrupt dispatcher)
        would otherwise keep its generator frame, and everything that
        frame references, alive for as long as the simulator.
        """
        for process in tuple(self._processes):
            process.interrupt()

    def next_event_time(self) -> Optional[float]:
        """Time of the next scheduled event (used by sleep governors)."""
        return self._queue.peek_time()

    @property
    def processes(self) -> tuple:
        """Live (unfinished) processes, in spawn order."""
        return tuple(self._processes)

    def iter_pending(self) -> list:
        """Live (non-cancelled) events, soonest first, for inspection.

        O(n log n); meant for boundary snapshots and debugging, never the
        per-event hot path.
        """
        return [
            entry[2]
            for entry in sorted(self._queue.raw_heap())
            if not entry[2].cancelled
        ]

    def step(self) -> bool:
        """Execute the next event; return ``False`` if the queue was empty."""
        if not self._queue:
            return False
        event = self._queue.pop()
        if event.time < self._now:
            raise SimulationError("event queue returned an event in the past")
        self._now = event.time
        event.callback()
        return True

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the queue drains or virtual time reaches ``until``.

        Returns the final virtual time.  ``max_events`` is a runaway guard; a
        well-formed scenario never approaches it.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        obs = self.obs
        observing = obs.enabled
        started_at = self._now
        max_depth = 0
        heap = self._queue.raw_heap()
        pop_due = self._queue.pop_due
        try:
            executed = 0
            # One queue access per event: pop_due prunes cancelled
            # entries and pops the next live event in a single descent
            # (peek_time() followed by step()->pop() would walk the same
            # cancelled run twice).
            while True:
                event = pop_due(until)
                if event is None:
                    if until is not None and self._queue:
                        # Live events remain beyond the horizon: park the
                        # clock at ``until`` exactly, as before.
                        self._now = until
                    break
                if observing:
                    # +1: the popped event itself, so the gauge matches
                    # the historical sample taken before each pop.
                    depth = len(heap) + 1
                    if depth > max_depth:
                        max_depth = depth
                if event.time < self._now:
                    raise SimulationError(
                        "event queue returned an event in the past"
                    )
                self._now = event.time
                event.callback()
                executed += 1
                if executed > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; runaway simulation?"
                    )
        finally:
            self._running = False
            self.events_executed += executed
            if observing:
                obs.count("sim.events", executed)
                obs.gauge_max("sim.heap_depth", max_depth)
                obs.span("kernel", "run", started_at, self._now)
        return self._now

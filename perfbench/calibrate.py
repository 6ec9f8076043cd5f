"""Host-speed calibration: a fixed pure-Python kernel timed beside the work.

The benchmark runs on a shared host whose per-core speed drifts by tens
of percent over seconds to minutes, so a fixed loop's wall time varies
with the moment it runs.  The library workloads therefore report times
in *reference seconds*: while a pass runs, :class:`Sampler` interrupts
it every ``PERIOD_S`` (``SIGALRM``, handled in the main thread, on the
same core) to time one short run of :func:`kernel`.  A sample that
takes ``k`` seconds says the core ran at ``REFERENCE_S / k`` of its
reference speed just then, and the pass's time is rescaled by the mean
of that ratio over its samples::

    reference_s = (wall_s - kernel time) * mean(REFERENCE_S / k)

A program change moves ``wall_s`` and leaves the kernel alone, so it
moves the rescaled figure by the same share; a host slow-down moves both
and cancels.  The kernel does the kind of work the simulator does: heap
pushes and pops of small objects with ``__lt__``, dict updates and
float arithmetic.

Set-up probes run in a child process, which the sampler cannot see, so
the child takes one calibration point itself, next to the set-up it
times (:func:`point`, :func:`rescale`).  serve_mixed's load process
times one kernel run before each job (see serve_load.py).
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import List

clock = time.perf_counter

#: Median :func:`kernel` time on the reference host (2-vCPU Intel Xeon
#: VM at 2.0 GHz, Python 3.11.7).  Rescaled figures read as if measured
#: at this host's typical speed.
REFERENCE_S = 0.0024
#: Events per :func:`kernel` run.
STEPS = 1000
#: Seconds between :class:`Sampler` samples (about 2.5% of the time).
PERIOD_S = 0.1
#: Kernel runs per calibration :func:`point`; the point is their median.
REPEATS = 5


class _Event:
    __slots__ = ("t", "kind", "value")

    def __init__(self, t: float, kind: int, value: float) -> None:
        self.t = t
        self.kind = kind
        self.value = value

    def __lt__(self, other: "_Event") -> bool:
        return self.t < other.t


def kernel() -> float:
    """A fixed, deterministic event loop; returns its checksum."""
    heap = [_Event(i * 0.37 % 1.0, i % 8, 0.0) for i in range(64)]
    heapq.heapify(heap)
    totals: dict = {}
    energy = 0.0
    for step in range(STEPS):
        event = heapq.heappop(heap)
        energy += (event.t * 1.5e-3 + 0.25) * 3.3
        totals[event.kind] = totals.get(event.kind, 0.0) + energy
        heapq.heappush(
            heap, _Event(event.t + (step * 0.618 % 1.0), (event.kind + step) % 8,
                         energy)
        )
    return energy + sum(totals.values())


def timed_kernel() -> float:
    started = clock()
    kernel()
    return clock() - started


def point() -> float:
    """One calibration point: the median of ``REPEATS`` kernel timings."""
    times = sorted(timed_kernel() for _ in range(REPEATS))
    return times[len(times) // 2]


def rescale(wall_s: float, point_s: float) -> float:
    """``wall_s`` in reference seconds, from a calibration point next to it."""
    return wall_s * REFERENCE_S / point_s


class Sampler:
    """Kernel samples taken every ``PERIOD_S`` while the block runs.

    Use in the main thread only (``SIGALRM`` handlers run there)::

        with Sampler() as sampler:
            work()                      # wall_s of wall time
        reference_s = (wall_s - sampler.kernel_s()) * sampler.speed()
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        self.samples.append(timed_kernel())

    def kernel_s(self) -> float:
        """Wall time the samples themselves took."""
        return sum(self.samples)

    def speed(self) -> float:
        """Mean speed over the block, as a share of the reference."""
        if not self.samples:
            return REFERENCE_S / point()
        return sum(REFERENCE_S / k for k in self.samples) / len(self.samples)

"""Event objects and the time-ordered event queue."""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple

from ..errors import SchedulingError

#: Below this raw heap size compaction is never worth the rebuild cost.
_COMPACT_MIN_HEAP = 64


class Event:
    """A callback scheduled at a point in virtual time.

    Events are ordered by ``(time, seq)``: the sequence number makes ordering
    of same-time events deterministic (FIFO in scheduling order), which keeps
    simulations reproducible.  The queue keys its heap on that pair, so
    events themselves are never compared.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        queue: Optional["EventQueue"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        #: Owning queue while the event sits in its heap; ``None`` once
        #: popped or discarded, so late cancels don't corrupt the counts.
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.9f} seq={self.seq}{flag}>"


class EventQueue:
    """Min-heap of ``(time, seq, event)`` entries.

    Entries compare as plain tuples; ``seq`` is unique, so a comparison
    never reaches the :class:`Event`.

    Live and cancelled entries are counted incrementally so ``len()`` and
    truth-testing — which the kernel performs once per executed event —
    are O(1) instead of scanning the heap.  When cancelled entries come
    to dominate (more than half of a non-trivial heap), the heap is
    compacted in one O(n) pass so long runs with many cancelled timeouts
    don't grow memory without bound.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0
        self._cancelled = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute ``time`` and return its event."""
        if time != time:  # NaN guard
            raise SchedulingError("event time is NaN")
        seq = next(self._counter)
        event = Event(time, seq, callback, self)
        heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event."""
        while self._heap:
            event = heappop(self._heap)[2]
            event._queue = None
            if not event.cancelled:
                self._live -= 1
                return event
            self._cancelled -= 1
        raise SchedulingError("pop from an empty event queue")

    def peek_time(self) -> Optional[float]:
        """Time of the earliest pending event, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)[2]._queue = None
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def pop_due(self, until: Optional[float]) -> Optional[Event]:
        """Pop the earliest live event unless it lies beyond ``until``.

        The kernel's hot path: one heap access per executed event
        (``peek_time()`` + ``pop()`` would prune the same cancelled run
        twice).  Cancelled entries are discarded on the way down; an
        event after ``until`` stays queued and ``None`` is returned, so
        the caller can distinguish "drained" (queue now empty) from
        "parked" (live events remain beyond the horizon).
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                heappop(heap)
                event._queue = None
                self._cancelled -= 1
                continue
            if until is not None and entry[0] > until:
                return None
            heappop(heap)
            event._queue = None
            self._live -= 1
            return event
        return None

    def _note_cancel(self) -> None:
        """Account for an in-heap cancellation; compact when dominated."""
        self._live -= 1
        self._cancelled += 1
        heap = self._heap
        if len(heap) >= _COMPACT_MIN_HEAP and self._cancelled * 2 > len(heap):
            survivors = []
            for entry in heap:
                if entry[2].cancelled:
                    entry[2]._queue = None
                else:
                    survivors.append(entry)
            # In-place so instrumentation holding raw_heap() stays valid.
            heap[:] = survivors
            heapify(heap)
            self._cancelled = 0

    @property
    def depth(self) -> int:
        """Raw heap size, cancelled entries included (an O(1) read).

        This is the instrumentation view — the memory the queue actually
        holds — as opposed to ``len()``, which counts only live events.
        """
        return len(self._heap)

    def raw_heap(self) -> List[Tuple[float, int, Event]]:
        """The live heap list, for read-only instrumentation.

        Each entry is a ``(time, seq, event)`` tuple; cancelled events
        stay in the list until popped or compacted away.

        The kernel's run loop samples ``len()`` of this on every event;
        handing out the list once avoids a property call per event.
        Compaction rewrites the list in place, so the reference stays
        valid across events.
        """
        return self._heap

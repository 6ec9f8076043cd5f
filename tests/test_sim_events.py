"""Unit tests for the event queue."""

import pytest

from repro.errors import SchedulingError
from repro.sim.events import EventQueue


def test_pop_orders_by_time():
    queue = EventQueue()
    order = []
    queue.push(2.0, lambda: order.append("late"))
    queue.push(1.0, lambda: order.append("early"))
    queue.push(1.5, lambda: order.append("mid"))
    while queue:
        queue.pop().callback()
    assert order == ["early", "mid", "late"]


def test_same_time_events_are_fifo():
    queue = EventQueue()
    order = []
    for tag in ("a", "b", "c"):
        queue.push(1.0, lambda tag=tag: order.append(tag))
    while queue:
        queue.pop().callback()
    assert order == ["a", "b", "c"]


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    event.cancel()
    assert len(queue) == 1
    assert queue.pop().time == 2.0


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(3.0, lambda: None)
    assert queue.peek_time() == 1.0
    first.cancel()
    assert queue.peek_time() == 3.0


def test_peek_time_empty_returns_none():
    assert EventQueue().peek_time() is None


def test_pop_empty_raises():
    with pytest.raises(SchedulingError):
        EventQueue().pop()


def test_nan_time_rejected():
    with pytest.raises(SchedulingError):
        EventQueue().push(float("nan"), lambda: None)


def test_len_counts_only_live_events():
    queue = EventQueue()
    events = [queue.push(float(i), lambda: None) for i in range(5)]
    events[0].cancel()
    events[3].cancel()
    assert len(queue) == 3
    assert bool(queue)


def test_cancel_keeps_live_count_consistent():
    """The O(1) live count agrees with a brute-force scan at every step."""
    queue = EventQueue()
    events = [queue.push(float(i), lambda: None) for i in range(10)]

    def brute_force():
        return sum(
            1 for entry in queue.raw_heap() if not entry[2].cancelled
        )

    for index in (0, 7, 3):
        events[index].cancel()
        assert len(queue) == brute_force()
    # Double-cancel must not decrement twice.
    events[7].cancel()
    assert len(queue) == brute_force() == 7
    # Pops interleaved with cancels stay consistent too.  The pop
    # skips cancelled event 0 and returns event 1; cancelling the
    # popped event afterwards must not decrement.
    assert queue.pop() is events[1]
    events[1].cancel()
    assert len(queue) == brute_force() == 6
    events[2].cancel()
    assert len(queue) == brute_force() == 5
    while queue:
        queue.pop()
    assert len(queue) == 0
    assert not queue


def test_cancel_after_pop_is_harmless():
    """Cancelling an event already executed must not corrupt the count."""
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    popped = queue.pop()
    assert popped is first
    first.cancel()
    assert len(queue) == 1
    assert queue.pop().time == 2.0
    assert len(queue) == 0


def test_compaction_bounds_heap_growth():
    """Cancelling most of a large heap rebuilds it instead of growing."""
    queue = EventQueue()
    events = [queue.push(float(i), lambda: None) for i in range(200)]
    for event in events[:150]:
        event.cancel()
    assert len(queue) == 50
    # Lazy compaction kicked in: the raw heap dropped the cancelled
    # majority instead of holding all 200 entries (the rebuild fires
    # once cancelled entries outnumber live ones).
    assert queue.depth < 100
    # Order and contents survive the rebuild.
    times = [queue.pop().time for _ in range(len(queue))]
    assert times == sorted(float(i) for i in range(150, 200))


def test_small_heaps_skip_compaction():
    """Tiny heaps are not worth rebuilding; cancelled entries may linger."""
    queue = EventQueue()
    events = [queue.push(float(i), lambda: None) for i in range(10)]
    for event in events[:9]:
        event.cancel()
    assert len(queue) == 1
    assert queue.depth == 10  # below the compaction threshold
    assert queue.pop().time == 9.0

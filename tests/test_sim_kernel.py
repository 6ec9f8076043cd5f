"""Unit tests for the simulation kernel."""

import gc
import weakref

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim import Delay, Signal, Simulator, Wait


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]
    assert sim.now == 1.5


def test_schedule_negative_delay_rejected():
    with pytest.raises(SchedulingError):
        Simulator().schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.schedule_at(0.5, lambda: None)


def test_run_until_stops_clock_at_horizon():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda: fired.append(True))
    end = sim.run(until=3.0)
    assert end == 3.0
    assert not fired
    assert sim.pending_events == 1


def test_nested_scheduling():
    sim = Simulator()
    times = []

    def outer():
        times.append(sim.now)
        sim.schedule(2.0, inner)

    def inner():
        times.append(sim.now)

    sim.schedule(1.0, outer)
    sim.run()
    assert times == [1.0, 3.0]


def test_spawn_runs_generator_to_completion():
    sim = Simulator()
    marks = []

    def proc():
        marks.append(("start", sim.now))
        yield Delay(0.25)
        marks.append(("mid", sim.now))
        yield Delay(0.25)
        marks.append(("end", sim.now))
        return "done"

    process = sim.spawn(proc())
    sim.run()
    assert process.finished
    assert process.result == "done"
    assert marks == [("start", 0.0), ("mid", 0.25), ("end", 0.5)]


def test_next_event_time_visible_to_governors():
    sim = Simulator()
    sim.schedule(4.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.next_event_time() == 2.0


def test_runaway_guard():
    sim = Simulator()

    def forever():
        while True:
            yield Delay(0.001)

    sim.spawn(forever())
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_deterministic_ordering_between_processes():
    sim = Simulator()
    order = []

    def proc(tag):
        yield Delay(1.0)
        order.append(tag)

    sim.spawn(proc("first"))
    sim.spawn(proc("second"))
    sim.run()
    assert order == ["first", "second"]


def test_processes_lists_only_live_ones_and_releases_finished():
    sim = Simulator()

    def worker(duration):
        yield Delay(duration)

    short = sim.spawn(worker(1.0), name="short")
    long = sim.spawn(worker(2.0), name="long")
    assert sim.processes == (short, long)
    sim.run(until=1.5)
    assert sim.processes == (long,)
    ref = weakref.ref(short)
    del short
    gc.collect()
    assert ref() is None
    sim.run()
    assert sim.processes == ()


def test_close_finishes_processes_blocked_forever():
    sim = Simulator()
    never = Signal("never")

    def daemon():
        yield Wait(never)

    process = sim.spawn(daemon(), name="daemon")
    sim.run()
    assert sim.processes == (process,)
    sim.close()
    assert sim.processes == ()
    assert process.finished
    assert never.fire() == 0

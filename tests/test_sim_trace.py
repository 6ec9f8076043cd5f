"""Unit tests for the timeline recorder."""

import gc
import weakref

import pytest

from repro.core import run_apps
from repro.sim import Simulator
from repro.sim.trace import StateChange, TimelineRecorder


def change(time, component="cpu", state="busy", power=5.0, routine="idle"):
    return StateChange(
        time=time, component=component, state=state, power_w=power, routine=routine
    )


def test_intervals_close_at_end_time():
    recorder = TimelineRecorder()
    recorder.record(change(0.0, state="idle", power=2.5))
    recorder.record(change(1.0, state="busy", power=5.0))
    intervals = list(recorder.intervals("cpu", end_time=3.0))
    assert [(c.state, d) for c, d in intervals] == [("idle", 1.0), ("busy", 2.0)]


def test_zero_length_intervals_skipped():
    recorder = TimelineRecorder()
    recorder.record(change(0.0, state="idle"))
    recorder.record(change(1.0, state="busy"))
    recorder.record(change(1.0, state="sleep", power=1.5))
    intervals = list(recorder.intervals("cpu", end_time=2.0))
    assert [c.state for c, _ in intervals] == ["idle", "sleep"]


def test_out_of_order_record_rejected():
    recorder = TimelineRecorder()
    recorder.record(change(2.0))
    with pytest.raises(ValueError):
        recorder.record(change(1.0))


def test_state_at_returns_latest_change():
    recorder = TimelineRecorder()
    recorder.record(change(0.0, state="sleep"))
    recorder.record(change(5.0, state="busy"))
    assert recorder.state_at("cpu", 2.0).state == "sleep"
    assert recorder.state_at("cpu", 5.0).state == "busy"
    assert recorder.state_at("cpu", 9.0).state == "busy"
    assert recorder.state_at("mcu", 1.0) is None


def test_time_in_state():
    recorder = TimelineRecorder()
    recorder.record(change(0.0, state="sleep"))
    recorder.record(change(4.0, state="busy"))
    recorder.record(change(6.0, state="sleep"))
    assert recorder.time_in_state("cpu", "sleep", end_time=10.0) == pytest.approx(8.0)
    assert recorder.time_in_state("cpu", "busy", end_time=10.0) == pytest.approx(2.0)


def test_components_sorted():
    recorder = TimelineRecorder()
    recorder.record(change(0.0, component="mcu"))
    recorder.record(change(0.0, component="cpu"))
    assert recorder.components == ("cpu", "mcu")


def test_render_ascii_strip():
    recorder = TimelineRecorder()
    recorder.record(change(0.0, state="sleep"))
    recorder.record(change(0.5, state="busy"))
    strip = recorder.render_ascii(
        "cpu", end_time=1.0, width=10, state_chars={"sleep": ".", "busy": "#"}
    )
    assert strip == "....." + "#####"


def test_record_stores_exact_tuples_and_reads_back_named_views():
    recorder = TimelineRecorder()
    recorder.record(change(0.0, state="idle", power=2.5))
    (entry,) = recorder.history("cpu")
    assert type(entry) is tuple
    assert entry == (0.0, "cpu", "idle", 2.5, "idle")
    assert recorder.changes("cpu") == (change(0.0, state="idle", power=2.5),)
    assert type(recorder.last_change("cpu")) is StateChange


def test_finished_run_leaves_nothing_for_the_collector(monkeypatch):
    """Deterministic GC guard: a kept result pins no tracked timeline.

    A sweep keeps every result (and so every hub's timeline) alive, so
    each tracked record or finished process would be re-walked by every
    later full collection.  Counts only, no wall-clock threshold.
    """
    spawned = []
    spawn = Simulator.spawn

    def recording_spawn(self, generator, name=None):
        process = spawn(self, generator, name)
        spawned.append(weakref.ref(process))
        return process

    monkeypatch.setattr(Simulator, "spawn", recording_spawn)
    result = run_apps(["A2", "A4"], "bcom")
    gc.collect()
    recorder = result.hub.recorder
    entries = [
        entry
        for component in recorder.components
        for entry in recorder.history(component)
    ]
    assert len(entries) > 1000
    assert all(type(entry) is tuple for entry in entries)
    assert not any(gc.is_tracked(entry) for entry in entries)
    assert result.hub.sim.processes == ()
    assert spawned
    assert all(ref() is None for ref in spawned)

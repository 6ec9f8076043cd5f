"""Scheme-plugin protocol and the shared execution plumbing.

A scheme is a small class: a :class:`SchemeExecutor` subclass whose
``build`` wires MCU-side and CPU-side processes onto a
:class:`SchemeContext`.  The context owns everything every scheme needs
— the hub, the sensor devices, polling-stream construction, window
bookkeeping, the interrupt dispatcher, the CPU compute loop and the
sleep governor — so a new scheme is one new file that composes these
primitives, not an edit to a god-module.

:func:`execute_scenario` is the single entry point: look the scheme up
in the registry, build a fresh context, run the discrete-event
simulation to completion and integrate the energy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from ...apps.base import AppResult, IoTApp, SampleWindow
from ...energy.meter import EnergyReport, integrate_timeline
from ...errors import CapacityError, WorkloadError
from ...firmware.batching import BatchBuffer
from ...firmware.driver import (
    mcu_transfer_busy,
    raise_interrupt,
    read_and_decode,
)
from ...firmware.runtime import run_offloaded_compute
from ...hubos.governor import CpuRestPolicy, SleepGovernor
from ...hubos.interrupts import service_interrupt
from ...hubos.polling import cpu_blocking_read
from ...hubos.transfer import cpu_transfer
from ...hw.board import IoTHub
from ...hw.cpu import CpuState
from ...hw.mcu import McuState
from ...hw.power import Routine
from ...obs.recorder import NullRecorder
from ...sensors.base import SensorDevice
from ...sim.process import Delay, Signal, Wait
from ...sim.steadystate import (
    REL_TIME_DECIMALS,
    BoundarySnapshot,
    capture_snapshot,
)
from ...units import to_ms
from ..results import RunResult
from .registry import get_scheme

#: Window-indexed name tag (``A2.w5``) rebased by the cycle normalizer.
_WINDOW_TAG = re.compile(r"\.w(\d+)")
#: Auto-numbered process names (``process-37``): transient helpers whose
#: global sequence number differs between otherwise identical cycles.
_AUTO_PROCESS_NAME = re.compile(r"^process-\d+$")


@dataclass
class Stream:
    """One MCU polling stream: a sensor feeding one or more apps.

    Under BEAM, subscribers with slower QoS rates receive a decimated
    view of the shared stream: ``strides[app]`` is how many raw samples
    separate two deliveries to that app.
    """

    sensor_id: str
    subscribers: List[IoTApp]
    rate_hz: float
    window_s: float
    samples_per_window: int
    sample_bytes: int
    strides: Dict[str, int] = field(default_factory=dict)

    def stride(self, app: IoTApp) -> int:
        """Delivery stride for one subscriber (1 = every sample)."""
        return self.strides.get(app.name, 1)

    @property
    def key(self) -> str:
        """Stable stream label: ``<sensor>@<app>[+<app>...]``."""
        apps = "+".join(app.name for app in self.subscribers)
        return f"{self.sensor_id}@{apps}"


@dataclass
class WindowState:
    """Collection progress of one (app, window).

    ``complete`` means every expected sample has been *collected*;
    ``delivered`` means the CPU has received the data (post-transfer) and
    the window computation may start.
    """

    window: SampleWindow
    expected: Dict[str, int]
    signal: Signal
    complete: bool = False
    delivered: bool = False
    deadline_s: float = 0.0

    def register(self, sample) -> bool:
        """Add a sample; returns True when the window just completed."""
        self.window.add(sample)
        if self.complete:
            return False
        for sensor_id, needed in self.expected.items():
            if self.window.count(sensor_id) < needed:
                return False
        self.complete = True
        return True

    def deliver(self) -> None:
        """Mark the window CPU-visible and wake its compute process."""
        self.delivered = True
        self.signal.fire(self.window.window_index)


def build_streams(apps: Sequence[IoTApp], shared: bool) -> List[Stream]:
    """Build polling streams for ``apps``: per-app or shared-per-sensor.

    Pure function of the app profiles — no hub, no simulator — so the
    DES (via :meth:`SchemeContext.streams_for`) and the closed-form
    analytic tier (:mod:`repro.core.analytic`) derive their schedules
    from the exact same stream set.  Raises
    :class:`~repro.errors.WorkloadError` for BEAM-unshareable sensors
    (mixed window lengths, non-dividing rates).
    """
    if not shared:
        return [
            Stream(
                sensor_id=sensor_id,
                subscribers=[app],
                rate_hz=app.profile.rate_hz(sensor_id),
                window_s=app.profile.window_s,
                samples_per_window=app.profile.samples_per_window(sensor_id),
                sample_bytes=app.profile.sample_bytes(sensor_id),
            )
            for app in apps
            for sensor_id in app.profile.sensor_ids
        ]
    by_sensor: Dict[str, List[IoTApp]] = {}
    for app in apps:
        for sensor_id in app.profile.sensor_ids:
            by_sensor.setdefault(sensor_id, []).append(app)
    streams = []
    for sensor_id, subscribers in by_sensor.items():
        windows = {app.profile.window_s for app in subscribers}
        if len(windows) > 1:
            raise WorkloadError(
                f"BEAM cannot share {sensor_id}: subscribers disagree "
                f"on window length"
            )
        # Poll at the fastest subscriber's rate; slower subscribers
        # get a decimated view (their rate must divide the fastest).
        fastest = max(app.profile.rate_hz(sensor_id) for app in subscribers)
        strides: Dict[str, int] = {}
        for app in subscribers:
            ratio = fastest / app.profile.rate_hz(sensor_id)
            stride = int(round(ratio))
            if abs(ratio - stride) > 1e-9 or stride < 1:
                raise WorkloadError(
                    f"BEAM cannot share {sensor_id}: {app.name}'s rate "
                    f"does not divide the fastest subscriber's"
                )
            strides[app.name] = stride
        reference = max(
            subscribers, key=lambda app: app.profile.rate_hz(sensor_id)
        )
        streams.append(
            Stream(
                sensor_id=sensor_id,
                subscribers=list(subscribers),
                rate_hz=fastest,
                window_s=reference.profile.window_s,
                samples_per_window=reference.profile.samples_per_window(
                    sensor_id
                ),
                sample_bytes=max(
                    app.profile.sample_bytes(sensor_id) for app in subscribers
                ),
                strides=strides,
            )
        )
    return streams


class SchemeContext:
    """Shared stream/window/governor plumbing handed to a scheme's build.

    Holds the fresh :class:`~repro.hw.board.IoTHub`, the attached sensor
    devices and all scheme-agnostic process generators.  A scheme's
    ``build`` spawns processes and sets the governor knobs (``policy``,
    ``allow_deep``, ``use_governor``, ``rest_routine``).
    """

    def __init__(
        self,
        scenario,
        cpu_starts_awake: bool = False,
        obs: Optional[NullRecorder] = None,
    ):
        self.scenario = scenario
        self.cal = scenario.calibration
        # Governor-less schemes keep the CPU online from the start.
        initial_cpu = CpuState.IDLE if cpu_starts_awake else CpuState.DEEP_SLEEP
        self.hub = IoTHub(self.cal, cpu_initial_state=initial_cpu, obs=obs)
        #: Instrumentation sink (shared with the kernel; no-op by default).
        self.obs = self.hub.obs
        self.governor = SleepGovernor(self.hub.cpu)
        self.devices: Dict[str, SensorDevice] = {}
        for sensor_id in scenario.sensor_ids:
            waveform = scenario.waveforms.get(sensor_id)
            self.devices[sensor_id] = SensorDevice.attach(
                self.hub,
                sensor_id,
                waveform,
                failure_rate=scenario.sensor_failure_rates.get(sensor_id, 0.0),
            )
        self._windows: Dict[Tuple[str, int], WindowState] = {}
        self._app_results: Dict[str, List[AppResult]] = {
            app.name: [] for app in scenario.apps
        }
        self._result_times: Dict[str, List[float]] = {
            app.name: [] for app in scenario.apps
        }
        self.qos_violations: List[str] = []
        self.offload_reports = {}
        #: Governor knobs, set by the scheme's ``build``.
        self.policy = CpuRestPolicy([])
        self.allow_deep = False
        self.rest_routine = Routine.DATA_TRANSFER
        # The paper's baseline never sleeps (Fig. 5a: "the CPU is in
        # active mode all the time"); race-to-sleep is part of the
        # optimized schemes, so only those enable the governor.
        self.use_governor = True
        self.total_irqs = 0
        #: Next scheduled poll per stream key — the MCU's own nap governor.
        self._mcu_next_polls: Dict[str, float] = {}
        #: Every stream built through :meth:`streams_for`, keyed by
        #: :attr:`Stream.key`.  The fast-forward engine reads this to
        #: compute the scheme's hyperperiod after ``build``.
        self.streams: Dict[str, Stream] = {}

    # ------------------------------------------------------------------
    # governor plumbing
    # ------------------------------------------------------------------
    def rest(self) -> None:
        """Apply the governor with the scheme's schedule knowledge."""
        if not self.use_governor:
            if self.hub.cpu.psm.state != "busy" and not self.hub.cpu.asleep:
                self.hub.cpu.set_idle(self.rest_routine)
            return
        expected = self.policy.expected_idle(self.hub.sim.now)
        self.governor.rest(
            expected,
            wait_routine=self.rest_routine,
            allow_deep=self.allow_deep,
        )

    def mcu_rest(self, stream_key: str, next_poll: float) -> None:
        """Let the MCU light-sleep if every stream's next poll is far off."""
        self._mcu_next_polls[stream_key] = next_poll
        if self.hub.mcu.psm.state != McuState.IDLE:
            return
        now = self.hub.sim.now
        upcoming = min(self._mcu_next_polls.values(), default=now)
        if upcoming - now > self.cal.mcu.sleep_threshold_s:
            self.hub.mcu.enter_sleep(Routine.DATA_COLLECTION)

    def mcu_wake(self) -> None:
        """Bring the MCU back online for a poll."""
        if self.hub.mcu.psm.state == McuState.SLEEP:
            self.hub.mcu.set_idle(Routine.DATA_COLLECTION)

    # ------------------------------------------------------------------
    # window bookkeeping
    # ------------------------------------------------------------------
    def window_state(self, app: IoTApp, index: int) -> WindowState:
        """The (lazily created) collection state of one app window."""
        key = (app.name, index)
        if key not in self._windows:
            start = index * app.profile.window_s
            sources = {
                sensor_id: self.devices[sensor_id].waveform
                for sensor_id in app.profile.sensor_ids
            }
            # Heavy apps are soft real-time (converting 1 s of audio takes
            # longer than 1 s); light apps must deliver within one extra
            # window.
            deadline = (
                float("inf")
                if app.profile.heavy
                else start + 2.0 * app.profile.window_s
            )
            state = WindowState(
                window=app.build_window(index, start, sources=sources),
                expected={
                    sensor_id: app.profile.samples_per_window(sensor_id)
                    for sensor_id in app.profile.sensor_ids
                },
                signal=Signal(f"{app.name}.w{index}"),
                deadline_s=deadline,
            )
            self._windows[key] = state
        return self._windows[key]

    def record_result(self, app: IoTApp, result: AppResult) -> None:
        """Log one delivered window result and check its QoS deadline."""
        now = self.hub.sim.now
        self._app_results[app.name].append(result)
        self._result_times[app.name].append(now)
        state = self.window_state(app, result.window_index)
        if now > state.deadline_s + 1e-9:
            self.qos_violations.append(
                f"{app.name} window {result.window_index}: result at "
                f"{to_ms(now):.1f} ms, deadline "
                f"{to_ms(state.deadline_s):.1f} ms"
            )

    # ------------------------------------------------------------------
    # stream construction
    # ------------------------------------------------------------------
    def streams_for(
        self, apps: Sequence[IoTApp], shared: bool
    ) -> List[Stream]:
        """Build polling streams: per-app or shared-per-sensor (BEAM)."""
        return self._record_streams(build_streams(apps, shared))

    def _record_streams(self, streams) -> List[Stream]:
        """Remember built streams (idempotent: re-builds overwrite by key)."""
        materialized = list(streams)
        for stream in materialized:
            self.streams[stream.key] = stream
        return materialized

    def sample_times(self, streams: Sequence[Stream]) -> List[float]:
        """Every scheduled poll instant across the given streams."""
        times: List[float] = []
        for stream in streams:
            for window_index in range(self.scenario.windows):
                start = window_index * stream.window_s
                times.extend(
                    start + k / stream.rate_hz
                    for k in range(stream.samples_per_window)
                )
        return times

    def window_boundaries(self, apps: Sequence[IoTApp]) -> List[float]:
        """Window-close instants for every (app, window) pair."""
        return [
            (window_index + 1) * app.profile.window_s
            for app in apps
            for window_index in range(self.scenario.windows)
        ]

    # ------------------------------------------------------------------
    # MCU-side processes
    # ------------------------------------------------------------------
    def poll_stream_interrupting(self, stream: Stream):
        """Baseline/BEAM: poll and interrupt the CPU per sample."""
        device = self.devices[stream.sensor_id]
        # Hoisted out of the per-sample loop: stream.key builds a string
        # per call, sim.now is a property read, and the enabled flag and
        # span method are attribute lookups the loop repeats thousands of
        # times.  The recorder never changes mid-run, so this is safe.
        obs = self.obs
        observing = obs.enabled
        span = obs.span
        sim = self.hub.sim
        key = stream.key
        for window_index in range(self.scenario.windows):
            window_start = window_index * stream.window_s
            for k in range(stream.samples_per_window):
                target = window_start + k / stream.rate_hz
                now = sim.now
                if target > now:
                    self.mcu_rest(key, target)
                    yield Delay(target - now)
                self.mcu_wake()
                if observing:
                    t0 = sim.now
                sample = yield from read_and_decode(self.hub, device)
                if observing:
                    t1 = sim.now
                    span("sense", key, t0, t1)
                yield from raise_interrupt(
                    self.hub, "sample", (stream, window_index, k, sample)
                )
                if observing:
                    t2 = sim.now
                    span("irq", "sample", t1, t2)
                yield from mcu_transfer_busy(self.hub, 1, bulk=False)
                if observing:
                    span("transfer", "mcu:sample", t2, sim.now)
        self._mcu_next_polls.pop(key, None)

    def poll_stream_buffering(
        self,
        stream: Stream,
        app: IoTApp,
        coordinator: Dict[int, int],
        buffer: BatchBuffer,
        on_window_full,
    ):
        """Batching/COM: poll into MCU RAM; last stream triggers hand-off.

        ``buffer`` is shared among the app's streams; ``coordinator``
        counts completed streams per window, and whichever stream finishes
        an app window last invokes the ``on_window_full(window_index,
        buffer)`` generator.
        """
        device = self.devices[stream.sensor_id]
        stream_count = len(app.profile.sensor_ids)
        # Hoisted out of the per-sample loop: stream.key builds a string
        # per call, sim.now is a property read, and the enabled flag and
        # span method are attribute lookups the loop repeats thousands of
        # times.  The recorder never changes mid-run, so this is safe.
        obs = self.obs
        observing = obs.enabled
        span = obs.span
        sim = self.hub.sim
        key = stream.key
        for window_index in range(self.scenario.windows):
            window_start = window_index * stream.window_s
            for k in range(stream.samples_per_window):
                target = window_start + k / stream.rate_hz
                now = sim.now
                if target > now:
                    self.mcu_rest(key, target)
                    yield Delay(target - now)
                self.mcu_wake()
                if observing:
                    t0 = sim.now
                sample = yield from read_and_decode(self.hub, device)
                if observing:
                    span("sense", key, t0, sim.now)
                if buffer is not None:
                    try:
                        buffer.add(sample, stream.sample_bytes)
                    except CapacityError as exc:
                        self.qos_violations.append(str(exc))
                state = self.window_state(app, window_index)
                state.register(sample)
                if (
                    buffer is not None
                    and self.scenario.batch_size is not None
                    and buffer.sample_count >= self.scenario.batch_size
                    and not state.complete
                ):
                    # Partial flush: ship the accumulated batch early.
                    yield from self.ship_batch(
                        app, window_index, buffer, final=False
                    )
            coordinator[window_index] = coordinator.get(window_index, 0) + 1
            if coordinator[window_index] == stream_count:
                yield from on_window_full(window_index, buffer)
        self._mcu_next_polls.pop(key, None)

    def ship_batch(
        self, app: IoTApp, window_index: int, buffer: BatchBuffer, final: bool
    ):
        """MCU side of one batch hand-off (interrupt + bulk put).

        The buffer is drained synchronously here so concurrently polling
        streams start filling a fresh batch; its RAM is released once the
        payload is on the bus.
        """
        nbytes = max(1, buffer.buffered_bytes)
        samples = buffer.flush()
        count = len(samples)
        obs = self.obs
        if obs.enabled:
            t0 = self.hub.sim.now
        yield from raise_interrupt(
            self.hub, "batch", (app, window_index, count, nbytes, final)
        )
        if obs.enabled:
            t1 = self.hub.sim.now
            obs.span("irq", "batch", t0, t1)
        yield from mcu_transfer_busy(self.hub, max(1, count), bulk=True)
        if obs.enabled:
            obs.span("transfer", "mcu:batch", t1, self.hub.sim.now)

    def batch_handoff(self, app: IoTApp):
        """Make the batching hand-off generator for one app."""

        def handoff(window_index: int, buffer: BatchBuffer):
            yield from self.ship_batch(app, window_index, buffer, final=True)

        return handoff

    def com_handoff(self, app: IoTApp):
        """Make the COM hand-off: compute on MCU, ship only the result."""

        def handoff(window_index: int, buffer):
            obs = self.obs
            state = self.window_state(app, window_index)
            if obs.enabled:
                t0 = self.hub.sim.now
            result = yield from run_offloaded_compute(
                self.hub, app, state.window
            )
            if obs.enabled:
                t1 = self.hub.sim.now
                obs.span("compute", f"mcu:{app.name}", t0, t1)
            yield from raise_interrupt(
                self.hub, "result", (app, window_index, result)
            )
            if obs.enabled:
                t2 = self.hub.sim.now
                obs.span("irq", "result", t1, t2)
            yield from mcu_transfer_busy(self.hub, 1, bulk=False)
            if obs.enabled:
                obs.span("transfer", "mcu:result", t2, self.hub.sim.now)

        return handoff

    def poll_stream_cpu(self, stream: Stream):
        """§II-A main-board polling: the CPU blocks on each read."""
        device = self.devices[stream.sensor_id]
        # Hoisted out of the per-sample loop: stream.key builds a string
        # per call, sim.now is a property read, and the enabled flag and
        # span method are attribute lookups the loop repeats thousands of
        # times.  The recorder never changes mid-run, so this is safe.
        obs = self.obs
        observing = obs.enabled
        span = obs.span
        sim = self.hub.sim
        key = stream.key
        for window_index in range(self.scenario.windows):
            window_start = window_index * stream.window_s
            for k in range(stream.samples_per_window):
                target = window_start + k / stream.rate_hz
                now = sim.now
                if target > now:
                    yield Delay(target - now)
                if observing:
                    t0 = sim.now
                sample = yield from cpu_blocking_read(self.hub, device)
                if observing:
                    span("sense", key, t0, sim.now)
                for app in stream.subscribers:
                    state = self.window_state(app, window_index)
                    if state.register(sample):
                        state.deliver()

    # ------------------------------------------------------------------
    # CPU-side processes
    # ------------------------------------------------------------------
    def dispatcher(self):
        """The CPU's interrupt service loop (one process for the hub).

        Runs until the simulation drains: blocking on the interrupt signal
        schedules no events, so the kernel terminates naturally once all
        device activity is over.
        """
        obs = self.obs
        while True:
            request = yield from self.hub.irq.wait()
            if obs.enabled:
                t0 = self.hub.sim.now
            yield from service_interrupt(self.hub)
            if obs.enabled:
                t1 = self.hub.sim.now
                obs.span("irq", f"service:{request.vector}", t0, t1)
            if request.vector == "sample":
                stream, window_index, k, sample = request.payload
                yield from cpu_transfer(
                    self.hub, stream.sample_bytes, 1, bulk=False
                )
                if obs.enabled:
                    obs.span("transfer", "cpu:sample", t1, self.hub.sim.now)
                for app in stream.subscribers:
                    if k % stream.stride(app) != 0:
                        continue  # decimated subscriber skips this sample
                    state = self.window_state(app, window_index)
                    if state.register(sample):
                        state.deliver()
            elif request.vector == "batch":
                app, window_index, count, nbytes, final = request.payload
                yield from cpu_transfer(
                    self.hub, nbytes, max(1, count), bulk=True
                )
                if obs.enabled:
                    obs.span("transfer", "cpu:batch", t1, self.hub.sim.now)
                if final:
                    state = self.window_state(app, window_index)
                    if not state.complete:
                        raise WorkloadError(
                            f"{app.name} batch window {window_index} incomplete"
                        )
                    state.deliver()
            elif request.vector == "result":
                app, window_index, result = request.payload
                yield from cpu_transfer(
                    self.hub, app.profile.output_bytes, 1, bulk=False
                )
                if obs.enabled:
                    obs.span("transfer", "cpu:result", t1, self.hub.sim.now)
                self.record_result(app, result)
                yield from self.hub.nic.send(
                    app.profile.output_bytes, Routine.APP_COMPUTE
                )
            else:  # pragma: no cover - defensive
                raise WorkloadError(f"unknown vector {request.vector!r}")
            if self.hub.irq.pending_count == 0:
                self.rest()

    def cpu_compute_process(self, app: IoTApp):
        """Window computation on the CPU (baseline/batching/beam)."""
        obs = self.obs
        for window_index in range(self.scenario.windows):
            state = self.window_state(app, window_index)
            if not state.delivered:
                yield Wait(state.signal)
            if self.hub.cpu.asleep:
                yield from self.hub.cpu.wake(Routine.APP_COMPUTE)
            yield from self.hub.cpu.core.acquire()
            if obs.enabled:
                t0 = self.hub.sim.now
            result = app.compute(state.window)
            yield from self.hub.cpu.execute(
                app.profile.cpu_compute_time_s(self.cal),
                Routine.APP_COMPUTE,
                instructions=app.profile.instructions,
            )
            self.hub.cpu.core.release()
            if obs.enabled:
                obs.span("compute", f"cpu:{app.name}", t0, self.hub.sim.now)
            self.record_result(app, result)
            yield from self.hub.nic.send(
                app.profile.output_bytes, Routine.APP_COMPUTE
            )
            self.rest()

    # ------------------------------------------------------------------
    # steady-state fingerprinting (fast-forward support)
    # ------------------------------------------------------------------
    def _cycle_normalizer(self, boundary_index: int):
        """Name normalizer making window-indexed labels cycle-relative.

        Window signals are named ``<app>.w<index>``; two boundaries one
        hyperperiod apart reference different absolute indices for the
        same relative position, so indices are rebased to the boundary
        (``A2.w5`` at boundary 5 and ``A2.w6`` at boundary 6 both become
        ``A2.w+0``).  Auto-numbered transient processes collapse to a
        stable label for the same reason.
        """

        def normalize(name: str) -> str:
            name = _AUTO_PROCESS_NAME.sub("process", name)
            return _WINDOW_TAG.sub(
                lambda match: f".w{int(match.group(1)) - boundary_index:+d}",
                name,
            )

        return normalize

    def boundary_snapshot(
        self, boundary_index: int, boundary_s: float
    ) -> BoundarySnapshot:
        """Cycle-relative fingerprint of the live state at a boundary.

        Called between kernel run segments by the fast-forward engine;
        read-only, so segmented execution stays bit-identical to an
        uninterrupted run.
        """
        return capture_snapshot(
            self.hub.sim,
            self.hub.recorder,
            boundary_s,
            self._cycle_normalizer(boundary_index),
        )

    def steady_counters(self) -> Dict[str, int]:
        """Monotone activity counters for per-cycle delta verification.

        Every counter here only ever grows; a steady cycle advances each
        by a constant delta, which is also exactly what the fast-forward
        extrapolation multiplies.
        """
        counters: Dict[str, int] = {
            "irq.raised": self.hub.irq.raised_count,
            "cpu.wakes": self.hub.cpu.wake_count,
            "bus.bytes": self.hub.bus.bytes_transferred,
            "nic.bytes": self.hub.nic.bytes_sent,
            "sim.events": self.hub.sim.events_executed,
        }
        for sensor_id in sorted(self.devices):
            device = self.devices[sensor_id]
            counters[f"sensor.{sensor_id}.reads"] = device.read_count
            counters[f"sensor.{sensor_id}.failed"] = device.failed_checks
            counters[f"sensor.{sensor_id}.stale"] = device.stale_samples
        for app in self.scenario.apps:
            counters[f"app.{app.name}.results"] = len(
                self._app_results[app.name]
            )
        recorder = self.hub.recorder
        for component in recorder.components:
            counters[f"trace.{component}.changes"] = recorder.change_count(
                component
            )
        return counters

    def result_phases(
        self, t0_s: float, t1_s: float
    ) -> Tuple[Tuple[str, float], ...]:
        """Result-delivery phases inside the cycle ``(t0_s, t1_s]``.

        Boundary snapshots see the state *at* each boundary; two
        transient cycles can drain to identical boundary states while
        delivering their results at different offsets inside the cycle
        (the delivery phase lives in process-local variables no snapshot
        can reach).  Verification therefore also requires the phases to
        repeat, since the extrapolated result times replicate them.
        """
        phases = [
            (name, round(time - t0_s, REL_TIME_DECIMALS))
            for name, times in self._result_times.items()
            for time in times
            if t0_s < time <= t1_s
        ]
        return tuple(sorted(phases))

    def steady_levels(self) -> Dict[str, int]:
        """State levels that must repeat *exactly* at matching boundaries.

        Unlike :meth:`steady_counters` these can go up and down; a
        linear drift (e.g. MCU RAM filling a little more every cycle)
        would pass a delta check but must still block fast-forward.
        """
        return {
            "irq.pending": self.hub.irq.pending_count,
            "mcu.ram_used": self.hub.mcu.ram.used_bytes,
            "qos.violations": len(self.qos_violations),
        }

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def collect(self, end_time: float) -> RunResult:
        """Integrate energy and assemble the scenario's :class:`RunResult`."""
        missing = [
            app.name
            for app in self.scenario.apps
            if len(self._app_results[app.name]) != self.scenario.windows
        ]
        if missing:
            raise WorkloadError(
                f"scenario {self.scenario.name}: apps without complete "
                f"results: {missing}"
            )
        by_component_routine, busy_times = integrate_timeline(
            self.hub.recorder, end_time
        )
        return RunResult(
            scenario_name=self.scenario.name,
            scheme=self.scenario.scheme,
            app_ids=[app.table2_id for app in self.scenario.apps],
            windows=self.scenario.windows,
            duration_s=end_time,
            energy=EnergyReport(
                duration_s=end_time,
                idle_floor_power_w=self.cal.idle_hub_power_w,
                by_component_routine=by_component_routine,
            ),
            busy_times=busy_times,
            app_results=dict(self._app_results),
            result_times=dict(self._result_times),
            qos_violations=list(self.qos_violations),
            interrupt_count=self.hub.irq.raised_count,
            cpu_wake_count=self.hub.cpu.wake_count,
            bus_bytes=self.hub.bus.bytes_transferred,
            offload_reports=dict(self.offload_reports),
            hub=self.hub,
        )


@dataclass
class AnalyticPlan:
    """A scheme's declaration of how the analytic tier should model it.

    Schemes return one of three *families* from
    :meth:`SchemeExecutor.analytic_plan`; the closed-form models in
    :mod:`repro.core.analytic` derive schedules and energy from the
    family plus the scenario, using the same :func:`build_streams`
    output as the DES:

    * ``"interrupting"`` — per-sample MCU poll, interrupt, transfer
      (baseline; BEAM sets ``shared``).
    * ``"cpu_polling"`` — the CPU blocks on every read (§II-A polling).
    * ``"buffered"`` — MCU-buffered sensing with per-window hand-off:
      ``batch_apps`` ship their buffer, ``com_apps`` compute on the MCU
      and ship only the result (batching / COM / BCOM mixes).
    """

    family: str
    shared: bool = False
    com_apps: List[IoTApp] = field(default_factory=list)
    batch_apps: List[IoTApp] = field(default_factory=list)
    offload_reports: Dict[str, "OffloadReport"] = field(default_factory=dict)

    FAMILIES: ClassVar[Tuple[str, ...]] = (
        "interrupting",
        "cpu_polling",
        "buffered",
    )


class SchemeExecutor:
    """Base class for scheme plugins.

    Subclass, decorate with ``@register_scheme("<name>")``, implement
    ``build`` and set the two class knobs; the registry makes the scheme
    addressable by name everywhere a scheme string is accepted.
    """

    #: Registry name; filled in by :func:`register_scheme`.
    name: ClassVar[str] = ""
    #: Whether the CPU starts awake (governor-less schemes) or deep-asleep.
    cpu_starts_awake: ClassVar[bool] = False
    #: Whether the MCU board owns the sensing (False = main-board polling,
    #: where the MCU never leaves sleep).
    mcu_owns_sensing: ClassVar[bool] = True

    def build(self, ctx: SchemeContext) -> None:
        """Spawn the scheme's processes and set the governor knobs."""
        raise NotImplementedError

    def analytic_plan(self, scenario) -> Optional[AnalyticPlan]:
        """Inputs for the closed-form tier, or ``None`` (DES-only scheme).

        Must make the same feasibility decisions as :meth:`build` — a
        scheme that raises (e.g. COM's :class:`~repro.errors.OffloadError`)
        during ``build`` must raise identically here, so the analytic
        tier reports the same errors as the DES.  Plugin schemes that do
        not implement a closed-form model inherit the ``None`` default
        and always execute through the DES.
        """
        return None


def build_context(
    scenario, obs: Optional[NullRecorder] = None
) -> SchemeContext:
    """Construct and wire a fresh context for one scenario (not yet run).

    Shared by :func:`execute_scenario` and the fast-forward engine so
    both drive byte-for-byte identical setups.
    """
    executor = get_scheme(scenario.scheme)()
    ctx = SchemeContext(
        scenario, cpu_starts_awake=executor.cpu_starts_awake, obs=obs
    )
    executor.build(ctx)
    if executor.mcu_owns_sensing:
        # The MCU board is awake whenever it owns the sensing; under
        # main-board polling it never leaves sleep.
        ctx.hub.mcu.set_idle(Routine.DATA_COLLECTION)
    ctx.rest()
    return ctx


def execute_scenario(
    scenario,
    obs: Optional[NullRecorder] = None,
    fast_forward: bool = False,
) -> RunResult:
    """Run one scenario under its registered scheme; returns the result.

    ``obs`` attaches an instrumentation recorder (``repro profile`` passes
    a :class:`~repro.obs.recorder.TraceRecorder`); it observes the run but
    never alters it — results are bit-identical with or without it.

    ``fast_forward=True`` lets the steady-state engine skip repeated
    hyperperiods analytically (see :mod:`repro.core.fastforward`):
    energy and duration then match full simulation within rtol 1e-9 and
    all integer counters exactly, but are no longer guaranteed
    bit-identical, which is why the flag defaults to off.  When no
    steady state is detected the full simulation runs transparently.
    """
    if fast_forward:
        from ..fastforward import try_fast_forward

        result = try_fast_forward(scenario, obs=obs)
        if result is not None:
            return result
    ctx = build_context(scenario, obs=obs)
    ctx.hub.run()
    ctx.hub.sim.close()
    end_time = max(ctx.hub.sim.now, scenario.horizon_s)
    return ctx.collect(end_time)

"""Steady-state fast-forward: truncated simulation + analytic extrapolation.

Every workload in the paper is strictly periodic — fixed sensor rates,
fixed window sizes, fixed per-window compute — so after a short warm-up
the simulation repeats one identical hyperperiod forever.  Simulating
millions of per-sample events is then pure waste: one cycle's energy and
timing can be measured once and extrapolated.

The engine here:

1. **Detects the hyperperiod** ``H`` — the LCM of the active stream
   window periods from the built :class:`~repro.core.schemes.base
   .SchemeContext` (:func:`repro.sim.steadystate.hyperperiod`).
2. **Runs a truncated scenario** of :data:`TRUNCATED_WINDOWS` windows,
   pausing the kernel at every cycle boundary ``b_i = i * H`` to capture
   a :class:`~repro.sim.steadystate.BoundarySnapshot` plus monotone
   activity counters and exact state levels.
3. **Verifies consecutive cycles match**: equal boundary snapshots,
   equal counter deltas, equal levels, per-cycle energy/busy-time
   deltas within 1e-12, and identical result-delivery phases across
   *three* consecutive cycles (delivery phase lives in process-local
   state that boundary snapshots cannot reach, and short transients can
   repeat a wrong phase once — see :meth:`SchemeContext.result_phases`).
   Warm-up cycles are excluded; candidate boundaries are tried in order
   until one verifies.
4. **Skips K = windows - TRUNCATED_WINDOWS cycles analytically**:
   virtual time advances by ``K * H``, per-routine busy times and
   per-cycle energy are multiplied out, interrupt/sample counters are
   bumped, and per-window app results are replicated/shifted so the
   result is indistinguishable (within float-summation rounding) from
   simulating every event.
5. **Falls back transparently** whenever any gate or verification
   fails — aperiodic combos, failure injection, mixed window lengths,
   too-short scenarios — returning ``None`` so the caller runs the full
   simulation.

Fidelity contract: energy and duration match full simulation within
rtol 1e-9 (float summation order differs); all integer counters —
interrupts, CPU wakes, bus bytes, per-window result counts — match
exactly.  Replicated :class:`~repro.apps.base.AppResult` payloads reuse
the template cycle's payload (skipped cycles are never simulated, so
waveform-dependent payload *values* are not re-derived); timing, energy
and counts are unaffected.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from typing import Dict, List, Optional

from ..energy.meter import EnergyReport, integrate_timeline
from ..hw.power import integrate_between
from ..obs.recorder import NULL_RECORDER, NullRecorder
from ..sim.steadystate import BoundarySnapshot, dicts_close, hyperperiod
from .results import RunResult
from .scenario import Scenario
from .schemes.base import SchemeContext, build_context

#: Cycles always simulated before the first verification candidate.
WARMUP_CYCLES = 2
#: Candidate insertion boundaries, tried in order.  Candidate ``v``
#: verifies cycle ``(b_{v-1}, b_v]`` against ``(b_{v-2}, b_{v-1}]`` (and
#: the phase history one cycle further back), so the earliest candidate
#: leaves :data:`WARMUP_CYCLES` of warm-up.  The range extends to 7 so
#: combos whose transient lasts a few windows (e.g. two apps settling
#: their bus interleaving) still find a verified steady cycle.
CANDIDATE_BOUNDARIES = (3, 4, 5, 6, 7)
#: Cycles simulated after the last candidate so end-of-scenario behavior
#: (final hand-offs, queue drain) is always event-driven, never guessed.
TAIL_CYCLES = 2
#: Window count of the truncated prefix simulation.
TRUNCATED_WINDOWS = CANDIDATE_BOUNDARIES[-1] + TAIL_CYCLES
#: Scenarios shorter than this have no cycles left to skip.
MIN_WINDOWS = TRUNCATED_WINDOWS + 1

#: Per-cycle energy/busy deltas must agree this tightly between the two
#: verification cycles (float integration noise only; real drift is
#: orders of magnitude larger).
_DELTA_RTOL = 1e-12
_DELTA_ATOL = 1e-15


@dataclasses.dataclass
class _Boundary:
    """Everything captured when the kernel pauses at one cycle boundary."""

    snapshot: BoundarySnapshot
    counters: Dict[str, int]
    levels: Dict[str, int]
    #: Result-delivery phases of the cycle *ending* at this boundary.
    phases: tuple


def _fallback(obs: NullRecorder, reason: str) -> None:
    """Record a fallback (full simulation will run) and return ``None``."""
    obs.count("sim.ff.fallbacks", 1)
    obs.count(f"sim.ff.fallback.{reason}", 1)
    return None


def _gate(scenario: Scenario) -> Optional[str]:
    """Cheap pre-simulation checks; a reason string means fall back."""
    if scenario.windows < MIN_WINDOWS:
        return "too_short"
    if any(rate > 0 for rate in scenario.sensor_failure_rates.values()):
        # Failure draws are keyed to the device's absolute read count,
        # so retries land aperiodically by design.
        return "failure_injection"
    window_lengths = {app.profile.window_s for app in scenario.apps}
    if len(window_lengths) != 1:
        # ``windows`` is a shared per-app count: truncating removes a
        # different wall-time span per app when lengths differ, so no
        # uniform K*H skip exists.
        return "mixed_windows"
    return None


def _detect_hyperperiod(ctx: SchemeContext) -> Optional[float]:
    """Hyperperiod of the built scheme's streams, or ``None``.

    For fast-forward the LCM must also *be* the common window length:
    cycles are window-aligned because process loop state (window
    indices, governor schedules) rolls over per window.
    """
    periods = [stream.window_s for stream in ctx.streams.values()]
    periods.extend(app.profile.window_s for app in ctx.scenario.apps)
    period = hyperperiod(periods)
    if period is None:
        return None
    if any(
        abs(app.profile.window_s - period) > 1e-12 * period
        for app in ctx.scenario.apps
    ):
        return None
    return period


def _verified_boundary(
    ctx: SchemeContext, boundaries: Dict[int, _Boundary], period: float
) -> Optional[int]:
    """First candidate boundary whose cycle repeats the previous one."""
    recorder = ctx.hub.recorder
    for candidate in CANDIDATE_BOUNDARIES:
        current = boundaries[candidate]
        previous = boundaries[candidate - 1]
        oldest = boundaries[candidate - 2]
        if not current.snapshot.matches(previous.snapshot):
            continue
        # Three consecutive cycles must deliver results at identical
        # in-cycle offsets.  Two are not enough: a short transient can
        # repeat its (wrong) phase once while every boundary state and
        # per-cycle delta already looks settled.
        if not current.phases or not (
            current.phases == previous.phases == oldest.phases
        ):
            continue
        if current.levels != previous.levels:
            continue
        new_deltas = {
            key: current.counters[key] - previous.counters[key]
            for key in current.counters
        }
        old_deltas = {
            key: previous.counters[key] - oldest.counters[key]
            for key in previous.counters
        }
        if new_deltas != old_deltas:
            continue
        b_oldest = (candidate - 2) * period
        b_previous = (candidate - 1) * period
        b_current = candidate * period
        new_energy, new_busy = integrate_between(recorder, b_previous, b_current)
        old_energy, old_busy = integrate_between(recorder, b_oldest, b_previous)
        if not dicts_close(
            new_energy, old_energy, rtol=_DELTA_RTOL, atol=_DELTA_ATOL
        ) or not dicts_close(
            new_busy, old_busy, rtol=_DELTA_RTOL, atol=_DELTA_ATOL
        ):
            continue
        return candidate
    return None


def _extrapolated_results(
    ctx: SchemeContext,
    boundary: int,
    period: float,
    skipped: int,
):
    """Replicate/shift per-app results across the skipped cycles.

    The truncated run's results split at the insertion boundary ``b_v``:
    the head stays as-is, the template cycle's single result is
    replicated once per skipped cycle, and the tail shifts by
    ``skipped`` windows and ``skipped * period`` seconds.  Returns
    ``None`` when the split is not clean (which means the scenario is
    not as periodic as the boundary checks suggested — fall back).
    """
    b_current = boundary * period
    b_previous = (boundary - 1) * period
    shift_s = skipped * period
    app_results: Dict[str, List] = {}
    result_times: Dict[str, List[float]] = {}
    for app in ctx.scenario.apps:
        results = ctx._app_results[app.name]
        times = ctx._result_times[app.name]
        if len(results) != ctx.scenario.windows or any(
            entry.window_index != index
            for index, entry in enumerate(results)
        ):
            return None
        head = bisect_right(times, b_current)
        if head == 0 or times[head - 1] <= b_previous:
            return None  # no result landed inside the template cycle
        if head >= 2 and times[head - 2] > b_previous:
            return None  # more than one result per cycle: not steady
        template = results[head - 1]
        template_time = times[head - 1]
        app_results[app.name] = (
            results[:head]
            + [
                dataclasses.replace(
                    template, window_index=template.window_index + extra
                )
                for extra in range(1, skipped + 1)
            ]
            + [
                dataclasses.replace(
                    entry, window_index=entry.window_index + skipped
                )
                for entry in results[head:]
            ]
        )
        result_times[app.name] = (
            times[:head]
            + [template_time + extra * period for extra in range(1, skipped + 1)]
            + [time + shift_s for time in times[head:]]
        )
    return app_results, result_times


def try_fast_forward(
    scenario: Scenario, obs: Optional[NullRecorder] = None
) -> Optional[RunResult]:
    """Fast-forward one scenario, or ``None`` if it must run in full.

    On success the returned :class:`RunResult` covers all
    ``scenario.windows`` windows but only :data:`TRUNCATED_WINDOWS` of
    them were event-driven; ``sim.ff.cycles_skipped`` and
    ``sim.ff.events_saved`` are counted on ``obs``.  On any gate or
    verification failure ``sim.ff.fallbacks`` (and a per-reason
    ``sim.ff.fallback.<reason>``) is counted and ``None`` returned; the
    caller then runs the full simulation with identical semantics.
    """
    recorder = obs if obs is not None else NULL_RECORDER
    reason = _gate(scenario)
    if reason is not None:
        return _fallback(recorder, reason)

    truncated = dataclasses.replace(scenario, windows=TRUNCATED_WINDOWS)
    ctx = build_context(truncated, obs=obs)
    period = _detect_hyperperiod(ctx)
    if period is None:
        return _fallback(recorder, "no_hyperperiod")

    # Segmented execution: pause at each cycle boundary to fingerprint.
    # run(until=b) executes every event with time <= b and parks the
    # clock exactly at b, so the segmented run is bit-identical to an
    # uninterrupted one; the captures only read state.
    boundaries: Dict[int, _Boundary] = {}
    for index in range(1, CANDIDATE_BOUNDARIES[-1] + 1):
        ctx.hub.run(until=index * period)
        boundaries[index] = _Boundary(
            snapshot=ctx.boundary_snapshot(index, index * period),
            counters=ctx.steady_counters(),
            levels=ctx.steady_levels(),
            phases=ctx.result_phases((index - 1) * period, index * period),
        )
    ctx.hub.run()
    ctx.hub.sim.close()
    end_truncated = max(ctx.hub.sim.now, truncated.horizon_s)
    if ctx.qos_violations:
        return _fallback(recorder, "qos_violation")

    boundary = _verified_boundary(ctx, boundaries, period)
    if boundary is None:
        return _fallback(recorder, "no_steady_state")

    skipped = scenario.windows - TRUNCATED_WINDOWS
    extrapolated = _extrapolated_results(ctx, boundary, period, skipped)
    if extrapolated is None:
        return _fallback(recorder, "unaligned_results")
    app_results, result_times = extrapolated

    b_current = boundary * period
    b_previous = (boundary - 1) * period
    duration_s = end_truncated + skipped * period
    deltas = {
        key: boundaries[boundary].counters[key]
        - boundaries[boundary - 1].counters[key]
        for key in boundaries[boundary].counters
    }

    merged, busy_times = integrate_timeline(ctx.hub.recorder, end_truncated)
    cycle_energy, cycle_busy = integrate_between(
        ctx.hub.recorder, b_previous, b_current
    )
    for key, joules in cycle_energy.items():
        merged[key] = merged.get(key, 0.0) + skipped * joules
    energy = EnergyReport(
        duration_s=duration_s,
        idle_floor_power_w=ctx.cal.idle_hub_power_w,
        by_component_routine=merged,
    )
    for routine, seconds in cycle_busy.items():
        busy_times[routine] = busy_times.get(routine, 0.0) + skipped * seconds

    recorder.count("sim.ff.cycles_skipped", skipped)
    recorder.count("sim.ff.events_saved", skipped * deltas["sim.events"])

    return RunResult(
        scenario_name=scenario.name,
        scheme=scenario.scheme,
        app_ids=[app.table2_id for app in scenario.apps],
        windows=scenario.windows,
        duration_s=duration_s,
        energy=energy,
        busy_times=busy_times,
        app_results=app_results,
        result_times=result_times,
        qos_violations=[],
        interrupt_count=ctx.hub.irq.raised_count
        + skipped * deltas["irq.raised"],
        cpu_wake_count=ctx.hub.cpu.wake_count + skipped * deltas["cpu.wakes"],
        bus_bytes=ctx.hub.bus.bytes_transferred + skipped * deltas["bus.bytes"],
        offload_reports=dict(ctx.offload_reports),
        # The attached hub holds the *truncated* run's timeline: traces
        # rendered from a fast-forwarded result show the simulated
        # prefix, not the skipped cycles.
        hub=ctx.hub,
    )

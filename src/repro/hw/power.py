"""Power-state machines and the paper's four routine categories."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..errors import PowerStateError
from ..sim.kernel import Simulator
from ..sim.trace import StateChange, TimelineRecorder


class Routine:
    """The four sub-task categories the paper attributes energy to (§II).

    ``IDLE`` is the extra category for time no app sub-task is responsible
    for (the idle hub of Figure 1).
    """

    DATA_COLLECTION = "data_collection"
    INTERRUPT = "interrupt"
    DATA_TRANSFER = "data_transfer"
    APP_COMPUTE = "app_compute"
    IDLE = "idle"

    #: Presentation order used by every report and benchmark table.
    ORDER: Tuple[str, ...] = (
        DATA_COLLECTION,
        INTERRUPT,
        DATA_TRANSFER,
        APP_COMPUTE,
        IDLE,
    )

    #: All valid routine tags.
    ALL = frozenset(ORDER)


#: Component states that count as "busy" for the timing breakdown
#: (Figures 8 and 13): actual work on a core, a sensor rail, the bus or
#: the NIC.  Wake transitions cost energy but perform no work, so they
#: are excluded from the performance metric.
BUSY_STATES = frozenset({"busy", "read", "active", "tx"})


def _clipped_intervals(
    recorder: TimelineRecorder, component: str, t0_s: float, t1_s: float
):
    """Yield raw ``(entry, duration)`` pairs clipped to ``[t0_s, t1_s)``."""
    history = recorder.history(component)
    last = len(history) - 1
    for index, entry in enumerate(history):
        following = history[index + 1][0] if index < last else t1_s
        start = entry[0] if entry[0] > t0_s else t0_s
        end = following if following < t1_s else t1_s
        if end > start:
            yield entry, end - start


def integrate_between(
    recorder: TimelineRecorder, t0_s: float, t1_s: float
) -> Tuple[Dict[Tuple[str, str], float], Dict[str, float]]:
    """Joules per ``(component, routine)`` and busy seconds per routine
    over ``[t0_s, t1_s)``, in one pass over the timeline.

    The per-cycle accounting behind fast-forward extrapolation: a steady
    cycle's deltas, multiplied by the number of skipped cycles, extend a
    truncated run's report exactly (modulo float summation order, which
    is why parity is asserted at rtol 1e-9 rather than bit-identity).
    Busy seconds count only :data:`BUSY_STATES`.
    """
    energy: Dict[Tuple[str, str], float] = {}
    busy: Dict[str, float] = {routine: 0.0 for routine in Routine.ORDER}
    for component in recorder.components:
        for entry, duration in _clipped_intervals(
            recorder, component, t0_s, t1_s
        ):
            routine = entry[4]
            key = (component, routine)
            energy[key] = energy.get(key, 0.0) + entry[3] * duration
            if entry[2] in BUSY_STATES:
                busy[routine] = busy.get(routine, 0.0) + duration
    return energy, busy


class PowerStateMachine:
    """Tracks one component's power state and routine attribution.

    Every transition is logged to the shared timeline.  States are declared
    up front with their power draw; attempting to enter an undeclared state
    raises :class:`PowerStateError` (catching typos early matters because a
    mis-tagged state silently corrupts the energy accounting).
    """

    def __init__(
        self,
        sim: Simulator,
        recorder: TimelineRecorder,
        component: str,
        states: Dict[str, float],
        initial_state: str,
        initial_routine: str = Routine.IDLE,
    ):
        if initial_state not in states:
            raise PowerStateError(f"unknown initial state {initial_state!r}")
        self._sim = sim
        self.component = component
        self._states = dict(states)
        self.state = initial_state
        self.routine = initial_routine
        #: The component's raw timeline entries, appended to directly.
        self._history = recorder.history(component)
        recorder.record(
            StateChange(
                sim.now, component, initial_state, self.power_w, initial_routine
            )
        )

    @property
    def power_w(self) -> float:
        """Current power draw in watts."""
        return self._states[self.state]

    def state_power(self, state: str) -> float:
        """Declared draw of ``state`` (without entering it)."""
        try:
            return self._states[state]
        except KeyError:
            raise PowerStateError(
                f"{self.component}: unknown state {state!r}"
            ) from None

    def set_state(self, state: str, routine: Optional[str] = None) -> None:
        """Enter ``state``; optionally retag the active routine."""
        power_w = self._states.get(state)
        if power_w is None:
            raise PowerStateError(f"{self.component}: unknown state {state!r}")
        if routine is None:
            routine = self.routine
        elif routine in Routine.ALL:
            self.routine = routine
        else:
            raise PowerStateError(
                f"{self.component}: unknown routine {routine!r}"
            )
        self.state = state
        now = self._sim.now
        history = self._history
        if now < history[-1][0]:
            raise ValueError(
                f"out-of-order state change for {self.component}: "
                f"{now} < {history[-1][0]}"
            )
        history.append((now, self.component, state, power_w, routine))

    def set_routine(self, routine: str) -> None:
        """Retag the current interval without changing power state."""
        self.set_state(self.state, routine)

"""Timeline recording: power-state changes and annotations.

The :class:`TimelineRecorder` is the substrate for the paper's Figure 5
(power states of the MCU and CPU over time) and for the energy integration in
:mod:`repro.energy.meter`.

Each component's history is a list of exact ``tuple`` entries laid out
as ``(time, component, state, power_w, routine)``.  Tuples of floats and
strings are untracked by the cyclic garbage collector after their first
collection, so a finished run's timeline — hundreds of thousands of
entries, kept alive as long as its result — costs the collector nothing.
:class:`StateChange` is the named view the read APIs build on demand.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..units import to_ms


class StateChange(NamedTuple):
    """One component's power-state change at an instant."""

    time: float
    component: str
    state: str
    power_w: float
    routine: str

    def __str__(self) -> str:
        return (
            f"t={to_ms(self.time):10.3f}ms {self.component:<10} "
            f"{self.state:<12} {self.power_w:6.3f}W [{self.routine}]"
        )


class TimelineRecorder:
    """Append-only log of state changes, queryable per component.

    Changes must be appended in non-decreasing time order per component (the
    kernel guarantees this because callbacks run in time order).
    """

    def __init__(self) -> None:
        self._changes: Dict[str, List[tuple]] = {}

    def history(self, component: str) -> List[tuple]:
        """The live list of raw entries for ``component``.

        Entries are exact ``(time, component, state, power_w, routine)``
        tuples in non-decreasing time order.  The list is created empty on
        first use; a :class:`~repro.hw.power.PowerStateMachine` fetches it
        once and appends to it directly, everyone else only reads it.
        """
        history = self._changes.get(component)
        if history is None:
            history = self._changes[component] = []
        return history

    def record(self, change: StateChange) -> None:
        """Append a state change for its component."""
        history = self.history(change.component)
        if history and change.time < history[-1][0]:
            raise ValueError(
                f"out-of-order state change for {change.component}: "
                f"{change.time} < {history[-1][0]}"
            )
        history.append(tuple(change))

    @property
    def components(self) -> Tuple[str, ...]:
        """Names of all components that have recorded changes."""
        return tuple(sorted(self._changes))

    def changes(self, component: str) -> Tuple[StateChange, ...]:
        """All recorded changes for one component, in time order."""
        return tuple(map(StateChange._make, self._changes.get(component, ())))

    def last_change(self, component: str) -> Optional[StateChange]:
        """The most recent change for ``component`` in O(1) (or None).

        Snapshot-style callers (the steady-state detector) read this at
        cycle boundaries instead of paying the O(n) copy of
        :meth:`changes`.
        """
        history = self._changes.get(component)
        return StateChange._make(history[-1]) if history else None

    def change_count(self, component: str) -> int:
        """How many changes ``component`` has recorded (an O(1) read)."""
        return len(self._changes.get(component, ()))

    def intervals(
        self, component: str, end_time: float
    ) -> Iterator[Tuple[StateChange, float]]:
        """Yield ``(change, duration)`` pairs for one component.

        The final interval is closed at ``end_time``.  Zero-length intervals
        (two changes at the same instant) are skipped.
        """
        history = self._changes.get(component, [])
        for current, following in zip(history, history[1:]):
            duration = following[0] - current[0]
            if duration > 0:
                yield StateChange._make(current), duration
        if history:
            last = history[-1]
            tail = end_time - last[0]
            if tail > 0:
                yield StateChange._make(last), tail

    def state_at(self, component: str, time: float) -> Optional[StateChange]:
        """The change in effect at ``time`` for ``component`` (or None)."""
        latest = None
        for entry in self._changes.get(component, []):
            if entry[0] <= time:
                latest = entry
            else:
                break
        return None if latest is None else StateChange._make(latest)

    def time_in_state(self, component: str, state: str, end_time: float) -> float:
        """Total time the component spent in ``state`` up to ``end_time``."""
        return sum(
            duration
            for change, duration in self.intervals(component, end_time)
            if change.state == state
        )

    def render_ascii(
        self,
        component: str,
        end_time: float,
        width: int = 80,
        state_chars: Optional[Dict[str, str]] = None,
    ) -> str:
        """ASCII strip chart of one component's states (Figure 5 style)."""
        chars = state_chars or {}
        cells = []
        for column in range(width):
            time = end_time * (column + 0.5) / width
            change = self.state_at(component, time)
            if change is None:
                cells.append(" ")
            else:
                cells.append(chars.get(change.state, change.state[0].upper()))
        return "".join(cells)

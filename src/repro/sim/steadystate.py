"""Steady-state detection primitives for periodic workloads.

Strictly periodic scenarios (fixed sensor rates, fixed window sizes)
repeat one *hyperperiod* of behavior forever after a short warm-up.
This module holds the kernel-level machinery the fast-forward engine in
:mod:`repro.core.fastforward` is built on:

* :func:`hyperperiod` — exact LCM of a set of float periods,
* :class:`BoundarySnapshot` / :func:`capture_snapshot` — a normalized
  fingerprint of the simulator's live state at a cycle boundary
  (component power states, pending events relative to the boundary,
  blocked processes), comparable across boundaries,
* :func:`dicts_close` — tolerant comparison of per-key float deltas.

Everything here is core-agnostic: it sees only the simulator, the
timeline recorder and plain names.  Scheme-aware name normalization
(window-indexed signals and the like) is injected by the caller.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .kernel import Simulator
from .trace import TimelineRecorder

#: Decimal places kept when relativizing event times to a boundary.
#: Coarse enough to absorb float noise from re-based window starts
#: (~1e-13 relative), fine enough that genuine scheduling drift — the
#: signature of an aperiodic combo — still breaks the match.
REL_TIME_DECIMALS = 12


def hyperperiod(periods: Sequence[float]) -> Optional[float]:
    """Least common multiple of the given periods, as a float.

    Periods are converted to exact rationals first so e.g. ``lcm(1.0,
    5.0) == 5.0`` and ``lcm(0.5, 0.75) == 1.5`` come out exact instead
    of accumulating float error.  Returns ``None`` for an empty set or
    any non-positive period (no meaningful cycle exists).
    """
    fractions: List[Fraction] = []
    for period in periods:
        if not period > 0:
            return None
        fractions.append(Fraction(period).limit_denominator(10**9))
    if not fractions:
        return None
    numerator = fractions[0].numerator
    denominator = fractions[0].denominator
    for fraction in fractions[1:]:
        numerator = (
            numerator * fraction.numerator
            // gcd(numerator, fraction.numerator)
        )
        denominator = gcd(denominator, fraction.denominator)
    return numerator / denominator


#: Maps a raw name (process, signal, component) to its cycle-relative
#: form; the identity function when names carry no absolute indices.
Normalizer = Callable[[str], str]


def _identity(name: str) -> str:
    return name


def describe_callback(callback: Callable, normalize: Normalizer) -> str:
    """Deterministic, address-free label for a scheduled callback.

    Bound methods — a :class:`~repro.sim.process.Process` schedules its
    resumes as one — are labeled by their owner's ``name`` (or type)
    plus the method name.  Closures are labeled by their qualname plus
    the normalized ``name`` of every named object in their cells, so two
    boundaries one cycle apart produce identical labels for equivalent
    pending work.
    """
    bound = getattr(callback, "__self__", None)
    if bound is not None:
        owner = getattr(bound, "name", None)
        if not isinstance(owner, str):
            owner = type(bound).__name__
        return f"{normalize(owner)}.{callback.__name__}"
    parts: List[str] = []
    for cell in getattr(callback, "__closure__", None) or ():
        try:
            content = cell.cell_contents
        except ValueError:  # pragma: no cover - empty cell
            continue
        name = getattr(content, "name", None)
        if isinstance(name, str):
            parts.append(normalize(name))
        elif isinstance(content, (bool, int, float, str, type(None))):
            parts.append(repr(content))
        else:
            parts.append(type(content).__name__)
    label = getattr(callback, "__qualname__", type(callback).__name__)
    return f"{label}({','.join(sorted(parts))})"


class BoundarySnapshot(NamedTuple):
    """Normalized system state at one cycle boundary.

    Two snapshots taken one hyperperiod apart compare equal exactly when
    the simulation's live state repeats: same component power states and
    routine tags, same pending events at the same boundary-relative
    offsets with equivalent callbacks, same set of blocked processes on
    equivalent signals.
    """

    boundary_s: float
    components: Tuple[Tuple[str, str, str], ...]
    queue: Tuple[Tuple[float, str], ...]
    waiting: Tuple[Tuple[str, str], ...]

    def matches(self, other: "BoundarySnapshot") -> bool:
        """Whether the boundary-relative state equals ``other``'s."""
        return (
            self.components == other.components
            and self.queue == other.queue
            and self.waiting == other.waiting
        )


def capture_snapshot(
    sim: Simulator,
    recorder: TimelineRecorder,
    boundary_s: float,
    normalize: Optional[Normalizer] = None,
) -> BoundarySnapshot:
    """Fingerprint the simulator's live state at ``boundary_s``.

    Must be called between :meth:`~repro.sim.kernel.Simulator.run`
    segments (the kernel is not running); it only reads state, so
    segmented execution stays bit-identical to an uninterrupted run.
    """
    normalize = normalize or _identity
    components = tuple(
        (component, change.state, change.routine)
        for component in recorder.components
        for change in (recorder.last_change(component),)
        if change is not None
    )
    queue = tuple(
        (
            round(event.time - boundary_s, REL_TIME_DECIMALS),
            describe_callback(event.callback, normalize),
        )
        for event in sim.iter_pending()
    )
    waiting = tuple(
        sorted(
            (
                normalize(process.name),
                normalize(process.waiting_on.name)
                if process.waiting_on is not None
                else "",
            )
            for process in sim.processes
        )
    )
    return BoundarySnapshot(boundary_s, components, queue, waiting)


def dicts_close(
    left: Dict,
    right: Dict,
    rtol: float = 1e-12,
    atol: float = 1e-15,
) -> bool:
    """Whether two per-key float dicts agree within tolerance.

    Key sets must match exactly; values compare with the usual
    ``|a - b| <= atol + rtol * max(|a|, |b|)`` criterion.
    """
    if left.keys() != right.keys():
        return False
    for key, value in left.items():
        other = right[key]
        if abs(value - other) > atol + rtol * max(abs(value), abs(other)):
            return False
    return True

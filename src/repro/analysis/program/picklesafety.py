"""Cross-process pickle-safety for execution-backend boundaries.

Everything handed to ``submit_batch`` (and anything fed to
``pickle.dumps``) crosses a process boundary on the process backend,
so it must be transitively picklable.  The
classic failures are structural and visible statically: a lambda, a
nested function closing over locals, or a value that drags a live
process handle (a hub, a trace recorder, an open socket or file) into
the payload.  This pass walks every boundary call site recorded in the
summaries and flags those shapes with the captured names as evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .graph import ProgramIndex
from .summaries import (
    UNPICKLABLE_CONSTRUCTORS,
    ArgInfo,
    FunctionSummary,
)

#: Callee tails that ship their arguments across a process boundary.
BOUNDARY_CALLEES = frozenset({"submit_batch", "dumps"})


@dataclass(frozen=True)
class PickleHazard:
    """One unpicklable value flowing into a process boundary."""

    #: ``lambda`` | ``closure`` | ``live-handle``
    kind: str
    #: Function id the boundary call occurs inside.
    function: str
    lineno: int
    #: The boundary callee (``backend.submit_batch``, ``pickle.dumps``).
    boundary: str
    detail: str


def _is_boundary(callee: str) -> bool:
    """Whether a call site's callee ships payloads across processes.

    ``submit_batch`` in any spelling is the backend seam; ``dumps`` only
    counts when it is pickle-qualified (``pickle.dumps``), so JSON
    serialization does not trip the pass.
    """
    if not callee:
        return False
    parts = callee.split(".")
    tail = parts[-1]
    if tail == "submit_batch":
        return True
    return tail == "dumps" and len(parts) > 1 and parts[-2] == "pickle"


def _unpicklable_type(
    fn: FunctionSummary, name: str
) -> Optional[str]:
    """Why a local name is unpicklable, or None when it looks safe."""
    evidence = fn.local_types.get(name)
    if evidence is None:
        return None
    if evidence.startswith("attr:"):
        return f"live {evidence[5:]} handle"
    if evidence in UNPICKLABLE_CONSTRUCTORS:
        if evidence == "open":
            return "open file handle"
        return f"live {evidence} instance"
    return None


def _check_arg(
    fn: FunctionSummary,
    function_id: str,
    boundary: str,
    lineno: int,
    label: str,
    arg: ArgInfo,
    hazards: List[PickleHazard],
) -> None:
    """Flag one boundary argument's unpicklable shapes."""
    if arg.kind == "lambda":
        captured = ", ".join(arg.free) if arg.free else "nothing"
        hazards.append(
            PickleHazard(
                kind="lambda",
                function=function_id,
                lineno=lineno,
                boundary=boundary,
                detail=(
                    f"{label} is a lambda (captures {captured});"
                    " lambdas never pickle — use a module-level"
                    " function"
                ),
            )
        )
        return
    if arg.kind == "name" and arg.name is not None:
        if "." not in arg.name and arg.name in fn.nested:
            free = fn.nested[arg.name]
            risky = [
                f"{name} ({reason})"
                for name in free
                if (reason := _unpicklable_type(fn, name)) is not None
            ]
            if free:
                captured = ", ".join(risky) if risky else ", ".join(free)
                hazards.append(
                    PickleHazard(
                        kind="closure",
                        function=function_id,
                        lineno=lineno,
                        boundary=boundary,
                        detail=(
                            f"{label} {arg.name!r} is a nested function"
                            f" closing over {captured}; closures cannot"
                            " cross submit_batch — hoist it to module"
                            " level and pass data explicitly"
                        ),
                    )
                )
            return
        reason = _unpicklable_type(fn, arg.name.split(".", 1)[0])
        if reason is not None:
            hazards.append(
                PickleHazard(
                    kind="live-handle",
                    function=function_id,
                    lineno=lineno,
                    boundary=boundary,
                    detail=(
                        f"{label} {arg.name!r} is a {reason}; strip it"
                        " before dispatch (cf. engine.strip_hub)"
                    ),
                )
            )
        return
    # Containers/expressions: any referenced name with a live type.
    for name in arg.refs:
        reason = _unpicklable_type(fn, name)
        if reason is not None:
            hazards.append(
                PickleHazard(
                    kind="live-handle",
                    function=function_id,
                    lineno=lineno,
                    boundary=boundary,
                    detail=(
                        f"{label} references {name!r}, a {reason};"
                        " it cannot cross the process boundary"
                    ),
                )
            )


def find_pickle_hazards(index: ProgramIndex) -> List[PickleHazard]:
    """All unpicklable payload shapes at process boundaries."""
    hazards: List[PickleHazard] = []
    for function_id in sorted(index.functions):
        fn = index.functions[function_id]
        for site in fn.calls:
            if not _is_boundary(site.callee):
                continue
            labels: Dict[int, str] = {
                0: "the task function",
                1: "the items batch",
            }
            for position, arg in enumerate(site.args):
                label = labels.get(position, f"argument {position + 1}")
                _check_arg(
                    fn,
                    function_id,
                    site.callee,
                    site.lineno,
                    label,
                    arg,
                    hazards,
                )
            for keyword, arg in site.kwargs.items():
                _check_arg(
                    fn,
                    function_id,
                    site.callee,
                    site.lineno,
                    f"keyword {keyword!r}",
                    arg,
                    hazards,
                )
    return hazards

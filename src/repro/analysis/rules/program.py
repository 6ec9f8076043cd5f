"""Whole-program rule families: ``program-det-*``, ``program-units-*``,
``program-pickle-*``.

These are thin adapters from the passes in
:mod:`repro.analysis.program` onto the rule framework, so selection
(``--select program-det``), inline suppression and every reporter work
unchanged.  Each finding carries its cross-module evidence in the
message (the determinism rules print the full entry-to-sink call
chain) and structured copies in ``Finding.data`` for the JSON/SARIF
reporters.
"""

from __future__ import annotations

from typing import List

from ..findings import Finding
from ..framework import ProgramRule, register_rule
from ..program.determinism import find_impure_reaches
from ..program.graph import ProgramIndex
from ..program.picklesafety import find_pickle_hazards
from ..program.unitsflow import find_unit_mismatches


@register_rule
class ImpureReachRule(ProgramRule):
    """Deterministic-core code reaching an impurity sink via calls."""

    rule_id = "program-det-impure-reach"
    description = (
        "a sim/scheme/engine entry point reaches a wall-clock, RNG,"
        " entropy or environment read through the call graph; the"
        " finding prints the full call chain"
    )

    def check_program(self, index: ProgramIndex) -> List[Finding]:
        """One finding per impure entry point, chain as evidence."""
        findings: List[Finding] = []
        for reach in find_impure_reaches(index):
            path = index.path_of(reach.entry)
            line = reach.lines[0] if reach.lines else 1
            findings.append(
                self.finding(
                    path,
                    line,
                    f"{reach.entry} reaches an impure sink: "
                    f"{reach.describe()} — every function on this"
                    " chain must be deterministic for the fingerprint"
                    " cache to be sound",
                    chain=list(reach.chain),
                    sink_kind=reach.sink.kind,
                    sink=reach.sink.detail,
                    sink_line=reach.sink.lineno,
                )
            )
        return findings


class _UnitRule(ProgramRule):
    """Shared emission for the three unit-mismatch seams."""

    #: Which :class:`UnitMismatch.seam` this rule reports.
    seam = ""

    def check_program(self, index: ProgramIndex) -> List[Finding]:
        """Findings for this rule's seam only."""
        findings: List[Finding] = []
        for mismatch in find_unit_mismatches(index):
            if mismatch.seam != self.seam:
                continue
            path = index.path_of(mismatch.function)
            findings.append(
                self.finding(
                    path,
                    mismatch.lineno,
                    f"unit mismatch in {mismatch.function}: "
                    f"{mismatch.detail} — expected {mismatch.expected},"
                    f" got {mismatch.actual}",
                    expected=mismatch.expected,
                    actual=mismatch.actual,
                    function=mismatch.function,
                )
            )
        return findings


@register_rule
class UnitCallMismatchRule(_UnitRule):
    """Argument unit disagrees with the callee parameter's unit."""

    rule_id = "program-units-call-mismatch"
    description = (
        "an argument's inferred unit (from units.py constructors or"
        " *_s/*_ms/*_j naming) disagrees with the unit the callee's"
        " parameter name declares"
    )
    seam = "call"


@register_rule
class UnitReturnMismatchRule(_UnitRule):
    """A function returns a different unit than its name promises."""

    rule_id = "program-units-return-mismatch"
    description = (
        "a function whose name carries a unit suffix returns an"
        " expression inferred to carry a different unit"
    )
    seam = "return"


@register_rule
class UnitAssignMismatchRule(_UnitRule):
    """A unit-suffixed binding is fed a call returning another unit."""

    rule_id = "program-units-assign-mismatch"
    description = (
        "a *_s/*_ms/... binding is assigned from a call whose declared"
        " or inferred return unit differs"
    )
    seam = "assign"


@register_rule
class PickleLambdaRule(ProgramRule):
    """Lambdas crossing a submit_batch / pickle boundary."""

    rule_id = "program-pickle-lambda"
    description = (
        "a lambda passed into submit_batch()/pickle.dumps() — lambdas"
        " never pickle, so the process backend breaks; use a"
        " module-level function"
    )

    def check_program(self, index: ProgramIndex) -> List[Finding]:
        """One finding per lambda at a boundary call."""
        return [
            self.finding(
                index.path_of(hazard.function),
                hazard.lineno,
                f"{hazard.detail} (boundary: {hazard.boundary})",
                function=hazard.function,
                boundary=hazard.boundary,
            )
            for hazard in find_pickle_hazards(index)
            if hazard.kind == "lambda"
        ]


@register_rule
class PickleCaptureRule(ProgramRule):
    """Closures/live handles crossing a process boundary."""

    rule_id = "program-pickle-unsafe-capture"
    description = (
        "a closure, live hub/recorder handle, open socket or file"
        " flowing into submit_batch()/pickle.dumps() — the payload"
        " cannot cross the process boundary"
    )

    def check_program(self, index: ProgramIndex) -> List[Finding]:
        """One finding per closure/live-handle hazard."""
        return [
            self.finding(
                index.path_of(hazard.function),
                hazard.lineno,
                f"{hazard.detail} (boundary: {hazard.boundary})",
                function=hazard.function,
                boundary=hazard.boundary,
                kind=hazard.kind,
            )
            for hazard in find_pickle_hazards(index)
            if hazard.kind in ("closure", "live-handle")
        ]

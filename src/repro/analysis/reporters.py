"""Reporters: render findings for humans (text) or machines (JSON)."""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from .findings import Finding, Severity

#: Bump when the JSON payload layout changes.
JSON_SCHEMA_VERSION = 3


def render_text(
    findings: Sequence[Finding],
    files_checked: int,
) -> str:
    """Human-readable report: one row per finding plus a summary line."""
    lines = [finding.format() for finding in findings]
    errors = sum(
        1 for finding in findings if finding.severity is Severity.ERROR
    )
    warnings = len(findings) - errors
    noun = "file" if files_checked == 1 else "files"
    lines.append(
        f"{files_checked} {noun} checked: "
        f"{errors} error(s), {warnings} warning(s)"
    )
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding],
    files_checked: int,
) -> str:
    """Stable JSON document (see ``JSON_SCHEMA_VERSION``)."""
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    payload: Dict[str, Any] = {
        "version": JSON_SCHEMA_VERSION,
        "files_checked": files_checked,
        "findings": [finding.to_json() for finding in findings],
        "counts": dict(sorted(counts.items())),
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def exit_code(findings: Sequence[Finding]) -> int:
    """1 when any ERROR-severity finding is present, else 0."""
    return int(
        any(finding.severity is Severity.ERROR for finding in findings)
    )


def list_rules() -> List[str]:
    """``rule-id  description`` rows for ``repro lint --list-rules``."""
    from .framework import all_rules

    rows = []
    for rule_id, cls in all_rules().items():
        rows.append(f"{rule_id:<32}{cls.description}")
    return rows

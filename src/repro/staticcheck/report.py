"""Text and JSON reporters for lint results.

The text form is the grep-able ``path:line:col: CODE message`` layout
every editor understands; the JSON form is the machine-readable payload CI
archives (schema-versioned like the trace and bench payloads, and it
includes suppressed findings with their justifications so suppressions
stay auditable).
"""

from __future__ import annotations

from typing import Any, Dict, TextIO

from repro.staticcheck.registry import all_rules
from repro.staticcheck.runner import LintReport
from repro.staticcheck.suppress import META_CODES

__all__ = ["LINT_SCHEMA_VERSION", "render_text", "render_json", "render_rules"]

#: Bump when the JSON payload layout changes incompatibly.
LINT_SCHEMA_VERSION = 1


def render_text(report: LintReport, stream: TextIO, show_suppressed: bool = False) -> None:
    """Write the human-readable report to ``stream``."""
    for error in report.errors:
        print(f"error: {error}", file=stream)
    for finding in report.active:
        print(f"{finding.location()}: {finding.code} {finding.message}", file=stream)
    if show_suppressed:
        for finding in report.suppressed:
            print(
                f"{finding.location()}: {finding.code} suppressed "
                f"({finding.justification})",
                file=stream,
            )
    active = len(report.active)
    print(
        f"{active} finding{'s' if active != 1 else ''} "
        f"({len(report.suppressed)} suppressed) "
        f"across {report.files_checked} files",
        file=stream,
    )


def render_json(report: LintReport) -> Dict[str, Any]:
    """The machine-readable payload of one lint run."""
    def entry(finding) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "code": finding.code,
            "path": finding.path,
            "line": finding.line,
            "col": finding.col,
            "message": finding.message,
        }
        if finding.suppressed:
            record["suppressed"] = True
            record["justification"] = finding.justification
        return record

    return {
        "schema": LINT_SCHEMA_VERSION,
        "files_checked": report.files_checked,
        "errors": list(report.errors),
        "findings": [entry(finding) for finding in report.active],
        "suppressed": [entry(finding) for finding in report.suppressed],
        "exit_code": report.exit_code,
    }


def render_rules(stream: TextIO) -> None:
    """Print every registered rule code with its invariant (``--list-rules``)."""
    for rule in all_rules():
        print(f"{rule.code}  {rule.name}", file=stream)
        print(f"        {rule.invariant}", file=stream)
    for code in sorted(META_CODES):
        print(f"{code}  (meta) {META_CODES[code]}", file=stream)

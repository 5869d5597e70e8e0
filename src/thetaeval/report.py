"""Verification records, their timing, and report serialization.

A VerificationRecord is one checked equality.  timed_record builds it from
a builder that returns the two sides as ApproxValues, and takes the sum of
their bounds as the combined bound; this is the only place two sides'
bounds are added.  abs_error and the pass flag (abs_error <= combined_bound
+ tolerance) are computed from the stored numbers, so a record cannot
disagree with its own fields.  JSON output is rendered by hand: fixed key
order and 17-significant-digit decimals make two runs byte-identical apart
from the runtime_ms fields.  It imports nothing from the package.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

__all__ = ["VerificationRecord", "emit_report"]

REPORT_VERSION = "1.0.0"


@dataclass(frozen=True)
class VerificationRecord:
    """One checked identity: the two sides, their combined bound, and the
    tolerance; the gap and the verdict are computed from them."""

    name: str
    paper_anchor: str
    lhs: float
    rhs: float
    combined_bound: float
    tolerance: float
    runtime_ms: int

    @property
    def abs_error(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def passed(self) -> bool:
        return self.abs_error <= self.combined_bound + self.tolerance


def timed_record(name: str, paper_anchor: str, tolerance: float, builder) -> VerificationRecord:
    """Run builder() -> (lhs, rhs), two ApproxValues, and attach the wall time.

    The record's combined bound is the sum of the two sides' bounds.
    """
    start = time.perf_counter()
    lhs, rhs = builder()
    elapsed_ms = int(round(1000.0 * (time.perf_counter() - start)))
    return VerificationRecord(name, paper_anchor, lhs.value, rhs.value,
                              lhs.error_bound + rhs.error_bound, tolerance, elapsed_ms)


def _float_text(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"reports cannot serialize {x}")
    return format(x, ".17g")


def _record_json(r: VerificationRecord) -> str:
    parts = [
        f'"name": {json.dumps(r.name)}',
        f'"paper_anchor": {json.dumps(r.paper_anchor)}',
        f'"lhs": {_float_text(r.lhs)}',
        f'"rhs": {_float_text(r.rhs)}',
        f'"abs_error": {_float_text(r.abs_error)}',
        f'"combined_bound": {_float_text(r.combined_bound)}',
        f'"tolerance": {_float_text(r.tolerance)}',
        f'"pass": {"true" if r.passed else "false"}',
        f'"runtime_ms": {r.runtime_ms}',
    ]
    return "{" + ", ".join(parts) + "}"


def render_json(records: list[VerificationRecord]) -> str:
    passed = sum(1 for r in records if r.passed)
    lines = [f'{{"version": {json.dumps(REPORT_VERSION)},', '"records": [']
    lines.append(",\n".join(_record_json(r) for r in records))
    lines.append("],")
    lines.append(f'"summary": {{"total": {len(records)}, "passed": {passed}, '
                 f'"failed": {len(records) - passed}}}}}')
    return "\n".join(lines) + "\n"


def render_markdown(records: list[VerificationRecord]) -> str:
    lines = [
        "| Name | Anchor | \\|lhs-rhs\\| | Bound+Tol | Pass |",
        "| --- | --- | --- | --- | --- |",
    ]
    for r in records:
        verdict = "pass" if r.passed else "FAIL"
        lines.append(f"| {r.name} | {r.paper_anchor} | {_float_text(r.abs_error)} "
                     f"| {_float_text(r.combined_bound + r.tolerance)} | {verdict} |")
    return "\n".join(lines) + "\n"


def emit_report(records: list[VerificationRecord], output_format: str,
                path: str | None) -> str:
    """Render the records; write to path when given.  Returns the text."""
    if output_format == "json":
        text = render_json(records)
    elif output_format == "markdown":
        text = render_markdown(records)
    else:
        raise ValueError(f"unknown output format {output_format!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text

"""Command-line entry point: run verification suites and emit reports.

main builds a RunConfig from the arguments (a bad one exits 2 here), runs
the suites, prints the markdown table, and hands `--json PATH` or
`--markdown PATH` to report.emit_report, which writes the report file.
Exit codes: 0 all checks passed; 1 at least one check failed; 2 bad
configuration or report IO failure; 3 at least one check's engine gave up or
failed (every other check still ran and is reported).
"""

from __future__ import annotations

import argparse
import os
import sys

from .approx import NonConvergence
from .report import emit_report, render_markdown
from .suites import DEFAULT_FORMS, SUITE_NAMES, RunConfig, run_suites

__all__ = ["build_parser", "main"]


def _parse_form(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"form must be three comma-separated numbers, got {text!r}")
    try:
        a, b, c = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric form coefficient in {text!r}")
    return (a, b, c)


def _parse_tol(text: str) -> tuple[str, float]:
    # Split at the last "=": record names such as .../s=1.5 contain one.
    name, sep, raw = text.rpartition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"tolerance override must look like name=value, got {text!r}")
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric tolerance in {text!r}")
    return (name, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run numerical verification suites and report the results.",
    )
    parser.add_argument(
        "suites", nargs="*", metavar="suite",
        help=f"suites to run (default: all, cheapest first); one of: {', '.join(SUITE_NAMES)}")
    parser.add_argument(
        "--order", type=int, default=RunConfig.qseries_order, metavar="N",
        help="q-series truncation order and two-squares range (default %(default)s)")
    parser.add_argument(
        "--form", type=_parse_form, action="append", metavar="a,b,c",
        help="quadratic form coefficients; repeatable (default: the four standard forms)")
    parser.add_argument(
        "--tol", type=_parse_tol, action="append", metavar="NAME=VALUE",
        help="per-check tolerance override by record name; repeatable")
    output = parser.add_mutually_exclusive_group()
    output.add_argument("--json", metavar="PATH", help="also write a JSON report")
    output.add_argument("--markdown", metavar="PATH",
                        help="also write a markdown report")
    return parser


def main(argv=None) -> int:
    """Run the suites the arguments name; print and write reports; return the exit code."""
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(
            suites=tuple(args.suites) or SUITE_NAMES,
            qseries_order=args.order,
            forms=tuple(args.form) if args.form else DEFAULT_FORMS,
            tol_overrides=dict(args.tol) if args.tol else {},
        )
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return 2

    # The engines call no BLAS routine, so OpenBLAS need not start a thread pool
    # when an engine loads numpy; a user's own setting wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    records, stalls = run_suites(config)
    print(render_markdown(records))
    passed = sum(1 for r in records if r.passed)
    print(f"\n{passed}/{len(records)} checks passed")
    for name, exc in stalls:
        # A stall says where it stopped, and how far if it has a bound; a fault needs its type.
        detail = exc if isinstance(exc, NonConvergence) else f"{type(exc).__name__}: {exc}"
        if isinstance(exc, NonConvergence) and exc.error_bound is not None:
            detail = f"{exc} (value {exc.value}, bound {exc.error_bound:.3g}, cost {exc.cost})"
        print(f"engine gave up on {name}: {detail}", file=sys.stderr)

    path = args.json if args.json is not None else args.markdown
    if path is not None:
        try:
            emit_report(records, "json" if args.json is not None else "markdown", path)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2

    if stalls:
        return 3
    return 0 if passed == len(records) else 1


if __name__ == "__main__":
    sys.exit(main())

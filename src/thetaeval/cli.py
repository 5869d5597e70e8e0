"""Command-line entry point: run verification suites and emit reports.

Exit codes: 0 all checks passed; 1 at least one check failed; 2 bad
configuration or report IO failure; 3 at least one check's engine gave up or
failed (every other check still ran and is reported).
"""

from __future__ import annotations

import argparse
import sys

from .report import (
    DEFAULT_FORMS,
    SUITE_NAMES,
    RunConfig,
    emit_report,
    render_markdown,
)
from .suites import run_suites

__all__ = ["build_parser", "run", "main"]


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
        "--order", type=int, default=256, metavar="N",
        help="q-series truncation order and two-squares range (default 256)")
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


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        suites=tuple(args.suites) or SUITE_NAMES,
        qseries_order=args.order,
        forms=tuple(args.form) if args.form else DEFAULT_FORMS,
        tol_overrides=dict(args.tol) if args.tol else {},
        output_path=args.json or args.markdown,
        output_format="json" if args.json else "markdown",
    )


def run(config: RunConfig) -> int:
    """Execute the configured suites; emit reports; return the exit code."""
    try:
        records, stalls = run_suites(config)
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return 2
    print(render_markdown(records))
    passed = sum(1 for r in records if r.passed)
    print(f"\n{passed}/{len(records)} checks passed")
    for name, exc in stalls:
        print(f"engine gave up on {name}: {exc}", file=sys.stderr)

    if config.output_path is not None:
        try:
            emit_report(records, config.output_format, config.output_path)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2

    if stalls:
        return 3
    return 0 if passed == len(records) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

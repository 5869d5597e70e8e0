"""Compare two `verify --json` reports with their run times masked.

Records are matched by name, and every field but runtime_ms must agree,
number for number as written (each number is compared as its text, so
1.0 and 1 differ).  The version, the summary and the order of the records
must agree too.  Each difference is printed on its own line, as the record
name and the field with its value in A and in B.

Exit code: 0 when the reports agree, 1 when they differ, 2 when a report
cannot be read, is not an object whose records each carry a name, or
repeats a record name.

Usage: python scripts/compare_reports.py A.json B.json
"""

import json
import sys

MASKED = frozenset({"runtime_ms"})


def load(path):
    """The report at path, every number kept as its text.

    Raises ValueError when the report is not an object holding a list of
    records, when a record is not an object with a string name, or when a
    record name appears twice, as records are matched by name.
    """
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh, parse_float=str, parse_int=str, parse_constant=str)
    records = report.get("records", []) if isinstance(report, dict) else None
    if not isinstance(records, list):
        raise ValueError(f"{path} is not a report object with a list of records")
    for index, record in enumerate(records):
        if not (isinstance(record, dict) and isinstance(record.get("name"), str)):
            raise ValueError(f"{path}: record {index} is not an object with a name")
    names = [r["name"] for r in records]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"{path} repeats the record name {', '.join(repeated)}")
    return report


def differences(a, b):
    """One line per difference between reports a and b, runtime_ms masked."""
    lines = [f"{key}: {a.get(key)!r} != {b.get(key)!r}"
             for key in ("version", "summary") if a.get(key) != b.get(key)]
    records_a = {r["name"]: r for r in a.get("records", [])}
    records_b = {r["name"]: r for r in b.get("records", [])}
    for name in [*records_a, *(n for n in records_b if n not in records_a)]:
        if name not in records_b or name not in records_a:
            lines.append(f"{name}: only in {'A' if name in records_a else 'B'}")
            continue
        ra, rb = records_a[name], records_b[name]
        for field in sorted((ra.keys() | rb.keys()) - MASKED):
            if ra.get(field) != rb.get(field):
                lines.append(f"{name}: {field} {ra.get(field)} != {rb.get(field)}")
    if not lines and list(records_a) != list(records_b):
        lines.append("records: same names in a different order")
    return lines


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    try:
        a, b = (load(path) for path in args)
    except (OSError, ValueError) as exc:
        print(f"cannot read report: {exc}", file=sys.stderr)
        return 2
    lines = differences(a, b)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

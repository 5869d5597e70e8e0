"""Rewrite tests/ledger.json: what each of its `verify` argvs gives today.

The ledger keeps, for each argv, the exit code, every record's name, pass
flag, tolerance and combined bound in report order, and every stall's check
name and message (without the " (value V, bound B, cost C)" suffix a stall
line carries).  tests/test_ledger.py runs the same argvs and holds the tree
to it.  The argvs themselves live in the ledger: to add one, add an entry
with its "case" and "argv" and run this script.  A rewrite that raises a
bound or flips a verdict is a change of behaviour; name it and its reason
in CHANGES.md.

Usage: python scripts/write_ledger.py
"""

import contextlib
import io
import json
import os
import pathlib
import re
import tempfile

from thetaeval.cli import main

LEDGER = pathlib.Path(__file__).resolve().parent.parent / "tests" / "ledger.json"
STALL = re.compile(r"^engine gave up on (\S+): (.*?)(?: \(value .*, bound \S+, cost \d+\))?$")


def entry(case, argv):
    """The ledger entry for one argv, run in this process through cli.main."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--json", path])
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    return {
        "case": case,
        "argv": argv,
        "exit": code,
        "records": [[r["name"], r["pass"], r["tolerance"], r["combined_bound"]]
                    for r in report["records"]],
        "stalls": [list(STALL.match(line).groups()) for line in err.getvalue().splitlines()],
    }


def render(entries):
    """The ledger text: one line per record and per stall, so a diff names each."""
    blocks = []
    for e in entries:
        head = (f'{{"case": {json.dumps(e["case"])}, "argv": {json.dumps(e["argv"])}, '
                f'"exit": {e["exit"]},')
        records = ",\n".join(f"  {json.dumps(r)}" for r in e["records"])
        stalls = ",\n".join(f"  {json.dumps(s)}" for s in e["stalls"])
        blocks.append(f'{head}\n "records": [\n{records}],\n "stalls": [\n{stalls}]}}')
    return "[\n" + ",\n".join(blocks) + "\n]\n"


def load():
    with open(LEDGER, encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    LEDGER.write_text(render([entry(e["case"], e["argv"]) for e in load()]), encoding="utf-8")

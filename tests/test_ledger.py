"""The committed ledger: every argv in tests/ledger.json gives its verdicts again.

Each argv runs in this process through cli.main.  Its exit code, record
names in order, pass flags, tolerances and stalls (check name and message)
must equal the ledger's, and no combined bound may exceed the ledger's by
more than BOUND_SLACK, relative.  The slack covers a last-bit difference in
libm on another host and stays far below any real change of a bound.  A
bound that falls passes; scripts/write_ledger.py rewrites the ledger.
"""

import importlib.util
import pathlib

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "write_ledger.py"
_spec = importlib.util.spec_from_file_location("write_ledger", _SCRIPT)
write_ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(write_ledger)

BOUND_SLACK = 1e-9
LEDGER = write_ledger.load()


def test_ledger_covers_the_workloads_the_failure_table_and_both_orders():
    cases = [e["case"] for e in LEDGER]
    assert len(cases) == len(set(cases)) >= 28
    assert {"default", "deep-order seed 1", "order 16", "order 8192"} <= set(cases)
    assert sum(case.startswith("elongated seed ") for case in cases) == 10
    assert write_ledger.render(LEDGER) == write_ledger.LEDGER.read_text(encoding="utf-8")


@pytest.mark.parametrize("kept", LEDGER, ids=[e["case"] for e in LEDGER])
def test_argv_gives_the_ledger_verdicts(kept):
    now = write_ledger.entry(kept["case"], kept["argv"])
    assert now["exit"] == kept["exit"]
    assert now["stalls"] == kept["stalls"]
    assert [r[:3] for r in now["records"]] == [r[:3] for r in kept["records"]]
    grown = [(name, bound, then) for (name, _, _, bound), (_, _, _, then)
             in zip(now["records"], kept["records"]) if bound > then * (1.0 + BOUND_SLACK)]
    assert not grown, grown

import json
import sys
from pathlib import Path

import workloads
from workloads import ELONGATED_C, elongated_forms, make_workload

SRC = Path(__file__).resolve().parents[2] / "src"


def test_elongated_forms_follow_the_seed():
    assert elongated_forms(7) == elongated_forms(7)
    assert elongated_forms(7) != elongated_forms(8)
    assert make_workload("elongated", 7).argv() == make_workload("elongated", 7).argv()
    for seed in range(50):
        forms = elongated_forms(seed)
        assert tuple(c for _, _, c in forms) == ELONGATED_C
        for a, b, c in forms:
            assert a == 1.0 and -1.0 < b < 1.0 and abs(b) <= a <= c


def test_seed_does_not_change_the_fixed_workloads():
    for name in ("default", "deep-order"):
        assert make_workload(name, 1) == make_workload(name, 2)


def test_expected_record_sets():
    default = make_workload("default", 0).expected_names()
    assert len(default) == len(set(default)) == 56
    assert "epstein/direct-vs-accelerated/2,-2,1/s=1.25" in default
    assert "epstein/accelerated-vs-dirichlet/s=1.0009765625" in default
    assert "theta/quotient-identity/z=0.3+1.7i" in default

    deep = make_workload("deep-order", 0)
    assert deep.argv() == ["triple-product", "two-squares", "theta", "--order", "4096"]
    assert len(deep.expected_names()) == 9

    elongated = make_workload("elongated", 3)
    names = elongated.expected_names()
    assert len(names) == len(set(names)) == 32
    b = elongated.forms[2][1]
    assert f"kronecker/lhs-vs-rhs/1,{b:g},10000" in names
    assert not any(n.startswith(("theta/", "special-values/")) for n in names)


def test_default_expected_set_matches_the_program(tmp_path, capsys):
    sys.path.insert(0, str(SRC))
    try:
        from thetaeval import cli
        report = tmp_path / "report.json"
        assert cli.main(["--json", str(report)]) == 0
    finally:
        sys.path.remove(str(SRC))
    capsys.readouterr()
    got = sorted(r["name"] for r in json.loads(report.read_text())["records"])
    assert got == make_workload("default", 0).expected_names()


def test_workload_names():
    assert workloads.WORKLOAD_NAMES == ("default", "deep-order", "elongated")

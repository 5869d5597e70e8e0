"""Exit codes, report serialization, and run configuration."""

import json
import math
import re

import pytest

from thetaeval.approx import NonConvergence
from thetaeval.cli import main
from thetaeval.report import (
    REPORT_VERSION,
    SUITE_NAMES,
    RunConfig,
    VerificationRecord,
    emit_report,
    make_record,
    render_json,
    render_markdown,
)
from thetaeval.suites import SUITES


class TestExitCodes:
    def test_theta_suite_passes(self, capsys):
        assert main(["theta"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_two_squares_large_order(self, capsys):
        assert main(["two-squares", "--order", "1000"]) == 0

    def test_kronecker_custom_form(self, capsys):
        assert main(["kronecker", "--form", "1,1,1"]) == 0
        out = capsys.readouterr().out
        assert "kronecker/lhs-vs-rhs/1,1,1" in out

    def test_unknown_suite_is_config_error(self, capsys):
        assert main(["no-such-suite"]) == 2
        assert "bad configuration" in capsys.readouterr().err

    def test_malformed_form_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--form", "1,2"])
        assert exc.value.code == 2

    def test_order_too_small_is_config_error(self, capsys):
        assert main(["theta", "--order", "15"]) == 2

    def test_failing_record_exits_one(self, capsys, monkeypatch):
        def sides_differ(config, check):
            check("theta/synthetic-failure", "§3", 0.0, lambda: (1.0, 2.0, 0.0))

        monkeypatch.setitem(SUITES, "theta", sides_differ)
        assert main(["theta"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_engine_refusal_exits_three(self, capsys, monkeypatch):
        def stall():
            raise NonConvergence("synthetic stall", value=1.0, error_bound=1.0)

        def stalling_suite(config, check):
            check("kronecker/synthetic", "§3", 0.0, stall)

        monkeypatch.setitem(SUITES, "kronecker", stalling_suite)
        rc = main(["special-values", "kronecker"])
        assert rc == 3
        captured = capsys.readouterr()
        assert "engine gave up on kronecker/synthetic: synthetic stall" in captured.err
        # the suite that finished before the stall is still reported
        assert "special-values/zeta-at-2" in captured.out
        assert "7/7 checks passed" in captured.out

    @pytest.mark.parametrize("argv, kept, stalled", [
        # a = 1e-300: both form quadratures stall.
        (["integral", "--form", "1e-300,0,1"],
         ["integral/exp-I-vs-gamma-quotient", "integral/gamma-reflection-quarter"],
         ["integral/f-at-1/1e-300,0,1", "integral/f-prime-at-1/1e-300,0,1"]),
        # c = 1e-320: the form integral overflows.
        (["integral", "--form", "1,0,1e-320"],
         ["integral/exp-I-vs-gamma-quotient", "integral/gamma-reflection-quarter"],
         ["integral/f-at-1/1,0,9.99989e-321", "integral/f-prime-at-1/1,0,9.99989e-321"]),
        # c = 1e300: the lattice engine divides by zero.
        (["kronecker", "--form", "1,0,1e300"],
         ["kronecker/scalar-limit-vs-integral"],
         ["kronecker/lhs-vs-rhs/1,0,1e+300", "kronecker/l1-vs-eta-log/1,0,1e+300"]),
    ])
    def test_engine_failure_keeps_the_checks_around_it(self, argv, kept, stalled, capsys):
        assert main(argv) == 3
        captured = capsys.readouterr()
        for name in kept:
            assert name in captured.out
        assert f"{len(kept)}/{len(kept)} checks passed" in captured.out
        for name in stalled:
            assert f"engine gave up on {name}: " in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("name", ["no-such-check", "theta/quotient-identity/z=0+i"])
    def test_unknown_tolerance_name_is_config_error(self, name, capsys):
        assert main(["theta", "--tol", f"{name}=1e-9"]) == 2
        captured = capsys.readouterr()
        assert "bad configuration" in captured.err
        assert name in captured.err
        assert captured.out == ""

    def test_nonfinite_form_is_config_error(self, capsys):
        assert main(["integral", "--form", "1,0,inf"]) == 2
        assert "bad configuration" in capsys.readouterr().err

    def test_zero_tolerance_on_engine_built_checks(self, tmp_path, capsys):
        # An override sets the verdict only; engines keep their own tolerances.
        names = ("kronecker/scalar-limit-vs-integral", "theta/value-at-i-four-routes")
        path = tmp_path / "report.json"
        argv = ["kronecker", "theta", "--json", str(path)]
        for name in names:
            argv += ["--tol", f"{name}=0"]
        assert main(argv) == 0
        records = {r["name"]: r for r in json.loads(path.read_text())["records"]}
        for name in names:
            assert records[name]["tolerance"] == 0.0
            assert records[name]["pass"] is True

    def test_unwritable_report_path_exits_two(self, capsys):
        rc = main(["theta", "--json", "/no-such-directory/report.json"])
        assert rc == 2
        assert "cannot write report" in capsys.readouterr().err


class TestJsonReport:
    def test_schema(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["theta", "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert set(doc) == {"version", "records", "summary"}
        assert doc["version"] == REPORT_VERSION
        assert doc["summary"]["total"] == len(doc["records"])
        assert doc["summary"]["passed"] + doc["summary"]["failed"] == doc["summary"]["total"]
        for rec in doc["records"]:
            assert set(rec) == {"name", "paper_anchor", "lhs", "rhs", "abs_error",
                                "combined_bound", "tolerance", "pass", "runtime_ms"}
            assert rec["pass"] is True
            assert rec["abs_error"] == abs(rec["lhs"] - rec["rhs"])

    def test_byte_determinism_modulo_runtime(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(["theta", "--json", str(p)]) == 0
        texts = [re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', p.read_text())
                 for p in paths]
        assert texts[0] == texts[1]

    def test_floats_survive_the_round_trip(self):
        rec = make_record("x", "§1", 1.0 / 3.0, math.pi, 4.0, 0.0)
        doc = json.loads(render_json([rec]))
        assert doc["records"][0]["lhs"] == 1.0 / 3.0
        assert doc["records"][0]["rhs"] == math.pi

    def test_empty_run_serializes(self):
        doc = json.loads(render_json([]))
        assert doc["summary"] == {"total": 0, "passed": 0, "failed": 0}
        assert doc["records"] == []

    def test_emit_report_returns_text_and_writes(self, tmp_path):
        rec = make_record("x", "§1", 1.0, 1.0, 0.0, 0.0)
        path = tmp_path / "r.json"
        text = emit_report([rec], "json", str(path))
        assert path.read_text() == text
        assert json.loads(text)["summary"]["passed"] == 1

    def test_emit_report_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report([], "yaml", None)

    def test_nonfinite_values_are_refused(self):
        # inf - inf gives nan, so the record invariant already refuses it
        with pytest.raises(ValueError):
            VerificationRecord(
                name="x", paper_anchor="§1", lhs=math.inf, rhs=math.inf,
                abs_error=math.nan, combined_bound=0.0, tolerance=0.0,
                passed=False, runtime_ms=0)


class TestMarkdownReport:
    def test_table_layout(self):
        good = make_record("a/b", "Lemma 1", 1.0, 1.0, 0.0, 0.0)
        bad = make_record("c/d", "§3", 1.0, 2.0, 0.0, 0.0)
        text = render_markdown([good, bad])
        lines = text.splitlines()
        assert lines[0] == "| Name | Anchor | \\|lhs-rhs\\| | Bound+Tol | Pass |"
        assert "| a/b | Lemma 1 |" in lines[2] and lines[2].endswith("| pass |")
        assert lines[3].endswith("| FAIL |")

    def test_cli_writes_markdown(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        assert main(["theta", "--markdown", str(path)]) == 0
        assert path.read_text().startswith("| Name | Anchor |")


class TestRunBehaviour:
    def test_duplicate_suites_run_once(self, tmp_path, capsys):
        single, doubled = tmp_path / "one.json", tmp_path / "two.json"
        assert main(["theta", "--json", str(single)]) == 0
        assert main(["theta", "theta", "--json", str(doubled)]) == 0
        a = json.loads(single.read_text())
        b = json.loads(doubled.read_text())
        assert a["summary"]["total"] == b["summary"]["total"]

    def test_records_sorted_by_name(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["kronecker", "--json", str(path)]) == 0
        names = [r["name"] for r in json.loads(path.read_text())["records"]]
        assert names == sorted(names)

    def test_tolerance_override_is_applied(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        # The second name contains "=": the override splits at the last one.
        overrides = {"theta/value-at-i-four-routes": 1e-6,
                     "theta/quotient-identity/z=0+1i": 1e-9}
        argv = ["theta", "--json", str(path)]
        for name, tol in overrides.items():
            argv += ["--tol", f"{name}={tol!r}"]
        assert main(argv) == 0
        doc = json.loads(path.read_text())
        applied = {r["name"]: r["tolerance"] for r in doc["records"]}
        for name, tol in overrides.items():
            assert applied[name] == tol


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.suites == SUITE_NAMES
        assert config.qseries_order == 256
        assert config.tolerance("anything", 1e-8) == 1e-8

    def test_override_lookup(self):
        config = RunConfig(tol_overrides={"a/b": 1e-4})
        assert config.tolerance("a/b", 1e-8) == 1e-4

    def test_rejects_unknown_suite(self):
        with pytest.raises(ValueError):
            RunConfig(suites=("theta", "bogus"))

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            RunConfig(qseries_order=8)

    def test_rejects_indefinite_form(self):
        with pytest.raises(ValueError):
            RunConfig(forms=((1.0, 5.0, 1.0),))
        with pytest.raises(ValueError):
            RunConfig(forms=((1.0, 0.0, math.inf),))

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            RunConfig(tol_overrides={"a": -1.0})

    def test_rejects_bad_format(self):
        with pytest.raises(ValueError):
            RunConfig(output_format="yaml")


class TestRecordInvariants:
    def test_derived_error_must_match(self):
        with pytest.raises(ValueError):
            VerificationRecord(name="x", paper_anchor="§1", lhs=1.0, rhs=1.0,
                               abs_error=0.5, combined_bound=1.0,
                               tolerance=0.0, passed=True, runtime_ms=0)

    def test_pass_flag_must_match(self):
        with pytest.raises(ValueError):
            VerificationRecord(name="x", paper_anchor="§1", lhs=1.0, rhs=2.0,
                               abs_error=1.0, combined_bound=0.0,
                               tolerance=0.0, passed=True, runtime_ms=0)

    def test_make_record_is_consistent(self):
        rec = make_record("x", "§1", 1.0, 1.0 + 1e-12, 1e-10, 0.0)
        assert rec.passed
        assert rec.abs_error == abs(1.0 - (1.0 + 1e-12))

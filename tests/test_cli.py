"""Exit codes, report serialization, and run configuration."""

import dataclasses
import json
import math
import os
import re
import warnings

import pytest

from thetaeval.approx import ApproxValue
from thetaeval.cli import build_parser, main
from thetaeval.epstein import BinaryQuadraticForm, epstein_accelerated
from thetaeval.number_theory import r_divisor_table
from thetaeval.report import (
    REPORT_VERSION,
    VerificationRecord,
    emit_report,
    render_json,
    render_markdown,
    timed_record,
)
from thetaeval import suites
from thetaeval.suites import SUITE_NAMES, SUITES, RunConfig


def _record(lhs, rhs, combined_bound=0.0, name="x", anchor="§1"):
    return VerificationRecord(name, anchor, lhs, rhs, combined_bound, 0.0, 0)


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
            check("theta/synthetic-failure", "§3", 0.0,
                  lambda: (ApproxValue(1.0, 0.0), ApproxValue(2.0, 0.0)))

        monkeypatch.setitem(SUITES, "theta", sides_differ)
        assert main(["theta"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_engine_refusal_exits_three(self, capsys, monkeypatch):
        def stall():
            return ApproxValue(1.0, 1.0).certified(1e-3, "synthetic"), ApproxValue(1.0, 0.0)

        def stalling_suite(config, check):
            check("kronecker/synthetic", "§3", 0.0, stall)

        monkeypatch.setitem(SUITES, "kronecker", stalling_suite)
        rc = main(["special-values", "kronecker"])
        assert rc == 3
        captured = capsys.readouterr()
        assert ("engine gave up on kronecker/synthetic: synthetic stalled above tol=0.001"
                in captured.err)
        # the suite that finished before the stall is still reported
        assert "special-values/zeta-at-2" in captured.out
        assert "7/7 checks passed" in captured.out

    def test_nonfinite_side_is_a_stall(self, capsys, monkeypatch):
        # A side that is not finite cannot become an ApproxValue, so the
        # builder fails like an engine: a stall line, not a traceback.
        def suite(config, check):
            check("kronecker/synthetic-inf", "§3", 0.0,
                  lambda: (ApproxValue(math.inf, 1.0), ApproxValue(1.0, 0.0)))
            check("kronecker/synthetic-ok", "§3", 0.0,
                  lambda: (ApproxValue(1.0, 0.0), ApproxValue(1.0, 0.0)))

        monkeypatch.setitem(SUITES, "kronecker", suite)
        assert main(["special-values", "kronecker"]) == 3
        captured = capsys.readouterr()
        assert captured.err.count("engine gave up on") == 1
        assert ("engine gave up on kronecker/synthetic-inf: ValueError: "
                "value must be finite, got inf") in captured.err
        assert "kronecker/synthetic-ok" in captured.out
        assert "special-values/zeta-at-2" in captured.out
        assert "8/8 checks passed" in captured.out
        assert "Traceback" not in captured.err

    # Each stalled check is (name, exception type named on its line); a
    # NonConvergence keeps its plain message, so its type is None.
    @pytest.mark.parametrize("argv, kept, stalled", [
        # a = 1e-300: both form quadratures stall.
        (["integral", "--form", "1e-300,0,1"],
         ["integral/exp-I-vs-gamma-quotient", "integral/gamma-reflection-quarter"],
         [("integral/f-at-1/1e-300,0,1", None), ("integral/f-prime-at-1/1e-300,0,1", None)]),
        # c = 1e-320: the form integral overflows.
        (["integral", "--form", "1,0,1e-320"],
         ["integral/exp-I-vs-gamma-quotient", "integral/gamma-reflection-quarter"],
         [("integral/f-at-1/1,0,9.99989e-321", "OverflowError"),
          ("integral/f-prime-at-1/1,0,9.99989e-321", None)]),
        # c = 1e300: the lattice level set would pass the work cap, and eta
        # at z_Q = 1e150 i underflows; both engines refuse.
        (["kronecker", "--form", "1,0,1e300"],
         ["kronecker/scalar-limit-vs-integral"],
         [("kronecker/lhs-vs-rhs/1,0,1e+300", None),
          ("kronecker/l1-vs-eta-log/1,0,1e+300", None)]),
    ])
    def test_engine_failure_keeps_the_checks_around_it(self, argv, kept, stalled, capsys):
        assert main(argv) == 3
        captured = capsys.readouterr()
        for name in kept:
            assert name in captured.out
        assert f"{len(kept)}/{len(kept)} checks passed" in captured.out
        for name, fault in stalled:
            assert f"engine gave up on {name}: {fault + ': ' if fault else ''}" in captured.err
        assert "NonConvergence" not in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("name", ["no-such-check", "theta/quotient-identity/z=0+i"])
    def test_unknown_tolerance_name_is_config_error(self, name, capsys):
        assert main(["theta", "--tol", f"{name}=1e-9"]) == 2
        captured = capsys.readouterr()
        assert "bad configuration" in captured.err
        assert name in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("forms, label", [(("1,0,1.0000001", "1,0,1"), "1,0,1"),
                                              (("2,1,3", "2,1,3"), "2,1,3")])
    def test_forms_sharing_a_label_are_config_error(self, forms, label, capsys):
        # Their records would share names, and an override would gate both.
        argv = ["epstein", "kronecker", "--tol", f"kronecker/lhs-vs-rhs/{label}=0"]
        for form in forms:
            argv += ["--form", form]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "bad configuration" in captured.err
        assert label in captured.err
        assert captured.out == ""

    def test_nonfinite_form_is_config_error(self, capsys):
        assert main(["integral", "--form", "1,0,inf"]) == 2
        assert "bad configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("form", ["1,5,1", "-1,0,-1", "nan,0,1"])
    def test_indefinite_form_is_config_error(self, form, capsys):
        assert main(["integral", f"--form={form}"]) == 2
        assert "bad configuration: form (" in capsys.readouterr().err

    @pytest.mark.parametrize("form", ["1e200,0,1e200", "1e-200,0,1e-200"])
    def test_discriminant_outside_double_range_is_config_error(self, form, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["epstein", "kronecker", "integral", "--form", form]) == 2
        captured = capsys.readouterr()
        assert "bad configuration: form (" in captured.err
        assert "discriminant" in captured.err
        assert "engine gave up" not in captured.err
        assert caught == []

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

    def test_elongated_form_passes(self, capsys):
        assert main(["epstein", "kronecker", "--form", "1,0,1e6"]) == 0
        assert "12/12 checks passed" in capsys.readouterr().out

    def test_elongation_boundary_is_eta_underflow(self, capsys):
        # Every check passes to c = 7e6; past that the eta product
        # underflows and stops both Kronecker checks, and nothing else.
        assert main(["epstein", "kronecker", "--form", "1,0,4e6"]) == 0
        assert "12/12 checks passed" in capsys.readouterr().out
        assert main(["epstein", "kronecker", "--form", "1,0,8e6"]) == 3
        captured = capsys.readouterr()
        assert "10/10 checks passed" in captured.out
        assert captured.err.count("eta product underflows at Im z = 2828.43") == 2
        assert captured.err.count("engine gave up on") == 2
        assert "accelerated lattice sum stalled" not in captured.err

    def test_deep_order_runs_in_tier_one(self, capsys):
        assert main(["triple-product", "two-squares", "--order", "4096"]) == 0
        assert "3/3 checks passed" in capsys.readouterr().out

    # ROADMAP's failure table for `verify epstein kronecker --form F`; each
    # row that stalls today is a strict xfail, so a fix has to flip it.
    @pytest.mark.parametrize("form", [
        "1,0,1", "2,-2,1", "1,0,1e6", "1.5,0,100", "1,0,2e6",
        *(pytest.param(form, marks=pytest.mark.xfail(strict=True, reason=reason))
          for form, reason in (
              ("1,0,1e-6", "level sets over 10^7 points, pole-gap stall, eta overflow"),
              ("1e150,0,1e150", "the pole-gap extrapolation stalls"),
              ("1e-150,0,1e-150", "level sets over 10^7 points, accelerated stall"),
              ("3,1,1e8", "eta underflow in both Kronecker checks"),
              ("1,0,1e12", "pole-gap extrapolation stall, eta underflow"),
              ("1,0.3,1e12", "pole-gap extrapolation stall, eta underflow"))),
    ])
    def test_failure_table_row_passes(self, form, capsys):
        assert main(["epstein", "kronecker", "--form", form]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_unwritable_report_path_exits_two(self, capsys):
        for option in ("--json", "--markdown"):
            rc = main(["theta", option, "/no-such-directory/report"])
            assert rc == 2
            assert "cannot write report" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--json", "--markdown"])
    def test_empty_report_path_exits_two(self, option, capsys):
        assert main(["theta", option, ""]) == 2
        assert "cannot write report" in capsys.readouterr().err

    def test_one_blas_thread_unless_the_user_chose(self, monkeypatch, capsys):
        # Set before any suite runs, so numpy, loaded by an engine, sees it.
        seen = []

        def record_setting(config):
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
            return [], []

        monkeypatch.setattr("thetaeval.cli.run_suites", record_setting)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert main(["theta"]) == 0
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        assert main(["theta"]) == 0
        assert seen == ["1", "4"]

    def test_one_report_file_per_run(self, tmp_path, capsys):
        # --json and --markdown exclude each other: a usage error, no file written.
        json_path, markdown_path = tmp_path / "r.json", tmp_path / "r.md"
        with pytest.raises(SystemExit) as exc:
            main(["theta", "--json", str(json_path), "--markdown", str(markdown_path)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not json_path.exists() and not markdown_path.exists()


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
        rec = _record(1.0 / 3.0, math.pi, 4.0)
        doc = json.loads(render_json([rec]))
        assert doc["records"][0]["lhs"] == 1.0 / 3.0
        assert doc["records"][0]["rhs"] == math.pi

    def test_empty_run_serializes(self):
        doc = json.loads(render_json([]))
        assert doc["summary"] == {"total": 0, "passed": 0, "failed": 0}
        assert doc["records"] == []

    def test_emit_report_returns_text_and_writes(self, tmp_path):
        rec = _record(1.0, 1.0)
        path = tmp_path / "r.json"
        text = emit_report([rec], "json", str(path))
        assert path.read_text() == text
        assert json.loads(text)["summary"]["passed"] == 1

    def test_emit_report_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report([], "yaml", None)

    def test_nonfinite_values_are_refused(self):
        for rec in (_record(math.inf, math.inf), _record(1.0, 1.0, math.nan)):
            with pytest.raises(ValueError):
                render_json([rec])
            with pytest.raises(ValueError):
                render_markdown([rec])


class TestMarkdownReport:
    def test_table_layout(self):
        good = _record(1.0, 1.0, name="a/b", anchor="Lemma 1")
        bad = _record(1.0, 2.0, name="c/d", anchor="§3")
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

    def test_two_squares_builds_its_divisor_table_once(self, monkeypatch, capsys):
        calls = []

        def counted(order):
            calls.append(order)
            return r_divisor_table(order)

        monkeypatch.setattr("thetaeval.suites.r_divisor_table", counted)
        for _ in range(2):
            assert main(["two-squares", "--order", "64"]) == 0
        assert calls == [64, 64]

    def test_each_lattice_sum_and_slope_route_runs_once(self, monkeypatch, capsys):
        # The epstein suite asks for 17 distinct (form, s) sums on the default
        # forms, some of them from more than one check; the special-values
        # suite compares three gammaL-slope routes in three pairs.
        sums = []

        def counted_sum(form, s, tol):
            sums.append((form, s, tol))
            return epstein_accelerated(form, s, tol)

        monkeypatch.setattr("thetaeval.suites.epstein_accelerated", counted_sum)
        assert main(["epstein"]) == 0
        assert len(sums) == len(set(sums)) == 17

        routes = []
        for name in ("L_chi4_prime_at_1", "limit_at_zero", "integral_I"):
            def counted_route(*args, _name=name, _route=getattr(suites, name)):
                routes.append(_name)
                return _route(*args)

            monkeypatch.setattr(suites, name, counted_route)
        assert main(["special-values"]) == 0
        assert sorted(routes) == ["L_chi4_prime_at_1", "integral_I", "limit_at_zero"]

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

    def test_cli_order_default_is_the_config_default(self):
        parser = build_parser()
        assert parser.parse_args([]).order == RunConfig().qseries_order
        assert f"(default {RunConfig().qseries_order})" in " ".join(parser.format_help().split())

    def test_override_lookup(self):
        config = RunConfig(tol_overrides={"theta/eta-shift-modulus": 1e-4})
        assert config.tolerance("theta/eta-shift-modulus", 1e-8) == 1e-4

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

    def test_rejects_forms_sharing_a_label(self):
        # Both forms would label their records "1,0,1".
        with pytest.raises(ValueError, match="share the record label 1,0,1"):
            RunConfig(forms=((1.0, 0.0, 1.0), (1.0, 0.0, 1.0000001)))

    def test_a_built_config_cannot_change(self):
        # Its checks ran when it was built, so no field may move after:
        # an order below the minimum or an override naming no check.
        overrides = {"theta/eta-shift-modulus": 1e-4}
        config = RunConfig(suites=("theta",), tol_overrides=overrides)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.qseries_order = 8
        with pytest.raises(TypeError):
            config.tol_overrides["no-such-check"] = 1.0
        overrides["no-such-check"] = 1.0  # the caller's dict was copied
        assert dict(config.tol_overrides) == {"theta/eta-shift-modulus": 1e-4}
        assert config.qseries_order == 256
        assert RunConfig(forms=[[1.0, 0.0, 1.0]]).forms == (BinaryQuadraticForm(1.0, 0.0, 1.0),)
        # A changed copy is a new config, built from the built forms.
        assert dataclasses.replace(config, qseries_order=512).forms == config.forms

    # The second name is a check of the theta suite, not of the run's.
    @pytest.mark.parametrize("suites, name", [(SUITE_NAMES, "theta/no-such-check"),
                                              (("integral",), "theta/eta-shift-modulus")])
    def test_rejects_override_naming_no_check_of_its_suites(self, suites, name):
        with pytest.raises(ValueError, match="names no check in this run"):
            RunConfig(suites=suites, tol_overrides={name: 1e-4})


class TestRecordInvariants:
    # abs_error and passed are computed from the stored numbers, so a
    # record cannot be built to disagree with them.
    def test_derived_error_must_match(self):
        assert _record(1.0, 1.5, 1.0).abs_error == 0.5
        with pytest.raises(TypeError):
            VerificationRecord(name="x", paper_anchor="§1", lhs=1.0, rhs=1.0,
                               abs_error=0.5, combined_bound=1.0,
                               tolerance=0.0, runtime_ms=0)

    def test_pass_flag_must_match(self):
        assert not _record(1.0, 2.0, 0.0).passed
        assert _record(1.0, 2.0, 1.0).passed
        assert VerificationRecord("x", "§1", 1.0, 2.0, 0.5, 0.5, 0).passed

    def test_timed_record_sums_side_bounds(self):
        rec = timed_record("x", "§1", 0.0, lambda: (ApproxValue(1.0, 1e-10),
                                                     ApproxValue(1.0 + 1e-12, 2e-10)))
        assert (rec.lhs, rec.rhs) == (1.0, 1.0 + 1e-12)
        assert rec.combined_bound == 1e-10 + 2e-10
        assert rec.passed
        assert rec.abs_error == abs(1.0 - (1.0 + 1e-12))

import json
from pathlib import Path

import pytest

import run
import spans

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _record(name, lhs, rhs, bound, tol, passed=None):
    err = abs(lhs - rhs)
    return {"name": name, "lhs": lhs, "rhs": rhs, "abs_error": err,
            "combined_bound": bound, "tolerance": tol,
            "pass": (err <= bound + tol) if passed is None else passed}


def test_check_records_counts_missing_failed_and_inconsistent_records():
    records = [
        _record("a", 1.0, 1.0, 0.0, 0.0),
        _record("b", 1.0, 1.5, 0.1, 0.1),                 # fails honestly
        _record("c", 1.0, 1.5, 0.1, 0.1, passed=True),    # claims a pass it lacks
        _record("x", 1.0, 1.0, 0.0, 0.0),                 # not expected
    ]
    problems = []
    assert run.check_records(records, ["a", "b", "c", "d"], problems) == 1
    assert any("missing ['d']" in p and "unexpected ['x']" in p for p in problems)
    assert sum("did not pass" in p for p in problems) == 2


def test_accuracy_metrics():
    records = [
        _record("exact", 0.0, 0.0, 0.0, 0.0),
        _record("p", 1.0, 1.0 + 1e-10, 1e-9, 0.0),
        _record("q", 1.0, 1.0 + 3e-11, 1e-11, 1e-10),
    ]
    bound, headroom = run.accuracy_metrics(records)
    assert bound == pytest.approx(1e-10)
    assert headroom == pytest.approx(max(1e-10 / 1e-9, 3e-11 / 1.1e-10), rel=1e-5)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 19) is None
    assert run.tail_percentile([float(i) for i in range(20)])[0] == 50
    assert run.tail_percentile([float(i) for i in range(40)])[0] == 75
    assert run.tail_percentile([float(i) for i in range(100)])[0] == 90


def test_benchmark_file_matches_the_harness():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOAD_NAMES)
    end_to_end = run.end_to_end(
        [run.Sample("plain", 0, setup_s=0.1, run_s=0.2, ref_s=0.1, rss_mb=30.0,
                    records=[_record("p", 1.0, 1.0, 1e-9, 0.0)])], pass_frac=1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in end_to_end.items()}
    per_layer = dict(spans.metric_names())
    per_layer.update(trace_coverage="frac", tracing_overhead_s="s")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer

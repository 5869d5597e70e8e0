"""End-to-end benchmark of `verify`, with a per-layer trace.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs samples as a closed loop: each sample is a fresh Python
process (perfbench/sample.py) that imports `thetaeval.cli` from this
working tree's src/ and runs one `verify`, and the next sample starts when
it has ended.  Every user and CI job pays a fresh interpreter, so set-up is
part of what is measured.  Samples start until S seconds have passed.

Every sample is checked: exit code, the JSON report, the record names the
workload must produce, and each verdict recomputed from the stored numbers.
The report, apart from `runtime_ms`, must be the same in every sample.

On a shared host the machine's speed changes from second to second, and
medians of plain wall time drift by a quarter between runs.  So the run
time is reported as `run_rel`: the wall time of `cli.main` over the mean
time of a short fixed kernel, timed before, after, and every 50 ms during
the run (sample.py's SpeedProbe; the probe's own time is taken out of the
wall time).  The plain wall time is printed beside it, with its tail and
sample count.

--trace 0 reports the end-to-end metrics, from plain samples:
    setup_s        median time from process start to `thetaeval.cli` imported
    run_rel        median run time, in kernel times (above)
    peak_rss_mb    median ru_maxrss of a sample process
    pass_frac      share of the expected checks that came back passing; a
                   missing or failed record, a stall, a crash or a nonzero
                   exit counts against it
    bound_geomean  geometric mean of the positive combined bounds
    headroom_max   largest abs_error / (combined_bound + tolerance)
The last two are deterministic; they rise if a bound loosens or a result
gets less accurate.  --trace 1 alternates plain samples with traced ones
(spans.py), whose spans give the per-layer metrics; the difference between
the two run times is the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when
every check and the determinism gate passed, 1 when one failed, and 2
when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SAMPLE_TIMEOUT_S = 50.0
_RUNTIME = re.compile(r'"runtime_ms": \d+')


@dataclass
class Sample:
    mode: str
    failed_checks: int
    problems: list[str] = field(default_factory=list)
    setup_s: float | None = None
    run_s: float | None = None
    ref_s: float | None = None         # mean kernel time, timed around and during the run
    rss_mb: float | None = None
    report: str | None = None          # report text with runtime_ms masked
    records: list[dict] | None = None
    info: dict = field(default_factory=dict)


def run_sample(tmp: Path, index: int, mode: str, argv: list[str],
               expected: list[str]) -> Sample:
    """Start one sample process, wait for it, and check what it returned."""
    result_path = tmp / f"{index}.result.json"
    report_path = tmp / f"{index}.report.json"
    if mode != "import":
        argv = argv + ["--json", str(report_path)]
    cmd = [sys.executable, str(HERE / "sample.py"), str(ROOT), str(result_path), mode, *argv]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Sample(mode, len(expected), [f"stalled: killed after {SAMPLE_TIMEOUT_S:g} s"])
    if mode == "import":
        problems = [] if proc.returncode == 0 else [f"import failed: {_last_line(err)}"]
        return Sample(mode, 0, problems)
    try:
        info = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return Sample(mode, len(expected),
                      [f"crashed with exit {proc.returncode}: {_last_line(err)}"])

    sample = Sample(mode, 0, info=info, setup_s=info["t_ready"] - t_spawn,
                    run_s=info["run_s"], ref_s=info["ref_s"], rss_mb=info["rss_kb"] / 1024.0)
    if proc.returncode != 0:
        sample.problems.append(f"exit {proc.returncode}: {_last_line(err)}")
    try:
        text = report_path.read_text(encoding="utf-8")
        sample.records = json.loads(text)["records"]
        sample.report = _RUNTIME.sub('"runtime_ms": _', text)
    except (OSError, ValueError, KeyError) as exc:
        sample.problems.append(f"no readable report: {exc}")
        sample.failed_checks = len(expected)
        return sample

    passing = check_records(sample.records, expected, sample.problems)
    sample.failed_checks = len(expected) - passing
    if proc.returncode != 0 and sample.failed_checks == 0:
        sample.failed_checks = 1
    return sample


def check_records(records: list[dict], expected: list[str], problems: list[str]) -> int:
    """Count the expected checks that came back passing; note every mismatch."""
    names = sorted(r["name"] for r in records)
    if names != expected:
        missing = sorted(set(expected) - set(names))
        extra = sorted(set(names) - set(expected))
        problems.append(f"record names differ: missing {missing}, unexpected {extra}")
    passing = 0
    by_name = {r["name"]: r for r in records}
    for name in expected:
        r = by_name.get(name)
        if r is None:
            continue
        holds = (r["abs_error"] == abs(r["lhs"] - r["rhs"])
                 and r["abs_error"] <= r["combined_bound"] + r["tolerance"])
        if r["pass"] and holds:
            passing += 1
        else:
            problems.append(f"check {name} did not pass (pass={r['pass']}, recomputed={holds})")
    return passing


def accuracy_metrics(records: list[dict]) -> tuple[float, float]:
    """bound_geomean and headroom_max of one report."""
    logs = [math.log10(r["combined_bound"]) for r in records if r["combined_bound"] > 0.0]
    headroom = [r["abs_error"] / (r["combined_bound"] + r["tolerance"])
                for r in records if r["combined_bound"] + r["tolerance"] > 0.0]
    return 10.0 ** statistics.fmean(logs), max(headroom)


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of the usual percentiles with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100.0 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def metadata(info: dict) -> dict:
    meta = {
        "thetaeval": info["thetaeval"],
        "python": info["python"],
        "numpy": info["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }
    meta["commit"], meta["dirty"] = _git_state()
    return meta


def _git_state() -> tuple[str, bool | None]:
    if not (ROOT / ".git").exists():
        return "none", None
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None
    if head.returncode != 0 or status.returncode != 0:
        return "unknown", None
    return head.stdout.strip(), bool(status.stdout.strip())


def _last_line(text: str) -> str:
    lines = [line for line in (text or "").splitlines() if line.strip()]
    return lines[-1] if lines else "(no message)"


def end_to_end(samples: list[Sample], pass_frac: float) -> dict[str, tuple[float, str]]:
    """End-to-end metrics by name, as (value, unit), from the plain samples."""
    plain = [s for s in samples if s.mode == "plain" and s.run_s is not None]
    reports = [s.records for s in samples if s.records is not None]
    if not plain or not reports:
        return {}
    bound, headroom = accuracy_metrics(reports[0])
    return {
        "setup_s": (statistics.median(s.setup_s for s in plain), "s"),
        "run_rel": (statistics.median(s.run_s / s.ref_s for s in plain), "kernel"),
        "peak_rss_mb": (statistics.median(s.rss_mb for s in plain), "MB"),
        "pass_frac": (pass_frac, "frac"),
        "bound_geomean": (bound, "1"),
        "headroom_max": (headroom, "ratio"),
    }


def per_layer(samples: list[Sample], problems: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, as (value, unit), from the traced samples.
    Counts must repeat exactly; times are medians."""
    plain = [s.run_s for s in samples if s.mode == "plain" and s.run_s is not None]
    traced = [s for s in samples if s.mode == "traced" and "layers" in s.info]
    if not plain or not traced:
        return {}
    out = {}
    for name, unit in spans.metric_names() + [("trace_coverage", "frac")]:
        values = [s.info["layers"][name] for s in traced]
        if unit == "count":
            if any(v != values[0] for v in values):
                problems.append(f"determinism: {name} differs between traced samples: {values}")
            out[name] = (values[0], unit)
        else:
            out[name] = (statistics.median(values), unit)
    out["tracing_overhead_s"] = (statistics.median(s.run_s for s in traced)
                                 - statistics.median(plain), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "thetaeval" / "cli.py").is_file():
        print(f"no thetaeval source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.make_workload(args.workload, args.seed)
    verify_argv = workload.argv()
    expected = workload.expected_names()
    print(f"# workload {workload.name}: verify {' '.join(verify_argv)}".rstrip())
    print(f"# {len(expected)} expected checks per sample; closed loop, one client, "
          f"{args.seconds:g} s")

    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as tmp_name:
        tmp = Path(tmp_name)
        warm = run_sample(tmp, 0, "import", [], expected)
        if warm.problems:
            print(f"cannot start a sample: {warm.problems[0]}", file=sys.stderr)
            return 2
        modes = ("plain", "traced") if args.trace else ("plain",)
        samples: list[Sample] = []
        deadline = time.monotonic() + args.seconds
        while len(samples) < len(modes) or time.monotonic() < deadline:
            mode = modes[len(samples) % len(modes)]
            samples.append(run_sample(tmp, len(samples) + 1, mode, verify_argv, expected))

    problems = [f"sample {i + 1} ({s.mode}): {p}"
                for i, s in enumerate(samples) for p in s.problems]
    reports = {s.report for s in samples if s.report is not None}
    if len(reports) > 1:
        problems.append(f"determinism: {len(reports)} different reports "
                        "(runtime_ms masked) across samples")
    infos = [s.info for s in samples if s.info]
    if infos:
        meta = metadata(infos[0])
        if Path(meta["thetaeval"]).resolve() != ROOT / "src" / "thetaeval":
            print(f"measured {meta['thetaeval']}, not the working tree", file=sys.stderr)
            return 2
        print("# meta " + json.dumps(meta, sort_keys=True))

    attempted = len(expected) * len(samples)
    failed = sum(s.failed_checks for s in samples)
    if args.trace:
        metrics = per_layer(samples, problems)
    else:
        metrics = end_to_end(samples, 1.0 - failed / attempted)
    for p in problems:
        print(f"# FAIL {p}")
    if not metrics:
        print("no sample completed; no metrics", file=sys.stderr)
        return 1

    run_times = [s.run_s for s in samples if s.mode == "plain" and s.run_s is not None]
    tail = tail_percentile(run_times)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"# run_s (wall) over {len(run_times)} plain samples: "
          f"median {statistics.median(run_times)!r} s"
          + (f", p{tail[0]} {tail[1]!r} s" if tail else ", too few for a tail percentile"))

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

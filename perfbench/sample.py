"""One benchmark sample: a fresh interpreter imports `thetaeval.cli` from the
working tree and runs `verify` once, as a user or a CI job would.

Usage: python3 perfbench/sample.py ROOT RESULT_PATH MODE [verify arguments...]

MODE is `import` (only import, to compile bytecode before timing), `plain`
or `traced`.  The result, a JSON object, is written to RESULT_PATH; the
process exits with the code `verify` returned.
"""

import math
import os
import signal
import sys
import time


_PROBE_INTERVAL_S = 0.05


def kernel_s() -> float:
    """Time of a short fixed mix of the work `verify` does: list walks with
    fresh integers, as in the q-series, and scalar float math, as in the
    special functions.  About 1.5 ms."""
    start = time.perf_counter()
    coeffs = list(range(1 << 40, (1 << 40) + 4096))
    for j in range(len(coeffs) - 1, 2, -1):
        coeffs[j] = coeffs[j] + 2 * coeffs[j - 3]
    x = 0.0
    for i in range(1, 2000):
        x += math.exp(-1e-3 * i) * math.log(i)
    return time.perf_counter() - start


class SpeedProbe:
    """Times the kernel on a timer signal while the run goes on.

    On a shared host the machine's speed changes from second to second,
    so a run's time means little alone.  Kernels timed throughout the run
    tell how fast the machine was while it ran."""

    def __init__(self, active: bool):
        self.times: list[float] = []
        self._active = active

    def _tick(self, signum, frame):
        self.times.append(kernel_s())

    def __enter__(self):
        if self._active:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, _PROBE_INTERVAL_S, _PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)


def main() -> int:
    root, result_path, mode = sys.argv[1:4]
    argv = sys.argv[4:]
    sys.path.insert(0, os.path.join(root, "src"))
    import thetaeval.cli as cli
    t_ready = time.monotonic()
    if mode == "import":
        return 0

    import json
    import resource

    import numpy
    import thetaeval

    if mode == "traced":
        import spans as tracing
        from thetaeval.approx import NonConvergence
        recorder = tracing.Recorder(NonConvergence)
        tracing.install(recorder)

    # Traced runs go without the probe, so that spans hold the program's time only.
    kernels = [kernel_s() for _ in range(8)]
    probe = SpeedProbe(active=mode == "plain")
    start = time.perf_counter()
    with probe:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    # The probe's own time is not the program's.
    run_s = time.perf_counter() - start - sum(probe.times)
    kernels += probe.times + [kernel_s() for _ in range(8)]

    result = {
        "t_ready": t_ready,
        "run_s": run_s,
        "ref_s": sum(kernels) / len(kernels),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "thetaeval": os.path.dirname(os.path.abspath(thetaeval.__file__)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if mode == "traced":
        result["layers"] = tracing.layer_metrics(recorder.spans, run_s)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

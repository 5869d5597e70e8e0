"""Layer spans for the traced run.

Each layer's public functions are wrapped at every module binding where
callers look them up, so a call made through `from .epstein import
epstein_accelerated` is caught as well as one made inside epstein.py.  A
span records its name, start, end, the span that caused it, and the
`cost` of an ApproxValue result.  Spans stay in memory and are reduced to
per-function totals when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

from workloads import SUITE_ORDER

# Layer module -> public functions traced in it.
LAYERS = {
    "qseries": ("theta_qseries", "triple_product_qseries", "qs_mul", "r_from_theta_squared"),
    "number_theory": ("r_divisor", "r_bruteforce"),
    "quadrature": ("integral_I", "gamma_integral", "gammaL_integral", "f_form",
                   "f_form_derivative_at_1"),
    "special_values": ("zeta", "L_chi4", "L_chi4_prime_at_1", "euler_gamma", "gamma_gauss"),
    "modular": ("theta_uhp", "eta_uhp"),
    "epstein": ("epstein_direct", "epstein_accelerated", "upper_incomplete_gamma"),
    "kronecker": ("kronecker_lhs", "kronecker_rhs", "l1_series", "target_limit_check",
                  "theta_at_i_assembly"),
    "report": ("render_markdown", "emit_report"),
}

# The traced functions that return an ApproxValue, and so report a cost.
COST_FUNCTIONS = frozenset(
    LAYERS["quadrature"] + LAYERS["special_values"] + LAYERS["epstein"]
    + ("kronecker_lhs", "kronecker_rhs", "l1_series"))


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for module, functions in LAYERS.items():
        for fn in functions:
            names += [(f"{module}.{fn}.calls", "count"), (f"{module}.{fn}.self_s", "s")]
            if fn in COST_FUNCTIONS:
                names.append((f"{module}.{fn}.cost", "count"))
        names.append((f"{module}.stalls", "count"))
    names += [(f"suites.{suite}.self_s", "s") for suite in SUITE_ORDER]
    return names


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the causing span, -1 at the top
    cost: int | None     # ApproxValue.cost of the result, when there is one
    stalled: bool        # a NonConvergence left the program through this span first


@dataclass
class Totals:
    calls: int = 0
    self_s: float = 0.0
    cost: int = 0
    stalls: int = 0


def reduce_spans(spans: list[Span]) -> dict[str, Totals]:
    """Per-name totals.  Self time is a span's duration minus the time its
    child spans cover.  Cost is summed over the outermost call of each name
    only, because a recursive call's cost is already inside its caller's."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_s[span.parent] += span.end - span.start
    totals: dict[str, Totals] = {}
    for i, span in enumerate(spans):
        t = totals.setdefault(span.name, Totals())
        t.calls += 1
        t.self_s += (span.end - span.start) - child_s[i]
        t.stalls += span.stalled
        if span.cost is not None and not _inside_same_name(spans, i):
            t.cost += span.cost
    return totals


def _inside_same_name(spans: list[Span], i: int) -> bool:
    name = spans[i].name
    j = spans[i].parent
    while j >= 0:
        if spans[j].name == name:
            return True
        j = spans[j].parent
    return False


class Recorder:
    """Collects spans from wrapped functions; one per traced process."""

    def __init__(self, stall_type: type[BaseException], clock=time.perf_counter):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._stall_type = stall_type
        self._clock = clock
        self._stalls_seen: list[BaseException] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            cost = None
            stalled = False
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
                cost = getattr(result, "cost", None)
                return result
            except self._stall_type as exc:
                stalled = not any(exc is seen for seen in self._stalls_seen)
                if stalled:
                    self._stalls_seen.append(exc)
                raise
            finally:
                end = self._clock()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, cost, stalled)

        return traced


def rebind(modules, original, wrapped) -> int:
    """Replace every module-level binding of `original` by `wrapped`."""
    count = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
                count += 1
    return count


def install(recorder: Recorder) -> None:
    """Wrap the traced functions and the suite runners of the imported package."""
    package = [m for n, m in sys.modules.items()
               if m is not None and (n == "thetaeval" or n.startswith("thetaeval."))]
    for module_name, functions in LAYERS.items():
        home = importlib.import_module(f"thetaeval.{module_name}")
        for fn_name in functions:
            original = getattr(home, fn_name)
            wrapped = recorder.wrap(f"{module_name}.{fn_name}", original)
            if rebind(package, original, wrapped) == 0:
                raise RuntimeError(f"thetaeval.{module_name}.{fn_name} has no binding")
    suites = importlib.import_module("thetaeval.suites").SUITES
    if tuple(suites) != SUITE_ORDER:
        raise RuntimeError(f"suite list changed: {tuple(suites)}")
    for suite, runner in list(suites.items()):
        suites[suite] = recorder.wrap(f"suites.{suite}", runner)


def layer_metrics(spans: list[Span], run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced sample, plus the share of run_s the spans cover."""
    totals = reduce_spans(spans)
    out: dict[str, float] = {}
    for name, _ in metric_names():
        key, _, field = name.rpartition(".")
        if field == "stalls":
            out[name] = sum(t.stalls for n, t in totals.items()
                            if n.startswith(key + "."))
        else:
            out[name] = getattr(totals.get(key, Totals()), field)
    covered = sum(t.self_s for t in totals.values())
    out["trace_coverage"] = covered / run_s
    return out

"""Benchmark workloads: the `verify` arguments each one runs and the checks it must return.

The seed reaches the benchmark only.  `verify` receives the generated
arguments, never the seed.  The expected record names are derived here from
the suite definitions, independently of the program, so that a missing or
renamed check shows as a failure instead of moving the target.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SUITE_ORDER = (
    "triple-product",
    "two-squares",
    "integral",
    "special-values",
    "epstein",
    "kronecker",
    "theta",
)

DEFAULT_FORMS = ((1.0, 0.0, 1.0), (2.0, -2.0, 1.0), (1.0, 0.0, 2.0), (1.0, 1.0, 1.0))

# Outer coefficients of the elongated forms (1, b, c).  Im z_Q is about
# sqrt(c).  Beyond 1e4 a sample runs for many seconds, and c = 1e6 stalls.
ELONGATED_C = (1e2, 1e3, 1e4)

DEEP_ORDER = 4096

WORKLOAD_NAMES = ("default", "deep-order", "elongated")

_DIRICHLET_S = (1.5, 2.0, 3.0, 1.0 + 2.0 ** -10)
_GRID_S = (1.25, 1.5, 2.0, 3.0)
_SLOPE_ROUTES = ("product-rule", "central-difference", "half-pi-integral")
_QUOTIENT_POINTS = ("0+1i", "0.3+1.7i", "0+3i")


@dataclass(frozen=True)
class Workload:
    """One set of `verify` inputs."""

    name: str
    suites: tuple[str, ...]
    forms: tuple[tuple[float, float, float], ...]
    order: int | None = None

    def argv(self) -> list[str]:
        args = [] if self.suites == SUITE_ORDER else list(self.suites)
        if self.order is not None:
            args += ["--order", str(self.order)]
        if self.forms != DEFAULT_FORMS:
            for form in self.forms:
                args += ["--form", ",".join(repr(v) for v in form)]
        return args

    def expected_names(self) -> list[str]:
        """Record names the run must return, sorted."""
        return sorted(name for suite in self.suites
                      for name in _SUITE_CHECKS[suite](self.forms))


def elongated_forms(seed: int) -> tuple[tuple[float, float, float], ...]:
    """Forms (1, b, c) with c from ELONGATED_C and shears b drawn uniformly
    from (-1, 1), so each form stays reduced and Im z_Q stays near sqrt(c)."""
    rng = random.Random(seed)
    return tuple((1.0, rng.uniform(-1.0, 1.0), c) for c in ELONGATED_C)


def make_workload(name: str, seed: int) -> Workload:
    if name == "default":
        return Workload(name, SUITE_ORDER, DEFAULT_FORMS)
    if name == "deep-order":
        # The theta suite rides along because the exact suites have zero
        # bounds and tolerances, which leave the accuracy metrics undefined.
        return Workload(name, ("triple-product", "two-squares", "theta"),
                        DEFAULT_FORMS, DEEP_ORDER)
    if name == "elongated":
        return Workload(name, ("integral", "epstein", "kronecker"),
                        elongated_forms(seed))
    raise ValueError(f"unknown workload {name!r}")


def _label(form) -> str:
    return ",".join(format(v, "g") for v in form)


def _s_label(s: float) -> str:
    return format(s, ".17g")


def _integral(forms):
    names = ["integral/exp-I-vs-gamma-quotient", "integral/gamma-reflection-quarter"]
    for form in forms:
        names += [f"integral/f-at-1/{_label(form)}", f"integral/f-prime-at-1/{_label(form)}"]
    return names


def _special_values(forms):
    names = ["special-values/zeta-at-2", "special-values/L-at-1",
             "special-values/zeta-pole-constant", "special-values/gauss-gamma-reflection"]
    for i, left in enumerate(_SLOPE_ROUTES):
        for right in _SLOPE_ROUTES[i + 1:]:
            names.append(f"special-values/gammaL-slope/{left}-vs-{right}")
    return names


def _epstein(forms):
    names = [f"epstein/accelerated-vs-dirichlet/s={_s_label(s)}" for s in _DIRICHLET_S]
    for form in forms:
        names += [f"epstein/direct-vs-accelerated/{_label(form)}/s={_s_label(s)}"
                  for s in _GRID_S]
    names.append("epstein/unimodular-equivalence/s=1.5")
    return names


def _kronecker(forms):
    names = []
    for form in forms:
        names += [f"kronecker/lhs-vs-rhs/{_label(form)}",
                  f"kronecker/l1-vs-eta-log/{_label(form)}"]
    names.append("kronecker/scalar-limit-vs-integral")
    return names


def _theta(forms):
    return (["theta/value-at-i-four-routes", "theta/eta-shift-modulus",
             "theta/series-at-2i-vs-qseries"]
            + [f"theta/quotient-identity/z={z}" for z in _QUOTIENT_POINTS])


_SUITE_CHECKS = {
    "triple-product": lambda forms: ["triple-product/theta-vs-product"],
    "two-squares": lambda forms: ["two-squares/bruteforce-vs-divisor",
                                  "two-squares/theta-squared-vs-divisor"],
    "integral": _integral,
    "special-values": _special_values,
    "epstein": _epstein,
    "kronecker": _kronecker,
    "theta": _theta,
}

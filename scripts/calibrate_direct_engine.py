"""Empirical check that the direct lattice engine's error bound is honest.

Two experiments:

1. Grid study: on the standard four forms and s in {1.25, 1.5, 2, 3},
   compare the direct engine at a given tolerance against the accelerated
   engine pushed to 1e-12 (treated as truth here; its own bound is orders
   of magnitude below anything the direct engine is asked for).  Report
   err, bound, and err/bound.  Every ratio must stay below 1.

2. Tolerance sweep: fix the unit form at s = 2 and lower the tolerance
   tenfold at a time from 1e-3.  The engine sums the level set Q <= T for
   the smallest T whose proven bound meets the tolerance; T is read back
   as cost sqrt(D) / (2 pi), the points summed over the area per level.
   The bound falls like T^(1/2 - s) = T^(-1.5); the fitted slope of the
   true error against T shows how much lower the error sits.

Usage: python scripts/calibrate_direct_engine.py [--grid-tol TOL] [--sweep-min TOL]
"""

import argparse
import math
import time

from thetaeval import BinaryQuadraticForm, RunConfig, epstein_accelerated, epstein_direct

S_GRID = (1.25, 1.5, 2.0, 3.0)


def grid_study(tol):
    print(f"grid study, tolerance {tol:g}")
    print(f"{'form':>10} {'s':>5} {'err':>10} {'bound':>10} {'ratio':>7}")
    worst = 0.0
    for form in RunConfig().forms:
        for s in S_GRID:
            truth = epstein_accelerated(form, s, 1e-12)
            got = epstein_direct(form, s, tol)
            err = abs(got.value - truth.value)
            ratio = err / got.error_bound
            worst = max(worst, ratio)
            print(f"{form.label:>10} {s:>5g} {err:>10.2e} "
                  f"{got.error_bound:>10.2e} {ratio:>7.3f}")
    print(f"worst err/bound ratio: {worst:.3f}\n")
    return worst


def _slope(rows):
    # least-squares slope of log y against log x
    xs = [math.log(x) for x, _ in rows]
    ys = [math.log(y) for _, y in rows]
    n = len(xs)
    xbar, ybar = sum(xs) / n, sum(ys) / n
    return (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
            / sum((x - xbar) ** 2 for x in xs))


def tolerance_sweep(min_tol):
    form = BinaryQuadraticForm(1.0, 0.0, 1.0)
    truth = epstein_accelerated(form, 2.0, 1e-12)
    print("tolerance sweep, unit form, s = 2")
    print(f"{'tol':>8} {'level T':>10} {'err':>10} {'bound':>10} {'ratio':>7} {'seconds':>8}")
    errs, bounds = [], []
    tol = 1e-3
    while tol >= min_tol * (1.0 - 1e-9):
        start = time.perf_counter()
        got = epstein_direct(form, 2.0, tol)
        elapsed = time.perf_counter() - start
        level = got.cost * math.sqrt(form.disc) / (2.0 * math.pi)
        err = abs(got.value - truth.value)
        print(f"{tol:>8.0e} {level:>10.4g} {err:>10.2e} {got.error_bound:>10.2e} "
              f"{err / got.error_bound:>7.3f} {elapsed:>8.2f}")
        if err > 0.0:
            errs.append((level, err))
        bounds.append((level, got.error_bound))
        tol /= 10.0
    if len(errs) >= 2:
        print(f"fitted decay exponent in T: error {_slope(errs):.2f}, "
              f"bound {_slope(bounds):.2f} (proven -1.5)\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid-tol", type=float, default=1e-2,
                        help="grid-study tolerance (default 1e-2)")
    parser.add_argument("--sweep-min", type=float, default=1e-8,
                        help="smallest tolerance in the sweep (default 1e-8)")
    args = parser.parse_args()

    worst = grid_study(args.grid_tol)
    tolerance_sweep(args.sweep_min)
    if worst >= 1.0:
        raise SystemExit("bound violated somewhere on the grid")
    print("bound held everywhere")


if __name__ == "__main__":
    main()

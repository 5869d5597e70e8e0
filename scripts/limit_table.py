"""Show why the pole-gap limit needs extrapolation.

For each standard form, print the raw node values

    g(eps) = (sqrt(D) / 4 pi) Z(1 + eps) - zeta(2 (1 + eps) - 1)

on the ladder of approx.pole_constant, eps = 0.1 * 2^-k, k < 8, each from
pole_gap at the limit's own tolerance 1e-8, as in kronecker_lhs(form, 1e-8).
The nodes are recorded by the node function pole_constant itself evaluates,
so the table shows the ladder kronecker_lhs extrapolates, not a copy of it.
The raw sequence crawls toward the limit at first order in eps; the
extrapolated limit lands within ~1e-12 of the closed form, and is checked
to equal the value kronecker_lhs returns.  The last column is the honest
check: |extrapolated - closed| against the reported bound.

Exit code: 0, or 1 when a limit differs from kronecker_lhs.

Usage: python scripts/limit_table.py
"""

import sys

from thetaeval import RunConfig, kronecker_lhs, kronecker_rhs
from thetaeval.approx import pole_constant
from thetaeval.kronecker import pole_gap

TOL = 1e-8


def pole_gap_limit(form):
    """The nodes (eps, g(eps)) of pole_constant's ladder, each to the
    TOL kronecker_lhs gives a node, and their limit at eps = 0."""
    nodes = []

    def node(s):
        g = pole_gap(form, s, TOL)
        nodes.append((s - 1.0, g))
        return g

    return nodes, pole_constant(node)


def main():
    differ = 0
    for form in RunConfig().forms:
        nodes, limit = pole_gap_limit(form)
        engine = kronecker_lhs(form, TOL)
        closed = kronecker_rhs(form, 1e-13)
        print(f"form ({form.label}), closed value {closed.value:.15f}")
        for eps, g in nodes:
            print(f"  eps {eps:<10.6g} node {g.value:.15f} "
                  f"(off by {abs(g.value - closed.value):.2e})")
        same = engine.value == limit.value
        differ += not same
        err = abs(limit.value - closed.value)
        print(f"  extrapolated {limit.value:.15f}")
        print(f"  kronecker_lhs {engine.value:.15f} {'same' if same else 'DIFFERS'}")
        print(f"  true error {err:.2e} vs reported bound {limit.error_bound:.2e} "
              f"{'OK' if err <= limit.error_bound else 'VIOLATED'}\n")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

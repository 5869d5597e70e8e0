"""Show why the pole-gap limit needs extrapolation.

For each standard form, print the raw node values

    g(eps) = (sqrt(D) / 4 pi) Z(1 + eps) - zeta(2 (1 + eps) - 1)

on the halving ladder eps = 0.1 * 2^-k, k < 8, each from pole_gap at the
node tolerance kronecker_lhs(form, 1e-8) uses.  The raw sequence crawls
toward the limit at first order in eps; extrapolate_to_zero over the same
eight nodes lands within ~1e-12 of the closed form, and on the same value
kronecker_lhs returns.  The last column is the honest check:
|extrapolated - closed| against the reported bound.

Usage: python scripts/limit_table.py
"""

from thetaeval import BinaryQuadraticForm, extrapolate_to_zero, kronecker_rhs
from thetaeval.kronecker import pole_gap

FORMS = ((1.0, 0.0, 1.0), (2.0, -2.0, 1.0), (1.0, 0.0, 2.0), (1.0, 1.0, 1.0))
TOL = 1e-8
LADDER = tuple(0.1 * 2.0 ** -k for k in range(8))


def pole_gap_limit(form, ladder=LADDER):
    """The nodes g(eps) over the ladder, each to the TOL / 64 kronecker_lhs
    gives a node, and their limit at eps = 0."""
    nodes = [pole_gap(form, 1.0 + eps, TOL / 64.0) for eps in ladder]
    limit = extrapolate_to_zero(ladder, [g.value for g in nodes],
                                [g.error_bound for g in nodes])
    return nodes, limit


def main():
    for triple in FORMS:
        form = BinaryQuadraticForm(*triple)
        nodes, limit = pole_gap_limit(form)
        closed = kronecker_rhs(form, 1e-13)
        label = ",".join(f"{c:g}" for c in triple)
        print(f"form ({label}), closed value {closed.value:.15f}")
        for eps, g in zip(LADDER, nodes):
            print(f"  eps {eps:<10.6g} node {g.value:.15f} "
                  f"(off by {abs(g.value - closed.value):.2e})")
        err = abs(limit.value - closed.value)
        print(f"  extrapolated {limit.value:.15f}")
        print(f"  true error {err:.2e} vs reported bound {limit.error_bound:.2e} "
              f"{'OK' if err <= limit.error_bound else 'VIOLATED'}\n")


if __name__ == "__main__":
    main()

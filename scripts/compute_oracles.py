#!/usr/bin/env python3
"""Derive the frozen oracle constants used by the test suite.

Every number a test pins down as an "independent oracle" is produced
here by a method deliberately different from the library's own engines:
composite Simpson rules instead of tanh-sinh, raw partial sums with
integral tails instead of Euler-Maclaurin, Euler transforms instead of
Chebyshev acceleration.  Run this script to regenerate the constants and
their error analyses; the printed bounds justify the literals frozen in
tests/.

Methods
-------
I          composite Simpson, 10^6 panels per piece, u^3 substitution on
           the singular piece; the log t factor makes the raw integrand
           unbounded at 0, while 9 u^2 log(u) / cosh(u^3) vanishes there.
gamma      harmonic number H_n - log n minus the 1/(2n) - 1/(12 n^2)
           correction at n = 10^6; the next correction term bounds the
           truncation error.
zeta(3),   raw sums of n^-s to N = 10^6 plus the integral tail
zeta(4)    N^(1-s)/(s-1) minus the half-term N^(-s)/2; the first
           Euler-Maclaurin correction s/(12 N^(s+1)) bounds the error.
Catalan,   Euler transform (iterated forward averaging) of the
L'(1)      alternating series; the transform's final column decays by
           ~2x per extra row, and the bound is the last row gap.
erfc path  Gamma(1/2, 1) by Simpson on [1, 60] after t = 1 + w^2,
           which removes the t^(-1/2) kink's effect on high derivatives.
theta(i)   five terms of the defining series; the sixth is < 1e-21.
Z(3) of    raw sum of (x^2 + y^2)^-3 over the 10^8 points of the box
x^2 + y^2  max(|x|, |y|) <= 10^4, no tail term; the points outside have
           Q > 10^8, at most 8r of them on the ring of radius r, so the
           dropped part is below 2 10^-16.
"""

import math

import numpy as np


def simpson(f, a, b, panels):
    if panels % 2:
        panels += 1
    h = (b - a) / panels
    acc = f(a) + f(b)
    acc += 4.0 * math.fsum(f(a + (2 * k + 1) * h) for k in range(panels // 2))
    acc += 2.0 * math.fsum(f(a + 2 * k * h) for k in range(1, panels // 2))
    return acc * h / 3.0


def oracle_integral_I():
    # near piece: t in (0, 1], substitute t = u^3
    def near(u):
        if u == 0.0:
            return 0.0
        return 9.0 * u * u * math.log(u) / math.cosh(u ** 3)

    # far piece: t in [1, 60]; cosh t > e^59 / 2 beyond, and log t / cosh t
    # integrates to < 1e-23 there
    def far(t):
        return math.log(t) / math.cosh(t)

    val = (simpson(near, 0.0, 1.0, 1_000_000)
           + simpson(far, 1.0, 60.0, 1_000_000)) / math.pi
    # Simpson on the far piece: |f''''| < 8 on [1, 60], h = 5.9e-5
    # -> error < (b-a) h^4 / 180 * 8 ~ 3e-17.  The near piece loses
    # smoothness only through log u factors; empirically doubling panels
    # moves the value by < 2e-16.  Call the oracle good to 5e-15.
    return val, 5e-15


def oracle_euler_gamma():
    n = 1_000_000
    h = math.fsum(1.0 / k for k in range(1, n + 1))
    val = h - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n ** 2)
    return val, 1.0 / (120 * n ** 4) + 5e-15


def oracle_zeta(s):
    n = 1_000_000
    partial = math.fsum(float(k) ** -s for k in range(1, n + 1))
    val = partial + n ** (1.0 - s) / (s - 1.0) - 0.5 * n ** -s
    return val, s / (12.0 * n ** (s + 1.0)) + 5e-15


def euler_transform(terms):
    # sum (-1)^k a_k = sum_m (D^m a)[0] / 2^(m+1) with the forward
    # difference (D a)[i] = a[i] - a[i+1]
    row = list(terms)
    leading = []
    while row:
        leading.append(row[0])
        row = [row[i] - row[i + 1] for i in range(len(row) - 1)]
    val = math.fsum(leading[m] * 0.5 ** (m + 1) for m in range(len(leading)))
    gap = abs(leading[-1]) * 0.5 ** len(leading)
    return val, gap


def oracle_alternating(a, n_terms):
    # direct head plus Euler transform of the tail keeps the transform
    # in its regular regime
    head_len = 40
    head = math.fsum((-1.0) ** k * a(k) for k in range(head_len))
    tail_terms = [a(k) for k in range(head_len, head_len + n_terms)]
    tail, gap = euler_transform(tail_terms)
    # head has sign (+1)^head_len; head_len even, so the tail enters +
    return head + tail, gap + 5e-15


def oracle_gamma_half_one():
    # Gamma(1/2, 1) = integral of t^(-1/2) e^-t on [1, inf); t = 1 + w^2
    def g(w):
        t = 1.0 + w * w
        return 2.0 * w * t ** -0.5 * math.exp(-t)

    val = simpson(g, 0.0, 8.0, 400_000)
    return val, 1e-15  # e^-64 truncation is invisible; Simpson ~ 1e-16


def oracle_theta_at_i():
    val = 1.0 + 2.0 * math.fsum(math.exp(-math.pi * n * n) for n in range(1, 6))
    return val, math.exp(-math.pi * 36)


def oracle_unit_lattice_at_three():
    radius = 10_000
    y = np.arange(-radius, radius + 1, dtype=float)
    total = []
    for x0 in range(-radius, radius + 1, 500):
        x = np.arange(x0, min(x0 + 500, radius + 1), dtype=float)[:, None]
        q = x * x + y[None, :] * y[None, :]
        if x0 <= 0 <= x0 + 499:
            q[-x0, radius] = np.inf  # drop the origin
        total.append(float(np.sum(q ** -3.0)))
    # Dropped rings: sum over r > R of 8 r r^-6 < 2 R^-4.  Rounding: each
    # power is off by EPS/2 of itself and numpy's pairwise sum of a block's
    # 10^7 terms by at most 24 EPS/2 of the block, under 1.5e-14 of the
    # total ~4.66 together.
    return math.fsum(total), 2.0 * float(radius) ** -4 + 5e-14


def main():
    rows = []
    v, b = oracle_integral_I()
    rows.append(("I = (1/pi) int log t / cosh t", v, b))
    v, b = oracle_euler_gamma()
    rows.append(("euler gamma", v, b))
    v, b = oracle_zeta(3.0)
    rows.append(("zeta(3)", v, b))
    v, b = oracle_zeta(4.0)
    rows.append(("zeta(4)", v, b))
    v, b = oracle_alternating(lambda k: (2.0 * k + 1.0) ** -2.0, 60)
    rows.append(("Catalan = L(2)", v, b))
    v, b = oracle_alternating(
        lambda k: math.log(2.0 * k + 1.0) / (2.0 * k + 1.0) if k else 0.0, 60)
    rows.append(("-L'(1)", v, b))
    v, b = oracle_gamma_half_one()
    rows.append(("Gamma(1/2, 1)", v, b))
    v, b = oracle_theta_at_i()
    rows.append(("theta at i", v, b))
    v, b = oracle_unit_lattice_at_three()
    rows.append(("Z(3) of x^2 + y^2", v, b))

    for name, val, bound in rows:
        print(f"{name:35s} {val:.17g}  (oracle bound {bound:.2e})")


if __name__ == "__main__":
    main()

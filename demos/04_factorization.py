#!/usr/bin/env python3
"""Splitting a polynomial into two square-summable halves of equal boundary size.

Any polynomial with no zero on the unit circle factors as f = g*h where
|g| = |h| = |f|^(1/2) on the circle, so the boundary mean of |f| equals
||g||_2 ||h||_2 exactly.  h is the outer square root, rebuilt from
log|f| boundary data and halved in the exponent; it has no zeros in the
disk, so g = f/h is analytic and carries every zero inside.  No zero is
ever located: their number is read off as the winding number of f.  This
is the workhorse lemma that turns quadratic-norm statements into
mean-of-modulus statements.
"""

import numpy as np

from hardyhilbert import (
    AnalyticPoly,
    cauchy_product,
    factorization_report,
    hp_norm,
)

rng = np.random.default_rng(0)

print("=" * 70)
print("  RIESZ-STYLE FACTORIZATION f = g*h,  ||f||_1 = ||g||_2 ||h||_2")
print("=" * 70)

cases = {
    "z^2 (double zero at 0)": AnalyticPoly([0.0, 0.0, 1.0]),
    "(1 + z/2)^2 (outer square)": AnalyticPoly([1.0, 1.0, 0.25]),
    "constant 3+4i": AnalyticPoly([3.0 + 4.0j]),
}
for _ in range(2):
    d = int(rng.integers(3, 9))
    radii = np.where(rng.random(d) < 0.4, rng.uniform(0.1, 0.9, d), rng.uniform(1.1, 2.0, d))
    roots = radii * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
    cases[f"random degree {d} ({np.sum(radii < 1)} zeros inside)"] = \
        AnalyticPoly(np.poly(roots)[::-1])

for name, f in cases.items():
    rep = factorization_report(f)
    f1 = hp_norm(f, 1)
    prod = hp_norm(rep.g, 2) * hp_norm(rep.h, 2)
    print(f"\n{name}:")
    print(f"  deg f = {f.degree}, deg g = {rep.g.degree}, deg h = {rep.h.degree}, "
          f"zeros inside (winding) = {rep.blaschke_degree}")
    print(f"  ||f||_1 = {f1:.12f}   ||g||_2 ||h||_2 = {prod:.12f}   "
          f"defect = {abs(f1 - prod):.2e}")
    print(f"  grid residual |f - g h| = {rep.residual_max:.2e}")

print("\nNote the outer square: (1 + z/2)^2 recovers g = h = 1 + z/2 exactly,")
print("and z^2, all inner, factors as z^2 * 1: |z^2| = |1| = 1 on the circle.")

print()
print("=" * 70)
print("  WHY TRUNCATION IS UNAVOIDABLE")
print("=" * 70)
f = AnalyticPoly([1.0, 0.5])
rep = factorization_report(f)
print(f"f = 1 + z/2 is already zero-free, but its square root is an infinite")
print(f"series: the computed factors carry degree {rep.g.degree} tails that decay like")
print(f"2^-n.  Product check: max|f - g h| = {rep.residual_max:.2e}")
check = cauchy_product(rep.g.coeffs, rep.h.coeffs)[: 2]
print(f"leading product coefficients: {np.round(check, 12)}")

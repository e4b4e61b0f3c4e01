#!/usr/bin/env python3
"""Two best constants, one number: the coefficient Hankel matrix closes the loop.

For a weight sequence c, the bilinear-form constant is the spectral norm
of H[n,m] = c_{n+m} (per unit ||c||), estimated on nested truncations
B_N.  The weighted-sum constant is approached by ratios
hardy_sum(f, c) / (||c|| ||f||_1).  Feeding the top eigenvector v back as
the witness f = (sum v_n z^n)^2 makes the ratio reproduce B_N on the
nose: each side of the equivalence bounds the other, truncation by
truncation.  For the classic weights the scan climbs toward the classical
sharp ceiling pi without ever touching it.
"""

import numpy as np

from hardyhilbert import classic_sequence, equivalence_witness
from hardyhilbert.inequalities import best_constant_scan

print("=" * 70)
print("  HANKEL TRUNCATION SCAN  (classic weights 1/(n+m+1))")
print("=" * 70)

sizes = [2**j for j in range(1, 11)]
c = classic_sequence(2 * sizes[-1] - 1)
scan = best_constant_scan(c, sizes)
print(f"{'N':>6} {'B_N':>16} {'pi - B_N':>12} {'H products':>11}")
for est in scan:
    print(f"{est.N:>6} {est.value:>16.12f} {np.pi - est.value:>12.6f} {est.iterations:>11}")
print(f"\nmonotone up, always below pi = {np.pi:.12f}")

print()
print("=" * 70)
print("  EXTREMAL WITNESSES: the ratio side reproduces the matrix side")
print("=" * 70)
print(f"{'N':>4} {'matrix side':>16} {'witness ratio':>16} {'gap':>10}")
for N in (2, 8, 32, 128):
    rep = equivalence_witness(classic_sequence(2 * N - 1), N)
    print(f"{N:>4} {rep.matrix_norm:>16.12f} {rep.hardy_ratio:>16.12f} {rep.gap:>10.2e}")

print("\nAt N=2 the matrix side has a closed form (4 + sqrt(13))/6 =",
      f"{(4 + np.sqrt(13)) / 6:.12f}")

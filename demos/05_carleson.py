#!/usr/bin/env python3
"""Box measures over shrinking arcs: the geometric face of the inequality.

Build g(z) = sum c_n z^n from a weight sequence and integrate
(1 - r^2) |g'|^2 r dr dtheta over the box hanging below each subarc.
If the box mass stays proportional to arc length, the measure is
Carleson and g has bounded mean oscillation; the proportionality
constant (per ||c||^2) is what feeds the sum-side inequalities.

The sweep also compares its sup ratio with the proof-side value
2K ||c||^2 and records an exceedance as a finding: on the classic sequence
the measured constant exceeds it, which the comparison records without
explaining.  Boundedness of the sweep is the property that matters.

The report holds the sweep as columns, one entry per arc in family order
(lengths, centers, box integrals, ratios); the table below takes the
largest ratio of each length from them.
"""

import numpy as np

from hardyhilbert import (
    AnalyticPoly,
    Arc,
    K_LIMIT,
    XSequence,
    bmo_seminorm,
    carleson_constant,
    classic_sequence,
    k_constant,
    k_term,
    sweep_is_bounded,
)

print("=" * 70)
print("  THE FLOOR-POWER CONSTANT K")
print("=" * 70)
print(f"value at r = 1/2: {k_term(0.5):.12f}  (= 64/225)")
for rmax in (0.9, 0.99, 0.9999, 1 - 1e-6):
    scan = k_constant(rmax)
    label = f"sup over (0, {rmax}]"
    print(f"{label:<25}: {scan.value:.10f} at r = {scan.argmax_r:.8f}")
print(f"analytic r->1 limit      : {K_LIMIT:.10f}  (approached from below)")

print()
print("=" * 70)
print("  ONE BOX, EXACTLY")
print("=" * 70)
val = carleson_constant(XSequence([0, 1]), arc_family=[Arc(0, 1)]).box_integrals[0]
print(f"g = z over the full disk: {val:.15f}  vs  pi/2 = {np.pi / 2:.15f}")

print()
print("=" * 70)
print("  DYADIC SWEEP FOR THE CLASSIC SEQUENCE (N = 512)")
print("=" * 70)
c = classic_sequence(512)
report = carleson_constant(c, depth=10)
print(f"{'arc length':>12} {'max ratio':>12}")
for length in np.unique(report.lengths)[::-1]:
    ratio = report.ratios[report.lengths == length].max()
    print(f"{length:>12.6f} {ratio:>12.6f}")
print(f"\nsup ratio            : {report.sup_ratio:.6f}")
print(f"embedding estimate   : eta = sqrt(sup) = {report.eta_estimate:.6f}")
print(f"proof-side bound 2K  : {report.bound_2k:.6f}  (within: {report.passes_2k})")
if report.finding:
    print(f"finding              : {report.finding}")
print(f"bounded sweep        : {sweep_is_bounded(report)}")

print()
print("mean-oscillation lower bound for the same g:")
print(f"  bmo({512}-term classic) >= {bmo_seminorm(AnalyticPoly(c.values), 8):.6f}")
print("both numbers are reported side by side; no ratio between them is asserted.")

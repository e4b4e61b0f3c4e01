#!/usr/bin/env python3
"""Sequences that decay slower than 1/n yet stay inside the space.

The generator walks n = 1, 2, 3, ... keeping the running weighted sum
inside the linear budget beta*n.  Whenever the budget affords the next
power-law value n^{-r} it takes it; otherwise it falls back to 1/n.  The
power choice keeps recurring, so sup n^s c_n blows up for every s > r:
the space contains sequences with arbitrarily slow decay along a
subsequence, far beyond the classic 1/(n+1) rate.
"""

import numpy as np

from hardyhilbert import slow_decay_report, slow_decay_sequence

print("=" * 70)
print("  SLOW-DECAY GENERATOR: budget walk between n^-r and 1/n")
print("=" * 70)

for r, beta in ((0.6, 1.5), (0.75, 2.0), (0.9, 1.2)):
    N = 10**6
    trace = slow_decay_sequence(r, beta, N)
    report = slow_decay_report(trace, s=r + 0.1)
    cert, rep = report.certificate, report.infinitude
    print(f"\nr={r}, beta={beta}, N={N}:")
    print(f"  budget certificate: ok={cert.ok}, smallest slack {cert.min_margin:.3e} "
          f"at m={cert.argmin_index}")
    print(f"  power picks: {rep.power_count} (latest at n={rep.largest_power_index})")
    print(f"  exported norm {report.export_norm:.4f} <= 2*sqrt(beta) = {2*np.sqrt(beta):.4f}")
    print(f"  running max of n^{r + 0.1:.2f} * c_n per decade:")
    for d in rep.decades:
        mark = "power in decade" if d.contains_power else "no power"
        print(f"    n <= {d.bound:>8}: {d.running_max:10.6f}   ({mark})")

print("\nA harmonic-only sequence for contrast (c_n = 1/n, s = 0.8):")
print("the running max of n^0.8 c_n = n^{-0.2} never grows past its start,")
print("which is exactly what the power picks above keep breaking.")

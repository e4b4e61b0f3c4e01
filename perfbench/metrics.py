"""What each metric means and which end-to-end number it should move, where.

``BENCHMARK.json`` holds every metric's name, unit and direction; this file
holds the map a performance change cites: for each per-layer metric, the
end-to-end or per-job number it should move and on which workload.
``python3 perfbench/run.py --list`` prints both, joined by name.

End-to-end metrics are reported on every workload, so only those that every
workload has are end-to-end: ``setup_s``, ``wall_ref`` and ``peak_rss_mb``.
``wall_ref`` is the pass time in units of a reference kernel timed in the
same run (``reference.py``), because the host's speed drifts too much
between runs for seconds to compare; the pass time in seconds, ``wall_s``,
is reported with the per-layer metrics.
Per-job latencies (``carleson_s`` ...) exist only on the workloads that run
the job; they are reported with the per-layer metrics, taken from the
untraced jobs of the traced run, and read 0 where the job does not run.
``fail_frac`` is ``failed / attempted`` of the result line.
"""

END_TO_END = {
    "setup_s": "median of several fresh-process imports plus seeded input generation "
               "(no oracle work)",
    "wall_ref": "one full pass of the job list (wall_s) divided by the mean time of the "
                "workload's reference kernel in the same run, tracing off",
    "wall_s": "one full pass of the job list: sum over its jobs of the mean latency of each "
              "job's kind without its first call, tracing off",
    "peak_rss_mb": "peak resident set of the benchmark process after the first pass",
}

JOBS = {
    "carleson_s": ("one depth-12 sweep, mean over the four sweeps", "carleson-sweep"),
    "kconst_s": ("kconst --rmax 0.999999", "carleson-sweep"),
    "scan_s": ("hilbert-norm scan 2..8192 on classic", "best-constants"),
    "equiv_s": ("equiv --n 4096", "best-constants"),
    "slowdecay_s": ("slowdecay --n 10^6 as JSON, mean over the three c10 pairs", "certify"),
    "csv_write_s": ("slowdecay --n 3*10^5 --format csv --out", "certify"),
    "csv_read_s": ("xnorm of that 3*10^5-row CSV", "certify"),
    "suite_s": ("suite --seed <seed>", "certify"),
    "factorize_batch_s": ("factorize --out-g --out-h on 20 polynomials, summed", "certify"),
    "hardy_check_batch_s": ("hardy-check on 30 polynomials, summed", "certify"),
}

# layer metric -> (what it should move, on which workloads)
LAYERS = {
    "bmoa.carleson_box_integral": ("carleson_s, wall_ref on carleson-sweep; suite_s on certify "
                                   "(nodes = radial x angular x degree); absent on best-constants"),
    "bmoa.carleson_constant": "carleson_s, wall_ref on carleson-sweep; suite_s on certify",
    "bmoa.k_constant": "kconst_s on carleson-sweep; suite_s on certify (k_constant(0.999) per case)",
    "bmoa.bmo_seminorm": "suite_s on certify",
    "bmoa.sweep_is_bounded": "suite_s on certify; carleson_s on carleson-sweep",
    "inequalities.hankel_matvec": ("scan_s, equiv_s, wall_ref on best-constants (ops = N^2 direct, "
                                   "L log2 L fft); near zero on certify, absent on carleson-sweep"),
    "inequalities.matrix_norm": "scan_s, equiv_s, wall_ref on best-constants; near zero on certify",
    "inequalities.equivalence_witness": "equiv_s on best-constants; suite_s on certify",
    "inequalities.hardy_degree_bound_check": "hardy_check_batch_s, suite_s on certify",
    "inequalities.hilbert_form": "suite_s on certify",
    "hardyspace.cauchy_product": "equiv_s on best-constants; suite_s on certify",
    "hardyspace.hp_norm": ("equiv_s on best-constants (trapezoid, degree 8190); hardy_check_batch_s, "
                           "suite_s on certify (panel route); fallback = a p=1 call that "
                           "needed AnalyticPoly.roots"),
    "hardyspace.factorization_report": "factorize_batch_s, suite_s on certify",
    "hardyspace.boundary_grid": "factorize_batch_s, suite_s on certify",
    "hardyspace.AnalyticPoly.roots": "factorize_batch_s, hardy_check_batch_s, suite_s on certify",
    "hardyspace.read_polynomial_csv": "factorize_batch_s, hardy_check_batch_s on certify",
    "hardyspace.write_polynomial_csv": "factorize_batch_s on certify",
    "seqspace.slow_decay_sequence": ("slowdecay_s, csv_write_s on certify; setup_s on "
                                     "carleson-sweep and best-constants"),
    "seqspace.verify_margins": "slowdecay_s, csv_write_s on certify",
    "seqspace.infinitude_report": "slowdecay_s, csv_write_s on certify",
    "seqspace.XSequence": "csv_read_s on certify; setup_s elsewhere",
    "seqspace.read_sequence_csv": "csv_read_s on certify; carleson_s, scan_s (file inputs) elsewhere",
    "harness.run_suite": "suite_s on certify",
    "harness.sample_polynomial": "suite_s on certify",
    "harness.sample_xsequence": "suite_s on certify",
    "cli.main": ("csv_write_s, csv_read_s, peak_rss_mb on certify (self = parsing plus CSV/JSON "
                 "formatting and writing); near zero elsewhere"),
    "trace": ("overhead_s = traced minus untraced wall_s; unattributed_s = traced time per pass "
              "minus the layers' self time; wall_s = traced pass time"),
    "box_rel_err": ("largest relative error of reported box integrals against the closed form, "
                    "floored at 1e-12; carleson-sweep only, 0 elsewhere"),
}

NOTES = [
    "harness calls the private bmoa._box_integral_slab directly: that quadrature is "
    "harness.run_suite self time",
    "private helpers are not wrapped: their time is self time of the public caller",
]


def describe(name: str) -> str:
    """The map entry for a metric name, or '' if the name has none."""
    if name in END_TO_END:
        return END_TO_END[name]
    if name in JOBS:
        what, where = JOBS[name]
        return f"per-job latency: {what}; {where} only, 0 elsewhere"
    layer = name.rsplit(".", 1)[0]
    return LAYERS.get(layer, LAYERS.get(name, ""))

"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances and runtime budgets are pinned here, not configurable.
"""

import time

import numpy as np

from hardyhilbert import (
    AnalyticPoly,
    SuiteConfig,
    carleson_constant,
    cauchy_product,
    classic_sequence,
    equivalence_witness,
    factorization_report,
    hardy_degree_bound_check,
    hardy_ratio,
    hardy_sum,
    hilbert_form,
    hp_norm,
    k_constant,
    k_term,
    matrix_norm,
    prefix_ratios,
    run_suite,
    sample_polynomial,
    sample_xsequence,
    slow_decay_report,
    slow_decay_sequence,
    sweep_is_bounded,
    trace_to_xsequence,
    xnorm,
)
from hardyhilbert.inequalities import DENSE_EIGEN, best_constant_scan

K_LIMIT_VALUE = (1.0 - np.exp(-2.0)) ** -2
CLASSIC_N2 = (4.0 + np.sqrt(13.0)) / 6.0


def _line(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_c01_classic_unit_norm():
    t0 = time.monotonic()
    worst = 0.0
    for N in (10, 10**3, 10**5):
        c = classic_sequence(N)
        worst = max(worst, abs(xnorm(c) - 1.0), float(np.abs(prefix_ratios(c) - 1.0).max()))
    elapsed = time.monotonic() - t0
    _line(1, worst <= 1e-14 and elapsed < 1.0,
          f"classic norm/ratio deviation {worst:.2e} (tol 1e-14), {elapsed:.2f}s < 1s")


def test_c02_bridge_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(1000):
        a = rng.random(int(rng.integers(1, 65)))
        b = rng.random(int(rng.integers(1, 65)))
        c = sample_xsequence(rng, a.size + b.size - 1)
        direct = hilbert_form(a, b, c)
        via_product = hardy_sum(AnalyticPoly(cauchy_product(a, b)), c)
        worst = max(worst, abs(direct - via_product) / max(abs(via_product), 1e-300))
    elapsed = time.monotonic() - t0
    _line(2, worst <= 1e-12 and elapsed < 5.0,
          f"1000 pairs, worst relative gap {worst:.2e} (tol 1e-12), {elapsed:.2f}s < 5s")


def test_c03_equivalence_witness():
    t0 = time.monotonic()
    worst_gap = 0.0
    for N in (2, 16, 64, 256):
        rep = equivalence_witness(classic_sequence(2 * N - 1), N, M=2**16)
        assert rep.estimate.converged
        worst_gap = max(worst_gap, rep.gap)
        if N == 2:
            closed_form_err = abs(rep.matrix_norm - CLASSIC_N2)
            assert closed_form_err <= 1e-10
        if N == 256:
            dense = matrix_norm(classic_sequence(2 * N - 1), N, DENSE_EIGEN)
            assert abs(rep.hardy_ratio - dense.value) <= 1e-6
    elapsed = time.monotonic() - t0
    _line(3, worst_gap <= 1e-6 and elapsed < 30.0,
          f"worst witness gap {worst_gap:.2e} (tol 1e-6), N=2 matches closed form, "
          f"{elapsed:.2f}s < 30s")


def test_c04_monotone_pi_bounded_constants():
    t0 = time.monotonic()
    sizes = [2**j for j in range(1, 11)]
    c = classic_sequence(2 * sizes[-1] - 1)
    scan = best_constant_scan(c, sizes)
    values = [e.value for e in scan]
    strictly_increasing = all(b > a for a, b in zip(values, values[1:]))
    below_pi = all(v < np.pi for v in values)
    converged = all(e.converged for e in scan)
    agreement = 0.0
    for est in scan:
        if est.N <= 512:
            dense = matrix_norm(c, est.N, DENSE_EIGEN)
            converged &= dense.converged
            agreement = max(agreement, abs(est.value - dense.value))
    elapsed = time.monotonic() - t0
    _line(4, strictly_increasing and below_pi and converged and agreement <= 1e-10
          and elapsed < 60.0,
          f"strictly increasing={strictly_increasing}, max={values[-1]:.6f} < pi, "
          f"both routes converged={converged}, "
          f"dense/Lanczos agreement {agreement:.2e} (tol 1e-10), {elapsed:.2f}s < 60s")


def test_c05_quadrature_exactness():
    t0 = time.monotonic()
    one_plus_z = abs(hp_norm(AnalyticPoly([1.0, 1.0]), 1) - 4.0 / np.pi)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 33))
        radii = np.where(rng.random(d) < 0.5,
                         rng.uniform(0.0, 0.95, d), rng.uniform(1.05, 2.0, d))
        roots = radii * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, d))
        g = AnalyticPoly(np.poly(roots)[::-1])
        g = AnalyticPoly(g.coeffs / hp_norm(g, 2))
        f = AnalyticPoly(cauchy_product(g.coeffs, g.coeffs))
        worst = max(worst, abs(hp_norm(f, 1) - hp_norm(g, 2) ** 2))
    elapsed = time.monotonic() - t0
    _line(5, one_plus_z <= 1e-10 and worst <= 1e-10,
          f"|mean|1+z| - 4/pi| = {one_plus_z:.2e} at M=4096, worst square defect "
          f"{worst:.2e} (tol 1e-10), {elapsed:.2f}s")


def test_c06_factorization_contract():
    t0 = time.monotonic()
    rng = np.random.default_rng(6)
    worst_resid = worst_defect = 0.0
    for _ in range(100):
        f = sample_polynomial(rng, int(rng.integers(1, 13)))
        rep = factorization_report(f)
        worst_resid = max(worst_resid, rep.residual_max / hp_norm(f, 2))
        worst_defect = max(worst_defect, rep.norm_defect / hp_norm(f, 1))
    elapsed = time.monotonic() - t0
    _line(6, worst_resid <= 1e-8 and worst_defect <= 1e-8 and elapsed < 60.0,
          f"100 sampled inputs, worst residual {worst_resid:.2e}, worst norm defect "
          f"{worst_defect:.2e} (tol 1e-8), {elapsed:.2f}s < 60s")


def test_c07_degree_bound():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst = -np.inf
    for _ in range(200):
        f = sample_polynomial(rng, int(rng.integers(1, 11)))
        c = sample_xsequence(rng, 2 * f.degree + 1)
        check = hardy_degree_bound_check(f, c)
        assert not check.skipped
        assert check.holds
        bound = (matrix_norm(c, f.degree + 1).value / xnorm(c)) * (1.0 + 1e-8)
        worst = max(worst, hardy_ratio(f, c) - bound)
    elapsed = time.monotonic() - t0
    _line(7, worst <= 0.0,
          f"200 pairs, worst ratio-over-bound margin {worst:.2e} (must be <= 0), "
          f"{elapsed:.2f}s")


def test_c08_k_constant():
    scan = k_constant(1.0 - 1e-6)
    limit_gap = abs(scan.value - K_LIMIT_VALUE)
    at_half = abs(k_term(0.5) - 64.0 / 225.0)
    _line(8, limit_gap <= 1e-3 and at_half <= 1e-14,
          f"grid-vs-limit gap {limit_gap:.2e} (tol 1e-3), value at 1/2 off by "
          f"{at_half:.2e} (tol 1e-14)")


def test_c09_carleson_boundedness():
    t0 = time.monotonic()
    sequences = {
        "classic": classic_sequence(1024),
        "slow(0.6,1.5)": trace_to_xsequence(slow_decay_sequence(0.6, 1.5, 1023)),
        "slow(0.75,2.0)": trace_to_xsequence(slow_decay_sequence(0.75, 2.0, 1023)),
    }
    all_bounded = True
    notes = []
    for name, c in sequences.items():
        report = carleson_constant(c, depth=12, centers_per_length=8)
        bounded = sweep_is_bounded(report)
        all_bounded = all_bounded and bounded
        notes.append(f"{name}: sup={report.sup_ratio:.3f} 2K||c||^2={report.bound_2k:.3f} "
                     f"within_2k={report.passes_2k} bounded={bounded}")
        if report.finding:
            print(f"  finding[{name}]: {report.finding}")
    elapsed = time.monotonic() - t0
    _line(9, all_bounded and elapsed < 120.0,
          "; ".join(notes) + f"; {elapsed:.1f}s < 120s")


def test_c10_slow_decay_large_scale():
    t0 = time.monotonic()
    ok = True
    notes = []
    for r, beta in ((0.6, 1.5), (0.75, 2.0), (0.9, 1.2)):
        trace = slow_decay_sequence(r, beta, 10**6)
        full = slow_decay_report(trace, s=r + 0.1)
        margins_ok = full.certificate.ok
        report = full.infinitude
        shorter = slow_decay_sequence(r, beta, 10**5)
        count_short = sum(int(np.sum(flags == 1)) for flags in shorter.choice())
        grows = report.power_count > count_short
        beyond = report.largest_power_index > 10**5
        ok = ok and margins_ok and grows and beyond and report.increasing_over_power_decades
        notes.append(f"(r={r},b={beta}): margins_ok={margins_ok} count {count_short}->"
                     f"{report.power_count} largest={report.largest_power_index} "
                     f"decades_increasing={report.increasing_over_power_decades}")
    elapsed = time.monotonic() - t0
    _line(10, ok and elapsed < 30.0, "; ".join(notes) + f"; {elapsed:.1f}s < 30s")


def test_c11_suite_determinism():
    config = SuiteConfig(seed=2026)
    first = run_suite(config)
    second = run_suite(SuiteConfig(seed=2026))
    identical = first.to_json() == second.to_json()
    _line(11, identical and first.passed,
          f"byte-identical reports={identical}, zero failures={first.passed}")

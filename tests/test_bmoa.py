import math
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest

from hardyhilbert import bmoa
from hardyhilbert.bmoa import (
    Arc,
    K_LIMIT,
    bmo_seminorm,
    carleson_constant,
    dyadic_arc_family,
    k_constant,
    k_term,
    sweep_is_bounded,
)
from hardyhilbert.hardyspace import AnalyticPoly
from hardyhilbert.seqspace import (
    XSequence,
    classic_sequence,
    slow_decay_sequence,
    trace_to_xsequence,
)


class TestArc:
    def test_center_wrapped(self):
        assert Arc(2.5 * np.pi, 0.5).center == pytest.approx(0.5 * np.pi)

    def test_length_validated(self):
        with pytest.raises(ValueError):
            Arc(0.0, 0.0)
        with pytest.raises(ValueError):
            Arc(0.0, 1.5)

    def test_dyadic_family_shape(self):
        arcs = dyadic_arc_family(3, centers_per_length=4)
        assert len(arcs) == 1 + 3 * 4
        lengths = sorted({a.length_norm for a in arcs}, reverse=True)
        assert lengths == [1.0, 0.5, 0.25, 0.125]

    @pytest.mark.parametrize("centers", [0, -2])
    def test_dyadic_family_needs_a_center(self, centers):
        with pytest.raises(ValueError, match="centers per length"):
            dyadic_arc_family(0, centers_per_length=centers)


def scan_k_constant(r_max):
    """Independent oracle: the K expression sampled at 4 points of every
    floor-constancy interval up to r_max, right endpoints (with the
    interval's own m) included, in chunks of 200k intervals."""
    m_max = int(math.floor(1.0 / (1.0 - r_max)))
    t = np.linspace(0.0, 1.0, 4)
    best = 0.0
    chunk = 200_000
    for start in range(1, m_max + 1, chunk):
        m = np.arange(start, min(start + chunk, m_max + 1), dtype=float)
        lefts = 1.0 - 1.0 / m
        rights = np.minimum(1.0 - 1.0 / (m + 1.0), r_max)
        r = lefts[:, None] * (1.0 - t) + rights[:, None] * t
        with np.errstate(divide="ignore"):
            rp = np.exp(2.0 * m[:, None] * np.log(np.maximum(r, 1e-300)))
        phi = np.where(r > 0.0, (r / (1.0 - rp)) ** 2, 0.0)
        best = max(best, float(phi.max()))
    return best


def decimal_k_constant(r_max):
    """Independent oracle where no scan can reach: both candidates of the
    closed form, f(m_max - 1) and phi_{m_max}(r_max), in 40-digit decimals."""
    m_max = math.floor(1.0 / (1.0 - r_max))
    with localcontext() as ctx:
        ctx.prec = 40

        def phi(m, r):
            return (r / (1 - (2 * m * r.ln()).exp())) ** 2

        candidates = [phi(m_max, Decimal(r_max))]
        if m_max > 1:
            candidates.append(phi(m_max - 1, Decimal(m_max - 1) / m_max))
        return float(max(candidates))


class TestKConstant:
    def test_value_at_one_half(self):
        assert k_term(0.5) == pytest.approx(64.0 / 225.0, abs=1e-16)

    def test_vanishes_at_zero(self):
        assert k_term(0.0) == 0.0
        assert k_constant(1e-3).value < 1e-5

    def test_limit_value(self):
        assert K_LIMIT == pytest.approx((1.0 - np.exp(-2.0)) ** -2, abs=1e-16)

    def test_approaches_limit_from_below(self):
        scan = k_constant(1.0 - 1e-6)
        assert scan.value < K_LIMIT
        assert K_LIMIT - scan.value < 1e-3
        assert scan.limit == K_LIMIT

    def test_monotone_in_rmax(self):
        values = [k_constant(r).value for r in (0.5, 0.9, 0.99, 0.999)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_never_exceeds_limit(self):
        scan = k_constant(1.0 - 1e-6)
        assert scan.value <= K_LIMIT * (1.0 + 1e-9)

    def test_grid_max_matches_pointwise_scan(self):
        # oracle: dense uniform sampling of the raw expression
        r = np.linspace(1e-4, 0.97, 40001)
        brute = max(k_term(float(x)) for x in r)
        assert k_constant(0.97).value == pytest.approx(brute, rel=1e-3)

    @pytest.mark.parametrize("r_max", [1e-3, 0.3, 0.5, 0.75, 0.9, 0.97, 0.99, 0.999,
                                       1.0 - 1e-6])
    def test_matches_interval_scan(self, r_max):
        assert k_constant(r_max).value == pytest.approx(scan_k_constant(r_max), rel=1e-9)

    @pytest.mark.parametrize("gap", [10.0**-e * s for e in (6, 9, 12, 15) for s in (1.0, 3.7)])
    def test_matches_decimal_oracle_near_one(self, gap):
        r_max = 1.0 - gap
        assert k_constant(r_max).value == pytest.approx(decimal_k_constant(r_max), rel=1e-14)

    @pytest.mark.parametrize("r_max", [2.0**-54, 1e-17, 1e-300])
    def test_matches_decimal_oracle_below_epsilon(self, r_max):
        # r_max - 1 rounds to -1 here, so phi_1(r_max) must not take log1p of it
        assert k_constant(r_max).value == pytest.approx(decimal_k_constant(r_max), rel=1e-14)

    def test_right_end_limits_increase(self):
        # the lemma behind the closed form: f(m) strictly increases in m
        m = np.arange(1.0, 10.0**6 + 1)
        f = ((m / (m + 1)) / -np.expm1(2 * m * np.log1p(-1 / (m + 1)))) ** 2
        assert (np.diff(f) > 0).all()
        assert f[-1] < K_LIMIT

    def test_candidates_and_argmax(self):
        # one interval: the value at r_max itself
        scan = k_constant(0.3)
        assert scan.m_max == 1
        assert (scan.value, scan.argmax_r) == ((0.3 / (1 - 0.3**2)) ** 2, 0.3)
        # at the left end of interval 2 the left limit of interval 1 wins
        scan = k_constant(0.5)
        assert scan.m_max == 2
        assert scan.value == pytest.approx(4.0 / 9.0, rel=1e-15)
        assert scan.value > k_term(0.5)
        assert scan.argmax_r == 0.5
        # inside interval 4 the left limit of interval 3 still wins ...
        scan = k_constant(0.76)
        assert scan.value == pytest.approx((0.75 / (1 - 0.75**6)) ** 2, rel=1e-15)
        assert (scan.m_max, scan.argmax_r) == (4, 0.75)
        # ... and near its right end the value at r_max does
        scan = k_constant(0.795)
        assert scan.value == pytest.approx((0.795 / (1 - 0.795**8)) ** 2, rel=1e-15)
        assert (scan.m_max, scan.argmax_r) == (4, 0.795)

    # 1 - 2^-40 is the left end of interval 2^40, where the left limit wins
    @pytest.mark.parametrize("r_max", [1.0 - 1e-12, 1.0 - 2.0**-40])
    def test_near_one_is_cheap_and_below_limit(self, r_max):
        t0 = time.perf_counter()
        scan = k_constant(r_max)
        assert time.perf_counter() - t0 < 0.01
        assert scan.m_max > 10**11
        assert scan.value <= K_LIMIT
        assert K_LIMIT - scan.value < 1e-9

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            k_constant(1.0)
        with pytest.raises(ValueError):
            k_constant(0.0)


def box(values, arc):
    """One box integral, read off a single-arc sweep."""
    return carleson_constant(XSequence(values), arc_family=[arc]).records[0].box_integral


def tensor_gauss_box(coeffs, arc, points=400):
    """Independent oracle: tensor Gauss-Legendre rule over R(I) at high resolution."""
    def nodes(lo, hi):
        x, w = np.polynomial.legendre.leggauss(points)
        half = 0.5 * (hi - lo)
        return lo + half * (x + 1.0), w * half

    dg = np.arange(1, len(coeffs)) * np.asarray(coeffs[1:], dtype=float)
    r, wr = nodes(1.0 - arc.length_norm, 1.0)
    half_width = np.pi * arc.length_norm
    theta, wt = nodes(arc.center - half_width, arc.center + half_width)
    k = np.arange(dg.size)
    values = (dg * np.power.outer(r, k)) @ np.exp(1j * np.outer(k, theta))
    return float(np.einsum("i,j,ij->", (1.0 - r**2) * r * wr, wt, np.abs(values) ** 2))


def radial_factor(s, length):
    r0 = 1.0 - length
    return (1.0 - r0**s) / s - (1.0 - r0 ** (s + 2)) / (s + 2)


class TestBoxIntegral:
    def test_constant_function_vanishes(self):
        assert box([5.0], Arc(1.0, 0.5)) == 0.0

    def test_identity_over_full_circle(self):
        # analytic antiderivative: 2*pi*(1/2 - 1/4) = pi/2
        assert box([0.0, 1.0], Arc(0.0, 1.0)) == pytest.approx(np.pi / 2.0, rel=1e-12)

    def test_full_arc_closed_form_classic(self):
        c = classic_sequence(1024)
        k = np.arange(1, 1024, dtype=float)
        exact = np.pi * np.sum(k * c.values[1:] ** 2 / (k + 1.0))
        assert box(c.values, Arc(0.0, 1.0)) == pytest.approx(exact, rel=1e-12)

    def test_monomial_partial_arc(self):
        # z^k: |g'|^2 = k^2 r^(2k-2) has no angular dependence
        for k in (1, 3, 10):
            for length in (0.5, 0.125, 2.0**-9):
                values = np.zeros(k + 1)
                values[k] = 1.0
                exact = 2.0 * np.pi * length * k**2 * radial_factor(2 * k, length)
                assert box(values, Arc(0.7, length)) == pytest.approx(exact, rel=1e-12)

    def test_matches_high_resolution_tensor_gauss(self):
        coeffs = np.random.default_rng(5).uniform(0.0, 1.0, 13)   # degree 12
        for arc in (Arc(0.0, 1.0), Arc(1.1, 0.5), Arc(4.0, 0.125)):
            assert box(coeffs, arc) == pytest.approx(tensor_gauss_box(coeffs, arc), rel=1e-12)

    def test_rotation_invariance_for_monomial(self):
        vals = [box([0.0, 1.0], Arc(c, 0.25)) for c in (0.0, 1.0, 4.5)]
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[0] == pytest.approx(vals[2], rel=1e-12)

    def test_degree_two_homogeneity(self):
        coeffs = np.array([0.5, 1.0, 0.25])
        arc = Arc(0.3, 0.125)
        assert box(3.0 * coeffs, arc) == pytest.approx(9.0 * box(coeffs, arc), rel=1e-12)


def exact_radial_factor_errors(k, approx):
    """Relative errors of approx[s - 2] against R_L(s) for s = 2..len(approx)+1,
    L = 2^-k, in exact integers: r0 = a / 2^k with a = 2^k - 1, so

        R_L(s) = ((s+2)(2^{k(s+2)} - 2^{2k} a^s) - s(2^{k(s+2)} - a^{s+2}))
                 / (s (s+2) 2^{k(s+2)})."""
    a, errors = (1 << k) - 1, []
    power = a * a                                  # a^s
    for s, value in enumerate(map(float, approx), start=2):
        top = 1 << (k * (s + 2))
        num = (s + 2) * (top - (power << 2 * k)) - s * (top - power * a * a)
        den = s * (s + 2) * top
        m, d = value.as_integer_ratio()
        errors.append(abs(m * den - num * d) / (num * d))
        power *= a
    return errors


class TestRadialFactors:
    def test_deep_arcs_against_exact_rationals(self):
        # the difference form loses log2(1/L) bits: 9.9e-13 at 2^-12, 2.6e-7 at 2^-30
        for k in range(4, 31):
            R = bmoa._radial_factors(np.array([2.0**-k]), 1024)[0]   # s = 2..2048
            assert max(exact_radial_factor_errors(k, R)) <= 2e-15, k

    def test_shallow_and_full_arcs(self):
        lengths = np.array([1.0, 0.5, 0.25, 0.125])
        R = bmoa._radial_factors(lengths, 1024)
        s = np.arange(2, 2049, dtype=float)
        assert np.array_equal(R[0], 2.0 / (s * (s + 2.0)))
        for k in (1, 2, 3):
            assert max(exact_radial_factor_errors(k, R[k])) <= 2e-15, k


def diagonal_box_integrals(values, arcs):
    """Oracle for the blocked engine: each distinct length's diagonal sums
    D[m] = sum_j b_j b_{j+m} R(2j+m) from one einsum over strided n x n views,
    then the same per-arc closed form."""
    a = np.asarray(values, dtype=float)
    out = np.zeros(len(arcs))
    n = a.size - 1
    if n < 1:
        return out
    b = np.arange(1, n + 1) * a[1:]
    b_pad = np.concatenate([b, np.zeros(n)])
    step = b_pad.strides[0]
    shifted = np.lib.stride_tricks.as_strided(b_pad, shape=(n, n), strides=(step, step))
    s = np.arange(2, 3 * n + 2, dtype=float)
    m = np.arange(1, n)
    lengths = np.array([arc.length_norm for arc in arcs])
    for length in np.unique(lengths):
        if length >= 1.0:
            one_minus = np.ones_like(s)
        else:
            one_minus = -np.expm1(s * math.log1p(-length))
        R = one_minus[:-2] / s[:-2] - one_minus[2:] / s[2:]
        R_diag = np.lib.stride_tricks.as_strided(R, shape=(n, n), strides=(step, 2 * step))
        D = np.einsum("j,mj,mj->m", b, shifted, R_diag)
        weights = 4.0 * D[1:] * np.sin(np.pi * np.mod(m * length, 2.0)) / m
        for i in np.flatnonzero(lengths == length):
            out[i] = 2.0 * np.pi * length * D[0] + weights @ np.cos(m * arcs[i].center)
    return out


def _oracle_cases():
    rng = np.random.default_rng(2026)
    yield "classic-1024", classic_sequence(1024).values, dyadic_arc_family(12)
    r, beta = rng.uniform(0.5, 1.0), rng.uniform(1.05, 3.0)
    slow = trace_to_xsequence(slow_decay_sequence(r, beta, 800))
    yield "slow-decay", slow.values, dyadic_arc_family(10)
    # n = len(values) - 1 weighted terms, both parities of n
    for n in (1, 2, 3, 4, 5, 17, 96):
        arcs = dyadic_arc_family(6, centers_per_length=3) + [
            Arc(rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.01, 1.0)) for _ in range(4)]
        yield f"random-{n}", rng.standard_normal(n + 1), arcs


ORACLE_CASES = list(_oracle_cases())


class TestBlockedBoxIntegrals:
    @pytest.mark.parametrize("block", [None, 64])
    @pytest.mark.parametrize("case", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_matches_diagonal_oracle(self, monkeypatch, block, case):
        # block 64 splits n = 96 and n = 1024 into many trimmed row blocks
        if block is not None:
            monkeypatch.setattr(bmoa, "_BLOCK", block)
        _, values, arcs = case
        expected = diagonal_box_integrals(values, arcs)
        got = bmoa._box_integrals(values, arcs)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


class TestCarlesonConstant:
    def test_zero_sequence_all_zero(self):
        report = carleson_constant(XSequence(np.zeros(8)), depth=3, centers_per_length=2)
        assert report.sup_ratio == 0.0
        assert report.passes_2k
        assert report.eta_estimate == 0.0
        assert report.finding == ""

    def test_classic_bounded_sweep(self):
        report = carleson_constant(classic_sequence(96), depth=6, centers_per_length=4)
        assert np.isfinite(report.sup_ratio)
        assert sweep_is_bounded(report)
        assert report.bound_2k == pytest.approx(2.0 * K_LIMIT, rel=1e-12)
        # the proof-side constant undercounts on the classic sequence;
        # the exceedance is reported as a finding, not an error
        assert not report.passes_2k
        assert "exceeds" in report.finding

    def test_ratio_scaling(self):
        c = classic_sequence(48)
        lam = 1.7
        base = carleson_constant(c, depth=4, centers_per_length=2)
        scaled = carleson_constant(XSequence(lam * c.values), depth=4, centers_per_length=2)
        for r, s in zip(base.records, scaled.records):
            assert s.ratio == pytest.approx(lam**2 * r.ratio, rel=1e-11)
        assert scaled.eta_estimate == pytest.approx(lam * base.eta_estimate, rel=1e-11)

    def test_report_schema(self):
        report = carleson_constant(classic_sequence(16), depth=2, centers_per_length=2)
        family = dyadic_arc_family(2, 2)
        assert [r.arc for r in report.records] == family
        assert all(r.ratio == r.box_integral / r.arc.length_norm for r in report.records)
        assert report.sup_ratio == max(r.ratio for r in report.records)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            carleson_constant(classic_sequence(4), arc_family=[])

    def test_long_sequence_refused_before_the_sweep(self):
        c = XSequence(np.full(bmoa.CARLESON_N_CAP + 1, 1e-3))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"exceeds the Carleson sweep cap CARLESON_N_CAP "
                                             f"= {bmoa.CARLESON_N_CAP}"):
            carleson_constant(c, depth=12)
        assert time.perf_counter() - start < 1.0

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(bmoa, "CARLESON_N_CAP", 8)
        assert carleson_constant(classic_sequence(8), depth=2).sup_ratio > 0
        with pytest.raises(ValueError, match="sequence length 9 exceeds"):
            carleson_constant(classic_sequence(9), depth=2)


class TestBmoSeminorm:
    def test_constant_vanishes(self):
        assert bmo_seminorm(AnalyticPoly([3.0 + 1j]), 4, 1024) == pytest.approx(0.0, abs=1e-13)

    def test_homogeneity(self):
        g = AnalyticPoly(classic_sequence(12).values)
        assert bmo_seminorm(AnalyticPoly(2.5 * g.coeffs), 4, 2048) == pytest.approx(
            2.5 * bmo_seminorm(g, 4, 2048), rel=1e-12)

    def test_identity_depth_stability(self):
        g = AnalyticPoly([0.0, 1.0])
        v6 = bmo_seminorm(g, 6, 8192)
        assert v6 == bmo_seminorm(g, 6, 8192)  # deterministic rerun
        v8 = bmo_seminorm(g, 8, 32768)
        assert abs(v6 - v8) <= 0.05 * v8
        assert v6 == pytest.approx(1.0, rel=1e-12)  # whole-circle mean of |z - 0|

    def test_rotation_by_half_turn_invariant(self):
        g = AnalyticPoly(classic_sequence(10).values)
        twist = np.exp(1j * np.pi * np.arange(10))
        rotated = AnalyticPoly(g.coeffs * twist)
        assert bmo_seminorm(rotated, 3, 1024) == pytest.approx(
            bmo_seminorm(g, 3, 1024), rel=1e-12)

    def test_depth_resolution_guard(self):
        with pytest.raises(ValueError):
            bmo_seminorm(AnalyticPoly([0.0, 1.0]), 10, 1024)  # 1024/2^10 = 1 < 8


class TestSweepBoundedCriterion:
    def _report_with_ratios(self, per_depth):
        records = []
        for j, ratio in enumerate(per_depth):
            L = 2.0 ** -j
            records.append(type("R", (), {"arc": Arc(0.0, L), "ratio": ratio,
                                          "box_integral": ratio * L})())
        rep = carleson_constant(classic_sequence(4), arc_family=[Arc(0.0, 1.0)])
        rep.records = records
        return rep

    def test_flat_profile_bounded(self):
        assert sweep_is_bounded(self._report_with_ratios([1.0] * 13))

    def test_divergent_tail_detected(self):
        ratios = [1.0] * 7 + [10.0, 20.0, 40.0, 80.0, 160.0, 320.0]
        assert not sweep_is_bounded(self._report_with_ratios(ratios))

    def test_shallow_sweep_vacuous(self):
        assert sweep_is_bounded(self._report_with_ratios([1.0, 2.0, 4.0]))

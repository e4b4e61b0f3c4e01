import math
import time
from dataclasses import replace
from decimal import Decimal, getcontext, localcontext

import numpy as np
import pytest

from hardyhilbert import bmoa
from hardyhilbert.bmoa import (
    Arc,
    K_LIMIT,
    bmo_seminorm,
    carleson_constant,
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


def dyadic_columns(depth, centers_per_length=8):
    """Reference for the default family, arc by arc: the whole circle, then
    centers 2 pi k / centers_per_length for each length 2^-j, j = 1..depth."""
    arcs = [(1.0, 0.0)] + [(2.0**-j, 2.0 * np.pi * k / centers_per_length)
                           for j in range(1, depth + 1) for k in range(centers_per_length)]
    return tuple(np.array(column) for column in zip(*arcs))


class TestArc:
    def test_center_wrapped(self):
        assert Arc(2.5 * np.pi, 0.5).center == pytest.approx(0.5 * np.pi)

    def test_length_validated(self):
        with pytest.raises(ValueError):
            Arc(0.0, 0.0)
        with pytest.raises(ValueError):
            Arc(0.0, 1.5)

    def test_dyadic_family_shape(self):
        report = carleson_constant(classic_sequence(8), depth=3, centers_per_length=4)
        assert len(report.lengths) == 1 + 3 * 4
        lengths = sorted(set(report.lengths.tolist()), reverse=True)
        assert lengths == [1.0, 0.5, 0.25, 0.125]
        for depth, centers in ((0, 8), (12, 8), (5, 3), (2, 1)):
            report = carleson_constant(classic_sequence(8), depth=depth,
                                       centers_per_length=centers)
            want_lengths, want_centers = dyadic_columns(depth, centers)
            assert np.array_equal(report.lengths, want_lengths)
            assert np.array_equal(report.centers, want_centers)

    @pytest.mark.parametrize("centers", [0, -2])
    def test_dyadic_family_needs_a_center(self, centers):
        with pytest.raises(ValueError, match="centers per length"):
            carleson_constant(classic_sequence(8), depth=0, centers_per_length=centers)

    def test_depth_below_the_least_double_refused(self):
        assert carleson_constant(classic_sequence(8), depth=1074, centers_per_length=1).lengths[
            -1] == 2.0**-1074
        for depth in (-1, 1075):
            with pytest.raises(ValueError, match="depth must lie in 0..1074"):
                carleson_constant(classic_sequence(8), depth=depth)


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
    return carleson_constant(XSequence(values), arc_family=[arc]).box_integrals[0]


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


# pi to 60 digits, for the 50-digit oracle below
DECIMAL_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def decimal_sin(x):
    """sin(x) for a Decimal x in [0, 2 pi), by its Taylor series at the current precision."""
    if x > DECIMAL_PI:
        return -decimal_sin(x - DECIMAL_PI)
    total, term, k = Decimal(0), x, 1
    while abs(term) > Decimal(10) ** -(getcontext().prec + 5):
        total += term
        term = -term * x * x / ((k + 1) * (k + 2))
        k += 2
    return total


def decimal_deep_boxes(values, k):
    """The closed form of the box integrals at length L = 2^-k, in 50-digit
    decimals from the exact float inputs: (I at center 0, I at center pi,
    sum_m |D[m]| W_m), where I = sum_m D[m] W_m cos(mc) with W_0 = 2 pi L and
    W_m = 4 sin(m pi L)/m, and the error weights are W_0 and
    (4/m)(|sin(m pi L)| + pi (mL mod 2)).  R_L(s) is exact in r0 = 1 - L,
    cos(m pi) = (-1)^m and sin(m pi L) comes from its Taylor series."""
    with localcontext() as ctx:
        ctx.prec = 50
        L = Decimal(1) / (1 << k)
        b = [j * Decimal(v) for j, v in enumerate(map(float, values))][1:]   # b_j, j >= 1
        n = len(b)
        powers = [Decimal(1)]
        for _ in range(2 * n + 2):
            powers.append(powers[-1] * (1 - L))
        R = [None, None] + [(1 - powers[s]) / s - (1 - powers[s + 2]) / (s + 2)
                            for s in range(2, 2 * n + 1)]
        # 0-based i is j - 1, so R_L(2j + m) is R[2i + m + 2]
        D = [sum(b[i] * b[i + m] * R[2 * i + m + 2] for i in range(n - m)) for m in range(n)]
        at_zero = at_pi = 2 * DECIMAL_PI * L * D[0]
        weight_sum = abs(at_zero)
        for m in range(1, n):
            turns = Decimal(m % (2 << k)) / (1 << k)         # mL mod 2
            sin = decimal_sin(DECIMAL_PI * turns)
            term = D[m] * 4 * sin / m
            at_zero += term
            at_pi += -term if m % 2 else term
            weight_sum += abs(D[m]) * 4 * (abs(sin) + DECIMAL_PI * turns) / m
        return float(at_zero), float(at_pi), float(weight_sum)


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

    def test_deep_arcs_against_decimal_oracle(self):
        """Box integrals at lengths 2^-4..2^-12 and centers 0 and pi against
        the 50-digit closed form, within an a priori bound.

        With u = 2^-53 and n = N - 1 weighted terms: b_j b_{j+m} carries 3
        roundings, R_L(s) at most 2e-15 < 18u (TestRadialFactors), and each
        D[m], a sum of at most n positive terms here, at most (n + 22) u
        relative.  sin(m pi L) is taken at pi (mL mod 2), whose argument is
        off by at most 2u pi (mL mod 2) and its value by 1 ulp; the weight
        4 sin D[m] / m adds 2 roundings, the cosine of m fl(pi) is +-1 to
        within 2u (and its center fl(pi) moves the box only at second
        order, where d/dc vanishes), and the (lengths x centers) product
        sums n terms.  Each term's error is so below (2n + 32) u |D[m]| W_m,
        W_0 = 2 pi L, W_m = (4/m)(|sin(m pi L)| + pi (mL mod 2)), and the
        bound is that times the sum over m.  The center-pi boxes cancel
        in that sum, so their relative error is the larger.
        """
        values = classic_sequence(256).values
        n = values.size - 1
        u = 2.0**-53
        for k in range(4, 13):
            L = 2.0**-k
            got = carleson_constant(XSequence(values), arc_family=[Arc(0.0, L), Arc(np.pi, L)])
            at_zero, at_pi, weight_sum = decimal_deep_boxes(values, k)
            bound = (2 * n + 32) * u * weight_sum
            assert abs(got.box_integrals[0] - at_zero) <= bound, k
            assert abs(got.box_integrals[1] - at_pi) <= bound, k
            assert bound <= 1e-12 * abs(at_zero), k      # the bound is not vacuous

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


S_1024 = np.arange(2.0, 2049.0)   # s = 2..2048, the radial powers of a sweep at N = 1025


class TestRadialFactors:
    def test_deep_arcs_against_exact_rationals(self):
        # the difference form loses log2(1/L) bits: 9.9e-13 at 2^-12, 2.6e-7 at 2^-30
        for k in range(4, 31):
            R = bmoa._radial_factors(np.array([2.0**-k]), S_1024)[0]
            assert max(exact_radial_factor_errors(k, R)) <= 2e-15, k

    def test_shallow_and_full_arcs(self):
        lengths = np.array([1.0, 0.5, 0.25, 0.125])
        R = bmoa._radial_factors(lengths, S_1024)
        s = S_1024
        assert np.array_equal(R[0], 2.0 / (s * (s + 2.0)))
        for k in (1, 2, 3):
            assert max(exact_radial_factor_errors(k, R[k])) <= 2e-15, k


def diagonal_box_integrals(values, lengths, centers):
    """Oracle for the blocked engine: each distinct length's diagonal sums
    D[m] = sum_j b_j b_{j+m} R(2j+m) from one einsum over strided n x n views,
    then the same per-arc closed form."""
    a = np.asarray(values, dtype=float)
    out = np.zeros(len(lengths))
    n = a.size - 1
    if n < 1:
        return out
    b = np.arange(1, n + 1) * a[1:]
    b_pad = np.concatenate([b, np.zeros(n)])
    step = b_pad.strides[0]
    shifted = np.lib.stride_tricks.as_strided(b_pad, shape=(n, n), strides=(step, step))
    s = np.arange(2, 3 * n + 2, dtype=float)
    m = np.arange(1, n)
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
            out[i] = 2.0 * np.pi * length * D[0] + weights @ np.cos(m * centers[i])
    return out


def _oracle_cases():
    rng = np.random.default_rng(2026)
    yield "classic-1024", classic_sequence(1024).values, *dyadic_columns(12)
    r, beta = rng.uniform(0.5, 1.0), rng.uniform(1.05, 3.0)
    slow = trace_to_xsequence(slow_decay_sequence(r, beta, 800))
    yield "slow-decay", slow.values, *dyadic_columns(10)
    # n = len(values) - 1 weighted terms, both parities of n
    for n in (1, 2, 3, 4, 5, 17, 96):
        lengths, centers = dyadic_columns(6, centers_per_length=3)
        arcs = [Arc(rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.01, 1.0)) for _ in range(4)]
        lengths = np.concatenate([lengths, [arc.length_norm for arc in arcs]])
        centers = np.concatenate([centers, [arc.center for arc in arcs]])
        yield f"random-{n}", rng.standard_normal(n + 1), lengths, centers


ORACLE_CASES = list(_oracle_cases())


class TestBlockedBoxIntegrals:
    @pytest.mark.parametrize("block", [None, 64])
    @pytest.mark.parametrize("case", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_matches_diagonal_oracle(self, monkeypatch, block, case):
        # block 64 splits n = 96 and n = 1024 into many trimmed row blocks
        if block is not None:
            monkeypatch.setattr(bmoa, "_BLOCK", block)
        _, values, lengths, centers = case
        expected = diagonal_box_integrals(values, lengths, centers)
        got = bmoa._box_integrals(values, lengths, centers)
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
        # on the classic sequence the sup ratio exceeds 2K||c||^2; the
        # exceedance is reported as a finding, not an error
        assert not report.passes_2k
        assert "exceeds" in report.finding

    def test_classic_sup_ratio_below_its_closed_form_limit(self):
        # g' ~ 1/(1 - z) near z = 1, so with s = 1 - r the box ratio at center
        # 0 tends to the integral of 2u / (u^2 + v^2) over 0 < u < 1,
        # |v| < pi, as L -> 0 for the infinite classic sequence
        limit = 4.0 * (math.atan(math.pi) + 0.5 * math.pi * math.log1p(math.pi**-2))
        assert limit == pytest.approx(5.656902599, abs=1e-9)
        # the same limit with |I| in radians, and with area measure dA/pi
        assert (round(limit / (2.0 * math.pi), 4), round(limit / math.pi, 4)) == (0.9003, 1.8006)
        reports = [carleson_constant(classic_sequence(N), depth=12) for N in (64, 1024, 8192)]
        sups = [r.sup_ratio for r in reports]
        assert sups == sorted(sups) and sups[-1] < limit
        assert [round(s, 4) for s in sups] == [3.7514, 5.0472, 5.4231]
        assert limit > 2.1 * reports[-1].bound_2k

    def test_ratio_scaling(self):
        c = classic_sequence(48)
        lam = 1.7
        base = carleson_constant(c, depth=4, centers_per_length=2)
        scaled = carleson_constant(XSequence(lam * c.values), depth=4, centers_per_length=2)
        for r, s in zip(base.ratios, scaled.ratios):
            assert s == pytest.approx(lam**2 * r, rel=1e-11)
        assert scaled.eta_estimate == pytest.approx(lam * base.eta_estimate, rel=1e-11)

    def test_report_schema(self):
        report = carleson_constant(classic_sequence(16), depth=2, centers_per_length=2)
        # the dyadic family in order: the whole circle, then each length's centers
        assert report.lengths.tolist() == [1.0, 0.5, 0.5, 0.25, 0.25]
        assert report.centers.tolist() == [0.0, 0.0, np.pi, 0.0, np.pi]
        for column in (report.lengths, report.centers, report.box_integrals, report.ratios):
            assert column.dtype == np.float64 and column.shape == (5,)
        assert all(r == b / L for r, b, L in zip(report.ratios.tolist(),
                                                 report.box_integrals.tolist(),
                                                 report.lengths.tolist()))
        assert report.sup_ratio == max(report.ratios.tolist())

    def test_custom_family_columns(self):
        arcs = [Arc(2.5 * np.pi, 0.5), Arc(0, 1), Arc(1.0, 0.125)]
        report = carleson_constant(classic_sequence(32), arc_family=arcs)
        assert report.lengths.tolist() == [0.5, 1.0, 0.125]
        assert report.centers.tolist() == [arc.center for arc in arcs]
        assert report.lengths.dtype == report.centers.dtype == np.float64
        for arc, value in zip(arcs, report.box_integrals):
            assert value == pytest.approx(box(classic_sequence(32).values, arc), rel=1e-13)

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


def report_with_ratios(lengths, ratios):
    """A sweep report whose columns are the given arcs' lengths and ratios."""
    lengths, ratios = np.asarray(lengths, dtype=float), np.asarray(ratios, dtype=float)
    rep = carleson_constant(classic_sequence(4), arc_family=[Arc(0.0, 1.0)])
    return replace(rep, lengths=lengths, centers=np.zeros(lengths.size),
                   box_integrals=ratios * lengths, ratios=ratios)


def loop_sweep_is_bounded(lengths, ratios):
    """Reference: the criterion as one loop over the arcs and one over the depths."""
    by_length = {}
    for L, ratio in zip(lengths, ratios):
        by_length[L] = max(by_length.get(L, 0.0), ratio)
    depths = {}
    for L, ratio in by_length.items():
        j = int(round(-np.log2(L))) if L < 1.0 else 0
        depths[j] = max(depths.get(j, 0.0), ratio)
    js = sorted(depths)
    for j in js:
        if j < bmoa.SWEEP_START_DEPTH or (j + 2) not in depths:
            continue
        if depths[j + 2] > bmoa.SWEEP_GROWTH_FACTOR * max(depths[i] for i in js if i <= j):
            return False
    return True


class TestSweepBoundedCriterion:
    def _report_with_ratios(self, per_depth):
        return report_with_ratios(2.0 ** -np.arange(len(per_depth)), per_depth)

    def test_flat_profile_bounded(self):
        assert sweep_is_bounded(self._report_with_ratios([1.0] * 13))

    def test_divergent_tail_detected(self):
        ratios = [1.0] * 7 + [10.0, 20.0, 40.0, 80.0, 160.0, 320.0]
        assert not sweep_is_bounded(self._report_with_ratios(ratios))

    def test_shallow_sweep_vacuous(self):
        assert sweep_is_bounded(self._report_with_ratios([1.0, 2.0, 4.0]))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_loop_oracle(self, seed):
        # several centers per length, gaps in the depths, lengths off the
        # dyadic grid, NaN and tiny negative ratios (a NaN never wins a max)
        rng = np.random.default_rng(seed)
        depth = int(rng.integers(0, 14))
        lengths = np.repeat(2.0 ** -np.arange(depth + 1), rng.integers(1, 4, depth + 1))
        lengths = lengths[rng.random(lengths.size) < 0.85]
        lengths = np.concatenate([[1.0], lengths, rng.uniform(1e-4, 1.0, rng.integers(0, 3))])
        growth = rng.uniform(1.0, 1.5)        # per depth; a criterion edge near 1.22
        ratios = rng.lognormal(0.0, 0.2, lengths.size) * growth ** np.log2(1.0 / lengths)
        ratios[rng.random(lengths.size) < 0.05] = np.nan
        ratios[rng.random(lengths.size) < 0.05] = -1e-20
        report = report_with_ratios(lengths, ratios)
        assert sweep_is_bounded(report) == loop_sweep_is_bounded(lengths.tolist(),
                                                                 ratios.tolist())

import warnings

import numpy as np
import pytest

from hardyhilbert import hardyspace
from hardyhilbert.hardyspace import (
    AnalyticPoly,
    FACTOR_RESIDUAL_REL,
    ConvergenceError,
    _on_circle,
    cauchy_product,
    dual_pairing,
    factorization_report,
    hp_norm,
    phase_sequence,
    read_polynomial_csv,
    write_polynomial_csv,
)


def poly_from_roots(rng, radii, lead=None):
    """Build a polynomial with prescribed root radii at random angles."""
    angles = rng.uniform(0.0, 2.0 * np.pi, len(radii))
    roots = np.asarray(radii) * np.exp(1j * angles)
    coeffs = np.poly(roots)[::-1]
    if lead is None:
        lead = rng.normal() + 1j * rng.normal()
    return AnalyticPoly(lead * coeffs)


class TestAnalyticPoly:
    def test_degree_normalization(self):
        assert AnalyticPoly([1.0, 2.0, 0.0, 0.0]).degree == 1
        assert AnalyticPoly([0.0]).degree == 0

    def test_evaluation(self):
        f = AnalyticPoly([1.0, 2.0, 3.0])
        assert f(0.5) == pytest.approx(1 + 1 + 0.75)

    def test_roots_of_monomial(self):
        assert np.allclose(AnalyticPoly([0.0, 0.0, 1.0]).roots(), 0.0)


class TestHpNorm:
    def test_monomials_have_unit_boundary_mean(self):
        for k in range(4):
            coeffs = np.zeros(k + 1)
            coeffs[k] = 1.0
            assert hp_norm(AnalyticPoly(coeffs), 1) == pytest.approx(1.0, abs=1e-14)

    def test_one_plus_z_quadrature(self):
        # boundary zero: mean of |1+z| is 4/pi, beyond plain-trapezoid reach
        f = AnalyticPoly([1.0, 1.0])
        assert hp_norm(f, 1, 4096) == pytest.approx(4.0 / np.pi, abs=1e-12)

    def test_parseval(self):
        assert hp_norm(AnalyticPoly([1.0, 1.0]), 2) == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_p1_below_p2(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            d = int(rng.integers(1, 24))
            f = AnalyticPoly(rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1))
            assert hp_norm(f, 1) <= hp_norm(f, 2) * (1 + 1e-12)

    def test_square_norm_identity(self):
        # ||g^2||_1 = ||g||_2^2 exactly: |g|^2 is a trigonometric polynomial
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = poly_from_roots(rng, rng.uniform(0.0, 0.9, int(rng.integers(1, 9))))
            scale = 1.0 / hp_norm(g, 2)
            g = AnalyticPoly(scale * g.coeffs)
            f = AnalyticPoly(cauchy_product(g.coeffs, g.coeffs))
            assert hp_norm(f, 1) == pytest.approx(hp_norm(g, 2) ** 2, abs=1e-12)

    def test_doubling_stability_off_circle(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            radii = np.concatenate([rng.uniform(0.0, 0.95, 3), rng.uniform(1.05, 2.0, 3)])
            f = poly_from_roots(rng, radii)
            M = 8 * (f.degree + 1)
            a = hp_norm(f, 1, M)
            b = hp_norm(f, 1, 2 * M)
            assert abs(a - b) <= 1e-12 * abs(b)

    def test_bad_p_and_small_grid(self):
        f = AnalyticPoly(np.ones(8))
        with pytest.raises(ValueError):
            hp_norm(f, 3)
        with pytest.raises(ValueError):
            hp_norm(f, 1, 16)  # needs 4*(d+1) = 32

    def test_grid_independence_from_coarse_start(self):
        # zero at radius 1.02: outside the kink window, so a coarse start
        # forces whole-circle panels; the answer must match a fine start
        f = AnalyticPoly([1.0, 1.0 / 1.02])
        coarse = hp_norm(f, 1, 8)
        fine = hp_norm(f, 1, 2**15)
        assert coarse == pytest.approx(fine, rel=1e-12)

    def test_disagreeing_pair_without_near_zero_goes_to_panels(self, monkeypatch):
        # the pair on 8 and 16 points disagrees, no zero is within KINK_NEAR:
        # one pass of whole-circle panels, no further trapezoid grids
        trap_grids, panel_kinks = [], []
        trap, panel = hardyspace._trap_mean_abs, hardyspace._panel_mean_abs

        def recording_trap(f, M):
            trap_grids.append(M)
            return trap(f, M)

        def recording_panel(f, kinks):
            panel_kinks.append(np.asarray(kinks))
            return panel(f, kinks)

        monkeypatch.setattr(hardyspace, "_trap_mean_abs", recording_trap)
        monkeypatch.setattr(hardyspace, "_panel_mean_abs", recording_panel)
        f = AnalyticPoly([1.0, 1.0 / 1.02])
        coarse = hp_norm(f, 1, 8)
        assert trap_grids == [8, 16]
        assert len(panel_kinks) == 1 and panel_kinks[0].size == 0
        fine = hp_norm(f, 1, 2**15)
        assert trap_grids == [8, 16, 2**15, 2**16]
        assert len(panel_kinks) == 1
        assert coarse == pytest.approx(fine, rel=1e-12)


class TestOnCircle:
    def test_samples_match_direct_evaluation(self):
        f = AnalyticPoly([1.0, 2.0, 3.0 + 1j])
        z = np.exp(2j * np.pi * np.arange(16) / 16)
        assert np.allclose(_on_circle(f.coeffs, 16), f(z), atol=1e-12)

    def test_more_coefficients_than_points_refused(self):
        # the FFT would silently drop the coefficients past M
        with pytest.raises(ValueError, match="do not fit"):
            _on_circle(np.ones(17, dtype=complex), 16)


class TestCauchyProduct:
    def test_binomial(self):
        assert cauchy_product([1, 1], [1, 1]).tolist() == [1, 2, 1]

    def test_identity_element(self):
        b = np.array([2.0, 3.0, 4.0])
        assert np.array_equal(cauchy_product([1.0], b), b)

    def test_hand_expansion(self):
        assert cauchy_product([1, 2], [3, 4]).tolist() == [3, 10, 8]


class TestDualPairing:
    def test_self_pairing_is_squared_norm(self):
        rng = np.random.default_rng(8)
        f = AnalyticPoly(rng.normal(size=9) + 1j * rng.normal(size=9))
        val = dual_pairing(f, f)
        assert val.imag == pytest.approx(0.0, abs=1e-15)
        assert val.real == pytest.approx(hp_norm(f, 2) ** 2, rel=1e-14)

    def test_monomial_orthogonality(self):
        assert dual_pairing(AnalyticPoly([0.0, 1.0]), AnalyticPoly([1.0])) == 0.0

    def test_phase_aligned_pairing_is_modulus_sum(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        f = AnalyticPoly(a)
        weights = rng.uniform(0.1, 1.0, 6)
        g = AnalyticPoly(phase_sequence(f) * weights)
        val = dual_pairing(f, g)
        assert val.imag == pytest.approx(0.0, abs=1e-14)
        assert val.real == pytest.approx(float(np.abs(a) @ weights), rel=1e-14)


class TestPhaseSequence:
    def test_sign_pattern(self):
        assert phase_sequence(AnalyticPoly([1.0, -1.0])).tolist() == [1.0, -1.0]

    def test_positive_coefficients(self):
        assert np.array_equal(phase_sequence(AnalyticPoly([2.0, 0.5, 3.0])), np.ones(3))

    def test_imaginary_coefficient(self):
        phases = phase_sequence(AnalyticPoly([0.0, 1j]))
        assert phases[0] == 1.0  # zero coefficient maps to 1
        assert phases[1] == pytest.approx(1j)


class TestRieszFactorize:
    def test_monomial_splits_symmetrically(self):
        # z^k is all inner: g = z^k, h = 1, and |g| = |h| = 1 on the circle
        for k in (1, 2, 3, 7):
            zk = np.eye(k + 1)[k]
            rep = factorization_report(AnalyticPoly(zk))
            assert rep.g.degree == k and rep.h.degree == 0
            assert np.abs(rep.g.coeffs - zk).max() <= 1e-15
            assert abs(rep.h.coeffs[0] - 1.0) <= 1e-15
            assert rep.blaschke_degree == k

    def test_perfect_square_outer(self):
        f = AnalyticPoly([1.0, 1.0, 0.25])  # (1 + z/2)^2
        rep = factorization_report(f)
        assert hp_norm(rep.g, 2) == pytest.approx(np.sqrt(1.25), abs=1e-12)
        assert hp_norm(rep.h, 2) == pytest.approx(np.sqrt(1.25), abs=1e-12)
        assert hp_norm(f, 1) == pytest.approx(1.25, abs=1e-12)
        assert rep.blaschke_degree == 0

    def test_constant(self):
        c = 3.0 + 4.0j
        rep = factorization_report(AnalyticPoly([c]))
        g, h = rep.g, rep.h
        assert g.degree == 0 and h.degree == 0
        assert g.coeffs[0] * h.coeffs[0] == pytest.approx(c, rel=1e-14)
        assert abs(g.coeffs[0]) == pytest.approx(abs(h.coeffs[0]), rel=1e-14)
        assert h.coeffs[0].real > 0  # outer square root pinned positive at 0

    def test_contract_on_random_accepted(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            radii = np.concatenate([
                rng.uniform(0.0, 0.95, int(rng.integers(0, 4))),
                rng.uniform(1.05, 2.0, int(rng.integers(1, 4))),
            ])
            f = poly_from_roots(rng, radii)
            rep = factorization_report(f)
            assert rep.residual_max <= 1e-8 * hp_norm(f, 2)
            assert rep.norm_defect <= 1e-8 * hp_norm(f, 1)
            assert rep.blaschke_degree == int(np.sum(np.asarray(radii) < 1.0))

    def test_outer_square_root_positive_at_zero(self):
        f = poly_from_roots(np.random.default_rng(12), [1.4, 1.7], lead=2.0j)
        h = factorization_report(f).h
        assert h.coeffs[0].real > 0
        assert abs(h.coeffs[0].imag) < 1e-12 * abs(h.coeffs[0])

    def test_circle_root_rejected(self):
        # the zero at -1 is a grid point, so f vanishes there exactly
        with pytest.raises(ConvergenceError, match="unit circle"):
            factorization_report(AnalyticPoly([1.0, 1.0]))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            factorization_report(AnalyticPoly([0.0]))

    def test_near_circle_root_hits_convergence_guard(self):
        # a zero 1e-7 from the circle misses every grid point, but the
        # outer tail cannot be truncated at any reasonable grid
        f = AnalyticPoly(np.poly([(1 - 1e-7) * np.exp(0.7j)])[::-1])
        with pytest.raises(ConvergenceError) as err:
            factorization_report(f, M=4096)
        assert err.value.residual is not None
        assert err.value.residual > 0

    def test_near_circle_root_fails_on_the_finest_grid(self):
        # without M the grid doubles up to 2^18 before giving up
        f = AnalyticPoly(np.poly([(1 - 1e-7) * np.exp(0.7j)])[::-1])
        with pytest.raises(ConvergenceError, match="262144-point grid"):
            factorization_report(f)

    def test_no_root_finding(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("roots requested")
        monkeypatch.setattr(AnalyticPoly, "roots", refuse)
        monkeypatch.setattr(np, "roots", refuse)
        rng = np.random.default_rng(14)
        for _ in range(5):
            radii = np.concatenate([rng.uniform(0.0, 0.9, 3), rng.uniform(1.1, 2.0, 2)])
            f = poly_from_roots(rng, radii)
            rep = factorization_report(f)
            assert rep.blaschke_degree == 3
            assert rep.residual_max <= FACTOR_RESIDUAL_REL * hp_norm(f, 2)

    def test_winding_counts_the_zeros_inside(self):
        # oracle: the zeros np.roots finds inside the disk
        rng = np.random.default_rng(15)
        for _ in range(40):
            d = int(rng.integers(4, 65))
            k = int(rng.integers(0, d + 1))
            radii = np.concatenate([rng.uniform(0.0, 0.9, k), rng.uniform(1.1, 2.0, d - k)])
            f = poly_from_roots(rng, radii)
            inside = int(np.sum(np.abs(np.roots(f.coeffs[::-1])) < 1.0))
            assert factorization_report(f).blaschke_degree == inside

    def test_factor_moduli_agree_on_the_circle(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            radii = np.concatenate([rng.uniform(0.0, 0.9, 4), rng.uniform(1.1, 2.0, 4)])
            f = poly_from_roots(rng, radii)
            rep = factorization_report(f)
            M = rep.grid_size
            fv, gv, hv = (_on_circle(p.coeffs, M) for p in (f, rep.g, rep.h))
            assert np.abs(np.abs(gv) - np.abs(hv)).max() <= 1e-12 * np.sqrt(np.abs(fv).max())

    def test_product_bound_cauchy_schwarz(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = AnalyticPoly(rng.normal(size=5) + 1j * rng.normal(size=5))
            h = AnalyticPoly(rng.normal(size=7) + 1j * rng.normal(size=7))
            f = AnalyticPoly(cauchy_product(g.coeffs, h.coeffs))
            assert hp_norm(f, 1) <= hp_norm(g, 2) * hp_norm(h, 2) * (1 + 1e-10)


def gaussian_polynomial_sets():
    """20 complex Gaussian polynomials each of degree 8 and 16, seed 11.

    At the first grid (4096 points) only 14 and 7 of them factor; at 2^14
    points, 20 and 17; at 2^16, all of them.
    """
    rng = np.random.default_rng(11)
    return {d: [AnalyticPoly(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))
                for _ in range(20)] for d in (8, 16)}


class TestFactorGridDoubling:
    @pytest.mark.parametrize("degree", [8, 16])
    def test_seeded_gaussian_sets_all_factor(self, degree):
        grids = []
        for f in gaussian_polynomial_sets()[degree]:
            rep = factorization_report(f)
            assert rep.residual_max <= FACTOR_RESIDUAL_REL * hp_norm(f, 2)
            prod = cauchy_product(rep.g.coeffs, rep.h.coeffs)[: degree + 1]
            assert np.abs(prod - f.coeffs).max() <= 1e-7 * hp_norm(f, 2)
            grids.append(rep.grid_size)
        assert min(grids) == 4096 and max(grids) > 4096  # some inputs needed a finer grid

    def test_reported_grid_reproduces_the_report(self):
        for f in gaussian_polynomial_sets()[16][:6]:
            rep = factorization_report(f)
            again = factorization_report(f, M=rep.grid_size)
            assert again.grid_size == rep.grid_size
            assert np.array_equal(again.g.coeffs, rep.g.coeffs)
            assert np.array_equal(again.h.coeffs, rep.h.coeffs)
            assert again.residual_max == rep.residual_max

    def test_given_grid_is_not_refined(self):
        f = next(f for f in gaussian_polynomial_sets()[16]
                 if factorization_report(f).grid_size > 4096)
        with pytest.raises(ConvergenceError, match="4096-point grid"):
            factorization_report(f, M=4096)


class TestPolynomialCsv:
    def test_round_trip(self, tmp_path):
        f = AnalyticPoly([1.0 + 2.0j, -0.5, 0.0, 3.0j])
        path = tmp_path / "poly.csv"
        write_polynomial_csv(path, f)
        assert path.read_bytes() == b"index,re,im\n0,1.0,2.0\n1,-0.5,0.0\n2,0.0,0.0\n3,0.0,3.0\n"
        back = read_polynomial_csv(path)
        assert np.array_equal(back.coeffs, f.coeffs)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,1,0\n")
        with pytest.raises(ValueError):
            read_polynomial_csv(path)

    @pytest.mark.parametrize("body, match", [
        ("0,1,0\n-1,2,0\n", "index -1 outside 0..1"),
        ("0,1,0\n5,2,0\n", "index 5 outside 0..1"),
        ("1,1,0\n1,2,0\n", "index 1 appears 2 times"),
        ("0,1\n", "columns index,re,im"),
        ("0,1,0\n1,nan,0\n", "finite"),
        ("#0,1,0\n0,1,0\n", "columns index,re,im"),   # '#' starts no comment
    ])
    def test_bad_rows_rejected(self, tmp_path, body, match):
        path = tmp_path / "bad.csv"
        path.write_text("index,re,im\n" + body)
        with pytest.raises(ValueError, match=match):
            read_polynomial_csv(path)

    def test_header_only_rejected_without_warning(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("index,re,im\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="nonempty"):
                read_polynomial_csv(path)

    @pytest.mark.parametrize("text", [
        b"index,re,im\r\n1,-0.5,0.0\r\n0,1.0,2.0\r\n",     # CRLF line ends
        b'index,re,im\n"1","-0.5",0.0\n0,1.0,"2.0"\n',    # quoted cells
        b"index,re,im\n\n1,-0.5,0.0\n\n0,1.0,2.0\n",      # blank lines are skipped
        b"index,re,im,note\n0,1.0,2.0,a\n1,-0.5,0.0\n",   # extra columns ignored
    ])
    def test_accepted_layouts(self, tmp_path, text):
        path = tmp_path / "poly.csv"
        path.write_bytes(text)
        assert read_polynomial_csv(path).coeffs.tolist() == [1.0 + 2.0j, -0.5 + 0.0j]

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("index,re,im\n0,0.5,-1.5\n")
        assert read_polynomial_csv(path).coeffs.tolist() == [0.5 - 1.5j]


import json

import numpy as np
import pytest

from hardyhilbert import hardyspace, inequalities
from hardyhilbert.hardyspace import AnalyticPoly, cauchy_product
from hardyhilbert.inequalities import (
    DEGREE_BOUND_TOL,
    DENSE_EIGEN,
    FFT_MIN_N,
    LANCZOS,
    RAYLEIGH_TOL,
    RESIDUAL_TOL,
    ROUNDING_FLOOR,
    best_constant_scan,
    equivalence_witness,
    hardy_degree_bound_check,
    hardy_ratio,
    hardy_sum,
    hilbert_form,
    matrix_norm,
)
from hardyhilbert.seqspace import (
    XSequence,
    classic_sequence,
    slow_decay_sequence,
    trace_to_xsequence,
    xnorm,
)
from conftest import fresh_python

CLASSIC_N2 = (4.0 + np.sqrt(13.0)) / 6.0  # closed-form top eigenvalue of [[1,1/2],[1/2,1/3]]


def hankel_matvec(gen, v, method):
    """(Hv)[n] = sum_m gen[n+m] v[m] by the operator matrix_norm builds on ``method``'s route."""
    v = np.asarray(v, dtype=float)
    return inequalities._hankel_operator(gen, v.size, method)(v)


def power_top_pair(c, N):
    """Independent oracle: the top Hankel pair by plain power iteration.

    Starts from the all-ones vector and stops on the same tolerances as
    matrix_norm (Rayleigh quotient settled, residual small, both raised to
    the rounding floor).  Each product goes through hankel_matvec on the
    route matrix_norm takes at that size.  Returns (lam, v, residual,
    iterations); raises if the loop does not converge.
    """
    gen = c.values[: 2 * N - 1]
    route = "fft" if N >= FFT_MIN_N else "direct"
    sqrt_n = np.sqrt(N)
    v = np.ones(N) / sqrt_n
    lam_prev = np.inf
    for it in range(1, 10**5 + 1):
        w = hankel_matvec(gen, v, route)
        lam = float(v @ w)
        res = float(np.linalg.norm(w - lam * v))
        floor = ROUNDING_FLOOR * abs(lam)
        if res <= max(RESIDUAL_TOL, floor * sqrt_n) and abs(lam - lam_prev) < max(RAYLEIGH_TOL, floor):
            return lam, v, res, it
        lam_prev = lam
        v = w / np.linalg.norm(w)
    raise AssertionError(f"power iteration did not converge at N = {N}")


def seeded_slow_decay(N, seed=11):
    """A slow-decay weight covering 2N-1 indices, (r, beta) drawn from the seed."""
    rng = np.random.default_rng(seed)
    r, beta = rng.uniform(0.62, 1.0), rng.uniform(1.1, 1.4)
    return trace_to_xsequence(slow_decay_sequence(r, beta, 2 * N - 2))


class TestHardySum:
    def test_constant_against_classic(self):
        assert hardy_sum(AnalyticPoly([1.0]), classic_sequence(5)) == 1.0

    def test_harmonic_partial_sum(self):
        f = AnalyticPoly([1.0, 1.0, 1.0, 1.0])
        assert hardy_sum(f, classic_sequence(4)) == pytest.approx(25.0 / 12.0, rel=1e-15)

    def test_one_plus_z_ratio(self):
        f = AnalyticPoly([1.0, 1.0])
        c = classic_sequence(2)
        assert hardy_sum(f, c) == 1.5
        assert hardy_ratio(f, c) == pytest.approx(3.0 * np.pi / 8.0, rel=1e-11)


class TestHardyRatio:
    def test_constant_is_one(self):
        assert hardy_ratio(AnalyticPoly([1.0]), classic_sequence(3)) == pytest.approx(1.0, rel=1e-14)

    def test_monomials(self):
        for k in (1, 2, 5):
            coeffs = np.zeros(k + 1)
            coeffs[k] = 1.0
            ratio = hardy_ratio(AnalyticPoly(coeffs), classic_sequence(k + 1))
            assert ratio == pytest.approx(1.0 / (k + 1), rel=1e-14)

    def test_zero_inputs_rejected(self):
        with pytest.raises(ValueError):
            hardy_ratio(AnalyticPoly([0.0]), classic_sequence(3))
        with pytest.raises(ValueError):
            hardy_ratio(AnalyticPoly([1.0]), XSequence([0.0, 0.0]))


class TestHilbertForm:
    def test_unit_impulses(self):
        assert hilbert_form([1.0], [1.0], classic_sequence(1)) == 1.0

    def test_hand_sum(self):
        assert hilbert_form([1.0, 1.0], [1.0], classic_sequence(2)) == pytest.approx(1.5, rel=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.random(9), rng.random(5)
        c = XSequence(rng.random(13))
        assert hilbert_form(a, b, c) == pytest.approx(hilbert_form(b, a, c), rel=1e-14)

    def test_bridge_identity_against_cauchy_route(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.random(int(rng.integers(1, 30)))
            b = rng.random(int(rng.integers(1, 30)))
            c = XSequence(rng.random(a.size + b.size - 1))
            direct = hilbert_form(a, b, c)
            via_product = hardy_sum(AnalyticPoly(cauchy_product(a, b)), c)
            assert direct == pytest.approx(via_product, rel=1e-12)

    def test_short_sequence_rejected(self):
        # two 2-term vectors need weights c_0..c_2
        with pytest.raises(ValueError, match="needs 3"):
            hilbert_form([1.0, 1.0], [1.0, 1.0], classic_sequence(2))


class TestHankelMatvec:
    def test_direct_matches_dense(self):
        rng = np.random.default_rng(3)
        gen = rng.random(19)
        v = rng.random(10)
        idx = np.arange(10)
        dense = gen[idx[:, None] + idx[None, :]] @ v
        assert np.allclose(hankel_matvec(gen, v, "direct"), dense, rtol=1e-14)

    def test_fft_agrees_with_direct(self):
        # 255..257 straddle a power of two, where the transform length
        # 2N-1 -> L is tightest; extra generator entries must be ignored
        rng = np.random.default_rng(4)
        for N, extra in ((1, 0), (2, 0), (17, 0), (128, 0), (255, 0), (256, 0),
                         (257, 0), (1000, 7), (4096, 4096)):
            gen = rng.random(2 * N - 1 + extra)
            v = rng.random(N)
            d = hankel_matvec(gen, v, "direct")
            f = hankel_matvec(gen, v, "fft")
            assert np.abs(d - f).max() <= 1e-13 * max(1.0, np.abs(d).max())

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            hankel_matvec(np.ones(3), np.ones(2), "magic")


class TestMatrixNorm:
    def test_single_entry(self):
        est = matrix_norm(classic_sequence(1), 1)
        assert est.value == 1.0
        assert est.converged

    def test_two_by_two_closed_form(self):
        est = matrix_norm(classic_sequence(3), 2)
        assert est.value == pytest.approx(CLASSIC_N2, abs=1e-12)

    def test_dense_two_by_two(self):
        est = matrix_norm(classic_sequence(3), 2, DENSE_EIGEN)
        assert est.value == pytest.approx(CLASSIC_N2, abs=1e-13)
        assert est.iterations == 0

    def test_submatrix_monotonicity(self):
        c = classic_sequence(7)
        assert matrix_norm(c, 4).value >= matrix_norm(c, 2).value

    def test_power_matches_dense(self):
        rng = np.random.default_rng(5)
        for N in (3, 16, 40, 256, 300, 512):  # both sides of FFT_MIN_N
            c = XSequence(rng.uniform(0.05, 1.0, 2 * N - 1))
            p = matrix_norm(c, N, LANCZOS)
            d = matrix_norm(c, N, DENSE_EIGEN)
            assert p.converged and d.converged
            assert abs(p.value - d.value) <= 1e-10

    def test_large_eigenvalues_converge(self):
        # lam ~ 1e4: the absolute tolerances alone sit below the rounding floor
        rng = np.random.default_rng(17)
        for N in (256, 300, 512):
            c = XSequence(100.0 * rng.uniform(0.05, 1.0, 2 * N - 1))
            p = matrix_norm(c, N, LANCZOS)
            d = matrix_norm(c, N, DENSE_EIGEN)
            assert p.converged and d.converged
            assert p.iterations < 1000
            assert abs(p.value - d.value) <= 1e-12 * d.value

    def test_top_vector_nonnegative_unit(self):
        est = matrix_norm(classic_sequence(21), 11)
        assert np.all(est.top_vector >= 0)
        assert np.linalg.norm(est.top_vector) == pytest.approx(1.0, abs=1e-12)
        assert est.residual <= 1e-12

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            matrix_norm(classic_sequence(4), 3)  # needs 2*3-1 = 5 entries

    def test_dense_size_cap(self):
        with pytest.raises(ValueError):
            matrix_norm(classic_sequence(2 * 600 - 1), 600, DENSE_EIGEN)

    def test_zero_sequence(self):
        est = matrix_norm(XSequence(np.zeros(5)), 3)
        assert est.value == 0.0
        assert est.converged

    @pytest.mark.parametrize("c, N", [(classic_sequence(1), 1), (XSequence([2.5]), 1),
                                      (XSequence(np.zeros(5)), 3)])
    def test_dense_singular_shift(self, c, N):
        # H - lam I is exactly singular at N = 1 and for zero weights; the
        # nudged retry still gives a nonnegative unit vector and residual 0
        est = matrix_norm(c, N, DENSE_EIGEN)
        assert est.converged
        assert est.value == (c.values[0] if N == 1 else 0.0)
        assert est.residual == 0.0
        assert np.all(est.top_vector >= 0)
        assert np.linalg.norm(est.top_vector) == pytest.approx(1.0, abs=1e-15)

    def test_dense_failed_solve_takes_the_nudged_retry(self, monkeypatch):
        # a solve that reports a singular shift once is retried a few ulps
        # past lam, not replaced by some other vector
        N = 40
        c = XSequence(np.random.default_rng(29).uniform(0.05, 1.0, 2 * N - 1))
        real = np.linalg.solve
        shifts = []

        def singular_once(a, b):
            shifts.append(np.diag(a).copy())
            if len(shifts) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_once)
        est = matrix_norm(c, N, DENSE_EIGEN)
        monkeypatch.undo()
        assert len(shifts) == 2
        step = shifts[0] - shifts[1]
        assert np.all(step > 0) and np.all(step <= 8 * np.spacing(est.value))
        _, V = np.linalg.eigh(c.values[np.add.outer(np.arange(N), np.arange(N))])
        assert est.converged
        assert np.abs(est.top_vector - np.abs(V[:, -1])).max() <= 1e-9

    @pytest.mark.parametrize("N", [3, 40, 256, 512])
    def test_dense_matches_full_eigh(self, N):
        # the eigenvalue-only solve plus one inverse-iteration step against
        # the full symmetric eigensolve, eigenvectors and all
        c = XSequence(np.random.default_rng(N).uniform(0.0, 1.0, 2 * N - 1))
        w, V = np.linalg.eigh(c.values[np.add.outer(np.arange(N), np.arange(N))])
        est = matrix_norm(c, N, DENSE_EIGEN)
        assert est.converged
        assert est.iterations == 0
        assert abs(est.value - w[-1]) <= 1e-12 * w[-1]
        assert np.abs(est.top_vector - np.abs(V[:, -1])).max() <= 1e-9
        assert est.residual <= RESIDUAL_TOL

    @pytest.mark.parametrize("N", [8, 300])
    def test_dense_split_spectrum_top_vector_clipped(self, N):
        # TestLanczos.test_split_spectrum_top_vector_clipped on the dense
        # route: the odd block of the solve is rounding, clipped to zero
        k = np.arange(2 * N - 1)
        c = XSequence(np.where(k % 2 == 0, 1.0 / (k + 1), 0.0))
        est = matrix_norm(c, N, DENSE_EIGEN)
        assert est.converged
        assert np.all(est.top_vector >= 0)
        assert np.linalg.norm(est.top_vector) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(est.top_vector[1::2]).max() <= 1e-12

    def test_non_finite_weights_stop_unconverged(self):
        for N in (3, 300):
            c = classic_sequence(2 * N - 1)
            c.values[1] = np.nan  # XSequence rejects this; force it past the check
            est = matrix_norm(c, N)
            assert not est.converged
            assert est.iterations == 1

    @pytest.mark.parametrize("N", [3, 40])
    def test_dense_non_finite_weights_flagged(self, N):
        # LAPACK's eigensolver raises "did not converge" on these
        c = classic_sequence(2 * N - 1)
        c.values[1] = np.nan
        est = matrix_norm(c, N, DENSE_EIGEN)
        assert not est.converged and np.isnan(est.value)
        assert (est.iterations, est.residual) == (0, np.inf)


class TestLanczos:
    @pytest.mark.parametrize("N", [1024, 4096, 8192])
    @pytest.mark.parametrize("weight", ["classic", "slow"])
    def test_matches_power_oracle(self, N, weight):
        # fft route, beyond the reach of the dense oracle
        c = classic_sequence(2 * N - 1) if weight == "classic" else seeded_slow_decay(N)
        lam, v, _, power_products = power_top_pair(c, N)
        est = matrix_norm(c, N)
        assert est.converged
        assert abs(est.value - lam) <= 1e-12 * lam
        assert np.linalg.norm(est.top_vector - v) <= 1e-9
        assert est.iterations < power_products / 2

    @pytest.mark.parametrize("N", [64, 300])
    def test_restarts_match_dense(self, monkeypatch, N):
        monkeypatch.setattr(inequalities, "KRYLOV_DIM", 4)
        rng = np.random.default_rng(23)
        for c in (classic_sequence(2 * N - 1), XSequence(rng.uniform(0.05, 1.0, 2 * N - 1))):
            est = matrix_norm(c, N)
            d = matrix_norm(c, N, DENSE_EIGEN)
            assert est.converged
            assert est.iterations > 4 + 1  # more than one cycle of 4 products and a check
            assert abs(est.value - d.value) <= 1e-10

    def test_fft_route_top_vector_nonnegative_unit(self):
        N = 300
        est = matrix_norm(seeded_slow_decay(N), N)
        assert est.converged
        assert np.all(est.top_vector >= 0)
        assert np.linalg.norm(est.top_vector) == pytest.approx(1.0, abs=1e-12)
        assert est.residual <= RESIDUAL_TOL

    def test_products_capped(self, monkeypatch):
        monkeypatch.setattr(inequalities, "MAX_ITERATIONS", 3)
        est = matrix_norm(classic_sequence(2 * 300 - 1), 300)
        assert not est.converged
        assert est.iterations == 3
        assert np.isfinite(est.value) and np.all(est.top_vector >= 0)

    @pytest.mark.parametrize("N, route", [(100, "direct"), (1024, "fft")])
    def test_value_is_rayleigh_quotient_of_top_vector(self, N, route):
        # the reported pair is v'Hv and ||Hv - lam v|| of the returned vector,
        # with the same product bit for bit, not the Ritz value of the basis
        c = seeded_slow_decay(N)
        est = matrix_norm(c, N)
        v = est.top_vector
        w = hankel_matvec(c.values, v, route)
        assert est.value == float(v @ w)
        assert est.residual == float(np.linalg.norm(w - est.value * v))

    @pytest.mark.parametrize("N", [8, 300])
    def test_split_spectrum_top_vector_clipped(self, N):
        # weights only at even indices split H into even and odd blocks; the
        # top vector lives on the even block, and the rounding left on the
        # odd block is clipped, not reported as negative entries
        k = np.arange(2 * N - 1)
        c = XSequence(np.where(k % 2 == 0, 1.0 / (k + 1), 0.0))
        est = matrix_norm(c, N)
        assert est.converged
        assert np.all(est.top_vector >= 0)
        assert np.linalg.norm(est.top_vector) == pytest.approx(1.0, abs=1e-12)
        assert abs(est.value - matrix_norm(c, N, DENSE_EIGEN).value) <= 1e-12

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            matrix_norm(classic_sequence(3), 2, "power_iteration")

    def test_classic_scan_products_pinned(self):
        # the tridiagonal is filled in place; the product counts of the
        # classic scan over 2..8192 stay those the matrix_norm docstring quotes
        scan = best_constant_scan(classic_sequence(2 * 8192 - 1), [2**k for k in range(1, 14)])
        assert [e.iterations for e in scan] == [3, 5, 6, 7, 7, 8, 8, 9, 9, 9, 10, 10, 10]
        assert all(e.converged for e in scan)

    def test_converges_at_two_to_the_twenty(self):
        # At N = 2^20, with one BLAS thread, lam and theta differ by 1.2e-14
        # on every restart: a quotient tolerance of 8 eps lam, without the
        # sqrt(N) of a length-N sum's rounding, was never met and the solve
        # ran on towards MAX_ITERATIONS.  The rounding depends on the BLAS
        # thread count, so the solve runs in a one-thread child, whose cap
        # of 64 products turns a stall into a quick failure.
        script = (
            "import json; from hardyhilbert import inequalities as q, seqspace\n"
            "q.MAX_ITERATIONS = 64\n"
            "e = q.matrix_norm(seqspace.classic_sequence(2**21 - 1), 2**20)\n"
            "print(json.dumps([e.value, e.iterations, e.residual, e.converged]))\n"
        )
        run = fresh_python("-c", script, timeout=120, OPENBLAS_NUM_THREADS="1",
                           OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        assert run.code == 0, run.err.decode()
        value, iterations, residual, converged = json.loads(run.out)
        assert converged
        assert iterations <= 16
        assert residual <= ROUNDING_FLOOR * value * np.sqrt(2**20)
        # above the N = 2^19 value 2.78816 and below Hilbert's constant pi
        assert 2.788 < value < np.pi


class TestEquivalenceWitness:
    def test_trivial_size_one(self):
        rep = equivalence_witness(classic_sequence(1), 1)
        assert rep.matrix_norm == pytest.approx(1.0, abs=1e-14)
        assert rep.hardy_ratio == pytest.approx(1.0, abs=1e-14)
        assert rep.gap <= 1e-14

    def test_two_by_two_gap(self):
        rep = equivalence_witness(classic_sequence(3), 2)
        assert rep.gap <= 1e-8
        assert rep.matrix_norm == pytest.approx(CLASSIC_N2, abs=1e-10)
        assert rep.hardy_ratio == pytest.approx(CLASSIC_N2, abs=1e-8)

    def test_gap_closes_for_non_unit_norm_sequence(self):
        rng = np.random.default_rng(6)
        c = XSequence(rng.uniform(0.1, 1.0, 15))  # xnorm far from 1
        rep = equivalence_witness(c, 8)
        assert rep.gap <= 1e-8

    def test_witness_degree(self):
        rep = equivalence_witness(classic_sequence(9), 5)
        assert rep.witness.degree == 8

    @pytest.mark.parametrize("N, weight", [(1, "classic"), (2, "classic"), (24, "classic"),
                                           (4096, "classic"), (24, "even")])
    def test_witness_needs_no_quadrature(self, monkeypatch, N, weight):
        # ||f||_1 = ||v||^2 is Parseval and f is squared on a grid: no
        # boundary quadrature and no root finding may run.  Weights only at
        # even indices zero half of v, and the odd coefficients of f come
        # out of the transforms as rounding noise of both signs, clipped at 0
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature or root finding on the witness")

        for holder in (hardyspace, inequalities):
            monkeypatch.setattr(holder, "hp_norm", refuse)
        monkeypatch.setattr(hardyspace, "_trap_mean_abs", refuse)
        monkeypatch.setattr(hardyspace, "_panel_mean_abs", refuse)
        monkeypatch.setattr(hardyspace.AnalyticPoly, "roots", refuse)
        k = np.arange(2 * N - 1)
        c = classic_sequence(2 * N - 1) if weight == "classic" else XSequence(
            np.where(k % 2 == 0, 1.0 / (k + 1), 0.0))
        rep = equivalence_witness(c, N)
        v = rep.estimate.top_vector
        oracle = np.convolve(v, v)  # the direct Cauchy product, an independent route
        f = np.zeros(2 * N - 1, dtype=complex)
        f[: rep.witness.coeffs.size] = rep.witness.coeffs
        assert np.all(f.real >= 0) and np.all(f.imag == 0)
        assert np.abs(f - oracle).max() <= 1e-15 * (v @ v)
        if weight == "classic":  # no coefficient of f sits at rounding level
            assert rep.witness.degree == 2 * N - 2
        assert rep.hardy_ratio == hardy_sum(rep.witness, c) / (xnorm(c) * (v @ v))
        assert rep.gap <= 1e-14

    @pytest.mark.parametrize("N", [1, 2, 255, 256, 257, 1100, 4096])
    def test_witness_is_squared_on_the_hankel_fft_length(self, monkeypatch, N):
        # the square g^2 has 2N-1 coefficients, so the fft operator's own
        # length, the smallest power of two >= 2N-1, keeps it linear
        lengths = []
        real = np.fft.irfft

        def recording_irfft(a, n=None, *args, **kwargs):
            lengths.append(n)
            return real(a, n, *args, **kwargs)

        c = classic_sequence(2 * N - 1)
        monkeypatch.setattr(np.fft, "irfft", recording_irfft)
        inequalities._hankel_operator(c.values, N, "fft")(np.ones(N))
        operator_length = lengths.pop()
        rep = equivalence_witness(c, N)
        assert lengths[-1] == rep.grid == operator_length
        assert operator_length >= 2 * N - 1 > operator_length // 2


class TestBestConstantScan:
    def test_classic_starts_at_one(self):
        scan = best_constant_scan(classic_sequence(1), [1])
        assert scan[0].value == 1.0

    def test_monotone_under_pi_small(self):
        c = classic_sequence(63)
        scan = best_constant_scan(c, [2, 4, 8, 16, 32])
        values = [e.value for e in scan]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < np.pi for v in values)

    def test_requires_ascending(self):
        with pytest.raises(ValueError):
            best_constant_scan(classic_sequence(9), [4, 2])

    def test_slow_decay_scan_finite_and_monotone(self):
        from hardyhilbert.seqspace import slow_decay_sequence, trace_to_xsequence
        c = trace_to_xsequence(slow_decay_sequence(0.6, 1.5, 2 * 256 - 2))
        scan = best_constant_scan(c, [2**j for j in range(1, 9)])
        values = [e.value for e in scan]
        assert all(np.isfinite(v) for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(e.converged for e in scan)


class TestDegreeBound:
    def test_constant_saturates(self):
        chk = hardy_degree_bound_check(AnalyticPoly([1.0]), classic_sequence(1))
        assert chk.holds
        assert chk.lhs == pytest.approx(chk.rhs, rel=1e-7)

    def test_perfect_square_holds_with_slack(self):
        chk = hardy_degree_bound_check(AnalyticPoly([1.0, 1.0, 0.25]), classic_sequence(5))
        assert chk.holds
        assert chk.slack > 0

    def test_witness_is_nearly_extremal(self):
        N = 6
        c = classic_sequence(2 * (2 * N - 2) + 1)
        rep = equivalence_witness(c, N)
        chk = hardy_degree_bound_check(rep.witness, c)
        assert chk.holds
        # the witness saturates its own truncation size, leaving little slack
        assert chk.lhs >= chk.rhs / (1.0 + 1e-6) * (matrix_norm(c, N).value
                                                    / matrix_norm(c, rep.witness.degree + 1).value)

    def test_circle_root_gets_a_verdict(self):
        # 1 + z vanishes at -1; ||1 + z||_1 = 4/pi, and the top eigenvalue of
        # [[1, 1/2], [1/2, 1/3]] is B_2 = 2/3 + sqrt(1/9 + 1/4)
        chk = hardy_degree_bound_check(AnalyticPoly([1.0, 1.0]), classic_sequence(3))
        assert not chk.skipped
        assert chk.holds
        assert chk.lhs == 1.5
        b2 = 2.0 / 3.0 + np.sqrt(1.0 / 9.0 + 1.0 / 4.0)
        assert chk.rhs == pytest.approx(b2 * (4.0 / np.pi) * (1.0 + DEGREE_BOUND_TOL), rel=1e-13)

    def test_random_pairs_hold(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = int(rng.integers(1, 8))
            radii = np.concatenate([rng.uniform(0.0, 0.9, d // 2),
                                    rng.uniform(1.1, 2.0, d - d // 2)])
            angles = rng.uniform(0, 2 * np.pi, d)
            f = AnalyticPoly(np.poly(radii * np.exp(1j * angles))[::-1])
            c = XSequence(rng.uniform(0.05, 1.0, 2 * d + 1))
            chk = hardy_degree_bound_check(f, c)
            assert not chk.skipped
            assert chk.holds


class TestNormalizedConstantScale:
    def test_ratio_invariant_under_sequence_scaling(self):
        rng = np.random.default_rng(8)
        c = XSequence(rng.uniform(0.1, 1.0, 9))
        scaled = XSequence(7.5 * c.values)
        f = AnalyticPoly(rng.random(5))
        assert hardy_ratio(f, c) == pytest.approx(hardy_ratio(f, scaled), rel=1e-12)
        r1 = equivalence_witness(c, 5)
        r2 = equivalence_witness(scaled, 5)
        assert r1.matrix_norm == pytest.approx(r2.matrix_norm, rel=1e-10)

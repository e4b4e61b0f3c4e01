"""Coefficient inequalities: weighted sums, bilinear forms, best constants.

For a fixed weight sequence c, the two quantities of interest are the
weighted coefficient sum  sum_n |a_n| c_n  against ||f||_1, and the
bilinear form  sum_{n,m} |a_n||b_m| c_{n+m}  against ||a||_2 ||b||_2.
The form is evaluated here as a literal double sum so that it can serve
as an independent cross-check of the exact bridge identity

    hilbert_form(a, b, c) = hardy_sum(cauchy_product(|a|, |b|), c)

rather than being computed through the same convolution.

Best constants come from spectral norms of the coefficient Hankel matrix
H[n, m] = c_{n+m} on nested truncations: the Rayleigh top pair (lam, v)
of the N x N truncation converts into an extremal witness f = g^2 with
g = sum v_n z^n, for which the weighted-sum ratio reproduces lam/||c||
up to solver residual --- the two best constants coincide, exhibited
constructively at every truncation size.

The top pair comes from power iteration on a Hankel operator kept as its
2N-1 generating values: from N >= FFT_MIN_N (256) the operator holds the
generator's FFT, computed once, and each product costs one rfft and one
irfft of a power-of-two length >= 2N-1; below that the direct O(N^2)
correlation is faster.  A dense symmetric eigensolve, allowed for
N <= 512, is the oracle the power route is tested against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hardyspace import (
    AnalyticPoly,
    FactorizationSingular,
    cauchy_product,
    hp_norm,
    require_circle_free,
)
from .seqspace import XSequence, csv_lines, xnorm

POWER_ITERATION = "power_iteration"
DENSE_EIGEN = "dense_eigen"

RESIDUAL_TOL = 1e-12
RAYLEIGH_TOL = 1e-14
# Rounding floor of power iteration per unit of |lam|: the Rayleigh
# quotient cannot settle below this, nor the residual below it times sqrt(N).
ROUNDING_FLOOR = 8.0 * np.finfo(float).eps
MAX_ITERATIONS = 10**5
DENSE_N_LIMIT = 512
# Power iteration uses the fft Hankel operator from this size up.  Measured
# per product (one thread, numpy 2.4): direct 14 vs fft 14.5 us at N = 128,
# direct 19 vs fft 17 us at N = 256, direct 109 vs fft 40 us at N = 512.
FFT_MIN_N = 256


def hardy_sum(f: AnalyticPoly, c: XSequence) -> float:
    """Weighted coefficient sum  sum_n |a_n| c_n  over the common range."""
    n = min(f.coeffs.size, len(c))
    return float(np.abs(f.coeffs[:n]) @ c.values[:n])


def hardy_ratio(f: AnalyticPoly, c: XSequence, M: int | None = None) -> float:
    """hardy_sum(f, c) / (||c|| * ||f||_1): a lower bound for the best constant."""
    if f.is_zero:
        raise ValueError("ratio undefined for the zero polynomial")
    xn = xnorm(c)
    if xn == 0.0:
        raise ValueError("ratio undefined for the zero sequence")
    return hardy_sum(f, c) / (xn * hp_norm(f, 1, M))


def hilbert_form(a, b, c: XSequence) -> float:
    """Bilinear form  sum_{n,m} |a_n| |b_m| c_{n+m}, evaluated as a double sum.

    Needs c defined through index len(a)+len(b)-2; a shorter sequence
    truncates the sum (missing weights treated as zero) with a warning.
    """
    A = np.abs(np.atleast_1d(np.asarray(a)))
    B = np.abs(np.atleast_1d(np.asarray(b)))
    need = A.size + B.size - 1
    cv = c.values
    if cv.size < need:
        warnings.warn(
            f"sequence covers {cv.size} weights but the form needs {need}; truncating",
            RuntimeWarning,
        )
        cv = np.concatenate([cv, np.zeros(need - cv.size)])
    C = cv[np.add.outer(np.arange(A.size), np.arange(B.size))]
    return float(np.einsum("n,m,nm->", A, B, C))


def _hankel_operator(gen: np.ndarray, N: int, method: str):
    """Build v -> Hv for the N x N Hankel matrix H[n, m] = gen[n+m].

    direct is the O(N^2) correlation by np.convolve.  fft transforms the
    generator once and then costs one rfft and one irfft per product: the
    linear convolution of gen[:2N-1] with reversed v has length 3N-2, and
    with L >= 2N-1 its circular wrap-around only lands on outputs below N-1
    or above 2N-2, so the wanted outputs N-1..2N-2 are exact.
    """
    gen = np.asarray(gen, dtype=float)
    if gen.size < 2 * N - 1:
        raise ValueError("generator must cover indices through 2N-2")
    gen = gen[: 2 * N - 1]
    if method == "direct":
        return lambda v: np.convolve(gen, v[::-1])[N - 1 : 2 * N - 1]
    if method == "fft":
        L = 1 << (2 * N - 2).bit_length()  # smallest power of two >= 2N-1
        spectrum = np.fft.rfft(gen, L)
        return lambda v: np.fft.irfft(spectrum * np.fft.rfft(v[::-1], L), L)[N - 1 : 2 * N - 1]
    raise ValueError(f"unknown matvec method {method!r}")


def hankel_matvec(gen: np.ndarray, v: np.ndarray, method: str = "direct") -> np.ndarray:
    """(Hv)[n] = sum_m gen[n+m] v[m] for the Hankel matrix generated by gen.

    direct is the O(N^2) correlation; fft is the O(N log N) route on a
    power-of-two transform of length >= 2N-1.  The two must agree to 1e-13
    (covered by tests).  matrix_norm builds the same operator once per call
    and takes the fft route from N >= FFT_MIN_N.
    """
    v = np.asarray(v, dtype=float)
    return _hankel_operator(gen, v.size, method)(v)


@dataclass
class OperatorNormEstimate:
    """Spectral norm of the N x N coefficient Hankel truncation."""

    N: int
    value: float
    method: str
    iterations: int
    residual: float
    top_vector: np.ndarray
    converged: bool


def matrix_norm(c: XSequence, N: int, method: str = POWER_ITERATION) -> OperatorNormEstimate:
    """Top of the spectrum of H[n, m] = c_{n+m}, n, m < N.

    Power iteration starts from the all-ones vector (nonnegative, so it
    overlaps the Perron direction of this entrywise-nonnegative matrix)
    and stops when the Rayleigh quotient moves less than RAYLEIGH_TOL and
    the eigen-residual drops below RESIDUAL_TOL.  Both tolerances are
    absolute and lie below the rounding floor once lam is large, so each
    is raised to that floor, 8 eps |lam| for the quotient and
    8 eps |lam| sqrt(N) for the residual; for lam < pi and N <= 8192 the
    fixed tolerances are the larger ones.  Exhausting
    MAX_ITERATIONS, or a non-finite Rayleigh quotient, yields a flagged
    (converged=False) estimate rather than an exception.  The matrix is
    kept as its 2N-1 generating values and applied by the Hankel operator
    built once per call: the fft route from N >= FFT_MIN_N, direct below.
    The dense route materializes it for a direct symmetric eigensolve,
    allowed for N <= DENSE_N_LIMIT as the oracle for power iteration.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if len(c) < 2 * N - 1:
        raise ValueError(f"sequence must cover indices through {2 * N - 2}")
    gen = c.values[: 2 * N - 1]

    if method == DENSE_EIGEN:
        if N > DENSE_N_LIMIT:
            raise ValueError(f"dense eigensolve limited to N <= {DENSE_N_LIMIT}")
        idx = np.arange(N)
        H = gen[idx[:, None] + idx[None, :]]
        w, V = np.linalg.eigh(H)
        lam = float(w[-1])
        v = V[:, -1]
        if v.sum() < 0:
            v = -v
        v = np.maximum(v, 0.0)
        nv = np.linalg.norm(v)
        v = v / nv if nv > 0 else v
        res = float(np.linalg.norm(H @ v - lam * v))
        return OperatorNormEstimate(N=N, value=lam, method=method, iterations=0,
                                    residual=res, top_vector=v,
                                    converged=res <= max(RESIDUAL_TOL, 1e-13 * max(lam, 1.0)))
    if method != POWER_ITERATION:
        raise ValueError(f"unknown method {method!r}")

    matvec = _hankel_operator(gen, N, "fft" if N >= FFT_MIN_N else "direct")
    sqrt_n = np.sqrt(N)
    v = np.ones(N) / sqrt_n
    lam_prev = np.inf
    lam = 0.0
    res = np.inf
    for it in range(1, MAX_ITERATIONS + 1):
        w = matvec(v)
        lam = float(v @ w)
        if not np.isfinite(lam):  # overflow or non-finite weights: stop, flagged
            return OperatorNormEstimate(N=N, value=lam, method=method, iterations=it,
                                        residual=np.inf, top_vector=v, converged=False)
        res = float(np.linalg.norm(w - lam * v))
        floor = ROUNDING_FLOOR * abs(lam)
        if res <= max(RESIDUAL_TOL, floor * sqrt_n) and abs(lam - lam_prev) < max(RAYLEIGH_TOL, floor):
            return OperatorNormEstimate(N=N, value=lam, method=method, iterations=it,
                                        residual=res, top_vector=v, converged=True)
        lam_prev = lam
        nw = np.linalg.norm(w)
        if nw == 0.0:  # zero matrix: all-ones vector is already an eigenvector
            return OperatorNormEstimate(N=N, value=0.0, method=method, iterations=it,
                                        residual=0.0, top_vector=v, converged=True)
        v = w / nw
    return OperatorNormEstimate(N=N, value=lam, method=method, iterations=MAX_ITERATIONS,
                                residual=res, top_vector=v, converged=False)


@dataclass
class EquivalenceReport:
    """Constructive two-sided comparison of the two best constants at size N.

    ``matrix_norm`` is the Hankel spectral norm divided by ||c||, the
    proper best-constant scale (for the unit-norm classic sequence the
    division is by 1).  ``witness`` is f = g^2 built from the top vector;
    ``gap`` is |hardy_ratio(witness) - matrix_norm| and vanishes up to
    solver residual whenever the estimate converged.
    """

    N: int
    matrix_norm: float
    hardy_ratio: float
    gap: float
    witness: AnalyticPoly
    estimate: OperatorNormEstimate

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "matrix_norm": self.matrix_norm,
            "hardy_ratio": self.hardy_ratio,
            "gap": self.gap,
            "witness_degree": self.witness.degree,
        }


def equivalence_witness(c: XSequence, N: int, M: int | None = None,
                        method: str = POWER_ITERATION) -> EquivalenceReport:
    """Build the extremal witness f = g^2 from the top Hankel vector.

    With g = sum v_n z^n and v >= 0 the witness satisfies
    sum_n |f_n| c_n = v'Hv = lam and ||f||_1 = ||g||_2^2 = 1, so the
    weighted-sum ratio reproduces lam/||c|| and the report's gap
    collapses to quadrature-plus-eigensolver tolerance.  An unconverged
    estimate propagates through the ``estimate`` field.
    """
    est = matrix_norm(c, N, method)
    xn = xnorm(c)
    if xn == 0.0:
        raise ValueError("witness undefined for the zero sequence")
    witness = AnalyticPoly(cauchy_product(est.top_vector, est.top_vector))
    ratio = hardy_ratio(witness, c, M)
    bhat = est.value / xn
    return EquivalenceReport(N=N, matrix_norm=bhat, hardy_ratio=ratio,
                             gap=abs(ratio - bhat), witness=witness, estimate=est)


def best_constant_scan(c: XSequence, N_list, method: str = POWER_ITERATION) -> list[OperatorNormEstimate]:
    """Hankel spectral norms over an ascending list of truncation sizes."""
    sizes = [int(n) for n in N_list]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("truncation sizes must be strictly ascending")
    return [matrix_norm(c, n, method) for n in sizes]


def scan_rows(estimates: list[OperatorNormEstimate]) -> list[list]:
    """CSV rows of a scan, header first: N, norm and residual as repr, iterations."""
    return [["N", "norm", "residual", "iterations"]] + [
        [e.N, repr(e.value), repr(e.residual), e.iterations] for e in estimates]


def scan_to_csv(path, estimates: list[OperatorNormEstimate]) -> None:
    with open(path, "w", newline="") as fh:
        fh.writelines(csv_lines(scan_rows(estimates)))


@dataclass
class DegreeBoundCheck:
    holds: bool | None
    lhs: float
    rhs: float
    slack: float
    skipped: bool
    reason: str = ""


def hardy_degree_bound_check(f: AnalyticPoly, c: XSequence,
                             tol: float = 1e-8) -> DegreeBoundCheck:
    """Check hardy_sum(f, c) <= matrix_norm(c, deg f + 1) * ||f||_1 * (1 + tol).

    A degree-d weighted sum only sees c_0..c_d, so by zero-extending the
    weights beyond d it factors through the (d+1)-truncation of the
    Hankel form; entrywise monotonicity then bounds it by the true
    (d+1)-truncation norm.  Inputs the factorizer would reject (zero on
    the circle) skip the check and report why.
    """
    try:
        require_circle_free(f)
    except FactorizationSingular as exc:
        return DegreeBoundCheck(holds=None, lhs=0.0, rhs=0.0, slack=0.0,
                                skipped=True, reason=str(exc))
    est = matrix_norm(c, f.degree + 1)
    if not est.converged:
        return DegreeBoundCheck(holds=None, lhs=0.0, rhs=0.0, slack=0.0,
                                skipped=True, reason="matrix norm estimate unconverged")
    lhs = hardy_sum(f, c)
    rhs = est.value * hp_norm(f, 1) * (1.0 + tol)
    return DegreeBoundCheck(holds=bool(lhs <= rhs), lhs=lhs, rhs=rhs,
                            slack=rhs - lhs, skipped=False)

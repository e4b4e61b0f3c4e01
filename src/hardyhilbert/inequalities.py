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
g = sum v_n z^n.  Its weighted sum is v'Hv = lam by the bridge identity
and its 1-norm is ||v||^2 by Parseval, so the weighted-sum ratio
reproduces lam/||c|| up to rounding, with no boundary quadrature --- the
two best constants coincide, exhibited constructively at every
truncation size.

The top pair comes from Lanczos with full reorthogonalization on a
Hankel operator kept as its 2N-1 generating values: from N >= FFT_MIN_N
(256) the operator holds the generator's FFT, computed once, and each
product costs one rfft and one irfft of the smallest power-of-two length
>= 2N-1; below that the direct O(N^2) correlation is faster.  Lanczos
converges at the Chebyshev rate in the square root of the spectral gap
(Kaniel, Paige, Saad), where power iteration only gets the gap ratio
itself: 10 products against 56 at N = 8192.  A dense symmetric
eigensolve, allowed for N <= 512, is the oracle the Lanczos route is
tested against.  The witness square g^2 has 2N-1 coefficients, so it is
taken on the same fft length at every N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hardyspace import AnalyticPoly, _next_pow2, hp_norm
from .seqspace import XSequence, xnorm

LANCZOS = "lanczos"
DENSE_EIGEN = "dense_eigen"

RESIDUAL_TOL = 1e-12
# Relative slack of hardy_degree_bound_check's right-hand side.
DEGREE_BOUND_TOL = 1e-8
RAYLEIGH_TOL = 1e-14
# Rounding floor of an iterative eigensolve per unit of |lam|: neither the
# residual nor the Rayleigh quotient, each built from length-N inner
# products, can settle below this times sqrt(N).
ROUNDING_FLOOR = 8.0 * np.finfo(float).eps
MAX_ITERATIONS = 10**5  # cap on Hankel products per Lanczos solve
# Largest Krylov basis before an explicit restart from the Ritz vector; the
# classic weight converges within 12 products from N = 1024 to N = 2^20.
KRYLOV_DIM = 32
DENSE_N_LIMIT = 512
# Lanczos uses the fft Hankel operator from this size up.  Measured
# per product (one thread, numpy 2.4): direct 14 vs fft 14.5 us at N = 128,
# direct 19 vs fft 17 us at N = 256, direct 109 vs fft 40 us at N = 512.
FFT_MIN_N = 256


def hardy_sum(f: AnalyticPoly, c: XSequence) -> float:
    """Weighted coefficient sum  sum_n |a_n| c_n  over the common range."""
    n = min(f.coeffs.size, len(c))
    return float(np.abs(f.coeffs[:n]) @ c.values[:n])


def hardy_ratio(f: AnalyticPoly, c: XSequence, *, norm1: float | None = None) -> float:
    """hardy_sum(f, c) / (||c|| * ||f||_1): a lower bound for the best constant.

    ``norm1`` is ||f||_1 when the caller holds it already; otherwise it
    comes from hp_norm.
    """
    if f.is_zero:
        raise ValueError("ratio undefined for the zero polynomial")
    xn = xnorm(c)
    if xn == 0.0:
        raise ValueError("ratio undefined for the zero sequence")
    return hardy_sum(f, c) / (xn * (hp_norm(f, 1) if norm1 is None else norm1))


def hilbert_form(a, b, c: XSequence) -> float:
    """Bilinear form  sum_{n,m} |a_n| |b_m| c_{n+m}, evaluated as a double sum.

    Needs c defined through index len(a)+len(b)-2; a shorter sequence
    raises ValueError.
    """
    A = np.abs(np.atleast_1d(np.asarray(a)))
    B = np.abs(np.atleast_1d(np.asarray(b)))
    need = A.size + B.size - 1
    cv = c.values
    if cv.size < need:
        raise ValueError(f"sequence covers {cv.size} weights but the form needs {need}")
    C = cv[np.add.outer(np.arange(A.size), np.arange(B.size))]
    return float(np.einsum("n,m,nm->", A, B, C))


def _fft_length(N: int, M: int | None = None) -> int:
    """Smallest power of two >= 2N-1, the fft length of the N x N Hankel
    operator, on which a circular square of N coefficients is linear; or
    the smallest power of two >= M for a given M, which must be >= 2N-1."""
    if M is not None and M < 2 * N - 1:
        raise ValueError(f"grid too small: need M >= {2 * N - 1}, got {M}")
    return _next_pow2(2 * N - 1 if M is None else M)


def _hankel_operator(gen: np.ndarray, N: int, method: str):
    """Build v -> Hv for the N x N Hankel matrix H[n, m] = gen[n+m].

    direct is the O(N^2) correlation by np.convolve.  fft transforms the
    generator once and then costs one rfft and one irfft per product: the
    linear convolution of gen[:2N-1] with reversed v has length 3N-2, and
    with L >= 2N-1 its circular wrap-around only lands on outputs below N-1
    or above 2N-2, so the wanted outputs N-1..2N-2 are exact.  The two
    routes agree to 1e-13, and the tests use each as the other's oracle.
    """
    gen = np.asarray(gen, dtype=float)
    if gen.size < 2 * N - 1:
        raise ValueError("generator must cover indices through 2N-2")
    gen = gen[: 2 * N - 1]
    if method == "direct":
        return lambda v: np.convolve(gen, v[::-1])[N - 1 : 2 * N - 1]
    if method == "fft":
        L = _fft_length(N)
        spectrum = np.fft.rfft(gen, L)
        return lambda v: np.fft.irfft(spectrum * np.fft.rfft(v[::-1], L), L)[N - 1 : 2 * N - 1]
    raise ValueError(f"unknown matvec method {method!r}")


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


def _nonnegative_unit(v: np.ndarray) -> np.ndarray:
    """An approximate Perron vector, sign fixed, its negative rounding noise
    clipped to zero and the rest renormalized."""
    v = np.maximum(v if v.sum() >= 0 else -v, 0.0)
    nv = np.linalg.norm(v)
    return v / nv if nv > 0 else v


def matrix_norm(c: XSequence, N: int, method: str = LANCZOS) -> OperatorNormEstimate:
    """Top of the spectrum of H[n, m] = c_{n+m}, n, m < N.

    Lanczos starts from the all-ones vector (nonnegative, so it overlaps
    the Perron direction of this entrywise-nonnegative matrix) and builds
    a Krylov basis of at most KRYLOV_DIM vectors, each orthogonalized
    against all earlier ones by two passes of classical Gram-Schmidt
    ("twice is enough"), so the Ritz pair (theta, y) of the small
    tridiagonal matrix stays faithful without selective schemes.  The
    Lanczos residual estimate beta_j |y_j| only decides when to check:
    then the Ritz vector is formed, its sign fixed, its negative rounding
    noise clipped and the rest renormalized to a nonnegative unit v, and
    one more product gives w = Hv, lam = v'w and res = ||w - lam v||.  The
    run is converged when res drops below RESIDUAL_TOL and lam lies within
    RAYLEIGH_TOL of theta.  Both tolerances are absolute and lie below the
    rounding floor once lam or N is large, so each is raised to that floor,
    8 eps |lam| sqrt(N): lam and theta are sums of N rounded terms, as res
    is.  For lam < pi the fixed residual tolerance is the larger one up to
    N = 8192.
    A failed check, or a full basis, restarts Lanczos explicitly from v,
    whose product w is already known.

    The reported value is v'Hv for a computed nonnegative unit vector v,
    never the Ritz value itself, so it is a lower bound for the norm up to
    the rounding of one product, whatever the Krylov basis lost to
    rounding.  ``iterations`` counts Hankel products, checks included.
    Exhausting MAX_ITERATIONS products, or a non-finite Rayleigh quotient,
    yields a flagged (converged=False) estimate rather than an exception;
    non-finite weights stop after the first product.  The matrix is kept
    as its 2N-1 generating values and applied by the Hankel operator built
    once per call: the fft route from N >= FFT_MIN_N, direct below.  The
    dense route materializes it for a direct symmetric eigensolve, allowed
    for N <= DENSE_N_LIMIT as the oracle for Lanczos.
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
        v = _nonnegative_unit(V[:, -1])
        res = float(np.linalg.norm(H @ v - lam * v))
        return OperatorNormEstimate(N=N, value=lam, method=method, iterations=0,
                                    residual=res, top_vector=v,
                                    converged=res <= max(RESIDUAL_TOL, 1e-13 * max(lam, 1.0)))
    if method != LANCZOS:
        raise ValueError(f"unknown method {method!r}")

    matvec = _hankel_operator(gen, N, "fft" if N >= FFT_MIN_N else "direct")
    sqrt_n = np.sqrt(N)
    dim = min(KRYLOV_DIM, N)
    v = np.ones(N) / sqrt_n
    w = matvec(v)
    products = 1
    lam = float(v @ w)
    if not np.isfinite(lam):  # overflow or non-finite weights: stop, flagged
        return OperatorNormEstimate(N=N, value=lam, method=method, iterations=1,
                                    residual=np.inf, top_vector=v, converged=False)
    Q = np.empty((dim, N))
    while True:
        # One Lanczos cycle from the unit vector v, whose product w is known.
        Q[0] = v
        alphas, betas = [], []
        for j in range(dim):
            if j > 0:
                w = matvec(Q[j])
                products += 1
            basis = Q[: j + 1]
            h = basis @ w
            w = w - h @ basis
            h2 = basis @ w  # a second Gram-Schmidt pass: twice is enough
            w -= h2 @ basis
            alphas.append(h[j] + h2[j])
            beta = float(np.linalg.norm(w))
            T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            ritz, Y = np.linalg.eigh(T)
            theta, y = float(ritz[-1]), Y[:, -1]
            floor = ROUNDING_FLOOR * abs(theta)
            # beta |y_j| is the Ritz residual: it only schedules the check below
            if (beta * abs(y[-1]) <= max(RESIDUAL_TOL, floor * sqrt_n)
                    or j == dim - 1 or products >= MAX_ITERATIONS - 1):
                break
            Q[j + 1] = w / beta
            betas.append(beta)
        # Check the Ritz pair on a clipped nonnegative unit vector; if it
        # fails, the next cycle restarts from that vector and its product.
        v = _nonnegative_unit(y @ basis)
        w = matvec(v)
        products += 1
        lam = float(v @ w)
        res = float(np.linalg.norm(w - lam * v))
        floor = ROUNDING_FLOOR * abs(lam) * sqrt_n
        if res <= max(RESIDUAL_TOL, floor) and abs(lam - theta) < max(RAYLEIGH_TOL, floor):
            return OperatorNormEstimate(N=N, value=lam, method=method, iterations=products,
                                        residual=res, top_vector=v, converged=True)
        if products >= MAX_ITERATIONS:
            return OperatorNormEstimate(N=N, value=lam, method=method, iterations=products,
                                        residual=res, top_vector=v, converged=False)


@dataclass
class EquivalenceReport:
    """Constructive two-sided comparison of the two best constants at size N.

    ``matrix_norm`` is the Hankel spectral norm divided by ||c||, the
    proper best-constant scale (for the unit-norm classic sequence the
    division is by 1).  ``witness`` is f = g^2 built from the top vector;
    ``hardy_ratio`` is its weighted-sum ratio, with ||f||_1 = ||v||^2 by
    Parseval, and ``gap`` = |hardy_ratio - matrix_norm| checks the bridge
    identity in floats: one convolution against one Hankel product, so it
    is rounding, since the Lanczos value is v'Hv.  ``grid`` is the fft
    length g was squared on.
    """

    N: int
    matrix_norm: float
    hardy_ratio: float
    gap: float
    witness: AnalyticPoly
    estimate: OperatorNormEstimate
    grid: int


def equivalence_witness(c: XSequence, N: int, M: int | None = None) -> EquivalenceReport:
    """Build the extremal witness f = g^2 from the top Hankel vector.

    With g = sum v_n z^n and v >= 0 the witness satisfies
    sum_n |f_n| c_n = v'Hv = lam and, since |f| = |g|^2 on the circle,
    ||f||_1 = ||g||_2^2 = ||v||^2 (Parseval), so the weighted-sum ratio
    reproduces lam/||c|| with no quadrature.  g is squared by one rfft and
    one irfft of the Hankel operator's fft length, the smallest power of
    two >= 2N-1, on which the circular square of N coefficients is linear.
    A given M must be >= 2N-1 and is rounded up to a power of two.
    Rounding noise below zero is clipped, since v >= 0 makes every
    coefficient nonnegative.  An unconverged estimate propagates through
    the ``estimate`` field.
    """
    grid = _fft_length(N, M)
    est = matrix_norm(c, N)
    xn = xnorm(c)
    if xn == 0.0:
        raise ValueError("witness undefined for the zero sequence")
    v = est.top_vector
    f = np.fft.irfft(np.fft.rfft(v, grid) ** 2, grid)[: 2 * N - 1]
    witness = AnalyticPoly(np.maximum(f, 0.0))
    ratio = hardy_sum(witness, c) / (xn * float(v @ v))
    bhat = est.value / xn
    return EquivalenceReport(N=N, matrix_norm=bhat, hardy_ratio=ratio,
                             gap=abs(ratio - bhat), witness=witness, estimate=est, grid=grid)


def best_constant_scan(c: XSequence, N_list, method: str = LANCZOS) -> list[OperatorNormEstimate]:
    """Hankel spectral norms over an ascending list of truncation sizes."""
    sizes = [int(n) for n in N_list]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("truncation sizes must be strictly ascending")
    return [matrix_norm(c, n, method) for n in sizes]


@dataclass
class DegreeBoundCheck:
    holds: bool | None
    lhs: float
    rhs: float
    slack: float
    skipped: bool
    reason: str = ""


def hardy_degree_bound_check(f: AnalyticPoly, c: XSequence, *,
                             norm1: float | None = None) -> DegreeBoundCheck:
    """Check hardy_sum(f, c) <= matrix_norm(c, deg f + 1) * ||f||_1 * (1 + DEGREE_BOUND_TOL).

    A degree-d weighted sum only sees c_0..c_d, so by zero-extending the
    weights beyond d it factors through the (d+1)-truncation of the
    Hankel form; entrywise monotonicity then bounds it by the true
    (d+1)-truncation norm.  The bound holds for every polynomial, zeros on
    the circle included (the limit of f(rz) as r -> 1).  An unconverged
    norm estimate skips the check and says so.  ``norm1`` is ||f||_1 as
    for hardy_ratio.
    """
    est = matrix_norm(c, f.degree + 1)
    if not est.converged:
        return DegreeBoundCheck(holds=None, lhs=0.0, rhs=0.0, slack=0.0,
                                skipped=True, reason="matrix norm estimate unconverged")
    lhs = hardy_sum(f, c)
    rhs = est.value * (hp_norm(f, 1) if norm1 is None else norm1) * (1.0 + DEGREE_BOUND_TOL)
    return DegreeBoundCheck(holds=bool(lhs <= rhs), lhs=lhs, rhs=rhs,
                            slack=rhs - lhs, skipped=False)

"""Analytic polynomials on the disk: boundary norms, products, factorization.

Boundary norms.  The quadratic norm comes straight off the coefficients
(Parseval).  The boundary mean of |f| has two routes.  The uniform
trapezoid rule on M and 2M points is exact whenever |f|^2 is a
trigonometric polynomial (perfect squares) and geometrically convergent
when no zero sits near the unit circle; its value is taken when the two
grids agree.  Otherwise the mean goes to Gauss-Legendre panels, split at
the angles of the zeros near the circle (a zero there puts a kink in theta
-> |f(e^{i theta})|, capping the trapezoid at O(M^-2)) or laid over the
whole circle when there is none, and refined until two passes agree.

Factorization.  f = g h with |g| = |h| = |f|^(1/2) on the circle (F. Riesz).
h is the outer square root, rebuilt from boundary data with no zeros
found: take log|f| on the grid, keep the analytic half of its Fourier
series (constant plus doubled positive frequencies), exponentiate half of
it.  Its value at 0 is exp(mean(log|f|)/2) > 0, which pins the branch.  h
has no zeros in the disk, so g = f/h, taken on the same grid, is analytic
and carries every inner factor of f.  The factors are genuine truncated
power series: their degree is governed by the decay of the outer square
root, not by deg f, and the product is certified against f on the grid
before returning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seqspace import _read_indexed_csv, indexed_csv

TRAP_RTOL = 1e-13
KINK_NEAR = 1e-2  # |.|rho|-1| below this reroutes the |f| mean to panel quadrature
FACTOR_RESIDUAL_REL = 1e-8
_FACTOR_GRID_CAP = 2**18  # finest grid factorization_report doubles up to
_PANEL_NODES = 32  # Gauss-Legendre nodes per panel
_PANEL_ROUNDS = 14  # panel doublings before the |f| mean is declared unconverged


class ConvergenceError(RuntimeError):
    """A quadrature or truncation failed to reach its tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        self.residual = residual
        super().__init__(message)


class AnalyticPoly:
    """Polynomial sum a_n z^n stored as the complex coefficient vector a_0..a_d.

    Trailing exact zeros are trimmed so the leading coefficient vanishes
    only for the zero polynomial (degree 0).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d array")
        last = c.size
        while last > 1 and c[last - 1] == 0:
            last -= 1
        self.coeffs = c[:last].copy()

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0))

    def __call__(self, z):
        return np.polyval(self.coeffs[::-1], z)

    def roots(self) -> np.ndarray:
        if self.degree == 0 or self.is_zero:
            return np.array([], dtype=complex)
        return np.roots(self.coeffs[::-1])

    def __repr__(self):
        return f"AnalyticPoly(degree={self.degree})"


def _next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1).bit_length())


# Smallest grid the boundary 1-norm and the factorization start from.
_MIN_GRID = 4096


def _resolve_grid(degree: int, M, default: int = _MIN_GRID) -> int:
    need = 4 * (degree + 1)
    if M is None:
        M = max(default, _next_pow2(need))
    elif M < need:
        raise ValueError(f"grid too small: need M >= {need}, got {M}")
    return _next_pow2(M)


def _on_circle(coeffs: np.ndarray, M: int) -> np.ndarray:
    """Samples of sum_n coeffs[n] z^n at z = e^{2 pi i j / M}, j = 0..M-1.

    A zero-padded inverse FFT, which would silently drop the coefficients
    past M, so more than M of them are refused.
    """
    if coeffs.size > M:
        raise ValueError(f"{coeffs.size} coefficients do not fit a {M}-point grid")
    return np.fft.ifft(coeffs, n=M) * M


def _trap_mean_abs(f: AnalyticPoly, M: int) -> float:
    # fft evaluates on the conjugate grid; the node multiset is the same.
    return float(np.abs(np.fft.fft(f.coeffs, n=M)).mean())


def _panel_mean_abs(f: AnalyticPoly, kinks) -> float:
    """Mean of |f| on the circle by composite Gauss-Legendre panels.

    The circle is split at the kink angles (one arc from angle 0 when there
    are none); on each closed sub-arc |f| agrees with an analytic function,
    so panel refinement converges geometrically.  Panels double until two
    passes agree to TRAP_RTOL; after _PANEL_ROUNDS passes without that,
    ConvergenceError is raised.
    """
    ks = np.sort(np.mod(np.asarray(kinks, dtype=float), 2 * np.pi))
    keep = [ks[0] if ks.size else 0.0]
    for a in ks[1:]:
        if a - keep[-1] > 1e-12:
            keep.append(a)
    arcs = []
    for i, a in enumerate(keep):
        b = keep[(i + 1) % len(keep)] + (2 * np.pi if i == len(keep) - 1 else 0.0)
        if b - a > 1e-12:
            arcs.append((a, b))
    x, w = np.polynomial.legendre.leggauss(_PANEL_NODES)
    rev = f.coeffs[::-1]
    base = max(8, (f.degree + 1) // 4)
    prev = np.inf
    for _ in range(_PANEL_ROUNDS):
        total = 0.0
        for a, b in arcs:
            npan = max(2, int(np.ceil((b - a) / (2 * np.pi) * base)))
            edges = np.linspace(a, b, npan + 1)
            mid = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * (edges[1] - edges[0])
            theta = (mid[:, None] + half * x[None, :]).ravel()
            vals = np.abs(np.polyval(rev, np.exp(1j * theta)))
            total += half * float(np.tile(w, npan) @ vals)
        total /= 2 * np.pi
        change = abs(total - prev)
        if change <= TRAP_RTOL * max(abs(total), 1e-300):
            return total
        prev = total
        base *= 2
    raise ConvergenceError(f"panel quadrature for the mean of |f| did not stabilize in "
                           f"{_PANEL_ROUNDS} passes (last change {change:.3e})", residual=change)


def hp_norm(f: AnalyticPoly, p: int) -> float:
    """Boundary p-norm of a polynomial, p in {1, 2}.

    p = 2 is Parseval on the coefficients.  p = 1 is the mean of |f| over
    the circle by _boundary_mean_abs, started from the larger of 4096 and
    the power of two at or above 4(deg f + 1).  The result does not depend
    on that grid: the trapezoid pair is taken only once it agrees to
    TRAP_RTOL, and the panels refine until they settle.
    """
    if p == 2:
        return float(np.linalg.norm(f.coeffs))
    if p != 1:
        raise ValueError(f"p must be 1 or 2, got {p}")
    return _boundary_mean_abs(f, _resolve_grid(f.degree, None))


def _boundary_mean_abs(f: AnalyticPoly, M: int) -> float:
    """Mean of |f| over the circle, starting from an M-point grid.

    Trapezoid sums on M and 2M points are accepted once they agree to
    TRAP_RTOL.  Otherwise the mean comes from Gauss-Legendre panels split at
    the zeros within KINK_NEAR of the circle (one arc over the whole circle
    when there is none), which raise ConvergenceError if they do not settle.
    """
    t1 = _trap_mean_abs(f, M)
    t2 = _trap_mean_abs(f, 2 * M)
    if abs(t2 - t1) <= TRAP_RTOL * max(t2, 1e-300):
        return t2
    rts = f.roots()
    near = rts[np.abs(np.abs(rts) - 1.0) < KINK_NEAR]
    return _panel_mean_abs(f, np.angle(near))


def cauchy_product(a, b) -> np.ndarray:
    """Coefficient convolution d_n = sum_{k<=n} a_k b_{n-k}."""
    a = np.atleast_1d(np.asarray(a))
    b = np.atleast_1d(np.asarray(b))
    return np.convolve(a, b)


def dual_pairing(f: AnalyticPoly, g: AnalyticPoly) -> complex:
    """Coefficient pairing sum_n a_n conj(b_n) over the common range."""
    n = min(f.coeffs.size, g.coeffs.size)
    return complex(np.vdot(g.coeffs[:n], f.coeffs[:n]))


def phase_sequence(f: AnalyticPoly) -> np.ndarray:
    """Unimodular phases a_n/|a_n|, with 1 substituted where a_n = 0."""
    a = f.coeffs
    mod = np.abs(a)
    return np.where(mod > 0, a / np.where(mod > 0, mod, 1.0), 1.0 + 0j)


@dataclass
class RieszFactorization:
    g: AnalyticPoly
    h: AnalyticPoly
    residual_max: float
    norm_defect: float
    blaschke_degree: int
    grid_size: int


def factorization_report(f: AnalyticPoly) -> RieszFactorization:
    """Factor f = g*h with |g| = |h| = |f|^(1/2) on the circle.

    h is the outer square root of |f| and g = f/h, so ||f||_1 =
    ||g||_2 ||h||_2 holds by construction, up to the certified residual.
    ``blaschke_degree`` is the number of zeros in the disk, read as the
    winding number of f around the grid.  A grid point where f vanishes
    exactly raises ConvergenceError.  The outer square root's Taylor tail
    is cut at the grid, so a zero on or near the circle needs a finer one:
    the grid starts at the larger of 4096 and the power of two at or above
    16(deg f + 1), and doubles, up to _FACTOR_GRID_CAP, while the residual
    exceeds FACTOR_RESIDUAL_REL * ||f||_2.  A residual still above that on
    the last grid raises ConvergenceError.  ``grid_size`` is the grid that
    passed; ``norm_defect`` takes ||f||_1 by _boundary_mean_abs from it.
    """
    if f.is_zero:
        raise ValueError("cannot factorize the zero polynomial")
    grid = max(_MIN_GRID, _next_pow2(16 * (f.degree + 1)))
    limit = FACTOR_RESIDUAL_REL * hp_norm(f, 2)
    while True:
        g, h, residual, winding = _factor_on_grid(f, grid)
        if residual <= limit:
            break
        if 2 * grid > _FACTOR_GRID_CAP:
            raise ConvergenceError(
                f"factor product misses f by {residual:.3e} (limit {limit:.3e}) "
                f"on a {grid}-point grid",
                residual=residual,
            )
        grid *= 2
    defect = abs(_boundary_mean_abs(f, grid) - hp_norm(g, 2) * hp_norm(h, 2))
    return RieszFactorization(
        g=g,
        h=h,
        residual_max=residual,
        norm_defect=defect,
        blaschke_degree=winding,
        grid_size=grid,
    )


def _factor_on_grid(f: AnalyticPoly, M: int):
    """The factor pair on an M-point grid, max |f - g h| over that grid and
    the winding number of f around it."""
    fv = _on_circle(f.coeffs, M)
    mod = np.abs(fv)
    if not mod.all():
        raise ConvergenceError(f"f vanishes at a point of the unit circle on the {M}-point grid")
    chat = np.fft.fft(np.log(mod)) / M
    mult = np.zeros(M, dtype=complex)
    mult[0] = chat[0]
    mult[1 : M // 2] = 2.0 * chat[1 : M // 2]  # Nyquist bin dropped
    sqrt_outer = np.exp(0.5 * np.fft.ifft(mult) * M)

    def coeffs_of(grid_vals):
        c = np.fft.fft(grid_vals) / M
        c = c[: M // 2]
        mags = np.abs(c)
        keep = np.nonzero(mags > 1e-14 * mags.max())[0]
        return c[: keep[-1] + 1] if keep.size else c[:1]

    g = AnalyticPoly(coeffs_of(fv / sqrt_outer))
    h = AnalyticPoly(coeffs_of(sqrt_outer))

    gv = _on_circle(g.coeffs, M)
    hv = _on_circle(h.coeffs, M)
    winding = int(np.rint(np.angle(np.roll(fv, -1) / fv).sum() / (2 * np.pi)))
    return g, h, float(np.abs(fv - gv * hv).max()), winding


# ---------------------------------------------------------------------------
# CSV interchange: header index,re,im, one row per coefficient from index 0.

def write_polynomial_csv(path, f: AnalyticPoly) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("index,re,im\n")
        fh.writelines(indexed_csv(f.coeffs.real, f.coeffs.imag))


def read_polynomial_csv(path) -> AnalyticPoly:
    rec = _read_indexed_csv(path, ["index", "re", "im"], "polynomial")
    coeffs = rec["re"] + 1j * rec["im"]
    if not np.isfinite(coeffs).all():
        raise ValueError("polynomial CSV coefficients must be finite")
    return AnalyticPoly(coeffs)

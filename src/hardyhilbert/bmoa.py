"""Carleson-box machinery: the K constant, box integrals, mean oscillation.

A subarc I of the circle (center angle, normalized length |I| <= 1) spans
the box R(I) = {r e^{i theta}: theta in I, 1 - |I| <= r < 1}.  For g built
from a weight sequence, the measure (1 - r^2) |g'|^2 r dr dtheta has a
polynomial density, so its integral over R(I) is summed in closed form
(see ``_box_integrals``); the ratio integral/|I|, swept over a dyadic arc
family, estimates the least Carleson constant and hence the embedding norm
of c -> g into the mean-oscillation space.  The closed form needs, for each
distinct arc length L, the diagonal sums D_L[m] = sum_j b_j b_{j+m} R_L(2j+m);
a sweep gets them for every length at once from one matrix product per row
block of the products b_j b_{j+m}, so its working memory is
O(n * lengths + _BLOCK).  A block holds at most ``_BLOCK`` = 2^15 entries, a
256 KB buffer that stays in a core's 2 MB L2 cache while the product reads
it back; 2^20 entries (8 MB) spill it.  Medians of ``_box_integrals`` at
depth 12, 8 centers, one BLAS thread (2 vCPU, numpy 2.4), in ms:

    N             256    1024    4096    8192
    2^20 block    0.77   5.04    40.4    98.0
    2^17 block    0.77   3.67    34.0   104.6
    2^16 block    0.77   3.06    28.3    82.1
    2^15 block    0.77   2.91    27.7    90.4

(At N = 256 every bound holds all products in one block.)  Every arc then
comes from one more product: the weights of each distinct length against
the cosines of each distinct center give a (lengths x centers) table, and
each arc gathers its entry.

The constant K = sup_{0<=r<1} ( r / (1 - r^{2 floor(1/(1-r))}) )^2 is
evaluated in closed form: the floor term is constant on
[1 - 1/m, 1 - 1/(m+1)), the expression increases there, and the left
limits at the right ends increase with m (proved in ``k_constant``), so
the supremum over (0, r_max] is one of two candidates.  The supremum over
[0, 1) is the r -> 1 limit (1 - e^{-2})^{-2}, approached from below.

The normalization: an arc of normalized length L spans 2 pi L radians,
its box has depth L, and its ratio is integral / L.  The sweep report
carries the comparison of the sup ratio against 2 K ||c||^2 and records
an exceedance as a finding; the comparison is recorded, not explained.
On the classic sequence the excess grows with N (depth-12 sup ratios
3.7514, 5.0472 and 5.4231 at N = 64, 1024 and 8192, against
2 K ||c||^2 = 2.6751).  Boundedness of the sweep is the property that
matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .hardyspace import AnalyticPoly, _next_pow2, _on_circle, _resolve_grid
from .seqspace import XSequence

K_LIMIT = (1.0 - math.exp(-2.0)) ** -2
_BLOCK = 2**15      # entries per block of coefficient products in _diagonal_sums
# Longest sequence carleson_constant sweeps.  The diagonal sums cost O(N^2):
# a depth-12 sweep takes 0.46 s at N = 16384, 3.1 s at 32768 and 11.9 s at
# 65536 (one BLAS thread), so a longer input is refused before any of it.
CARLESON_N_CAP = 2**16
# sweep_is_bounded: from this depth on, the max ratio two depths deeper may
# exceed the max over the shallower depths by at most this factor.
SWEEP_START_DEPTH = 4
SWEEP_GROWTH_FACTOR = 1.5


@dataclass
class Arc:
    """Subarc of the unit circle: center angle plus normalized length."""

    center: float
    length_norm: float

    def __post_init__(self):
        if not 0.0 < self.length_norm <= 1.0:
            raise ValueError(f"normalized length must lie in (0, 1], got {self.length_norm}")
        self.center = float(np.mod(self.center, 2.0 * np.pi))


def dyadic_arc_family(depth: int, centers_per_length: int = 8) -> list[Arc]:
    """Arcs of length 2^-j, j = 0..depth, with equispaced centers per length."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if centers_per_length < 1:
        raise ValueError(f"centers per length must be at least 1, got {centers_per_length}")
    arcs = [Arc(0.0, 1.0)]
    for j in range(1, depth + 1):
        arcs.extend(Arc(2.0 * np.pi * k / centers_per_length, 2.0**-j)
                    for k in range(centers_per_length))
    return arcs


def k_term(r: float) -> float:
    """The K expression ( r / (1 - r^{2 floor(1/(1-r))}) )^2 at one r."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    if r == 0.0:
        return 0.0
    m = math.floor(1.0 / (1.0 - r))
    return (r / (1.0 - r ** (2 * m))) ** 2


@dataclass
class KConstantScan:
    value: float       # supremum over (0, r_max]
    limit: float       # analytic r -> 1 limit, the supremum over [0, 1)
    argmax_r: float    # r_max, or the unattained left limit 1 - 1/m_max
    r_max: float
    m_max: int         # floor(1/(1 - r_max)): the intervals covered


def k_constant(r_max: float) -> KConstantScan:
    """Supremum of the K expression over (0, r_max], in closed form.

    Interval m is [1 - 1/m, 1 - 1/(m+1)), where the floor term equals m and
    the expression is phi_m(r) = (r / (1 - r^{2m}))^2.  With
    m_max = floor(1/(1 - r_max)) the supremum is

        max( f(m_max - 1), phi_{m_max}(r_max) ),
        f(m) = ( (m/(m+1)) / (1 - (m/(m+1))^{2m}) )^2,

    the first candidate dropped when m_max = 1.  Proof:

    * On each interval phi_m increases, since
      d/dr [r/(1 - r^{2m})] = (1 + (2m-1) r^{2m}) / (1 - r^{2m})^2 > 0.
      So interval m < m_max contributes f(m), its left limit at the right
      end, which is not attained (the floor there is already m + 1), and
      interval m_max contributes phi_{m_max}(r_max).
    * f increases in m.  With h(x) = x log(1 + 1/x),
      sqrt f(x) = (x/(x+1)) / (1 - e^{-2h(x)}), so
      (log sqrt f)'(x) = 1/(x(x+1)) - 2h'(x)/(e^{2h(x)} - 1).
      Here 0 < h'(x) = int_0^{1/x} t/(1+t)^2 dt < 1/(2x^2), and
      e^{2h} - 1 >= 3 because h >= h(1) = log 2.  So the second term is
      below 1/(3x^2), while the first is at least 1/(2x^2) for x >= 1.

    When the f(m_max - 1) candidate wins, argmax_r = 1 - 1/m_max is that
    unattained left limit.  Powers go through log/expm1, so r_max near 1
    (m_max ~ 1e12 and beyond) costs the same as any other; log(r_max), not
    log1p(r_max - 1), since r_max - 1 rounds to -1 below 2^-53.
    """
    if not 0.0 < r_max < 1.0:
        raise ValueError(f"r_max must lie in (0, 1), got {r_max}")
    m_max = int(math.floor(1.0 / (1.0 - r_max)))
    value = (r_max / -math.expm1(2 * m_max * math.log(r_max))) ** 2
    argmax_r = r_max
    if m_max > 1:
        m = m_max - 1
        left_limit = ((m / (m + 1)) / -math.expm1(2 * m * math.log1p(-1.0 / (m + 1)))) ** 2
        if left_limit > value:
            value, argmax_r = left_limit, 1.0 - 1.0 / m_max
    return KConstantScan(value=value, limit=K_LIMIT, argmax_r=argmax_r,
                         r_max=r_max, m_max=m_max)


def _radial_factors(lengths: np.ndarray, n: int) -> np.ndarray:
    """R_L(s) = (1 - r0^s)/s - (1 - r0^(s+2))/(s+2), r0 = 1 - L, for s = 2..2n.

    One row per length, column s - 2.  The two terms are near 1/s and their
    difference far smaller, near L^2 for a deep arc and 2/s^2 for large s,
    so that form loses up to log2(1/L) or log2(s) bits.  With l = -log(r0)
    and x = s l it is

        R = [2 A(x) + s e^{-x} B(2 l)] / (s (s + 2)),
        A(x) = 1 - (1 + x) e^{-x},   B(y) = y + expm1(-y),

    a sum of positive terms.  A and B cancel near 0, so below _SERIES_BELOW
    each is summed from its Taylor series (_series).  Lengths are taken
    below 1 by an ulp: a length-1 row has r0 = 2^-53, whose powers vanish
    in R's rounding, so the row is 2/(s(s+2)) and log1p(-1) is never
    evaluated.
    """
    s = np.arange(2, 2 * n + 1, dtype=float)
    l = -np.log1p(-np.minimum(lengths, 1.0 - 2.0**-53))
    B = _series(2.0 * l, 2.0 * l + np.expm1(-2.0 * l), _B_TERMS)
    x = np.outer(l, s)
    decay = np.exp(-x)                  # r0^s
    R = x + 1.0
    R *= decay
    np.subtract(1.0, R, out=R)
    _series(x, R, _A_TERMS)             # A(x); in place: at a sweep a temporary costs a pass
    decay *= s
    decay *= B[:, None]
    R *= 2.0
    R += decay
    R /= s * (s + 2.0)
    return R


# Taylor coefficients from t^2 on, highest power first (np.polyval's order),
# of A(t) = sum_{k>=2} (-1)^k (k-1) t^k / k! and B(t) = sum_{k>=2} (-t)^k / k!.
# Below _SERIES_BELOW the first term left out (k = 22) is under 2**-60 of
# either sum.  From it up the direct forms lose under 2 bits (A(1) = 1 - 2/e
# = 0.26, B(1) = 1/e); from 0.5 up, the direct A would need expm1.
_SERIES_BELOW = 1.0
_A_TERMS = [(-1) ** k * (k - 1) / math.factorial(k) for k in range(21, 1, -1)]
_B_TERMS = [(-1) ** k / math.factorial(k) for k in range(21, 1, -1)]


def _series(t: np.ndarray, direct: np.ndarray, terms: list[float]) -> np.ndarray:
    """``direct``, with the entries where t < _SERIES_BELOW replaced in place
    by the series t^2 polyval(terms, t)."""
    small = t < _SERIES_BELOW
    ts = t[small]
    direct[small] = np.polyval(terms, ts) * ts * ts
    return direct


def _diagonal_sums(b: np.ndarray, R: np.ndarray) -> np.ndarray:
    """D[L, m] = sum_j b_j b_{j+m} R[L, 2j+m] for every row L of R at once.

    Writing m = 2p + odd and q = j + p (0-based j),

        D[L, 2p+odd] = sum_q b_{q-p} b_{q+p+odd} R[L, 2q+odd],

    so for each parity the products form a matrix P[p, q], nonzero for
    p <= q < n - odd - p, whose rows dotted with the stride-2 slice of R
    give the sums.  P is built in row blocks of at most ``_BLOCK`` entries
    (one row when a row alone is longer), each trimmed to the nonzero
    columns of its first row, and each block yields its D columns for every
    length from one matrix product.  Working memory is O(n * lengths +
    _BLOCK): one block buffer, never an n x n array.  The bound keeps that
    buffer (256 KB at 2^15 entries) in L2 between being written and being
    read by the product; at 2^20 entries (8 MB) a depth-12 sweep at
    N = 1024 is about 1.7 times slower (table in the module docstring).
    """
    n = b.size
    D = np.empty((R.shape[0], n))
    zeros = np.zeros(n)
    lower = sliding_window_view(np.concatenate([zeros, b]), n)    # [k, q] = b_{q+k-n}
    upper = sliding_window_view(np.concatenate([b, zeros]), n)    # [k, q] = b_{q+k}
    # one buffer for every block: a fresh multi-MB array per block costs
    # more in page faults than the products written into it
    buf = np.empty(max(n, min(_BLOCK, n * (n + 1) // 2)))
    for odd in (0, 1):
        rows = (n - odd + 1) // 2       # p = 0..rows-1 keeps m = 2p + odd < n
        R_par = np.ascontiguousarray(R[:, odd::2])     # BLAS needs unit stride
        p0 = 0
        while p0 < rows:
            q0, q1 = p0, n - odd - p0
            p1 = min(rows, p0 + max(1, _BLOCK // (q1 - q0)))
            block = buf[:(p1 - p0) * (q1 - q0)].reshape(p1 - p0, q1 - q0)
            np.multiply(lower[n - p0:n - p1:-1, q0:q1], upper[p0 + odd:p1 + odd, q0:q1],
                        out=block)
            D[:, 2 * p0 + odd:2 * p1 + odd:2] = R_par[:, q0:q1] @ block.T
            p0 = p1
    return D


def _box_integrals(values: np.ndarray, arcs: list[Arc]) -> np.ndarray:
    """Exact box integrals of g = sum values_n z^n over every arc of a family.

    With b_j = j a_j, g' contributes sum_{j,k>=1} b_j b_k r^{j+k-2} e^{i(j-k)theta},
    so integrating (1 - r^2) r dr dtheta over R(I) gives

        I = sum_{j,k} b_j b_k R(j+k) Theta(j-k),
        R(s) = (1 - r0^s)/s - (1 - r0^(s+2))/(s+2),   r0 = 1 - |I|,
        Theta(m) = 2 e^{imc} sin(m pi |I|)/m,          Theta(0) = 2 pi |I|.

    Real coefficients pair (j, k) with (k, j), so the double sum folds into
    the diagonal sums D_L[m] = sum_j b_j b_{j+m} R_L(2j+m) of each distinct
    length L, all lengths from one blocked pass (``_diagonal_sums``):

        I = 2 pi |I| D[0] + sum_{m>=1} 4 D[m] sin(m pi |I|)/m cos(mc).

    The sum is one product of the per-length weights 4 D[m] sin(m pi |I|)/m
    with the per-center cosines: a (lengths x centers) table from which
    each arc gathers its entry.
    """
    a = np.asarray(values, dtype=float)
    n = a.size - 1
    if n < 1:
        return np.zeros(len(arcs))
    b = np.arange(1, n + 1) * a[1:]
    lengths, length_idx = np.unique([arc.length_norm for arc in arcs], return_inverse=True)
    centers, center_idx = np.unique([arc.center for arc in arcs], return_inverse=True)
    D = _diagonal_sums(b, _radial_factors(lengths, n))
    m = np.arange(1, n)
    weights = 4.0 * D[:, 1:] * np.sin(np.pi * np.mod(np.outer(lengths, m), 2.0)) / m
    table = weights @ np.cos(np.outer(centers, m)).T     # [length, center]
    return 2.0 * np.pi * lengths[length_idx] * D[length_idx, 0] + table[length_idx, center_idx]


@dataclass
class BoxRecord:
    arc: Arc
    box_integral: float
    ratio: float


@dataclass
class CarlesonReport:
    """Dyadic sweep of box-integral ratios for g built from a sequence."""

    records: list[BoxRecord]
    sup_ratio: float
    xnorm_sq: float
    k_constant: float
    bound_2k: float
    passes_2k: bool
    eta_estimate: float
    finding: str = ""

    def max_ratio_by_length(self) -> dict[float, float]:
        out: dict[float, float] = {}
        for rec in self.records:
            L = rec.arc.length_norm
            out[L] = max(out.get(L, 0.0), rec.ratio)
        return out


def carleson_constant(c: XSequence, arc_family: list[Arc] | None = None,
                      depth: int = 8, centers_per_length: int = 8) -> CarlesonReport:
    """Sweep box-integral ratios for g(z) = sum c_n z^n over an arc family.

    The default family is dyadic (lengths 2^-j, several centers each); a
    single box is ``carleson_constant(c, arc_family=[arc])``.
    sup ratio estimates the least Carleson constant; its square root is
    the embedding-norm estimate eta.  The report compares sup ratio with
    2 K ||c||^2 and records any exceedance as a finding instead of failing.
    Sequences longer than CARLESON_N_CAP raise ValueError.
    """
    if len(c) > CARLESON_N_CAP:
        raise ValueError(f"sequence length {len(c)} exceeds the Carleson sweep cap "
                         f"CARLESON_N_CAP = {CARLESON_N_CAP}")
    if arc_family is None:
        arc_family = dyadic_arc_family(depth, centers_per_length)
    if not arc_family:
        raise ValueError("arc family must be nonempty")
    integrals = _box_integrals(c.values, arc_family).tolist()
    records = [BoxRecord(arc=arc, box_integral=v, ratio=v / arc.length_norm)
               for arc, v in zip(arc_family, integrals)]
    sup_ratio = max(rec.ratio for rec in records)
    bound = 2.0 * K_LIMIT * c.xnorm_sq
    finding = ""
    if sup_ratio > bound:
        finding = (f"sup ratio {sup_ratio:.6g} exceeds 2K||c||^2 = {bound:.6g}; "
                   "the proof-side constant undercounts, boundedness still holds")
    return CarlesonReport(
        records=records,
        sup_ratio=sup_ratio,
        xnorm_sq=c.xnorm_sq,
        k_constant=K_LIMIT,
        bound_2k=bound,
        passes_2k=sup_ratio <= bound,
        eta_estimate=float(np.sqrt(sup_ratio)),
        finding=finding,
    )


def sweep_is_bounded(report: CarlesonReport) -> bool:
    """No-monotone-divergence criterion over a dyadic sweep.

    For every depth j >= SWEEP_START_DEPTH with depth j+2 present, the max
    ratio at depth j+2 must not exceed SWEEP_GROWTH_FACTOR times the max
    ratio over depths <= j.  Vacuously true when the sweep is too shallow.
    """
    by_length = report.max_ratio_by_length()
    lengths = sorted(by_length, reverse=True)
    depths = {}
    for L in lengths:
        j = int(round(-np.log2(L))) if L < 1.0 else 0
        depths[j] = max(depths.get(j, 0.0), by_length[L])
    js = sorted(depths)
    for j in js:
        if j < SWEEP_START_DEPTH or (j + 2) not in depths:
            continue
        cap = SWEEP_GROWTH_FACTOR * max(depths[i] for i in js if i <= j)
        if depths[j + 2] > cap:
            return False
    return True


def bmo_seminorm(g: AnalyticPoly, dyadic_depth: int, M: int | None = None) -> float:
    """Mean oscillation sup over dyadic arcs: a lower bound for the seminorm.

    For each level j <= depth the circle splits into 2^j aligned arcs;
    the oscillation (1/|I|) int_I |g - mean_I(g)| is approximated on the
    uniform boundary grid.  Arcs thinner than 8 grid points are refused.
    """
    if dyadic_depth < 0:
        raise ValueError("depth must be nonnegative")
    M = _resolve_grid(g.degree, M,
                      max(8192, _next_pow2(4 * (g.degree + 1) * 2**max(0, dyadic_depth - 7))))
    if M >> dyadic_depth < 8:
        raise ValueError(
            f"depth {dyadic_depth} leaves arcs with fewer than 8 of {M} grid points")
    samples = _on_circle(g.coeffs, M)
    worst = 0.0
    for j in range(dyadic_depth + 1):
        blocks = samples.reshape(2**j, M >> j)
        means = blocks.mean(axis=1)
        osc = np.abs(blocks - means[:, None]).mean(axis=1)
        worst = max(worst, float(osc.max()))
    return worst

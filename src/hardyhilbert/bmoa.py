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
    2^20 block    0.37   2.36    18.7    65.5
    2^17 block    0.39   1.71    16.4    70.0
    2^16 block    0.37   1.51    14.3    57.0
    2^15 block    0.37   1.45    14.8    57.1

(At N = 256 every bound holds all products in one block.)  Every arc then
comes from one more product: the weights of each distinct length against
the cosines of each distinct center give a (lengths x centers) table, and
each arc gathers its entry.

A sweep is carried as arrays from the family to the writer, with no object
per arc: the dyadic family is built as a column of lengths and a column of
centers (a custom family of ``Arc``s is read once into the same two
columns), ``_box_integrals`` returns a column of box integrals, and
``CarlesonReport`` holds the lengths, centers, box integrals and ratios as
float64 columns in family order, which ``sweep_is_bounded`` reduces and
the CLI writes as JSON records or CSV rows through ``_floattext.table``.
Where the time of one depth-12 ``carleson`` job at N = 1024 (97 arcs)
goes, medians in ms, same machine:

    radial factors (_radial_factors)       0.33
    diagonal sums (_diagonal_sums)         0.95
    weights 4 D[m] sin(m pi L)/m           0.16
    table (cosines, product, gather)       0.10
    carleson_constant + sweep_is_bounded   1.75
    emit (the JSON record, 388 floats)     0.48

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
matters.  For the infinite classic sequence g'(z) ~ 1/(1 - z) near z = 1,
so the ratio of the box at center 0 tends, as L -> 0, to

    4 [arctan(pi) + (pi/2) ln(1 + pi^-2)] = 5.656902599,

more than 2.1 times 2 K ||c||^2.  With |I| in radians that limit reads
0.9003, and with area measure dA/pi it reads 1.8006.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .hardyspace import AnalyticPoly, _next_pow2, _on_circle, _resolve_grid
from .seqspace import XSequence

K_LIMIT = (1.0 - math.exp(-2.0)) ** -2
# The normalization of an arc's box and ratio, as the carleson JSON states it.
NORMALIZATION = ("an arc of normalized length L spans 2*pi*L radians, its box has depth L, "
                 "and its ratio is box_integral / L")
_BLOCK = 2**15      # entries per block of coefficient products in _diagonal_sums
_UFUNC_BUFFER = 512  # numpy's ufunc buffer, in elements, within _box_integrals
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
    """Subarc of the unit circle: center angle plus normalized length; an
    arc of a custom ``carleson_constant`` family."""

    center: float
    length_norm: float

    def __post_init__(self):
        if not 0.0 < self.length_norm <= 1.0:
            raise ValueError(f"normalized length must lie in (0, 1], got {self.length_norm}")
        self.center = float(np.mod(self.center, 2.0 * np.pi))


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


def _radial_factors(lengths: np.ndarray, s: np.ndarray) -> np.ndarray:
    """R_L(s) = (1 - r0^s)/s - (1 - r0^(s+2))/(s+2), r0 = 1 - L, for s >= 2.

    One row per length, one column per entry of the float array s.  The
    two terms are near 1/s and their difference far smaller, near L^2 for a
    deep arc and 2/s^2 for large s, so that form loses up to log2(1/L) or
    log2(s) bits.  With l = -log(r0) and x = s l it is

        R = [2 A(x) + s e^{-x} B(2 l)] / (s (s + 2)),
        A(x) = 1 - (1 + x) e^{-x},   B(y) = y + expm1(-y),

    a sum of positive terms.  A and B cancel near 0, so below _SERIES_BELOW
    each is summed from its Taylor series (_series).  Lengths are taken
    below 1 by an ulp: a length-1 row has r0 = 2^-53, whose powers vanish
    in R's rounding, so the row is 2/(s(s+2)) and log1p(-1) is never
    evaluated.  Two arrays of R's size are allocated: at a sweep each
    further one costs a pass and its page faults.
    """
    l = -np.log1p(-np.minimum(lengths, 1.0 - 2.0**-53))
    B = 2.0 * l + np.expm1(-2.0 * l)
    small, series = _series(2.0 * l, _B_TERMS)
    B[small] = series
    x = np.multiply.outer(l, s)
    small, series = _series(x, _A_TERMS)
    R = x + 1.0
    decay = np.exp(np.negative(x, out=x), out=x)     # r0^s, in x's place
    R *= decay
    np.subtract(1.0, R, out=R)
    R[small] = series                   # A(x)
    decay *= s
    decay *= B[:, None]
    R *= 2.0
    R += decay
    R /= s * (s + 2.0)
    return R


# Taylor coefficients, highest power first (np.polyval's order), of
# A(t) = sum_{k>=2} (-1)^k (k-1) t^k / k! and B(t) = sum_{k>=2} (-t)^k / k!,
# down to the zero coefficients of t and 1.  Horner's last two steps, y t + 0,
# then multiply by t^2 to the bit: y > 0 on [0, 1), so no zero sign is lost.
# Below _SERIES_BELOW the first term left out (k = 22) is under 2**-60 of
# either sum.  From it up the direct forms lose under 2 bits (A(1) = 1 - 2/e
# = 0.26, B(1) = 1/e); from 0.5 up, the direct A would need expm1.
_SERIES_BELOW = 1.0
_A_TERMS = [(-1) ** k * (k - 1) / math.factorial(k) for k in range(21, 1, -1)] + [0.0, 0.0]
_B_TERMS = [(-1) ** k / math.factorial(k) for k in range(21, 1, -1)] + [0.0, 0.0]


def _series(t: np.ndarray, terms: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """(small, y): the mask t < _SERIES_BELOW and, at its entries in order,
    the series polyval(terms, t).  Horner's rule y = y t + c is np.polyval's
    own, so the bits are its bits, but runs in one buffer where np.polyval
    allocates two arrays per term."""
    small = t < _SERIES_BELOW
    ts = t[small]
    y = np.full_like(ts, terms[0])
    for c in terms[1:]:
        y *= ts
        y += c
    return small, y


def _diagonal_sums(b: np.ndarray, R: np.ndarray) -> np.ndarray:
    """D_L[m] = sum_j b_j b_{j+m} R_L(2j+m) for every row L of R at once, by
    parity: D[odd, L, p] = D_L[2p + odd], p < (n + 1) // 2 (the last odd
    column of an odd n is left unset).

    R's columns hold R_L(s) for s = 2, 4, ..., 2n and then s = 3, 5, ...,
    2n - 1, so the columns of each parity are contiguous.  Writing
    m = 2p + odd and q = j + p (0-based j),

        D_L[2p+odd] = sum_q b_{q-p} b_{q+p+odd} R_L(2q+2+odd),

    so for each parity the products form a matrix P[p, q], nonzero for
    p <= q < n - odd - p, whose rows dotted with that parity's columns of R
    give the sums.  P is built in row blocks of at most ``_BLOCK`` entries
    (one row when a row alone is longer), each trimmed to the nonzero
    columns of its first row, and each block's matrix product writes its
    columns of D for every length in place.  Working memory is O(n * lengths +
    _BLOCK): one block buffer, never an n x n array.  The bound keeps that
    buffer (256 KB at 2^15 entries) in L2 between being written and being
    read by the product; at 2^20 entries (8 MB) a depth-12 sweep at
    N = 1024 is about 1.7 times slower (table in the module docstring).
    """
    n = b.size
    D = np.empty((2, R.shape[0], (n + 1) // 2))
    zeros = np.zeros(n)
    lower = sliding_window_view(np.concatenate([zeros, b]), n)    # [k, q] = b_{q+k-n}
    upper = sliding_window_view(np.concatenate([b, zeros]), n)    # [k, q] = b_{q+k}
    # one buffer for every block: a fresh multi-MB array per block costs
    # more in page faults than the products written into it
    buf = np.empty(max(n, min(_BLOCK, n * (n + 1) // 2)))
    for odd in (0, 1):
        rows = (n - odd + 1) // 2       # p = 0..rows-1 keeps m = 2p + odd < n
        R_par = R[:, n:] if odd else R[:, :n]     # column q holds s = 2q + 2 + odd
        p0 = 0
        while p0 < rows:
            q0, q1 = p0, n - odd - p0
            p1 = min(rows, p0 + max(1, _BLOCK // (q1 - q0)))
            block = buf[:(p1 - p0) * (q1 - q0)].reshape(p1 - p0, q1 - q0)
            np.multiply(lower[n - p0:n - p1:-1, q0:q1], upper[p0 + odd:p1 + odd, q0:q1],
                        out=block)
            # BLAS writes the rows of a unit-stride window of D directly
            np.matmul(R_par[:, q0:q1], block.T, out=D[odd, :, p0:p1])
            p0 = p1
    return D


def _box_integrals(values: np.ndarray, lengths: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Exact box integrals of g = sum values_n z^n over the arcs of normalized
    length lengths[i] centered at centers[i].

    With b_j = j a_j, g' contributes sum_{j,k>=1} b_j b_k r^{j+k-2} e^{i(j-k)theta},
    so integrating (1 - r^2) r dr dtheta over R(I) gives

        I = sum_{j,k} b_j b_k R(j+k) Theta(j-k),
        R(s) = (1 - r0^s)/s - (1 - r0^(s+2))/(s+2),   r0 = 1 - |I|,
        Theta(m) = 2 e^{imc} sin(m pi |I|)/m,          Theta(0) = 2 pi |I|.

    Real coefficients pair (j, k) with (k, j), so the double sum folds into
    the diagonal sums D_L[m] = sum_j b_j b_{j+m} R_L(2j+m) of each distinct
    length L, all lengths from one blocked pass (``_diagonal_sums``, which
    returns them split by the parity of m):

        I = 2 pi |I| D[0] + sum_{m>=1} 4 D[m] sin(m pi |I|)/m cos(mc).

    The sum is one product of the per-length weights 4 D[m] sin(m pi |I|)/m
    with the per-center cosines: a (lengths x centers) table from which
    each arc gathers its entry.

    numpy runs a 2-d operation whose rows it cannot merge into one (a
    window of a larger array, or a row or column broadcast against a
    matrix) through its ufunc buffer, copying chunks of the default 8192
    elements; at the row lengths of a sweep (up to 2N) the copies about
    double the cost of each such pass.  With the buffer at _UFUNC_BUFFER
    elements, below those lengths, numpy works on the rows in place.  The
    buffer size changes no arithmetic here: no ufunc call below reduces
    (the sums are BLAS matrix products).
    """
    a = np.asarray(values, dtype=float)
    n = a.size - 1
    if n < 1:
        return np.zeros(lengths.size)
    buffer = np.setbufsize(_UFUNC_BUFFER)
    try:
        b = np.arange(1, n + 1) * a[1:]
        lengths, length_idx = np.unique(lengths, return_inverse=True)
        centers, center_idx = np.unique(centers, return_inverse=True)
        s = np.concatenate([np.arange(2.0, 2 * n + 1, 2), np.arange(3.0, 2 * n, 2)])
        D = _diagonal_sums(b, _radial_factors(lengths, s))
        m = np.arange(1.0, n)
        # the weights 4 D[m] sin(m pi L)/m, built in place.  x = m L mod 2 as
        # x - 2 floor(x/2), which is np.mod(x, 2.0) to the bit for x >= 0,
        # every step exact (the subtraction by Sterbenz's lemma), in a tenth
        # of its time
        weights = np.multiply.outer(lengths, m)
        weights -= 2.0 * np.floor(0.5 * weights)
        np.sin(np.multiply(weights, np.pi, out=weights), out=weights)
        weights[:, 1::2] *= 4.0 * D[0, :, 1:]          # m = 2, 4, ...
        weights[:, 0::2] *= 4.0 * D[1, :, :n // 2]     # m = 1, 3, ...
        weights /= m
        table = weights @ np.cos(np.multiply.outer(centers, m)).T     # [length, center]
    finally:
        np.setbufsize(buffer)
    return 2.0 * np.pi * lengths[length_idx] * D[0, length_idx, 0] + table[length_idx, center_idx]


@dataclass
class CarlesonReport:
    """Sweep of box-integral ratios for g built from a sequence.

    The arcs are columns, float64 arrays in family order: arc i has
    normalized length lengths[i] and center angle centers[i] in [0, 2 pi),
    and ratios[i] = box_integrals[i] / lengths[i].
    """

    lengths: np.ndarray
    centers: np.ndarray
    box_integrals: np.ndarray
    ratios: np.ndarray
    sup_ratio: float
    xnorm_sq: float
    k_constant: float
    bound_2k: float
    passes_2k: bool
    eta_estimate: float
    finding: str = ""


def carleson_constant(c: XSequence, arc_family: list[Arc] | None = None,
                      depth: int = 8, centers_per_length: int = 8) -> CarlesonReport:
    """Sweep box-integral ratios for g(z) = sum c_n z^n over an arc family.

    The default family is dyadic: the whole circle, then lengths 2^-j,
    j = 1..depth, at centers_per_length equispaced centers each, built as
    the report's length and center columns.  A custom family is a list of
    ``Arc``s, read once into the same columns; a single box is
    ``carleson_constant(c, arc_family=[arc]).box_integrals[0]``.
    sup ratio estimates the least Carleson constant; its square root is
    the embedding-norm estimate eta.  The report compares sup ratio with
    2 K ||c||^2 and records any exceedance as a finding instead of failing.
    Sequences longer than CARLESON_N_CAP raise ValueError.
    """
    if len(c) > CARLESON_N_CAP:
        raise ValueError(f"sequence length {len(c)} exceeds the Carleson sweep cap "
                         f"CARLESON_N_CAP = {CARLESON_N_CAP}")
    if arc_family is None:
        if not 0 <= depth <= 1074:
            raise ValueError(f"depth must lie in 0..1074, where 2^-1074 is the least "
                             f"positive double; got {depth}")
        if centers_per_length < 1:
            raise ValueError(f"centers per length must be at least 1, got {centers_per_length}")
        lengths = np.repeat(2.0 ** -np.arange(depth + 1.0), [1] + [centers_per_length] * depth)
        angles = 2.0 * np.pi * np.arange(centers_per_length) / centers_per_length
        centers = np.concatenate([[0.0], np.tile(angles, depth)])
    elif not arc_family:
        raise ValueError("arc family must be nonempty")
    else:
        lengths, centers = np.array([(arc.length_norm, arc.center) for arc in arc_family]).T
    integrals = _box_integrals(c.values, lengths, centers)
    ratios = integrals / lengths
    sup_ratio = float(ratios.max())
    bound = 2.0 * K_LIMIT * c.xnorm_sq
    finding = ""
    if sup_ratio > bound:
        finding = f"sup ratio {sup_ratio:.6g} exceeds 2K||c||^2 = {bound:.6g}"
    return CarlesonReport(
        lengths=lengths,
        centers=centers,
        box_integrals=integrals,
        ratios=ratios,
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

    An arc of length L sits at depth round(log2(1/L)).  For every depth
    j >= SWEEP_START_DEPTH with depth j+2 present, the max ratio at depth
    j+2 must not exceed SWEEP_GROWTH_FACTOR times the max ratio over depths
    <= j.  A depth's max starts from 0 and skips NaN ratios.  Vacuously
    true when the sweep is too shallow.
    """
    depth = np.rint(-np.log2(report.lengths)).astype(np.intp)
    best = np.full(depth.max() + 3, -np.inf)      # -inf: no arc at that depth
    np.fmax.at(best, depth, np.fmax(report.ratios, 0.0))
    j = np.arange(SWEEP_START_DEPTH, best.size - 2)
    grows = best[j + 2] > SWEEP_GROWTH_FACTOR * np.fmax.accumulate(best)[j]
    return not (grows & (best[j] > -np.inf)).any()


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

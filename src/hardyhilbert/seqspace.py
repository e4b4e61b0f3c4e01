"""Weighted sequence space: prefix-ratio norms and slow-decay constructions.

The central quantity is the norm

    ||c||^2 = sup_n ( sum_{k<=n} (k+1)^2 c_k^2 ) / (n+1),

evaluated exactly on finite truncations (a certified lower bound for any
infinite extension).  The harmonic-like sequence c_k = 1/(k+1) has unit
norm with every prefix ratio equal to 1.

The slow-decay generator builds sequences that beat 1/n decay infinitely
often while keeping the 1-indexed weighted prefix sums inside the linear
budget beta*m: at each step it takes c_{n+1} = (n+1)^{-r} whenever the
budget affords it, else falls back to c_{n+1} = 1/(n+1).  Ties go to the
power choice (the affordability test is a plain <=).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

N_CAP = 10**8

POWER = "power"
HARMONIC = "harmonic"

_POWER_FLAG = 1
_HARMONIC_FLAG = 0


class XSequence:
    """Finite nonnegative sequence with cached weighted prefix sums.

    Storage is the modulus (inputs pass through abs).  ``prefix_weighted[n]``
    holds sum_{k<=n} ((k+1)*c_k)^2 accumulated in extended precision, and
    ``xnorm_sq`` is the largest prefix ratio prefix_weighted[n]/(n+1).
    """

    __slots__ = ("values", "prefix_weighted", "ratios", "xnorm_sq")

    def __init__(self, values):
        v = np.abs(np.asarray(values, dtype=float))
        if v.ndim != 1 or v.size == 0:
            raise ValueError("sequence must be one-dimensional and nonempty")
        if v.size > N_CAP:
            raise ValueError(f"sequence length {v.size} exceeds cap {N_CAP}")
        self.values = v
        k1 = np.arange(1, v.size + 1, dtype=float)
        with np.errstate(over="ignore"):  # an overflow is rejected below
            wide = np.cumsum(((k1 * v) ** 2).astype(np.longdouble))
        self.prefix_weighted = wide.astype(float)
        self.ratios = (wide / k1).astype(float)
        self.xnorm_sq = float(self.ratios.max())
        if not np.isfinite(self.xnorm_sq):  # NaN and inf propagate into the max
            raise ValueError("sequence values must be finite with finite weighted prefix sums")

    def __len__(self):
        return self.values.size

    def __repr__(self):
        return f"XSequence(N={len(self)}, xnorm={np.sqrt(self.xnorm_sq):.6g})"


def xnorm(c: XSequence) -> float:
    """Norm of a truncated sequence: sqrt of the largest weighted prefix ratio."""
    return float(np.sqrt(c.xnorm_sq))


def prefix_ratios(c: XSequence) -> np.ndarray:
    """All prefix ratios sum_{k<=n}((k+1)c_k)^2 / (n+1); their max is xnorm^2."""
    return c.ratios


def classic_sequence(N: int) -> XSequence:
    """The unit-norm element c_k = 1/(k+1), k = 0..N-1."""
    if N < 1:
        raise ValueError("N must be positive")
    return XSequence(1.0 / np.arange(1, N + 1, dtype=float))


@dataclass
class SlowDecayTrace:
    """Output of the slow-decay generator, 1-indexed internally.

    ``values[i]`` is c_{i+1}; ``choice[i]`` is 1 for the power pick
    c_n = n^{-r} and 0 for the harmonic fallback c_n = 1/n; ``margins[i]``
    is the budget slack beta*(i+1) - sum_{k<=i+1} k^2 c_k^2 recorded with
    the same float operations the generator used, so generated traces have
    margins >= 0 bit-for-bit.
    """

    r: float
    beta: float
    values: np.ndarray
    choice: np.ndarray
    margins: np.ndarray

    @property
    def N(self) -> int:
        return self.values.size

    def choice_labels(self) -> list[str]:
        return [POWER if f else HARMONIC for f in self.choice]

    def to_xsequence(self) -> XSequence:
        return trace_to_xsequence(self)


def slow_decay_sequence(r: float, beta: float, N: int) -> SlowDecayTrace:
    """Generate the slow-decay sequence c_1..c_N for parameters (r, beta).

    c_1 = 1.  Given c_1..c_n with running sum S = sum k^2 c_k^2, the next
    term is (n+1)^{-r} if S + (n+1)^{2-2r} <= beta*(n+1), else 1/(n+1).
    Pure function of (r, beta, N); the same inputs reproduce the same bits.
    """
    if not 0.5 <= r <= 1.0:
        raise ValueError(f"r must lie in [1/2, 1], got {r}")
    if not beta > 1.0:
        raise ValueError(f"beta must exceed 1, got {beta}")
    if not 1 <= N <= N_CAP:
        raise ValueError(f"N must lie in [1, {N_CAP}], got {N}")
    values = np.empty(N)
    choice = np.empty(N, dtype=np.uint8)
    margins = np.empty(N)
    values[0] = 1.0
    choice[0] = _POWER_FLAG
    s = 1.0
    margins[0] = beta - s
    expo = 2.0 - 2.0 * r
    for i in range(1, N):
        n1 = float(i + 1)
        t = n1**expo
        if s + t <= beta * n1:
            values[i] = n1 ** (-r)
            choice[i] = _POWER_FLAG
            s += t
        else:
            v = 1.0 / n1
            values[i] = v
            choice[i] = _HARMONIC_FLAG
            s += (n1 * v) ** 2
        margins[i] = beta * n1 - s
    return SlowDecayTrace(r=r, beta=beta, values=values, choice=choice, margins=margins)


def replay_values(r: float, choice) -> np.ndarray:
    """Rebuild trace values from the choice flags alone, bit for bit.

    Uses the same scalar power/reciprocal operations as the generator;
    vectorized powers can differ in the last ulp and must not be used to
    check bit reproducibility.
    """
    flags = np.asarray(choice)
    out = np.empty(flags.size)
    for i, flag in enumerate(flags):
        n1 = float(i + 1)
        out[i] = n1 ** (-r) if flag else 1.0 / n1
    return out


def trace_to_xsequence(t: SlowDecayTrace) -> XSequence:
    """Export a 1-indexed trace to the 0-indexed sequence convention.

    The head entry c_0 is set to c_1 (= 1 for generated traces), keeping the
    sequence bounded by 1 and nonincreasing at the head.  Because
    (k+1)^2 <= 4 k^2 for k >= 1, a trace whose margins certify the linear
    budget exports to a sequence of norm at most 2*sqrt(beta).
    """
    return XSequence(np.concatenate(([t.values[0]], t.values)))


@dataclass
class MarginCertificate:
    ok: bool
    min_margin: float
    argmin_index: int  # 1-based position of the worst margin


def verify_margins(t: SlowDecayTrace, rel_tol: float = 1e-13) -> MarginCertificate:
    """Recompute the budget slack beta*m - sum_{k<=m} k^2 c_k^2 for every m.

    Independent of the margins the generator recorded.  ``ok`` allows a
    relative slop of ``rel_tol`` so that exact-equality cases (e.g. the
    all-harmonic sequence at budget slope 1) are not rejected on roundoff.
    """
    k1 = np.arange(1, t.N + 1, dtype=float)
    sums = np.cumsum(((k1 * t.values) ** 2).astype(np.longdouble))
    margins = (t.beta * k1 - sums).astype(float)
    worst = int(np.argmin(margins))
    ok = bool(np.all(margins >= -rel_tol * np.maximum(1.0, t.beta * k1)))
    return MarginCertificate(ok=ok, min_margin=float(margins[worst]), argmin_index=worst + 1)


@dataclass
class DecadeStat:
    bound: int
    running_max: float
    contains_power: bool


@dataclass
class InfinitudeReport:
    """Evidence that the power choice recurs and n^s c_n keeps growing."""

    s: float
    power_count: int
    power_positions: np.ndarray  # 1-based indices of power picks
    largest_power_index: int
    decades: list[DecadeStat]
    increasing_over_power_decades: bool
    strictly_growing: bool


def infinitude_report(t: SlowDecayTrace, s: float) -> InfinitudeReport:
    """Tabulate power picks and running maxima of n^s c_n across decades.

    Requires s > r: only there does a power pick at n contribute the
    unbounded value n^{s-r}.  ``increasing_over_power_decades`` records
    whether the running maximum strictly grew across every decade that
    contains a power pick (the first decade has no predecessor and is
    skipped); ``strictly_growing`` requires growth across all decades.
    """
    if s <= t.r:
        raise ValueError(f"s must exceed r = {t.r}, got s = {s}")
    positions = np.nonzero(t.choice)[0] + 1
    n = np.arange(1, t.N + 1, dtype=float)
    running = np.maximum.accumulate(n**s * t.values)

    bounds = []
    b = 10
    while b < t.N:
        bounds.append(b)
        b *= 10
    bounds.append(t.N)

    decades = []
    prev_bound = 0
    for b in bounds:
        has_power = bool(np.any((positions > prev_bound) & (positions <= b)))
        decades.append(DecadeStat(bound=b, running_max=float(running[b - 1]), contains_power=has_power))
        prev_bound = b

    inc_power = all(
        decades[j].running_max > decades[j - 1].running_max
        for j in range(1, len(decades))
        if decades[j].contains_power
    )
    strictly = all(
        decades[j].running_max > decades[j - 1].running_max for j in range(1, len(decades))
    )
    return InfinitudeReport(
        s=s,
        power_count=int(positions.size),
        power_positions=positions,
        largest_power_index=int(positions[-1]) if positions.size else 0,
        decades=decades,
        increasing_over_power_decades=bool(inc_power),
        strictly_growing=bool(strictly),
    )


# ---------------------------------------------------------------------------
# CSV interchange: header index,value (index from 0); traces add a choice
# column, the head row mirroring the exported c_0 := c_1 convention so the
# file round-trips through read_sequence_csv as the exported sequence.

def write_sequence_csv(path, c: XSequence) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "value"])
        for i, v in enumerate(c.values):
            w.writerow([i, repr(float(v))])


def _read_indexed_csv(path, header: list[str], parse, what: str) -> np.ndarray:
    """Records of an index-keyed CSV, in index order.

    ``parse`` turns a row into (index, one float per other header column);
    columns beyond the header are ignored.  The index column must hold
    exactly 0..n-1, each once, in any order.  Rows stream into one
    structured array, so no list of parsed rows is ever held.
    """
    dtype = [("index", np.int64)] + [(name, float) for name in header[1:]]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, [])[: len(header)] != header:
            raise ValueError(f"{what} CSV must start with header '{','.join(header)}'")
        try:
            rec = np.fromiter(map(parse, reader), dtype=dtype)
        except IndexError:
            raise ValueError(f"{what} CSV rows need columns {','.join(header)}") from None
        except OverflowError:
            raise ValueError(f"{what} CSV index outside the int64 range") from None
    idx, n = rec["index"], rec.size
    outside = (idx < 0) | (idx >= n)
    if outside.any():
        raise ValueError(f"{what} CSV index {idx[outside][0]} outside 0..{n - 1}")
    counts = np.bincount(idx, minlength=n)
    if (counts > 1).any():
        dup = int(np.argmax(counts > 1))
        raise ValueError(f"{what} CSV index {dup} appears {counts[dup]} times")
    return rec[np.argsort(idx)]


def read_sequence_csv(path) -> XSequence:
    rec = _read_indexed_csv(path, ["index", "value"],
                            lambda row: (int(row[0]), float(row[1])), "sequence")
    return XSequence(rec["value"])


def write_trace_csv(path, t: SlowDecayTrace) -> None:
    labels = t.choice_labels()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "value", "choice"])
        w.writerow([0, repr(float(t.values[0])), labels[0]])
        for i in range(t.N):
            w.writerow([i + 1, repr(float(t.values[i])), labels[i]])

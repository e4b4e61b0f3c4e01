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

The choices come in runs, and the generator skips long runs with numpy
while reproducing the step-by-step rule bit for bit.  The running sum is
one sequential np.add.accumulate of the exact per-step increments, which
rounds exactly as the scalar `s += ...` does.  A harmonic run ends at the
first step where the power pick is affordable.  That step is located with
np.power, which differs from scalar ** in the last ulp for about one n in
twenty, so the vectorized powers are scaled down by a guard band (_GUARD)
that makes the test a necessary condition, and the flagged step is decided
by the scalar rule.  A power run adds its terms to the sum, so those are
computed with scalar ** and the run ends at the first sum above beta*n.
A run is skipped once it is forecast to last, or has lasted, _LONG_RUN
steps; shorter runs (about ten steps at r = 0.95, beta = 1.3) are taken one
scalar step at a time, which is cheaper than a numpy call.  Values at
power picks use scalar ** for the same last-ulp reason (replay_values).

The long per-term passes over a finished sequence (weighted prefix sums,
budget margins, running maxima of n^s c_n, the trace CSV) run in blocks of
_BLOCK terms, so their temporaries take O(_BLOCK) memory at any length.
A block's extended-precision prefix sums start from the last sum of the
block before, and np.add.accumulate adds strictly in order, so they are
bit for bit those of one np.cumsum over the whole sequence.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

N_CAP = 10**8

POWER = "power"
HARMONIC = "harmonic"

_POWER_FLAG = 1
_LABELS = (HARMONIC, POWER)  # indexed by the choice flag
# Runs forecast or found to last at least this many steps are skipped with
# numpy; below it a numpy call costs more than the scalar steps it saves
# (of 24, 32, 48, 64 and 96, 32 was fastest at r = 0.9, beta = 1.2).
_LONG_RUN = 32
# np.power is within a few ulps of scalar **; scaled by this factor it is
# certainly below it, so the vectorized affordability test never misses a
# power pick.
_GUARD = 1.0 - 2.0**-40
# Terms per block of the long per-term passes: about 0.5 MB per float64
# temporary; N_CAP terms at once would take 0.8 GB per temporary.
_BLOCK = 2**16


def _blocks(n: int):
    """(start, stop) of consecutive blocks of at most _BLOCK terms covering 0..n-1."""
    return ((a, min(a + _BLOCK, n)) for a in range(0, n, _BLOCK))


def _weighted_prefix_sums(values: np.ndarray):
    """Per block: its start, k = start+1..stop as floats, and the running sums.

    The sums are sum_{j<=k} (j*values[j-1])^2 in extended precision; each
    block's first term adds the previous block's last sum, in the order
    np.cumsum adds it.
    """
    carry = np.longdouble(0.0)
    for start, stop in _blocks(values.size):
        k = np.arange(start + 1.0, stop + 1.0)
        sums = np.square(k * values[start:stop]).astype(np.longdouble)
        sums[0] += carry
        np.add.accumulate(sums, out=sums)
        carry = sums[-1]
        yield start, k, sums


class XSequence:
    """Finite nonnegative sequence with cached weighted prefix ratios.

    Storage is the modulus (inputs pass through abs).  ``ratios[n]`` is
    sum_{k<=n} ((k+1)*c_k)^2 / (n+1), the sum accumulated in extended
    precision block by block, and ``xnorm_sq`` is the largest of them.
    Beside ``values`` and ``ratios`` the build holds one block's
    temporaries, about 2 MB.
    """

    __slots__ = ("values", "ratios", "xnorm_sq")

    def __init__(self, values):
        v = np.abs(np.asarray(values, dtype=float))
        if v.ndim != 1 or v.size == 0:
            raise ValueError("sequence must be one-dimensional and nonempty")
        if v.size > N_CAP:
            raise ValueError(f"sequence length {v.size} exceeds cap {N_CAP}")
        self.values = v
        self.ratios = np.empty(v.size)
        with np.errstate(over="ignore"):  # an overflow is rejected below
            for start, k, sums in _weighted_prefix_sums(v):
                self.ratios[start : start + k.size] = np.divide(sums, k, out=sums)
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


def _harmonic_increments(n: np.ndarray) -> np.ndarray:
    """The harmonic steps' increments (n*(1/n))**2, as the scalar rule computes them.

    n*(1/n) is 1 or 1 - 2**-53, and numpy squares both as scalar ** does.
    """
    out = np.divide(1.0, n)
    out *= n
    return np.square(out, out=out)


def _skip_harmonic(i, s, L, inc, low, budget):
    """Take harmonic steps from step i up to the first one that may afford a power pick.

    Looks ``L`` steps ahead, doubling while no step qualifies.  ``low`` holds
    the guard-banded powers, so a step passed over cannot be a power pick.
    Returns that step and the exact running sum before it.
    """
    N = inc.size
    while i < N:
        L = min(L, N - i)
        sums = np.empty(L + 1)
        sums[0] = s
        sums[1:] = inc[i : i + L]
        np.add.accumulate(sums, out=sums)
        maybe = np.add(sums[:-1], low[i : i + L]) <= budget[i : i + L]
        k = int(np.argmax(maybe))
        if maybe[k]:
            return i + k, float(sums[k])
        i, s, L = i + L, float(sums[L]), 2 * L
    return N, s


def _skip_power(i, s, L, expo, inc, budget, choice):
    """Take power steps from step i up to the first one the budget refuses.

    The terms are scalar ** and their running sums exact, so the rule
    s + t <= beta*n is evaluated as the scalar loop does.  Records the picks
    in ``choice`` and their terms in ``inc``; returns the refused step and
    the running sum before it.
    """
    N = inc.size
    while i < N:
        L = min(L, N - i)
        terms = np.fromiter(map(pow, np.arange(i + 1.0, i + L + 1.0).tolist(), repeat(expo)),
                            float, L)
        sums = np.empty(L + 1)
        sums[0] = s
        sums[1:] = terms
        np.add.accumulate(sums, out=sums)
        over = sums[1:] > budget[i : i + L]
        k = int(np.argmax(over))
        if not over[k]:
            k = L
        inc[i : i + k] = terms[:k]
        choice[i : i + k] = _POWER_FLAG
        if k < L:
            return i + k, float(sums[k])
        i, s, L = i + L, float(sums[L]), 2 * L
    return N, s


def slow_decay_sequence(r: float, beta: float, N: int) -> SlowDecayTrace:
    """Generate the slow-decay sequence c_1..c_N for parameters (r, beta).

    c_1 = 1.  Given c_1..c_n with running sum S = sum k^2 c_k^2, the next
    term is (n+1)^{-r} if S + (n+1)^{2-2r} <= beta*(n+1), else 1/(n+1).
    Pure function of (r, beta, N); the same inputs reproduce the same bits.
    Short runs of one choice are taken step by step, long ones skipped with
    numpy (see the module docstring); both give the bits of a plain loop.
    """
    if not 0.5 <= r <= 1.0:
        raise ValueError(f"r must lie in [1/2, 1], got {r}")
    if not beta > 1.0:
        raise ValueError(f"beta must exceed 1, got {beta}")
    if not 1 <= N <= N_CAP:
        raise ValueError(f"N must lie in [1, {N_CAP}], got {N}")
    expo = 2.0 - 2.0 * r
    n = np.arange(1.0, N + 1.0)
    inc = _harmonic_increments(n)   # per-step increments of S; power picks overwrite theirs
    budget = n * beta
    low = np.power(n, expo, out=n)   # reuses n's buffer
    low *= _GUARD
    del n
    choice = np.zeros(N, dtype=np.uint8)
    choice[0] = _POWER_FLAG
    picks, terms = array("d"), array("d")   # scalar power picks: n and n**expo
    pick, term = picks.append, terms.append
    # A harmonic run starting after step n is forecast to last at least
    # _LONG_RUN steps when n**expo - (beta*n - S) >= long_harmonic.
    long_harmonic = _LONG_RUN * (beta - 1.0) + beta
    i, s = 1, 1.0
    while i < N:
        prev = None   # choice of the step before, None after a skip
        for n1 in map(float, range(i + 1, N + 1)):
            t = n1**expo
            b = beta * n1
            if s + t <= b:
                s += t
                pick(n1)
                term(t)
                if not prev:
                    prev, due = True, n1 + _LONG_RUN
                    continue
                if n1 < due:
                    continue
                k = (b - s) / (t - beta) if t > beta else N   # forecast of the run's rest
                i = int(n1)
                i, s = _skip_power(i, s, int(min(k, i // 2)) + _LONG_RUN, expo, inc, budget, choice)
                break
            v = 1.0 / n1
            s += (n1 * v) ** 2
            if prev is False:
                if n1 < due:
                    continue
            elif t - b + s < long_harmonic:
                prev, due = False, n1 + _LONG_RUN
                continue
            k = max(t - b + s - beta, 0.0) / (beta - 1.0)   # forecast of the run's length
            i, s = _skip_harmonic(int(n1), s, int(k + k / 8) + _LONG_RUN, inc, low, budget)
            break
        else:
            break
    del low
    picks = np.frombuffer(picks).astype(np.intp) - 1
    choice[picks] = _POWER_FLAG
    inc[picks] = np.frombuffer(terms)
    margins = np.subtract(budget, np.add.accumulate(inc, out=inc), out=budget)
    del inc
    return SlowDecayTrace(r=r, beta=beta, values=replay_values(r, choice), choice=choice,
                          margins=margins)


def replay_values(r: float, choice) -> np.ndarray:
    """Rebuild trace values from the choice flags alone, bit for bit.

    1/n everywhere, then scalar n ** -r at the power picks: vectorized
    powers can differ from scalar ** in the last ulp, and the generator
    builds its values here.
    """
    flags = np.asarray(choice)
    picks = np.flatnonzero(flags)
    out = np.arange(1.0, flags.size + 1.0)
    np.divide(1.0, out, out=out)
    out[picks] = np.fromiter(map(pow, (picks + 1.0).tolist(), repeat(-r)), float, picks.size)
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
    The margins are taken block by block from the prefix sums XSequence
    uses; the worst is the first smallest (or first NaN) margin, as
    np.argmin picks it.
    """
    ok, worst, lows = True, [], []
    for start, k, sums in _weighted_prefix_sums(t.values):
        budget = t.beta * k
        margins = (budget - sums).astype(float)
        ok &= bool(np.all(margins >= -rel_tol * np.maximum(1.0, budget)))
        j = int(np.argmin(margins))
        worst.append(start + j)
        lows.append(margins[j])
    b = int(np.argmin(lows))   # ties and NaN resolve to the earliest block
    return MarginCertificate(ok=ok, min_margin=float(lows[b]), argmin_index=worst[b] + 1)


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

    bounds = []
    b = 10
    while b < t.N:
        bounds.append(b)
        b *= 10
    bounds.append(t.N)

    # running maximum of n^s c_n, carried from block to block, read at each bound
    at_bound = {}
    carry = None
    for start, stop in _blocks(t.N):
        running = np.arange(start + 1.0, stop + 1.0) ** s * t.values[start:stop]
        if carry is not None:
            running[0] = np.maximum(carry, running[0])
        np.maximum.accumulate(running, out=running)
        carry = running[-1]
        at_bound.update((b, float(running[b - 1 - start])) for b in bounds if start < b <= stop)
    picks_to = np.searchsorted(positions, [0] + bounds, side="right")
    decades = [DecadeStat(bound=b, running_max=at_bound[b], contains_power=bool(hi > lo))
               for b, lo, hi in zip(bounds, picks_to[:-1], picks_to[1:])]

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


def csv_lines(rows):
    """CSV lines of ``rows``, header included: cells by str(), LF line ends.

    The one row writer for the CLI's tables and for the sequence and
    polynomial interchange files (traces use the faster trace_csv).  A
    float cell's str() is its repr, so it reads back bit for bit.  Lines
    are yielded one at a time, so a file writer streams.  No cell written
    here holds a comma, quote or line break, so none is quoted.
    """
    for row in rows:
        yield ",".join(map(str, row)) + "\n"


# ---------------------------------------------------------------------------
# CSV interchange: header index,value (index from 0); traces add a choice
# column, the head row mirroring the exported c_0 := c_1 convention so the
# file round-trips through read_sequence_csv as the exported sequence.

def write_sequence_csv(path, c: XSequence) -> None:
    rows = chain([("index", "value")], enumerate(map(repr, c.values.tolist())))
    with open(path, "w", newline="") as fh:
        fh.writelines(csv_lines(rows))


def _read_indexed_csv(path, header: list[str], what: str) -> np.ndarray:
    """Records of an index-keyed CSV, in index order.

    The first line must start with the ``header`` columns, unquoted; any
    further columns, in the header and in the rows, are ignored.  Every other
    line is a row: an integer index in the int64 range, then one float per
    remaining header column.  Lines end in LF or CRLF, a cell may be
    double-quoted, blank lines are skipped and ``#`` starts no comment (such
    a row is an error).  The index column must hold exactly 0..n-1, each
    once, in any order.  numpy's C parser streams the rows from the open file
    into one structured array, so the text is never held whole.
    """
    columns = ",".join(header)
    dtype = [("index", np.int64)] + [(name, float) for name in header[1:]]
    with open(path, newline="") as fh:
        if fh.readline().rstrip("\r\n").split(",")[: len(header)] != header:
            raise ValueError(f"{what} CSV must start with header '{columns}'")
        try:
            with warnings.catch_warnings():
                # a header-only file: its empty result is rejected by the caller
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                rec = np.loadtxt(fh, delimiter=",", usecols=range(len(header)), dtype=dtype,
                                 comments=None, quotechar='"', ndmin=1)
        except ValueError as exc:
            raise ValueError(f"{what} CSV rows need columns {columns}, an integer index in "
                             f"the int64 range and float values: {exc}") from None
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
    return XSequence(_read_indexed_csv(path, ["index", "value"], "sequence")["value"])


def trace_csv(t: SlowDecayTrace):
    """The trace as CSV text, header index,value,choice, yielded in chunks.

    The text is the chunks joined: the header with row 0, then one chunk
    per block of _BLOCK rows, so a writer never holds the whole text.
    Row 0 is the exported head c_0 := c_1; row i is c_i with its choice
    label, the value written as repr.  read_sequence_csv reads it back as
    the exported sequence, ignoring the choice column.
    """
    yield f"index,value,choice\n0,{float(t.values[0])!r},{_LABELS[t.choice[0]]}\n"
    for start, stop in _blocks(t.N):
        rows = zip(range(start + 1, stop + 1), t.values[start:stop].tolist(),
                   t.choice[start:stop].tolist())
        yield "".join([f"{i},{v!r},{_LABELS[f]}\n" for i, v, f in rows])


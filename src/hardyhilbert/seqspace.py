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

The choices come in runs, and a trace is stored as its runs: the first
step of each run and its choice (64, 4010 and 34482 runs at 10^6 terms for
(r, beta) = (0.6, 1.5), (0.75, 2.0) and (0.9, 1.2)).  Values, choice flags
and budget margins are rebuilt from the runs in blocks of _BLOCK steps
whenever they are read, bit for bit what a plain loop computes, so no
full-length array is kept at any length.

The generator skips long runs while reproducing the step-by-step rule bit
for bit.  A harmonic step adds (n*(1/n))**2, which is exactly 1 or
1 - 2**-52.  To a running sum s >= 4 (an ulp of at least 2**-50) both add
exactly 1 for as long as the sum stays within its binade (at most the next
power of two).  So if s is the sum before step n0, the sum before step
n0+m is exactly s + m inside one binade, and a harmonic run ends at the
first m where the slack g(m) = beta*(n0+m) - (s+m) - (n0+m)**expo is no
longer negative.  n**expo is concave for expo = 2 - 2r in [0, 1], so g is
convex in m: where g is certainly negative at two steps (below
-2**-46 * beta*n, far beyond the few ulps by which beta*n, the scalar
power and the test itself round), it is negative at every step between
them, and no step between can pass the scalar rule.  A slack rising at
m = 0 has its root found by Newton's method from m = 0.  A falling one is
checked at the binade's end (or at N): the whole binade is skipped where
it is certainly negative there, else Newton's method runs from that end,
where g rises.  The step at the root's ceiling goes to the scalar rule
once the step before it is certified; where it is not, the skip backs off
from the root, doubling the distance, to a certified step and hands over
the step after it with its exact sum.  A run that outlasts its binade
takes the step that crosses the power of two with the scalar increment
(that step is where an increment can round) and goes on in the next
binade.  Where s < 4 (only the first steps), s >= 2**52 (which needs
beta > 4.5e7, where a harmonic run lasts a few steps) or g is not
certainly negative at the run's start, the step goes to the scalar rule.

A power run adds its terms to the sum, so those are computed with scalar
** (at r = 1 they are all n ** 0.0, exactly 1.0) in windows of at most
_BLOCK steps; the running sum is one sequential np.add.accumulate, which
rounds exactly as the scalar `s += t` does, and the run ends at the first
sum above beta*n.  A run is skipped once it is forecast to last, or has
lasted, _LONG_RUN steps; shorter runs (about ten steps at r = 0.95,
beta = 1.3) are taken one scalar step at a time, which is cheaper than a
numpy call or the closed form.  Values and margins at power picks use
scalar **, since np.power differs from it in the last ulp for about one n
in twenty.

The long per-term passes (XSequence's weighted prefix sums, the trace's
budget margins, running maxima of n^s c_n, the trace CSV) run in blocks of
_BLOCK terms, so their temporaries take O(_BLOCK) memory at any length.  A
block's running sums start from the last sum of the block before, and
np.add.accumulate adds strictly in order, so they are bit for bit those of
one pass over the whole sequence.  The margin certificate, the running
maxima and the exported norm are block passes over the trace's values:
slow_decay_report builds each block of values once and feeds it to all
three.  The certificate and the export norm sum the float squares exactly,
with no running sum per step: a stretch of harmonic steps adds as a whole,
from its values' bit patterns, the power picks add one by one in
whole-number limbs, and Python ints carry the sums from block to block.
So their margins and ratios are exact, and no tolerance and no extended
precision enter them.
"""

from __future__ import annotations

import math
import os
import stat
import warnings
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain, repeat

import numpy as np

from . import _floattext

N_CAP = 10**8

POWER = "power"
HARMONIC = "harmonic"

_POWER_FLAG = 1
# The choice column of a trace CSV row, with its separator and line end,
# indexed by the choice flag.
_CHOICE_CELLS = (f",{HARMONIC}\n", f",{POWER}\n")
# Runs forecast or found to last at least this many steps are skipped with
# numpy or the closed form; below it either costs more than the scalar
# steps it saves (of 24, 32, 48, 64 and 96, 32 was fastest at r = 0.9,
# beta = 1.2).
_LONG_RUN = 32
# A harmonic step adds 1 or 1 - 2**-52 (_harmonic_increments); to a sum from
# 4 up to 2**52 both add exactly 1, up to the next power of two.
_EXACT_FROM = 4.0
# A step whose exact slack beta*n - S - n**expo is below -_SLACK*beta*n
# fails the scalar rule: the rounding of beta*n, of n**expo (within an ulp)
# and of the test itself, and of evaluating the slack, are a few ulps each.
_SLACK = 2.0**-46
# Newton steps for the end of a harmonic run; it converges in two to four.
_NEWTON_STEPS = 8
# Terms per block of the long per-term passes, and steps per block of the
# slow-decay generator's per-step arrays: about 0.5 MB per float64 array;
# N_CAP terms at once would take 0.8 GB per array.
_BLOCK = 2**16
# File name suffixes numpy's loadtxt opens as compressed files.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _blocks(n: int):
    """(start, stop) of consecutive blocks of at most _BLOCK terms covering 0..n-1."""
    return ((a, min(a + _BLOCK, n)) for a in range(0, n, _BLOCK))


def _prefix_block(k: np.ndarray, v: np.ndarray, carry) -> np.ndarray:
    """The running sums of (k*v)^2 over one block, in extended precision.

    ``carry`` is the last sum of the block before (0 for the first).  The
    block's first term adds it, in the order np.cumsum adds it, so how a
    sequence is cut into blocks does not change a bit.
    """
    sums = np.square(k * v).astype(np.longdouble)
    sums[0] += carry
    return np.add.accumulate(sums, out=sums)


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
        carry = np.longdouble(0.0)
        with np.errstate(over="ignore"):  # an overflow is rejected below
            for a, b in _blocks(v.size):
                k = np.arange(a + 1.0, b + 1.0)
                sums = _prefix_block(k, v[a:b], carry)
                carry = sums[-1]
                self.ratios[a:b] = np.divide(sums, k, out=sums)
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
    if N > N_CAP:   # before the terms are built: XSequence would refuse them
        raise ValueError(f"sequence length {N} exceeds cap {N_CAP}")
    return XSequence(1.0 / np.arange(1, N + 1, dtype=float))


@dataclass
class SlowDecayTrace:
    """Output of the slow-decay generator, stored as its runs; 1-indexed.

    Step n takes the power pick c_n = n^{-r} (choice 1) or the harmonic
    fallback c_n = 1/n (choice 0).  Run j covers the steps from
    ``starts[j]`` up to the one before ``starts[j+1]`` (up to N for the
    last run), all with choice ``flags[j]``; ``starts[0]`` is 1.  The trace
    holds one start and one flag per run and nothing per step.

    ``values()``, ``choice()`` and ``margins()`` yield c_n, the flags
    (uint8) and the budget slack beta*n - sum_{k<=n} k^2 c_k^2 in blocks of
    _BLOCK steps, rebuilt from the runs on each call.  The margins repeat
    the generator's float operations, so a generated trace has margins >= 0
    bit for bit.
    """

    r: float
    beta: float
    N: int
    starts: np.ndarray   # int64: the first step of each run, increasing from 1
    flags: np.ndarray    # uint8: the choice of each run

    def __post_init__(self):
        self.starts = np.asarray(self.starts, dtype=np.int64)
        flags = np.asarray(self.flags)
        s = self.starts
        if not (self.N >= 1 and s.ndim == 1 and s.shape == flags.shape and s.size
                and s[0] == 1 and s[-1] <= self.N and np.all(s[1:] > s[:-1])
                and np.all((flags == 0) | (flags == 1))):
            raise ValueError("a trace needs one flag, 0 or 1, per run and run starts that "
                             "increase from step 1 and stay within 1..N")
        # the exact passes rest on them: beta > 1 and every square at least 1/2
        check_slow_decay_parameters(self.r, self.beta, self.N)
        self.flags = flags.astype(np.uint8)

    def _steps(self):
        """(n, flags) block by block: the steps n as float64 and their choice flags."""
        for start, stop in _blocks(self.N):
            lo = int(np.searchsorted(self.starts, start + 1, side="right")) - 1
            hi = int(np.searchsorted(self.starts, stop, side="right"))
            edges = np.concatenate(([start + 1], self.starts[lo + 1 : hi], [stop + 1]))
            yield np.arange(start + 1.0, stop + 1.0), np.repeat(self.flags[lo:hi], np.diff(edges))

    def choice(self):
        """The choice flags, block by block."""
        for _, flags in self._steps():
            yield flags

    def _value_blocks(self):
        """(n, picks, c_n) block by block: the steps n as float64, the
        positions of the power picks among them and the values."""
        for n, flags in self._steps():
            picks = np.flatnonzero(flags)
            yield n, picks, _values_block(self.r, n, picks)

    def values(self):
        """c_1..c_N, block by block: 1/n, or scalar n ** -r at the power picks."""
        return (values for _, _, values in self._value_blocks())

    def margins(self):
        """beta*n - sum_{k<=n} k^2 c_k^2 for n = 1..N, block by block.

        The increments are those the generator adds, summed by one
        np.add.accumulate per block from the float64 sum carried over.
        """
        expo = 2.0 - 2.0 * self.r
        carry = 0.0
        for n, flags in self._steps():
            sums = _harmonic_increments(n)
            picks = np.flatnonzero(flags)
            sums[picks] = _scalar_powers(n, picks, expo)
            sums[0] += carry
            np.add.accumulate(sums, out=sums)
            carry = float(sums[-1])
            n *= self.beta
            yield np.subtract(n, sums, out=n)


def _scalar_powers(n: np.ndarray, picks: np.ndarray, expo: float) -> np.ndarray:
    """n ** expo at the positions ``picks`` of the steps n, computed with
    scalar ** (np.power can differ in the last ulp).

    math.pow is the C pow that a float's ** calls for a positive finite
    base, with less call overhead.
    """
    return np.fromiter(map(math.pow, n[picks].tolist(), repeat(expo)), float, picks.size)


def _values_block(r: float, n: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """c_n for the steps n: 1/n, or n ** -r at the power picks' positions."""
    out = np.divide(1.0, n)
    out[picks] = _scalar_powers(n, picks, -r)
    return out


def _harmonic_increments(n: np.ndarray) -> np.ndarray:
    """The harmonic steps' increments (n*(1/n))**2, as the scalar rule computes them.

    n*(1/n) is 1 or 1 - 2**-53, and numpy squares both as scalar ** does.
    """
    out = np.divide(1.0, n)
    out *= n
    return np.square(out, out=out)


def _harmonic_run(i, s, N, beta, expo):
    """The closed form of a harmonic run from step i (0-based), the sum before it s.

    Within the binade of s the sum before step i+1+m is s+m, and the slack
    g(m) = beta*n - (s+m) - n**expo at n = i+1+m is convex in m, so steps
    where g is certainly negative (below -_SLACK*beta*n) certify every step
    between them.  Steps i up to the one before j are certainly harmonic;
    returns (j, the sum before it, done).  With done True, step j goes to
    the scalar rule: the run's end where Newton's root is confirmed, an
    earlier step where the skip backed off, or i itself where s is outside
    [_EXACT_FROM, 2**52) or g(0) is not certainly negative.  With done
    False, the run passed the binade's end, and j is the step after it.
    """
    n0 = i + 1.0
    b = beta * n0
    if not (_EXACT_FROM <= s < 2.0**52 and b - s - n0**expo < -_SLACK * b):
        return i, s, True
    last = min(int(2.0 ** math.frexp(s)[1] - s), N - 1 - i)   # in the binade and N
    # Rising at m = 0, g has its root past 0: Newton from 0.  Falling, g stays
    # below max(g(0), g(last)), or rises at the end: Newton from there.
    rising = expo * n0 ** (expo - 1.0) < beta - 1.0
    m = 0 if rising else last
    n = n0 + m
    b = beta * n
    gap = b - (s + m) - n**expo
    if rising or not gap < -_SLACK * b:
        for _ in range(_NEWTON_STEPS):   # g is convex: from the root's right after one step
            slope = beta - 1.0 - expo * n ** (expo - 1.0)
            if slope <= 0.0:
                break
            step = gap / slope
            m -= step
            if abs(step) < 2.0**-10:
                break
            n = n0 + m
            gap = beta * n - (s + m) - n**expo
        m = min(math.ceil(m), last + 1) - 1   # the step before the root
    k, back = m, 1
    while True:   # back off from the root until g is certainly negative, as g(0) is
        n = n0 + k
        b = beta * n
        if b - (s + k) - n**expo < -_SLACK * b:
            break
        k, back = max(m - back, 0), 2 * back
    if k < last:
        return i + k + 1, s + k + 1, True
    n = n0 + last
    return i + last + 1, s + last + (n * (1.0 / n)) ** 2, False


def _skip_harmonic(i, s, N, beta, expo):
    """Take harmonic steps from step i, binade by binade, by the closed form.

    Returns the step _harmonic_run hands to the scalar rule (N at the end):
    the run's end, or an earlier step it cannot pass over, with the exact
    running sum before it.
    """
    while i < N:
        i, s, done = _harmonic_run(i, s, N, beta, expo)
        if done:
            break
    return i, s


def _skip_power(i, s, L, N, beta, expo):
    """Take power steps from step i up to the first one the budget refuses.

    Looks ``L`` steps ahead, at most _BLOCK and up to N, doubling while
    every step is affordable.  The terms are scalar ** and their running
    sums exact, so the rule s + t <= beta*n is evaluated as the scalar loop
    does; at r = 1 every term is n ** 0.0, which is exactly 1.0 for any n.
    Returns the refused step and the running sum before it.
    """
    while i < N:
        L = min(L, _BLOCK, N - i)
        n = np.arange(i + 1.0, i + L + 1.0)
        sums = np.ones(L + 1)
        sums[0] = s
        if expo:
            sums[1:] = np.fromiter(map(math.pow, n.tolist(), repeat(expo)), float, L)
        np.add.accumulate(sums, out=sums)
        over = sums[1:] > np.multiply(n, beta, out=n)
        k = int(over.argmax())
        if over[k]:
            return i + k, float(sums[k])
        i, s, L = i + L, float(sums[L]), 2 * L
    return N, s


def check_slow_decay_parameters(r: float, beta: float, N: int) -> None:
    """Reject parameters of slow_decay_sequence: r in [1/2, 1], beta finite
    and above 1, N in [1, N_CAP], and the budget beta*N a finite float."""
    if not 0.5 <= r <= 1.0:
        raise ValueError(f"r must lie in [1/2, 1], got {r}")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if not beta > 1.0:
        raise ValueError(f"beta must exceed 1, got {beta}")
    if not 1 <= N <= N_CAP:
        raise ValueError(f"N must lie in [1, {N_CAP}], got {N}")
    if not math.isfinite(beta * N):
        raise ValueError(f"the budget beta*N overflows: beta = {beta}, N = {N}")


def slow_decay_sequence(r: float, beta: float, N: int) -> SlowDecayTrace:
    """Generate the slow-decay sequence c_1..c_N for parameters (r, beta).

    c_1 = 1.  Given c_1..c_n with running sum S = sum k^2 c_k^2, the next
    term is (n+1)^{-r} if S + (n+1)^{2-2r} <= beta*(n+1), else 1/(n+1).
    Pure function of (r, beta, N); the same inputs reproduce the same bits.
    Short runs of one choice are taken step by step, long power runs skipped
    with numpy and long harmonic runs by their closed form (see the module
    docstring); both give the bits of a plain loop.
    The parameters are checked before any per-term work, by
    check_slow_decay_parameters.
    """
    check_slow_decay_parameters(r, beta, N)
    expo = 2.0 - 2.0 * r
    starts = array("d", [1.0])   # the first step of each run; the runs alternate
    new_run = starts.append
    power_run = True             # the choice of the latest step taken
    # A harmonic run starting after step n is forecast to last at least
    # _LONG_RUN steps when n**expo - (beta*n - S) >= long_harmonic.
    long_harmonic = _LONG_RUN * (beta - 1.0) + beta
    i, s = 1, 1.0
    while i < N:
        prev = None   # choice of the step before in this scalar stretch, None after a skip
        for n1 in map(float, range(i + 1, N + 1)):
            t = n1**expo
            b = beta * n1
            if s + t <= b:
                s += t
                if not prev:
                    if not power_run:
                        new_run(n1)
                        power_run = True
                    prev, due = True, n1 + _LONG_RUN
                    continue
                if n1 < due:
                    continue
                k = (b - s) / (t - beta) if t > beta else N   # forecast of the run's rest
                i = int(n1)
                i, s = _skip_power(i, s, int(min(k, i // 2)) + _LONG_RUN, N, beta, expo)
                break
            v = 1.0 / n1
            s += (n1 * v) ** 2
            if prev is False:
                if n1 < due:
                    continue
            else:
                if power_run:
                    new_run(n1)
                    power_run = False
                if t - b + s < long_harmonic:
                    prev, due = False, n1 + _LONG_RUN
                    continue
            i, s = _skip_harmonic(int(n1), s, N, beta, expo)
            break
        else:
            break
    flags = np.zeros(len(starts), dtype=np.uint8)
    flags[::2] = _POWER_FLAG   # c_1 = 1 is a power pick
    return SlowDecayTrace(r=r, beta=beta, N=N, starts=np.frombuffer(starts).astype(np.int64),
                          flags=flags)


def trace_to_xsequence(t: SlowDecayTrace) -> XSequence:
    """Export a 1-indexed trace to the 0-indexed sequence convention.

    The head entry c_0 is set to c_1 (= 1 for generated traces), keeping the
    sequence bounded by 1 and nonincreasing at the head.  Because
    (k+1)^2 <= 4 k^2 for k >= 1, a trace whose margins certify the linear
    budget exports to a sequence of norm at most 2*sqrt(beta).
    """
    blocks = t.values()
    first = next(blocks)
    return XSequence(np.concatenate([first[:1], first, *blocks]))


# ---------------------------------------------------------------------------
# The reports on a trace.  Each is a block pass: add(n, picks, values) takes
# the steps n = start+1..stop (floats) of one block, in order, the positions
# of its power picks and c_n, and result() gives the report.  _report_pass
# takes each block of the trace's _value_blocks() once and feeds it to every
# pass it is given, so one walk over the trace serves any subset of the
# reports.  No pass writes to the arrays it is given.
#
# The margin certificate and the export norm sum their squares exactly:
# x_n = fl((n c_n)^2) and y_n = fl(((n+1) c_n)^2) are at least 1/2 for
# r in [1/2, 1], so each is a whole number of units of 2**-53, and a running
# sum is a Python int in those units from block to block.  Within a block
# the anchors add their own terms: the power picks, the block's first step
# and step 2.  Between two anchors lies a gap of harmonic steps,
# c_n = fl(1/n), summed as a whole from the bit patterns of a float v per
# step (see _BlockSums):
#   - certificate: v = n*fl(1/n) is 1 or 1 - 2**-53, so x = v^2 is 1 or
#     1 - 2**-52, which is 1 + 2 * (bits(v) - bits(1.0)) units of 2**-53;
#   - export: v = y lies in [1, 2) from n = 3 on, where its bit pattern
#     less that of 1.0 is (y - 1) * 2**52, so y is 1 plus twice that in
#     units of 2**-53.
# A power pick whose v is of the same form joins the gaps (at r = 1 all
# but about one in a thousand, where n ** -1.0 is not fl(1/n)).  The int64
# sums of the bit patterns wrap, but the sums of the differences are exact:
# the export's excess over 1, summed over every harmonic step up to N_CAP,
# stays below 2**58 (2/n + 1/n^2 per step).
# The extremes lie at anchors (see the passes); a float screen keeps the
# anchors within its error bound of the block's extreme, and Python ints
# decide among them.

# Blocks with anchors on more than 1/_DENSE of their steps take every step
# as an anchor, with no gaps to reduce: on blocks of short runs (certify's
# CSV traces at seeds 2 and 11, anchors on 55-60% of the steps) that halves
# the certificate's time, and the two ways cost the same near 27%.
_DENSE = 4
_ONE_BITS = np.float64(1.0).view(np.int64)


def _report_pass(t, *passes):
    """Feed each block of steps, picks and values of ``t`` to every pass; their results."""
    for n, picks, values in t._value_blocks():
        for p in passes:
            p.add(n, picks, values)
    return [p.result() for p in passes]


def _anchors(n: np.ndarray, picks: np.ndarray, plain: np.ndarray):
    """Positions that add their own term: the power picks whose term is not
    ``plain`` (of the form a gap step's is), the block's first step and, in
    the first block, step 2 (a harmonic y there is 2.25).  Where they would
    be more than 1/_DENSE of the block, every step is an anchor:
    slice(None)."""
    head = min(2 if n[0] == 1.0 else 1, n.size)
    picks = picks[~plain]
    if _DENSE * picks.size > n.size:
        return slice(None)
    return np.concatenate((np.arange(head), picks[np.searchsorted(picks, head):]))


class _BlockSums:
    """Exact running sums of one block at its anchors.

    ``terms`` are the anchors' terms: whole numbers of units of 2**-53, from
    1/2 to below 2**27.  A gap step adds 1 + 2 * (bits(v) - bits(1.0)) units
    of 2**-53, from the step's entry of ``v`` (the caller's own array).  Its
    anchor entries are zeroed here, so that np.add.reduceat from each gap's
    start sums the gap alone, and reads the next anchor's 0 for an empty
    gap.

    Column j holds anchor j's term and the gap before it, column K (one
    past the last anchor) the gap after the last anchor.  ``approx`` is the
    float64 running sum of the columns up to each anchor, within
    (j + 3) * 2**-53 of its value at anchor j.  The exact sums come from
    three limbs (h, m, f) per column: a term is h + (m + f) * 2**-26 with
    whole h < 2**27 and m < 2**26 and f in [0, 1) a multiple of 2**-27, and
    a gap adds its length to h and its deviation, split at bit 27, to m and
    f.  Over a block of up to 2**16 steps any sum of a limb's entries, in
    its own units, stays below 2**53 in magnitude, so numpy adds them
    exactly in any order.
    """

    def __init__(self, v: np.ndarray, anchors, terms: np.ndarray):
        self.limbs = limbs = np.empty((3, terms.size + 1))
        limbs[:, -1] = 0.0
        h, m, f = limbs[:, :-1]
        np.floor(terms, out=h)
        np.subtract(terms, h, out=f)
        f *= 2.0**26
        np.floor(f, out=m)
        f -= m
        columns = terms
        if terms.size < v.size:
            v[anchors] = 0.0
            gaps = np.append(anchors[1:], v.size) - anchors - 1   # the gap after each anchor
            starts = anchors + 1
            starts[-1] = min(starts[-1], v.size - 1)   # past the end: the last anchor's 0
            deviation = 2 * (np.add.reduceat(v.view(np.int64), starts) - gaps * _ONE_BITS)
            h, m, f = limbs[:, 1:]
            h += gaps
            m += deviation >> 27
            f += (deviation & (2**27 - 1)) * 2.0**-27
            columns = terms + np.append(0.0, gaps[:-1] + deviation[:-1] * 2.0**-53)
        self.approx = np.cumsum(columns)

    def exact(self, anchors: list[int]) -> list[int]:
        """The sums up to the given anchors (increasing), in units of 2**-53."""
        segments = np.add.reduceat(self.limbs, [0] + [j + 1 for j in anchors], axis=1)
        return list(accumulate(map(_from_limbs, segments.T[:-1].tolist())))

    def total(self) -> int:
        """The block's sum, in units of 2**-53."""
        return _from_limbs(self.limbs.sum(axis=1).tolist())


def _from_limbs(limbs) -> int:
    """h * 2**53 + (m + f) * 2**27: a sum of limbs, in units of 2**-53."""
    h, m, f = limbs
    return (int(h) << 53) + (int(m) << 27) + int(f * 2.0**27)


@dataclass
class MarginCertificate:
    ok: bool
    min_margin: float
    argmin_index: int  # 1-based position of the worst margin


class _Certificate:
    """verify_margins as a block pass over exact sums.

    A gap step raises the margin by beta - x > 0 (x <= 1 < beta), so the
    first smallest margin is at an anchor.  A margin is kept as a whole
    number of units of 2**-53 / den, where beta = num / den.
    """

    def __init__(self, beta: float):
        self.beta = beta
        self.num, self.den = beta.as_integer_ratio()
        self.sum = 0   # sum of x before the block, in units of 2**-53
        self.best = self.arg = None

    def add(self, n, picks, values):
        p = n * values
        q = p[picks]
        anchors = _anchors(n, picks, (q <= 1.0) & (q >= 1.0 - 2.0**-53))
        steps = n[anchors]
        sums = _BlockSums(p, anchors, np.square(p[anchors]))
        margins = self.beta * steps
        carry = self.sum * 2.0**-53
        margins -= carry
        margins -= sums.approx
        # beta*n, the carry and the subtractions add a few roundings to approx's
        err = (steps.size + 8) * 2.0**-53 * (self.beta * steps[-1] + carry + sums.approx[-1])
        close = np.flatnonzero(margins <= margins.min() + 2.0 * err).tolist()
        for i, below in zip(close, sums.exact(close)):
            step = int(steps[i])
            margin = (self.num * step << 53) - self.den * (self.sum + below)
            if self.best is None or margin < self.best:
                self.best, self.arg = margin, step
        self.sum += sums.total()

    def result(self) -> MarginCertificate:
        return MarginCertificate(ok=self.best >= 0, min_margin=self.best / (self.den << 53),
                                 argmin_index=self.arg)


def verify_margins(t: SlowDecayTrace) -> MarginCertificate:
    """The budget slack beta*m - sum_{k<=m} x_k for every m, exactly.

    x_k = fl((k c_k)^2) is the float square; beta*m and the sums are
    exact, so ``ok`` says that every exact margin is >= 0, and
    ``min_margin`` is the smallest margin correctly rounded, at the first
    step where it occurs.  Independent of the generator's running sum:
    reads ``t.beta`` and the blocks of ``t._value_blocks()`` only.
    """
    return _report_pass(t, _Certificate(t.beta))[0]


class _ExportNorm:
    """xnorm(trace_to_xsequence(t)) over exact sums, as a block pass.

    The exported sequence is c_0 := c_1, c_1, ..., c_N: c_n has weight n+1,
    and the head, weight 1, comes before the first block.  The prefix ratio
    at n is T_n / (n+1), T_n the sum of the y's up to n, a weighted mean of
    the ratio at n-1 and y_n.  So along a gap the ratio stays below the
    larger of the ratio at the anchor before and the gap's y's, which are
    below 2; the ratio at step 1, an anchor, is (1 + 4) / 2 (c_1 = 1).  The
    largest ratio is at an anchor, and the norm is its square root, the
    ratio rounded once.
    """

    def __init__(self):
        self.sum = self.best = None   # T before the block; (T, n+1) of the largest ratio

    def add(self, n, picks, values):
        if self.sum is None:
            self.sum = int(values[0] ** 2 * 2.0**53)
            self.best = (self.sum, 1)
        y = n + 1.0
        y *= values
        np.square(y, out=y)
        q = y[picks]
        anchors = _anchors(n, picks, (q >= 1.0) & (q < 2.0))
        weights = n[anchors] + 1.0
        sums = _BlockSums(y, anchors, y[anchors])
        carry = self.sum * 2.0**-53
        ratios = sums.approx + carry
        # the carry, its addition and the division add a few roundings to approx's
        err = (weights.size + 8) * 2.0**-53 * (carry + sums.approx[-1]) / weights
        ratios /= weights
        err += 2.0**-51 * ratios
        floor = max((ratios - err).max(), self.best[0] / (self.best[1] << 53) * (1.0 - 2.0**-52))
        close = np.flatnonzero(ratios + err >= floor).tolist()
        for i, total in zip(close, sums.exact(close)):
            total, weight = self.sum + total, int(weights[i])
            if total * self.best[1] > self.best[0] * weight:
                self.best = (total, weight)
        self.sum += sums.total()

    def result(self) -> float:
        total, weight = self.best
        return float(np.sqrt(total / (weight << 53)))


@dataclass
class DecadeStat:
    bound: int
    running_max: float
    contains_power: bool


@dataclass
class InfinitudeReport:
    """Evidence that the power choice recurs and n^s c_n keeps growing.

    Power picks and running maxima of n^s c_n, tabulated at the decade
    bounds 10, 100, ... and N.  It needs s > r: only there does a power
    pick at n contribute the unbounded value n^{s-r}.
    ``increasing_over_power_decades`` records whether the running maximum
    strictly grew across every decade that contains a power pick (the first
    decade has no predecessor and is skipped); ``strictly_growing`` requires
    growth across all decades.  The power picks are counted from the runs.
    """

    s: float
    power_count: int
    largest_power_index: int   # 1-based; 0 without a power pick
    decades: list[DecadeStat]
    increasing_over_power_decades: bool
    strictly_growing: bool


def check_growth_exponent(r: float, s: float, N: int) -> None:
    """Reject a growth exponent s for slow_decay_report before any per-term work.

    s must be finite and exceed r, and N**s must be a finite float, since
    the report evaluates n**s for n up to N.
    """
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got s = {s}")
    if s <= r:
        raise ValueError(f"s must exceed r = {r}, got s = {s}")
    try:
        float(N) ** s
    except OverflowError:
        raise ValueError(f"n**s overflows for s = {s} at n = {N}") from None


class _Growth:
    """InfinitudeReport as a block pass: the running maximum of n^s c_n,
    read at each decade bound as the maximum of the block up to the bound
    and the maximum of the blocks before (carry); the power picks are
    counted from the runs."""

    def __init__(self, t: SlowDecayTrace, s: float):
        check_growth_exponent(t.r, s, t.N)
        self.t, self.s = t, s
        self.bounds = []
        b = 10
        while b < t.N:
            self.bounds.append(b)
            b *= 10
        self.bounds.append(t.N)
        self.at_bound = {}
        self.carry = -np.inf

    def add(self, n, picks, values):
        grown = n**self.s * values
        start, stop = int(n[0]) - 1, int(n[-1])
        for b in self.bounds:
            if start < b <= stop:
                self.at_bound[b] = float(np.maximum(self.carry, grown[: b - start].max()))
        self.carry = np.maximum(self.carry, grown.max())

    def result(self) -> InfinitudeReport:
        t, bounds = self.t, self.bounds
        # power runs cover steps first..after-1; picks_to[j] counts the picks up to [0] + bounds
        power = t.flags == _POWER_FLAG
        first = t.starts[power]
        after = np.append(t.starts[1:], t.N + 1)[power]
        picks_to = [int(np.clip(b + 1 - first, 0, after - first).sum()) for b in [0] + bounds]
        decades = [DecadeStat(bound=b, running_max=self.at_bound[b], contains_power=hi > lo)
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
            s=self.s,
            power_count=picks_to[-1],
            largest_power_index=int(after[-1]) - 1 if first.size else 0,
            decades=decades,
            increasing_over_power_decades=bool(inc_power),
            strictly_growing=bool(strictly),
        )


@dataclass
class SlowDecayReport:
    certificate: MarginCertificate
    infinitude: InfinitudeReport
    export_norm: float


def slow_decay_report(t: SlowDecayTrace, s: float) -> SlowDecayReport:
    """The margin certificate, the growth record and the export norm in one pass.

    ``certificate`` is verify_margins(t), bit for bit; ``infinitude`` is the
    InfinitudeReport at exponent s, which must exceed r (checked, with
    check_growth_exponent, before any per-term work); ``export_norm`` is the
    norm of trace_to_xsequence(t) from exact sums, without the whole
    exported sequence in memory (xnorm, whose sums are long double, agrees
    to 2 ulp).  Each block of the trace's values is built once and fed to
    all three.
    """
    return SlowDecayReport(*_report_pass(t, _Certificate(t.beta), _Growth(t, s), _ExportNorm()))


def indexed_csv(*columns):
    """CSV rows ``i,columns[0][i],columns[1][i],...`` for i = 0..n-1, no header.

    Each cell is the repr of its float; the text comes from _floattext.table,
    chunk by chunk.
    """
    cells = chain.from_iterable((",", column) for column in columns)
    return _floattext.table(range(len(columns[0])), *cells, "\n")


# ---------------------------------------------------------------------------
# CSV interchange: header index,value (index from 0); traces add a choice
# column, the head row mirroring the exported c_0 := c_1 convention so the
# file round-trips through read_sequence_csv as the exported sequence.

def write_sequence_csv(path, c: XSequence) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("index,value\n")
        fh.writelines(indexed_csv(c.values))


def _read_indexed_csv(path, header: list[str], what: str) -> np.ndarray:
    """Records of an index-keyed CSV, in index order.

    The first line must start with the ``header`` columns, unquoted; any
    further columns, in the header and in the rows, are ignored.  Every other
    line is a row: an integer index in the int64 range, then one float per
    remaining header column.  Lines end in LF or CRLF, a cell may be
    double-quoted, blank lines are skipped and ``#`` starts no comment (such
    a row is an error).  The index column must hold exactly 0..n-1, each
    once, in any order.  numpy's C parser streams the rows into one
    structured array, so the text is never held whole.  Given a file name
    it reads the text in chunks; given an open file it takes one line at a
    time.  So a regular file is handed over by name, skipping the header,
    and anything else (a pipe, /dev/stdin) as the open file after its
    header.  numpy decompresses a name ending in one of _COMPRESSED, so
    such a file is read line by line as the text it holds.  Bytes that are
    not UTF-8, as in a compressed file, raise a ValueError naming the file.
    """
    columns = ",".join(header)
    dtype = [("index", np.int64)] + [(name, float) for name in header[1:]]
    try:
        with open(path, newline="") as fh:
            if fh.readline().rstrip("\r\n").split(",")[: len(header)] != header:
                raise ValueError(f"{what} CSV must start with header '{columns}'")
            by_name = (stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
                       and os.path.splitext(path)[1] not in _COMPRESSED)
            try:
                with warnings.catch_warnings():
                    # a header-only file: its empty result is rejected by the caller
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                            UserWarning)
                    # an absolute name, which numpy cannot take for a URL
                    rec = np.loadtxt(os.path.abspath(path) if by_name else fh,
                                     skiprows=int(by_name), delimiter=",",
                                     usecols=range(len(header)), dtype=dtype,
                                     comments=None, quotechar='"', ndmin=1)
            except UnicodeDecodeError:
                raise   # a ValueError too: named as such below
            except ValueError as exc:
                raise ValueError(f"{what} CSV rows need columns {columns}, an integer index "
                                 f"in the int64 range and float values: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{what} CSV {path} is not UTF-8 text ({exc.reason}): input must "
                         f"be plain UTF-8 text, and compressed files are not "
                         f"decompressed") from None
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

    The text is the chunks joined: the header with row 0, then the rows of
    each block of _BLOCK steps in the chunks of _floattext.table, so a
    writer never holds the whole text, nor one block's rows at once.  Row 0
    is the exported head c_0 := c_1; row i is c_i with its choice label.
    Each value is written as its repr, byte for byte.  read_sequence_csv
    reads the text back as the exported sequence, ignoring the choice
    column.
    """
    for n, flags in t._steps():
        values = _values_block(t.r, n, np.flatnonzero(flags))
        if n[0] == 1:
            yield f"index,value,choice\n0,{float(values[0])!r}{_CHOICE_CELLS[flags[0]]}"
        yield from _floattext.table(range(int(n[0]), int(n[-1]) + 1), ",", values,
                                    _floattext.label_field(flags, _CHOICE_CELLS))

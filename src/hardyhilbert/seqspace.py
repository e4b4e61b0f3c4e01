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
power of two).  So if s is the sum before step n, the sum before step
n+m is exactly s + m inside one binade, and a harmonic run has a closed
form: it ends at the first m with s + m + (n+m)**expo <= beta*(n+m).
Where beta - 1 exceeds the slope of n**expo, the slack
g(m) = beta*(n+m) - s - m - (n+m)**expo is increasing and convex in m, so
a few Newton steps find its root.  The step at its ceiling is handed to
the scalar rule, and g one step before it is checked to be below
-2**-46 * beta*n, far beyond the few ulps by which beta*n, the scalar
power and the test itself round, so no earlier step can pass.  A run that
outlasts its binade takes the step that crosses the power of two with the
scalar rule (that step is where an increment can round) and goes on in
the next binade.  The closed form is not used, and the accumulate window
below takes the run, while s < 4, where the slope check fails
(beta - 1 <= expo * n**(expo-1), e.g. r = 0.9, beta = 1.001 below
n ~ 750), or when the Newton root cannot be confirmed.

The window holds the budget, the increments and the guard-banded powers of
one block of _BLOCK steps at a time, and a skip looks no further than the
end of its block.  The running sum is one sequential np.add.accumulate of
the exact per-step increments, which rounds exactly as the scalar
`s += ...` does.  A harmonic run ends at the first step where the power
pick is affordable.  That step is located with np.power, which differs
from scalar ** in the last ulp for about one n in twenty, so the
vectorized powers are scaled down by a guard band (_GUARD) that makes the
test a necessary condition, and the flagged step is decided by the scalar
rule.  A power run adds its terms to the sum, so those are computed with
scalar ** (at r = 1 they are all n ** 0.0, exactly 1.0) and the run ends
at the first sum above beta*n.  A run is skipped once it is forecast to
last, or has lasted, _LONG_RUN steps; shorter runs (about ten steps at
r = 0.95, beta = 1.3) are taken one scalar step at a time, which is
cheaper than a numpy call.  Values and margins at power picks use
scalar ** for the same last-ulp reason (replay_values).

The long per-term passes (weighted prefix sums, budget margins, running
maxima of n^s c_n, the trace CSV) run in blocks of _BLOCK terms, so their
temporaries take O(_BLOCK) memory at any length.  A block's running sums
start from the last sum of the block before, and np.add.accumulate adds
strictly in order, so they are bit for bit those of one pass over the
whole sequence.  The margin certificate, the running maxima and the
exported norm are block passes over the trace's values: slow_decay_report
builds each block of values once and feeds it to all three.
"""

from __future__ import annotations

import math
import os
import stat
import warnings
from array import array
from dataclasses import dataclass
from itertools import repeat

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
# numpy; below it a numpy call costs more than the scalar steps it saves
# (of 24, 32, 48, 64 and 96, 32 was fastest at r = 0.9, beta = 1.2).
_LONG_RUN = 32
# np.power is within a few ulps of scalar **; scaled by this factor it is
# certainly below it, so the vectorized affordability test never misses a
# power pick.
_GUARD = 1.0 - 2.0**-40
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
# Rows per chunk of every long CSV or JSON list: a chunk's text and its
# character arrays take about 0.5 MB, where one block's would take 6 MB.
_CSV_ROWS = 2**12
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
        self.flags = np.asarray(self.flags, dtype=np.uint8)
        s = self.starts
        if not (self.N >= 1 and s.ndim == 1 and s.size == self.flags.size and s.size
                and s[0] == 1 and s[-1] <= self.N and np.all(s[1:] > s[:-1])):
            raise ValueError("a trace needs one flag per run and run starts that increase "
                             "from step 1 and stay within 1..N")

    def _flag_blocks(self):
        """(start, flags) for steps start+1..start+flags.size, block by block."""
        for start, stop in _blocks(self.N):
            lo = int(np.searchsorted(self.starts, start + 1, side="right")) - 1
            hi = int(np.searchsorted(self.starts, stop, side="right"))
            edges = np.concatenate(([start + 1], self.starts[lo + 1 : hi], [stop + 1]))
            yield start, np.repeat(self.flags[lo:hi], np.diff(edges))

    def choice(self):
        """The choice flags, block by block."""
        for _, flags in self._flag_blocks():
            yield flags

    def values(self):
        """c_1..c_N, block by block, with the bits of replay_values."""
        for start, flags in self._flag_blocks():
            yield _values_block(self.r, start, flags)

    def margins(self):
        """beta*n - sum_{k<=n} k^2 c_k^2 for n = 1..N, block by block.

        The increments are those the generator adds, summed by one
        np.add.accumulate per block from the float64 sum carried over.
        """
        expo = 2.0 - 2.0 * self.r
        carry = 0.0
        for start, flags in self._flag_blocks():
            n = np.arange(start + 1.0, start + flags.size + 1.0)
            sums = _harmonic_increments(n)
            picks, powers = _scalar_powers(start, flags, expo)
            sums[picks] = powers
            sums[0] += carry
            np.add.accumulate(sums, out=sums)
            carry = float(sums[-1])
            n *= self.beta
            yield np.subtract(n, sums, out=n)


def _scalar_powers(start: int, flags: np.ndarray, expo: float):
    """Positions of the power picks in a block of steps start+1.., and n ** expo
    at each, computed with scalar ** (np.power can differ in the last ulp).

    math.pow is the C pow that a float's ** calls for a positive finite
    base, with less call overhead.
    """
    picks = np.flatnonzero(flags)
    steps = (picks + (start + 1.0)).tolist()
    return picks, np.fromiter(map(math.pow, steps, repeat(expo)), float, picks.size)


def _values_block(r: float, start: int, flags: np.ndarray) -> np.ndarray:
    """c_n for steps n = start+1..start+flags.size: 1/n, or n ** -r at power picks."""
    out = np.arange(start + 1.0, start + flags.size + 1.0)
    np.divide(1.0, out, out=out)
    picks, powers = _scalar_powers(start, flags, -r)
    out[picks] = powers
    return out


def _harmonic_increments(n: np.ndarray) -> np.ndarray:
    """The harmonic steps' increments (n*(1/n))**2, as the scalar rule computes them.

    n*(1/n) is 1 or 1 - 2**-53, and numpy squares both as scalar ** does.
    """
    out = np.divide(1.0, n)
    out *= n
    return np.square(out, out=out)


class _StepBlock:
    """The budget beta*n, the harmonic increments and the guard-banded powers
    n**expo of the steps in one block of _BLOCK steps: the block of the step
    asked for last.  A block is built once, however many skips look into it.
    """

    def __init__(self, N: int, expo: float, beta: float):
        self.N, self.expo, self.beta = N, expo, beta
        self.start = -1

    def at(self, i: int):
        """(start, budget, increments, guarded powers) of the block holding step i (0-based)."""
        start = i - i % _BLOCK
        if start != self.start:
            n = np.arange(start + 1.0, min(start + _BLOCK, self.N) + 1.0)
            self.start = start
            self.budget = n * self.beta
            self.inc = _harmonic_increments(n)
            self.low = np.power(n, self.expo, out=n)   # reuses n's buffer
            self.low *= _GUARD
        return self.start, self.budget, self.inc, self.low


def _harmonic_run(i, s, steps):
    """The closed form of a harmonic run from step i (0-based), the sum before it s.

    From s >= _EXACT_FROM each harmonic step adds exactly 1 until the sum
    reaches the next power of two, so the sum before step i+1+m is s+m.
    The first step n = i+1+m where s+m+n**expo <= beta*n is the root of
    g(m) = beta*n - s - m - n**expo, found by Newton's method; g is convex,
    and increasing where beta-1 exceeds the slope of n**expo, which is
    checked at n = i+1 (the slope only falls after it).  No earlier step
    can pass the scalar rule: g one step before the root is below
    -_SLACK*beta*n.  Returns (the step found, the sum before it, True),
    (the step after this power of two, the sum before it, False) when the
    run goes on past it, or None where the closed form does not apply.
    """
    beta, expo = steps.beta, steps.expo
    n0 = i + 1.0
    if not (_EXACT_FROM <= s < 2.0**52
            and expo * n0 ** (expo - 1.0) < (beta - 1.0) * (1.0 - 2.0**-40)):
        return None
    gap = beta * n0 - s - n0**expo
    if gap >= 0.0:   # step i itself may qualify
        return i, s, True
    m = 0.0
    for _ in range(_NEWTON_STEPS):   # from the right of the root after the first step
        step = gap / (beta - 1.0 - expo * (n0 + m) ** (expo - 1.0))
        m -= step
        if abs(step) < 2.0**-10:
            break
        n = n0 + m
        gap = beta * n - (s + m) - n**expo
    last = min(int(2.0 ** math.frexp(s)[1] - s), steps.N - 1 - i)   # in the binade and N
    end = min(math.ceil(m), last + 1)
    n = n0 + end - 1   # the step before: its slack must be certainly negative
    b = beta * n
    if not b - (s + end - 1) - n**expo < -_SLACK * b:
        return None
    if end <= last:
        return i + end, s + end, True
    return i + end, s + last + (n * (1.0 / n)) ** 2, False


def _skip_harmonic(i, s, L, steps):
    """Take harmonic steps from step i up to the first one that may afford a power pick.

    The closed form (_harmonic_run) where it applies; elsewhere, looks
    ``L`` steps ahead, within the block of step i, doubling while no step
    qualifies.  The powers are guard-banded, so a step passed over cannot
    be a power pick.  Returns that step and the exact running sum before it.
    """
    while i < steps.N:
        run = _harmonic_run(i, s, steps)
        if run is not None:
            i, s, found = run
            if found:
                return i, s
            continue
        start, budget, inc, low = steps.at(i)
        j = i - start
        L = min(L, inc.size - j)
        sums = np.empty(L + 1)
        sums[0] = s
        sums[1:] = inc[j : j + L]
        np.add.accumulate(sums, out=sums)
        maybe = np.add(sums[:-1], low[j : j + L]) <= budget[j : j + L]
        k = int(maybe.argmax())
        if maybe[k]:
            return i + k, float(sums[k])
        i, s, L = i + L, float(sums[L]), 2 * L
    return steps.N, s


def _skip_power(i, s, L, steps):
    """Take power steps from step i up to the first one the budget refuses.

    Looks ``L`` steps ahead, within the block of step i, doubling while
    every step is affordable.  The terms are scalar ** and their running
    sums exact, so the rule s + t <= beta*n is evaluated as the scalar loop
    does; at r = 1 every term is n ** 0.0, which is exactly 1.0 for any n.
    Returns the refused step and the running sum before it.
    """
    while i < steps.N:
        start, budget, _, _ = steps.at(i)
        j = i - start
        L = min(L, budget.size - j)
        sums = np.ones(L + 1)
        sums[0] = s
        if steps.expo:
            sums[1:] = np.fromiter(map(math.pow, np.arange(i + 1.0, i + L + 1.0).tolist(),
                                       repeat(steps.expo)), float, L)
        np.add.accumulate(sums, out=sums)
        over = sums[1:] > budget[j : j + L]
        k = int(over.argmax())
        if over[k]:
            return i + k, float(sums[k])
        i, s, L = i + L, float(sums[L]), 2 * L
    return steps.N, s


def slow_decay_sequence(r: float, beta: float, N: int) -> SlowDecayTrace:
    """Generate the slow-decay sequence c_1..c_N for parameters (r, beta).

    c_1 = 1.  Given c_1..c_n with running sum S = sum k^2 c_k^2, the next
    term is (n+1)^{-r} if S + (n+1)^{2-2r} <= beta*(n+1), else 1/(n+1).
    Pure function of (r, beta, N); the same inputs reproduce the same bits.
    Short runs of one choice are taken step by step, long ones skipped with
    numpy (see the module docstring); both give the bits of a plain loop.
    The parameters are checked before any per-term work: the budget beta*N
    must be a finite float.
    """
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
    expo = 2.0 - 2.0 * r
    steps = _StepBlock(N, expo, beta)
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
                i, s = _skip_power(i, s, int(min(k, i // 2)) + _LONG_RUN, steps)
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
            k = max(t - b + s - beta, 0.0) / (beta - 1.0)   # forecast of the run's length
            i, s = _skip_harmonic(int(n1), s, int(k + k / 8) + _LONG_RUN, steps)
            break
        else:
            break
    flags = np.zeros(len(starts), dtype=np.uint8)
    flags[::2] = _POWER_FLAG   # c_1 = 1 is a power pick
    return SlowDecayTrace(r=r, beta=beta, N=N, starts=np.frombuffer(starts).astype(np.int64),
                          flags=flags)


def replay_values(r: float, choice) -> np.ndarray:
    """Rebuild trace values from the choice flags alone, bit for bit.

    1/n everywhere, then scalar n ** -r at the power picks: vectorized
    powers can differ from scalar ** in the last ulp.  A trace's values()
    are this, block by block.
    """
    return _values_block(r, 0, np.asarray(choice))


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
# The reports on a trace.  Each is a block pass: add(n, values) takes the
# steps n = start+1..stop (floats) and c_n of one block, in order, and
# result() gives the report.  _report_pass builds each block of values once
# and feeds it to every pass it is given, so one walk over the trace serves
# any subset of the reports.

def _report_pass(t, *passes):
    """Feed each block of ``t.values()``, with its steps, to every pass; their results."""
    start = 0
    for values in t.values():
        n = np.arange(start + 1.0, start + values.size + 1.0)
        for p in passes:
            p.add(n, values)
        start += values.size
    return [p.result() for p in passes]


@dataclass
class MarginCertificate:
    ok: bool
    min_margin: float
    argmin_index: int  # 1-based position of the worst margin


class _Certificate:
    """verify_margins as a block pass: the margins from the prefix sums
    XSequence uses, the worst one per block, the first worst overall."""

    def __init__(self, beta: float, rel_tol: float):
        self.beta, self.rel_tol = beta, rel_tol
        self.carry = np.longdouble(0.0)
        self.ok, self.worst, self.lows = True, [], []

    def add(self, n, values):
        sums = _prefix_block(n, values, self.carry)
        self.carry = sums[-1]
        budget = self.beta * n
        margins = (budget - sums).astype(float)
        self.ok &= bool(np.all(margins >= -self.rel_tol * np.maximum(1.0, budget)))
        j = int(margins.argmin())
        self.worst.append(int(n[j]))
        self.lows.append(margins[j])

    def result(self) -> MarginCertificate:
        b = int(np.argmin(self.lows))   # ties and NaN resolve to the earliest block
        return MarginCertificate(ok=self.ok, min_margin=float(self.lows[b]),
                                 argmin_index=self.worst[b])


def verify_margins(t: SlowDecayTrace, rel_tol: float = 1e-13) -> MarginCertificate:
    """Recompute the budget slack beta*m - sum_{k<=m} k^2 c_k^2 for every m.

    Independent of the generator's running sum: reads ``t.beta`` and the
    blocks of ``t.values()`` only.  ``ok`` allows a relative slop of
    ``rel_tol`` so that exact-equality cases (e.g. the all-harmonic
    sequence at budget slope 1) are not rejected on roundoff.  The margins
    are taken block by block from the prefix sums XSequence uses; the worst
    is the first smallest (or first NaN) margin, as np.argmin picks it.
    """
    return _report_pass(t, _Certificate(t.beta, rel_tol))[0]


class _ExportNorm:
    """exported_xnorm as a block pass.

    The exported sequence is c_0 := c_1, c_1, ..., c_N: c_n has weight n+1,
    and the head, weight 1, comes before the first block.  The prefix
    ratios are those XSequence computes; only their running maximum is
    kept, each block's taken after the cast to float.  Rounding to float is
    monotone, so that is the float of the extended-precision maximum; the
    cast and a float64 max are still about three times faster than a
    long double max, which numpy does not vectorize.
    """

    def __init__(self):
        self.carry = self.best = None

    def add(self, n, values):
        if self.carry is None:
            head = np.square(values[0])
            self.carry, self.best = np.longdouble(head), float(head)
        k = n + 1.0
        sums = _prefix_block(k, values, self.carry)
        self.carry = sums[-1]
        self.best = max(self.best, float(np.divide(sums, k, out=sums).astype(float).max()))

    def result(self) -> float:
        return float(np.sqrt(self.best))


def exported_xnorm(t: SlowDecayTrace) -> float:
    """xnorm(trace_to_xsequence(t)), bit for bit, in one streamed pass."""
    return _report_pass(t, _ExportNorm())[0]


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
    largest_power_index: int   # 1-based; 0 without a power pick
    decades: list[DecadeStat]
    increasing_over_power_decades: bool
    strictly_growing: bool


def check_growth_exponent(r: float, s: float, N: int) -> None:
    """Reject an exponent s for infinitude_report before any per-term work.

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
    """infinitude_report as a block pass: the running maximum of n^s c_n,
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

    def add(self, n, values):
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


def infinitude_report(t: SlowDecayTrace, s: float) -> InfinitudeReport:
    """Tabulate power picks and running maxima of n^s c_n across decades.

    Requires s > r: only there does a power pick at n contribute the
    unbounded value n^{s-r}.  ``increasing_over_power_decades`` records
    whether the running maximum strictly grew across every decade that
    contains a power pick (the first decade has no predecessor and is
    skipped); ``strictly_growing`` requires growth across all decades.
    The power picks are counted from the runs.
    """
    return _report_pass(t, _Growth(t, s))[0]


@dataclass
class SlowDecayReport:
    certificate: MarginCertificate
    infinitude: InfinitudeReport
    export_norm: float


def slow_decay_report(t: SlowDecayTrace, s: float, rel_tol: float = 1e-13) -> SlowDecayReport:
    """verify_margins, infinitude_report and exported_xnorm in one pass.

    Each block of the trace's values is built once and fed to all three;
    every field has the bits of the standalone call.  s is checked before
    any per-term work.
    """
    return SlowDecayReport(*_report_pass(t, _Certificate(t.beta, rel_tol), _Growth(t, s),
                                         _ExportNorm()))


def csv_lines(rows):
    """CSV lines of ``rows``, header included: cells by str(), LF line ends.

    The row writer for the CLI's small tables.  A float cell's str() is its
    repr, so it reads back bit for bit.  Lines are yielded one at a time, so
    a file writer streams.  No cell written here holds a comma, quote or
    line break, so none is quoted.  Long float columns go through
    indexed_csv instead.
    """
    for row in rows:
        yield ",".join(map(str, row)) + "\n"


def indexed_csv(*columns):
    """CSV rows ``i,columns[0][i],columns[1][i],...`` for i = 0..n-1, no header.

    Each cell is the repr of its float, written by _floattext for a whole
    chunk of _CSV_ROWS rows at once; the text is yielded chunk by chunk.
    """
    n = len(columns[0])
    for a in range(0, n, _CSV_ROWS):
        b = min(a + _CSV_ROWS, n)
        fields = [_floattext.int_field(np.arange(a, b))]
        for column in columns:
            fields += [",", _floattext.float_field(column[a:b])]
        yield _floattext.rows(*fields, "\n")


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
    such a file is read line by line as the text it holds.
    """
    columns = ",".join(header)
    dtype = [("index", np.int64)] + [(name, float) for name in header[1:]]
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

    The text is the chunks joined: the header with row 0, then the rows of
    each block of _BLOCK steps in chunks of at most _CSV_ROWS, so a writer
    never holds the whole text, nor one block's rows at once.  Row 0 is the
    exported head c_0 := c_1; row i is c_i with its choice label.  Each
    value is written as its repr, byte for byte, by _floattext, which
    formats a chunk's index, value and choice columns as arrays.
    read_sequence_csv reads the text back as the exported sequence,
    ignoring the choice column.
    """
    for start, flags in t._flag_blocks():
        values = _values_block(t.r, start, flags)
        if not start:
            yield f"index,value,choice\n0,{float(values[0])!r}{_CHOICE_CELLS[flags[0]]}"
        for a in range(0, flags.size, _CSV_ROWS):
            b = min(a + _CSV_ROWS, flags.size)
            yield _floattext.rows(
                _floattext.int_field(np.arange(start + a + 1, start + b + 1)), ",",
                _floattext.float_field(values[a:b]),
                _floattext.label_field(flags[a:b], _CHOICE_CELLS))

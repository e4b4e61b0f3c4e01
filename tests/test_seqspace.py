import warnings
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest

from hardyhilbert import _floattext, seqspace
from hardyhilbert.seqspace import (
    SlowDecayTrace,
    XSequence,
    check_growth_exponent,
    classic_sequence,
    prefix_ratios,
    read_sequence_csv,
    slow_decay_report,
    slow_decay_sequence,
    trace_csv,
    trace_to_xsequence,
    verify_margins,
    write_sequence_csv,
    xnorm,
)


def loop_slow_decay(r, beta, N):
    """Independent oracle: the slow-decay generator as a plain scalar loop.

    One Python iteration per term, the rule applied with scalar floats in
    order.  slow_decay_sequence must reproduce its values, choices and
    margins bit for bit.  Returns them as whole arrays, with the running
    sums (``sums[i]`` after step i+1).
    """
    values = np.empty(N)
    choice = np.empty(N, dtype=np.uint8)
    margins = np.empty(N)
    sums = np.empty(N)
    values[0] = 1.0
    choice[0] = 1
    s = 1.0
    margins[0] = beta - s
    sums[0] = s
    expo = 2.0 - 2.0 * r
    for i in range(1, N):
        n1 = float(i + 1)
        t = n1**expo
        if s + t <= beta * n1:
            values[i] = n1 ** (-r)
            choice[i] = 1
            s += t
        else:
            v = 1.0 / n1
            values[i] = v
            choice[i] = 0
            s += (n1 * v) ** 2
        margins[i] = beta * n1 - s
        sums[i] = s
    return SimpleNamespace(r=r, beta=beta, values=values, choice=choice, margins=margins,
                           sums=sums)


def whole(blocks):
    """One array from a trace's block generator."""
    return np.concatenate(list(blocks))


def assert_same_trace(got, want):
    """The runs-form trace ``got`` against the loop oracle's arrays, bit for bit."""
    assert got.N == want.values.size
    assert np.array_equal(whole(got.values()), want.values)
    choice = whole(got.choice())
    assert np.array_equal(choice, want.choice)
    assert choice.dtype == want.choice.dtype
    assert np.array_equal(whole(got.margins()), want.margins)
    # the runs are maximal: they alternate, starting with the power pick c_1 = 1
    assert got.starts.size == 1 + np.count_nonzero(want.choice[1:] != want.choice[:-1])
    assert np.array_equal(got.flags, np.arange(got.starts.size) % 2 == 0)


def exported_values(values):
    """The exported sequence c_0 := c_1, c_1, ..., c_N of whole trace values."""
    return np.concatenate(([values[0]], values))


def exact_margins(values, beta):
    """Oracle: verify_margins in fractions, as (ok, min_margin, argmin_index).

    The margins beta*m - sum_{k<=m} fl((k c_k)^2) of the trace values, each
    float square summed exactly; the first smallest, rounded once.
    """
    k = np.arange(1.0, values.size + 1.0)
    budget = Fraction(beta)
    sums = accumulate(map(Fraction, np.square(k * values).tolist()))
    margins = [budget * m - s for m, s in enumerate(sums, start=1)]
    worst = min(range(len(margins)), key=margins.__getitem__)
    return margins[worst] >= 0, float(margins[worst]), worst + 1


def exact_export_norm(values):
    """Oracle: the export norm of trace values in fractions.

    The largest prefix ratio of the exported sequence, its float squares
    fl(((k+1) c_k)^2) summed exactly, rounded once; then its square root.
    """
    exported = exported_values(values)
    k = np.arange(1.0, exported.size + 1.0)
    sums = accumulate(map(Fraction, np.square(k * exported).tolist()))
    return float(np.sqrt(float(max(s / m for m, s in enumerate(sums, start=1)))))


def brute_xnorm(values):
    """Independent oracle: direct scan of every prefix ratio."""
    best = 0.0
    total = 0.0
    for n, v in enumerate(values):
        total += ((n + 1) * v) ** 2
        best = max(best, total / (n + 1))
    return np.sqrt(best)


class TestXNorm:
    def test_classic_is_unit_norm(self):
        assert xnorm(classic_sequence(10**4)) == pytest.approx(1.0, abs=1e-14)

    def test_zero_sequence(self):
        assert xnorm(XSequence(np.zeros(16))) == 0.0

    def test_unit_impulse_at_three(self):
        c = XSequence([0.0, 0.0, 0.0, 1.0])
        assert xnorm(c) == pytest.approx(2.0, abs=1e-15)
        assert xnorm(c) == pytest.approx(brute_xnorm(c.values), abs=1e-15)

    def test_matches_brute_force_on_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            vals = rng.uniform(0.0, 2.0, int(rng.integers(1, 40)))
            assert xnorm(XSequence(vals)) == pytest.approx(brute_xnorm(vals), rel=1e-13)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            XSequence([])

    def test_non_finite_rejected(self):
        for bad in ([1.0, np.nan], [np.inf], [1.0, -np.inf, 0.5], [1e200, 1e200]):
            with pytest.raises(ValueError, match="finite"):
                XSequence(bad)

    def test_negative_values_stored_as_modulus(self):
        c = XSequence([-1.0, 0.5])
        assert np.all(c.values >= 0)
        assert xnorm(c) == xnorm(XSequence([1.0, 0.5]))

    def test_homogeneity(self):
        rng = np.random.default_rng(11)
        vals = rng.uniform(0.0, 1.0, 30)
        for lam in (0.0, 0.25, 3.5):
            assert xnorm(XSequence(lam * vals)) == pytest.approx(
                lam * xnorm(XSequence(vals)), abs=1e-13)

    def test_extension_never_decreases(self):
        rng = np.random.default_rng(12)
        vals = rng.uniform(0.0, 1.0, 25)
        base = xnorm(XSequence(vals))
        for _ in range(5):
            vals = np.concatenate([vals, rng.uniform(0.0, 1.0, 3)])
            ext = xnorm(XSequence(vals))
            assert ext >= base - 1e-14
            base = ext

    def test_windowed_prefix_bound(self):
        # provable window variant: partial sums stay below ||c||^2 * (end+1)
        rng = np.random.default_rng(13)
        vals = rng.uniform(0.0, 1.0, 60)
        c = XSequence(vals)
        k1 = np.arange(1, 61, dtype=float)
        terms = (k1 * vals) ** 2
        for _ in range(30):
            m = int(rng.integers(0, 50))
            n = int(rng.integers(0, 60 - m))
            window = terms[m : m + n + 1].sum()
            assert window <= c.xnorm_sq * (m + n + 1) * (1 + 1e-12)


class TestPrefixRatios:
    def test_classic_all_ones(self):
        assert np.array_equal(prefix_ratios(classic_sequence(4)), np.ones(4))

    def test_impulse_at_zero(self):
        ratios = prefix_ratios(XSequence([1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(ratios, 1.0 / np.arange(1, 5), rtol=0, atol=1e-16)

    def test_one_half_pair(self):
        # (1 + 4*(1/4)) / 2 = 1 by hand
        assert prefix_ratios(XSequence([1.0, 0.5])).tolist() == [1.0, 1.0]

    def test_max_equals_norm_squared(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            c = XSequence(rng.uniform(0.0, 1.0, 33))
            assert prefix_ratios(c).max() == c.xnorm_sq


class TestClassicSequence:
    def test_first_three_terms(self):
        assert classic_sequence(3).values.tolist() == [1.0, 0.5, 1.0 / 3.0]

    def test_single_term(self):
        assert classic_sequence(1).values.tolist() == [1.0]

    def test_unit_norm_at_every_length(self):
        for N in (1, 2, 7, 100, 5000):
            assert xnorm(classic_sequence(N)) == pytest.approx(1.0, abs=1e-14)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            classic_sequence(0)


class TestSlowDecay:
    def test_power_step_when_budget_allows(self):
        # budget at n=1: 1 + 2^(2-2r) = 3 <= beta*2 = 4
        t = slow_decay_sequence(0.5, 2.0, 2)
        assert whole(t.values())[1] == pytest.approx(2.0 ** -0.5, abs=1e-16)
        assert whole(t.choice())[1] == 1

    def test_harmonic_step_when_budget_tight(self):
        # 3 > 1.1 * 2 = 2.2 forces the fallback
        t = slow_decay_sequence(0.5, 1.1, 2)
        assert whole(t.values())[1] == 0.5
        assert whole(t.choice())[1] == 0

    def test_head_is_one_and_power(self):
        for r, beta in ((0.5, 1.2), (0.75, 2.0), (1.0, 1.01)):
            t = slow_decay_sequence(r, beta, 4)
            assert whole(t.values())[0] == 1.0
            assert whole(t.choice())[0] == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            slow_decay_sequence(0.4, 2.0, 10)
        with pytest.raises(ValueError):
            slow_decay_sequence(1.1, 2.0, 10)
        with pytest.raises(ValueError):
            slow_decay_sequence(0.6, 1.0, 10)
        with pytest.raises(ValueError):
            slow_decay_sequence(0.6, 2.0, 0)

    @pytest.mark.parametrize("beta, N, match", [
        (np.inf, 10, "beta must be finite"),
        (np.nan, 10, "beta must be finite"),
        (-np.inf, 10, "beta must be finite"),
        (1e308, 2, "beta\\*N overflows"),
        (1e301, 10**8, "beta\\*N overflows"),
    ])
    def test_non_finite_budget_rejected_before_any_work(self, monkeypatch, beta, N, match):
        def no_work(*args):
            raise AssertionError("per-term work started")
        monkeypatch.setattr(seqspace, "_skip_harmonic", no_work)
        monkeypatch.setattr(seqspace, "_skip_power", no_work)
        with pytest.raises(ValueError, match=match):
            slow_decay_sequence(0.6, beta, N)

    def test_largest_finite_budget_accepted(self):
        t = slow_decay_sequence(0.6, 1e308, 1)
        cert = verify_margins(t)
        assert cert.ok and cert.min_margin == 1e308 - 1.0

    def test_generated_margins_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            t = slow_decay_sequence(float(rng.uniform(0.5, 1.0)),
                                    float(rng.uniform(1.05, 3.0)),
                                    int(rng.integers(10, 2000)))
            assert all(np.all(m >= 0.0) for m in t.margins())

    def test_deterministic(self):
        a = slow_decay_sequence(0.7, 1.5, 500)
        b = slow_decay_sequence(0.7, 1.5, 500)
        assert np.array_equal(a.starts, b.starts) and np.array_equal(a.flags, b.flags)
        assert np.array_equal(whole(a.values()), whole(b.values()))
        assert np.array_equal(whole(a.choice()), whole(b.choice()))
        assert np.array_equal(whole(a.margins()), whole(b.margins()))

    def test_values_bit_replay_from_flags(self):
        # the flags alone fix the values: scalar n ** -r at power picks, else 1/n
        t = slow_decay_sequence(0.63, 1.7, 1500)
        replay = [n ** -0.63 if f else 1.0 / n
                  for n, f in enumerate(whole(t.choice()).tolist(), start=1)]
        assert np.array_equal(np.array(replay), whole(t.values()))

    def test_prefix_consistency(self):
        long = slow_decay_sequence(0.8, 1.4, 800)
        short = slow_decay_sequence(0.8, 1.4, 300)
        assert np.array_equal(whole(long.values())[:300], whole(short.values()))

    def test_export_head_convention(self):
        t = slow_decay_sequence(0.6, 1.5, 50)
        c = trace_to_xsequence(t)
        assert len(c) == 51
        assert c.values[0] == 1.0
        assert np.array_equal(c.values[1:], whole(t.values()))

    def test_export_norm_bound(self):
        for r, beta in ((0.55, 1.2), (0.75, 2.0), (0.95, 1.5)):
            t = slow_decay_sequence(r, beta, 3000)
            assert xnorm(trace_to_xsequence(t)) <= 2.0 * np.sqrt(beta)

    @pytest.mark.parametrize("r, beta, N", [
        (0.6, 1.5, 1), (0.6, 1.5, 2), (0.6, 1.5, 10**5), (0.75, 2.0, 10**5),
        (0.9, 1.2, 10**5), (1.0, 1.01, 10**5)])
    def test_streamed_export_norm_is_bit_identical(self, r, beta, N):
        # bit for bit the exact norm; XSequence's long-double sums within 2 ulp
        want = loop_slow_decay(r, beta, N)
        norm = slow_decay_report(slow_decay_sequence(r, beta, N), r + 0.1).export_norm
        assert norm == exact_export_norm(want.values)
        long_double = xnorm(trace_to_xsequence(slow_decay_sequence(r, beta, N)))
        assert abs(norm - long_double) <= 2 * np.spacing(norm)


class TestGeneratorMatchesLoop:
    """slow_decay_sequence skips runs with numpy; the loop oracle fixes its bits."""

    @pytest.mark.parametrize("r, beta", [(0.6, 1.5), (0.75, 2.0), (0.9, 1.2)])
    def test_c10_pairs(self, r, beta):
        assert_same_trace(slow_decay_sequence(r, beta, 10**5), loop_slow_decay(r, beta, 10**5))

    def test_million_terms(self):
        assert_same_trace(slow_decay_sequence(0.9, 1.2, 10**6), loop_slow_decay(0.9, 1.2, 10**6))

    @pytest.mark.parametrize("r, beta, N", [
        (0.6, 1.5, 1), (0.6, 1.5, 2), (0.5, 2.0, 2), (0.5, 1.1, 2),
        (0.5, 1.05, 20000), (0.5, 3.0, 20000),          # r = 1/2: the power term is n itself
        (1.0, 1.01, 20000), (1.0, 3.0, 20000),          # r = 1: every step is a power pick
        (0.7, 1.0 + 1e-9, 20000), (0.99, 1.0 + 1e-12, 20000),   # beta close to 1
        (0.99, 3.0, 50000),                             # all power, one long run
        (0.95, 1.3, 50000),                             # runs of about ten steps
    ])
    def test_edge_cases(self, r, beta, N):
        assert_same_trace(slow_decay_sequence(r, beta, N), loop_slow_decay(r, beta, N))

    def test_random_sweep(self):
        rng = np.random.default_rng(20240518)
        for _ in range(200):
            r = float(rng.uniform(0.5, 1.0))
            beta = 1.0 + float(10 ** rng.uniform(-6.0, 0.5))
            N = int(rng.integers(1, 20000))
            assert_same_trace(slow_decay_sequence(r, beta, N), loop_slow_decay(r, beta, N))


def run_end(choice, i):
    """The first step from i (0-based) that is not harmonic, or N."""
    power = np.flatnonzero(choice[i:])
    return i + int(power[0]) if power.size else choice.size


class TestHarmonicSkip:
    """_skip_harmonic against the loop oracle, bit for bit.

    Started at steps of every harmonic run, it must return a step no later
    than the run's end with the exact running sum before it: the run's end
    itself from every start with a sum of at least 4 whose slack is
    certainly negative.  The closed form takes each step as +1 within a
    binade of the sum; the pairs below have harmonic steps that are not,
    where a run crosses a power of two.
    """

    @pytest.mark.parametrize("r, beta, inexact", [
        (0.6, 1.5, []), (0.75, 2.0, []), (0.9, 1.2, []),
        (0.5742688160717454, 1.587385943562567, [417]),    # 255 steps into its run
        (0.751205494708468, 1.104742723139308, [237, 7491]),   # 7491: 796 steps in
        (0.8683730053017298, 1.0217755317085064, [64141]),
        (0.95, 1.3, [3152]),      # s = 4095.63 before it
        (0.9, 1.001, []),         # t'(n) > beta - 1 below n ~ 750: the slack falls there
    ])
    def test_run_ends_match_loop(self, r, beta, inexact):
        N = 10**5
        want = loop_slow_decay(r, beta, N)
        before = np.concatenate(([0.0], want.sums))   # before[i]: the sum before step i+1
        harmonic = want.choice == 0
        # harmonic steps from a sum of at least 4 that do not add exactly 1
        off = harmonic & (before[:-1] >= 4.0) & (before[1:] != before[:-1] + 1.0)
        assert (np.flatnonzero(off) + 1).tolist() == inexact
        expo = 2.0 - 2.0 * r
        edges = np.concatenate(([0], np.flatnonzero(np.diff(want.choice)) + 1, [N]))
        for a, b in zip(edges[:-1].tolist(), edges[1:].tolist()):
            if not harmonic[a]:
                continue
            for i in sorted({a, a + 1, (a + b) // 2, b - 1} - {b}):
                s = float(before[i])
                j, got = seqspace._skip_harmonic(i, s, N, beta, expo)
                assert i <= j <= b and got == before[j]
                budget = beta * (i + 1.0)
                if s >= 4.0 and budget - s - (i + 1.0)**expo < -seqspace._SLACK * budget:
                    assert j == b

    def test_falling_slack_gets_the_run_end(self):
        # at r = 0.9, beta = 1.001 the slope 0.2 n^-0.8 of n^0.2 exceeds beta - 1
        # below n ~ 750: the slack falls at step 500, and its run, over four
        # binades of the sum, ends at step 4339
        r, beta, N = 0.9, 1.001, 5000
        want = loop_slow_decay(r, beta, N)
        assert 0.2 * 501.0**-0.8 > beta - 1.0
        b = run_end(want.choice, 500)
        assert b == 4339
        assert seqspace._skip_harmonic(500, float(want.sums[499]), N, beta, 0.2) == \
            (b, want.sums[b - 1])

    def test_back_off_where_the_root_is_not_confirmed(self):
        # beta = 3, expo = 1: the slack from step 1000 (0-based) is
        # m - 10 - 2**-40, so step 1010 is harmonic by less than the certainty
        # margin; the closed form hands it to the scalar rule, with the exact
        # sum before it, and the run ends at step 1011
        i, beta = 1000, 3.0
        s = 2.0 * (i + 1) + 10.0 + 2.0**-40
        assert seqspace._harmonic_run(i, s, 10**6, beta, 1.0) == (1010, s + 10.0, True)
        for n in map(float, range(i + 1, i + 13)):   # the scalar rule at 1-based steps
            assert (s + n <= beta * n) == (n == i + 12)
            s += (n * (1.0 / n)) ** 2

    def test_one_closed_form_per_binade(self, monkeypatch):
        # at r = 1/2, beta = 1.5 the slack falls at every step and one
        # harmonic run lasts to N: one closed form per binade of the sum
        calls = []
        closed_form = seqspace._harmonic_run

        def counted(*args):
            calls.append(args)
            return closed_form(*args)

        monkeypatch.setattr(seqspace, "_harmonic_run", counted)
        t = slow_decay_sequence(0.5, 1.5, 10**7)
        assert len(calls) <= 64
        want = loop_slow_decay(0.5, 1.5, 10**5)
        assert t.starts.tolist() == [1, run_end(1 - want.choice, 0) + 1]
        assert t.flags.tolist() == [1, 0]


class TestSmallWindows:
    """_BLOCK = 64: runs cross the generator's windows and the blocks of every pass."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(seqspace, "_BLOCK", 64)
        monkeypatch.setattr(_floattext, "CHUNK_ROWS", 24)

    @pytest.mark.parametrize("r, beta, N", [
        (0.6, 1.5, 20000),     # long harmonic runs over many blocks
        (0.75, 2.0, 20000),
        (0.9, 1.2, 20000),     # runs of about thirty steps, across block edges
        (0.99, 3.0, 5000),     # one long power run
        (1.0, 1.01, 5000),     # every step a power pick
        (0.5, 1.05, 5000),
        (0.6, 1.5, 64), (0.6, 1.5, 65), (0.6, 1.5, 129),
        # chunk edges of the trace CSV: 24 rows, and a block of 64 is 24+24+16
        (0.6, 1.5, 23), (0.6, 1.5, 24), (0.6, 1.5, 25), (0.6, 1.5, 48), (0.6, 1.5, 88),
    ])
    def test_matches_loop(self, r, beta, N):
        t = slow_decay_sequence(r, beta, N)
        want = loop_slow_decay(r, beta, N)
        assert_same_trace(t, want)
        assert all(len(b) == min(64, N - 64 * j) for j, b in enumerate(t.values()))
        exported = exported_values(want.values)
        full = slow_decay_report(t, r + 0.05)
        assert full.export_norm == exact_export_norm(want.values)
        cert = verify_margins(t)
        assert (cert.ok, cert.min_margin, cert.argmin_index) == exact_margins(want.values, beta)
        rep = full.infinitude
        positions = np.flatnonzero(want.choice) + 1
        assert rep.power_count == positions.size
        assert rep.largest_power_index == positions[-1]
        labels = ["power" if f else "harmonic" for f in want.choice]
        rows = [f"{i},{v!r},{labels[max(i - 1, 0)]}\n" for i, v in enumerate(exported.tolist())]
        chunks = list(trace_csv(t))
        assert len(chunks) == 1 + sum(-(-len(b) // 24) for b in t.choice())
        assert "".join(chunks) == "index,value,choice\n" + "".join(rows)


# Fields of slow_decay_report at N = 10^6, s = r + 0.1:
# (argmin_index, min_margin, export_norm, power_count).  The certificates
# and norms are those of exact_margins and exact_export_norm (about 15 s
# each in fractions, too long for the suite); every ok is True.
MILLION_TERM_REPORTS = {
    (0.6, 1.5): (17189, 0.0016440972549884858, 1.7240917932670676, 33),
    (0.75, 2.0): (517071, 0.0007325349072730969, 1.7462754194954004, 2011),
    (0.9, 1.2): (571664, 7.627172438295915e-06, 1.5900284377690994, 17244),
    (1.0, 1.01): (1, 0.010000000000000009, 1.5811388300841898, 1000000),
}


def assert_report_matches(t, s, want):
    """slow_decay_report against verify_margins, the exact oracles'
    (ok, min_margin, argmin_index, export_norm) ``want`` and the full-array
    growth oracles."""
    full = slow_decay_report(t, s)
    assert full.certificate == verify_margins(t)
    cert = full.certificate
    assert (cert.ok, cert.min_margin, cert.argmin_index, full.export_norm) == want
    long_double = xnorm(trace_to_xsequence(t))
    assert abs(full.export_norm - long_double) <= 2 * np.spacing(long_double)
    values = whole(t.values())
    running = np.maximum.accumulate(np.arange(1.0, t.N + 1.0) ** s * values)
    assert [d.running_max for d in full.infinitude.decades] == \
        [float(running[d.bound - 1]) for d in full.infinitude.decades]
    positions = np.flatnonzero(whole(t.choice())) + 1
    assert full.infinitude.power_count == positions.size
    assert full.infinitude.largest_power_index == (positions[-1] if positions.size else 0)
    return full


class TestSlowDecayReport:
    """One pass over the values feeds the three reports, bit for bit."""

    @pytest.mark.parametrize("r, beta", sorted(MILLION_TERM_REPORTS))
    def test_million_terms(self, r, beta):
        argmin, min_margin, norm, power_count = MILLION_TERM_REPORTS[r, beta]
        full = assert_report_matches(slow_decay_sequence(r, beta, 10**6), r + 0.1,
                                     (True, min_margin, argmin, norm))
        assert full.infinitude.power_count == power_count

    @pytest.mark.parametrize("r, beta", sorted(MILLION_TERM_REPORTS))
    def test_small_blocks(self, monkeypatch, r, beta):
        monkeypatch.setattr(seqspace, "_BLOCK", 64)
        t = slow_decay_sequence(r, beta, 20000)
        assert len(list(t.values())) == 20000 // 64 + 1
        values = whole(t.values())
        assert_report_matches(t, r + 0.05,
                              exact_margins(values, beta) + (exact_export_norm(values),))

    def test_s_checked_before_any_work(self, monkeypatch):
        t = slow_decay_sequence(0.6, 1.5, 100)
        monkeypatch.setattr(seqspace, "_values_block", None)
        with pytest.raises(ValueError, match="exceed"):
            slow_decay_report(t, 0.6)


class TestVerifyMargins:
    def test_generated_traces_certify(self):
        for r, beta in ((0.5, 1.3), (0.9, 2.5)):
            cert = verify_margins(slow_decay_sequence(r, beta, 1000))
            assert cert.ok
            assert cert.min_margin >= 0.0

    def test_gross_violation_detected(self):
        # all power picks at r = 1/2: k^2 c_k^2 = k, so the sum m(m+1)/2
        # passes the budget (1 + 1e-12) m from m = 2 on; worst at m = 4: -6
        t = SlowDecayTrace(r=0.5, beta=1.0 + 1e-12, N=4, starts=[1], flags=[1])
        cert = verify_margins(t)
        assert not cert.ok
        assert cert.min_margin == pytest.approx(-6.0, abs=1e-9)
        assert cert.argmin_index == 4

    def test_equality_case_all_harmonic(self):
        # c_k = 1/k against budget slope 1: margin 0 at every m
        N = 64
        t = SlowDecayTrace(r=0.5, beta=1.0 + 1e-15, N=N, starts=[1], flags=[0])
        assert np.array_equal(whole(t.values()), 1.0 / np.arange(1, N + 1))
        cert = verify_margins(t)
        assert cert.ok
        assert abs(cert.min_margin) < 1e-11

    def test_hand_made_runs(self):
        # power at 1..2, harmonic at 3..6, power at 7..N: c_k = k^-1/2 or 1/k
        N = 40
        t = SlowDecayTrace(r=0.5, beta=1.2, N=N, starts=[1, 3, 7], flags=[1, 0, 1])
        k = np.arange(1.0, N + 1.0)
        power = (k < 3) | (k >= 7)
        values = np.where(power, k ** -0.5, 1.0 / k)
        assert np.array_equal(whole(t.choice()), power)
        assert np.allclose(whole(t.values()), values, rtol=1e-15, atol=0.0)
        sums = np.cumsum(np.where(power, k, 1.0))
        assert np.allclose(whole(t.margins()), 1.2 * k - sums, rtol=1e-15, atol=0.0)
        cert = verify_margins(t)
        assert (cert.ok, cert.min_margin, cert.argmin_index) == \
            exact_margins(whole(t.values()), t.beta)
        assert not cert.ok and cert.argmin_index == N   # the last run outgrows the budget

    @pytest.mark.parametrize("starts, flags, N", [
        ([2], [1], 5),            # the first run must start at step 1
        ([1, 3, 3], [1, 0, 1], 5),  # starts must increase
        ([1, 6], [1, 0], 5),      # and stay within 1..N
        ([1, 3], [1], 5),         # one flag per run
        ([1], [1], 0),
        ([1, 3], [1, 2], 5),      # a flag is 0 or 1
        ([1, 3], [1, 256], 5),
        ([1, 3], [-1, 0], 5),
        ([1, 3], [1, 0.5], 5),
        ([1, 3], [[1, 0]], 5),
    ])
    def test_bad_runs_rejected(self, starts, flags, N):
        with pytest.raises(ValueError, match="run"):
            SlowDecayTrace(r=0.5, beta=1.5, N=N, starts=starts, flags=flags)

    @pytest.mark.parametrize("r, beta, match", [
        (3.0, 1.5, "r must lie in"), (0.4, 1.5, "r must lie in"), (np.nan, 1.5, "r must lie in"),
        (0.6, 0.2, "beta must exceed 1"), (0.6, 1.0, "beta must exceed 1"),
        (0.6, np.inf, "beta must be finite"),
    ])
    def test_bad_parameters_rejected(self, r, beta, match):
        # the exact passes need beta > 1 and squares of at least 1/2 (r in [1/2, 1])
        with pytest.raises(ValueError, match=match):
            SlowDecayTrace(r=r, beta=beta, N=5, starts=[1, 3], flags=[1, 0])


class TestInfinitudeReport:
    def test_requires_s_above_r(self):
        t = slow_decay_sequence(0.6, 1.5, 100)
        with pytest.raises(ValueError):
            slow_decay_report(t, 0.6)
        with pytest.raises(ValueError):
            slow_decay_report(t, 0.5)

    @pytest.mark.parametrize("s, match", [
        (np.nan, "s must be finite"), (np.inf, "s must be finite"),
        (-np.inf, "s must be finite"), (1e6, "overflows"), (154.2, "overflows")])
    def test_bad_s_rejected_before_any_work(self, s, match):
        t = slow_decay_sequence(0.6, 1.5, 100)
        t.values = None   # the check must come before the first block
        with pytest.raises(ValueError, match=match):
            slow_decay_report(t, s)
        with pytest.raises(ValueError, match=match):
            check_growth_exponent(0.6, s, 100)

    def test_largest_s_without_overflow(self):
        # 100.0 ** 154 = 1e308 is still a float
        rep = slow_decay_report(slow_decay_sequence(0.6, 1.5, 100), 154.0).infinitude
        assert np.isfinite(rep.decades[-1].running_max)

    def test_power_recurrence_moderate_size(self):
        t = slow_decay_sequence(0.6, 1.5, 10**4)
        longer = slow_decay_sequence(0.6, 1.5, 10**5)
        rep = slow_decay_report(t, 0.7).infinitude
        rep_longer = slow_decay_report(longer, 0.7).infinitude
        assert rep_longer.power_count > rep.power_count
        positions = np.flatnonzero(whole(t.choice())) + 1
        assert positions.size == rep.power_count
        assert rep.largest_power_index == positions[-1]

    def test_power_count_grows_with_length(self):
        short = slow_decay_report(slow_decay_sequence(0.75, 2.0, 10**3), 0.8).infinitude
        long_ = slow_decay_report(slow_decay_sequence(0.75, 2.0, 10**4), 0.8).infinitude
        assert long_.power_count > short.power_count

    def test_all_harmonic_flagged_non_growing(self):
        N = 10**4
        t = SlowDecayTrace(r=0.5, beta=2.0, N=N, starts=[1], flags=[0])
        rep = slow_decay_report(t, 0.8).infinitude
        assert rep.power_count == 0
        assert rep.largest_power_index == 0
        assert not rep.strictly_growing
        assert rep.increasing_over_power_decades  # vacuous: no power decade

    def test_decade_bounds_cover_length(self):
        t = slow_decay_sequence(0.7, 1.5, 5432)
        rep = slow_decay_report(t, 0.8).infinitude
        assert [d.bound for d in rep.decades] == [10, 100, 1000, 5432]


class TestCsvRoundTrip:
    def test_sequence_round_trip(self, tmp_path):
        c = classic_sequence(17)
        path = tmp_path / "seq.csv"
        write_sequence_csv(path, c)
        back = read_sequence_csv(path)
        assert np.array_equal(back.values, c.values)
        header = path.read_text().splitlines()[0]
        assert header == "index,value"
        assert path.read_bytes().startswith(b"index,value\n0,1.0\n1,0.5\n")

    def test_trace_export_reads_as_exported_sequence(self, tmp_path):
        t = slow_decay_sequence(0.6, 1.5, 30)
        path = tmp_path / "trace.csv"
        path.write_text("".join(trace_csv(t)), newline="")
        lines = path.read_text().splitlines()
        assert lines[0] == "index,value,choice"
        assert lines[1].endswith("power")
        back = read_sequence_csv(path)  # choice column ignored by the reader
        assert np.array_equal(back.values, trace_to_xsequence(t).values)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,v\n0,1.0\n")
        with pytest.raises(ValueError):
            read_sequence_csv(path)

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text("index,value\n2,0.25\n0,1.0\n1,0.5\n")
        assert np.array_equal(read_sequence_csv(path).values, [1.0, 0.5, 0.25])

    @pytest.mark.parametrize("body, match", [
        ("0,1.0\n-1,0.5\n", "index -1 outside 0..1"),
        ("0,1.0\n2,0.5\n", "index 2 outside 0..1"),
        ("0,1.0\n0,0.5\n", "index 0 appears 2 times"),
        ("0,1.0\n99999999999999999999,0.5\n", "int64 range"),
        ("0,1.0\n1\n", "columns index,value"),
        ("0,1.0\n1,nan\n", "finite"),
        ("0,1.0\n# note\n1,0.5\n", "columns index,value"),   # '#' starts no comment
    ])
    def test_bad_rows_rejected(self, tmp_path, body, match):
        path = tmp_path / "bad.csv"
        path.write_text("index,value\n" + body)
        with pytest.raises(ValueError, match=match):
            read_sequence_csv(path)

    def test_header_only_rejected_without_warning(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("index,value\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="nonempty"):
                read_sequence_csv(path)

    @pytest.mark.parametrize("text", [
        b"index,value\r\n1,0.5\r\n0,1.0\r\n",                 # CRLF line ends
        b'index,value\n"1",0.5\n0,"1.0"\n',                   # quoted cells
        b"index,value\n\n1,0.5\n\n0,1.0\n\n",                 # blank lines are skipped
        b"index,value,choice\n0,1.0,power\n1,0.5,harmonic\n",  # extra columns ignored
        b"index,value,note\n0,1.0\n1,0.5,x,y\n",
    ])
    def test_accepted_layouts(self, tmp_path, text):
        path = tmp_path / "seq.csv"
        path.write_bytes(text)
        assert read_sequence_csv(path).values.tolist() == [1.0, 0.5]

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("index,value\n0,0.25\n")
        assert read_sequence_csv(path).values.tolist() == [0.25]

    def test_large_trace_reads_back_bit_identical(self, tmp_path):
        t = slow_decay_sequence(0.8, 1.6, 10**5)
        path = tmp_path / "trace.csv"
        path.write_text("".join(trace_csv(t)), newline="")
        back = read_sequence_csv(path)
        assert back.values.tobytes() == trace_to_xsequence(t).values.tobytes()


def full_prefix_sums(values):
    """Oracle: k = 1..N and one full-array extended-precision cumsum of (k v)^2."""
    k1 = np.arange(1, values.size + 1, dtype=float)
    return k1, np.cumsum(((k1 * values) ** 2).astype(np.longdouble))


SMALL_BLOCK = 5
BLOCK_LENGTHS = [1, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 3 * SMALL_BLOCK + 7]


class TestBlockBoundaries:
    """The blockwise passes against full-array oracles, with blocks of 5 terms."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(seqspace, "_BLOCK", SMALL_BLOCK)

    @pytest.mark.parametrize("N", BLOCK_LENGTHS)
    def test_ratios_bit_identical(self, N):
        rng = np.random.default_rng(N)
        values = rng.uniform(0.0, 1.0, N) * 10.0 ** rng.integers(-30, 4, N)
        k1, sums = full_prefix_sums(values)
        want = (sums / k1).astype(float)
        c = XSequence(values)
        assert c.ratios.tobytes() == want.tobytes()
        assert c.xnorm_sq == float(want.max())

    @pytest.mark.parametrize("N", BLOCK_LENGTHS)
    def test_margins_match(self, N):
        # a generated trace and hand-made runs; at r = 1/2 a power pick adds
        # about k to the sum, so every step a power pick overruns the budget
        # from step 2 on, and the worst margin is in the last block
        rng = np.random.default_rng(N)
        starts = np.unique(np.concatenate(([1], rng.integers(2, N + 2, 4))))
        starts = starts[starts <= N]
        traces = [slow_decay_sequence(0.6, 1.5, N),
                  SlowDecayTrace(r=0.5, beta=1.05, N=N, starts=starts,
                                 flags=rng.integers(0, 2, starts.size)),
                  SlowDecayTrace(r=0.97, beta=1.3, N=N, starts=starts,
                                 flags=np.arange(starts.size) % 2),
                  SlowDecayTrace(r=0.5, beta=1.5, N=N, starts=[1], flags=[1])]
        for t in traces:
            values = whole(t.values())
            cert = verify_margins(t)
            assert (cert.ok, cert.min_margin, cert.argmin_index) == exact_margins(values, t.beta)
            assert slow_decay_report(t, t.r + 0.1).export_norm == exact_export_norm(values)
        assert verify_margins(traces[-1]).argmin_index == N

    def test_tie_across_blocks_resolves_to_first(self):
        # beta = 2, r = 1/2: the power picks at k = 1 and k = 16 add 1 and
        # (16 * 16**-0.5)**2 = 16 exactly, and k*fl(1/k) = 1 for k = 2..15,
        # so the margin is 1 at both, exactly, and above 1 everywhere else;
        # k = 1 is in the first block of 5, k = 16 in the fourth
        t = SlowDecayTrace(r=0.5, beta=2.0, N=3 * SMALL_BLOCK + 7, starts=[1, 2, 16, 17],
                           flags=[1, 0, 1, 0])
        cert = verify_margins(t)
        assert (cert.ok, cert.min_margin, cert.argmin_index) == (True, 1.0, 1)
        assert exact_margins(whole(t.values()), 2.0) == (True, 1.0, 1)

    @pytest.mark.parametrize("N", BLOCK_LENGTHS + [123, 12345])
    def test_infinitude_decades_match(self, N):
        t = slow_decay_sequence(0.6, 1.5, N)
        s = 0.7
        running = np.maximum.accumulate(np.arange(1, N + 1, dtype=float) ** s * whole(t.values()))
        positions = np.nonzero(whole(t.choice()))[0] + 1
        rep = slow_decay_report(t, s).infinitude
        prev = 0
        for d in rep.decades:
            assert d.running_max == float(running[d.bound - 1])
            assert d.contains_power == bool(np.any((positions > prev) & (positions <= d.bound)))
            prev = d.bound
        assert rep.decades[-1].bound == N

    @pytest.mark.parametrize("bad", [np.nan, 1e200])
    def test_bad_last_term_rejected(self, bad):
        N = 3 * SMALL_BLOCK + 7
        values = 1.0 / np.arange(1.0, N + 1.0)
        values[-1] = bad
        with pytest.raises(ValueError, match="finite"):
            XSequence(values)

    @pytest.mark.parametrize("N", BLOCK_LENGTHS)
    def test_trace_csv_chunks_join_to_the_text(self, N):
        t = slow_decay_sequence(0.6, 1.5, N)
        values = whole(t.values())
        labels = ["power" if f else "harmonic" for f in whole(t.choice())]
        rows = [f"0,{float(values[0])!r},{labels[0]}\n"]
        rows += [f"{i + 1},{float(v)!r},{labels[i]}\n" for i, v in enumerate(values)]
        chunks = list(trace_csv(t))
        assert len(chunks) == 1 + -(-N // SMALL_BLOCK)
        assert "".join(chunks) == "index,value,choice\n" + "".join(rows)


def _oracle_cases():
    """48 seeded (r, beta, N) with N <= 3000: every eighth at r = 1 and
    every eighth from r in [0.95, 1), where runs are a few steps long."""
    rng = np.random.default_rng(20261021)
    for i in range(48):
        r = 1.0 if i % 8 == 0 else float(rng.uniform(0.95 if i % 8 == 1 else 0.5, 1.0))
        beta = 1.0 + float(10 ** rng.uniform(-6.0, 0.5))
        yield r, beta, int(rng.integers(1, 3001))


class TestExactOracle:
    """The certificate and the export norm against fractions, bit for bit."""

    @pytest.mark.parametrize("r, beta, N", list(_oracle_cases()))
    def test_matches_fractions(self, monkeypatch, r, beta, N):
        t = slow_decay_sequence(r, beta, N)
        values = whole(t.values())
        want = exact_margins(values, beta) + (exact_export_norm(values),)
        for block in (5, 64, 997, 2**16):
            monkeypatch.setattr(seqspace, "_BLOCK", block)
            full = slow_decay_report(t, r + 0.05)
            cert = full.certificate
            assert (cert.ok, cert.min_margin, cert.argmin_index, full.export_norm) == want
            assert verify_margins(t) == cert

    def test_float64_prefix_sum_is_caught(self, monkeypatch):
        # the pass with the settled sums read from a float64 running sum of
        # its columns, as a plain prefix sum would give them
        class Float64Sums(seqspace._BlockSums):
            def exact(self, anchors):
                h, m, f = self.limbs
                sums = np.cumsum(h + (m + f) * 2.0**-26)
                return [int(sums[j] * 2.0**53) for j in anchors]

        t = slow_decay_sequence(0.9, 1.2, 3000)
        want = exact_margins(whole(t.values()), 1.2)
        cert = verify_margins(t)
        assert (cert.ok, cert.min_margin, cert.argmin_index) == want
        monkeypatch.setattr(seqspace, "_BlockSums", Float64Sums)
        cert = verify_margins(t)
        assert (cert.ok, cert.min_margin, cert.argmin_index) != want

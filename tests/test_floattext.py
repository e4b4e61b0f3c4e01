"""The array float writer against its oracle, float.__repr__, byte for byte."""

import sys

import numpy as np
import pytest

from hardyhilbert import _floattext, seqspace
from hardyhilbert.seqspace import XSequence, slow_decay_sequence


def text(values):
    """The writer's text of the values, each on its own line."""
    values = np.asarray(values, dtype=float)
    return "".join(_floattext.rows(_floattext.float_field(values[a : a + 4096]), "\n")
                   for a in range(0, values.size, 4096))


def texts(values):
    return text(values).split("\n")[:-1]


def assert_repr(values):
    values = np.asarray(values, dtype=float)
    want = "".join(line + "\n" for line in map(float.__repr__, values.tolist()))
    got = text(values)
    if got != want:
        bad = [(w, g) for g, w in zip(got.split("\n"), want.split("\n")) if g != w]
        pytest.fail(f"{len(bad)} texts differ from repr, first (repr, writer): {bad[:5]}")


def certified_share(values):
    values = np.asarray(values, dtype=float)
    return np.mean(np.concatenate([_floattext._shortest(values[a : a + 4096])[0]
                                   for a in range(0, values.size, 4096)]))


def both_signs(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def test_random_bit_patterns():
    """Finite doubles of every exponent and both signs, subnormals included."""
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**64, 2**17, dtype=np.uint64, endpoint=False)
    subnormal = rng.integers(1, 2**52, 2**12, dtype=np.uint64) | (
        rng.integers(0, 2, 2**12, dtype=np.uint64) << np.uint64(63))
    values = np.concatenate([bits, subnormal]).view(np.float64)
    assert_repr(values[np.isfinite(values)])


def test_scaled_random_values():
    """Decimals of every length and both layouts, with ties among them."""
    rng = np.random.default_rng(7)
    values = rng.uniform(-1.0, 1.0, 2**16) * 10.0 ** rng.integers(-30, 30, 2**16)
    dyadic = rng.integers(1, 2**20, 2**14) * 2.0 ** rng.integers(-70, 30, 2**14)
    assert_repr(np.concatenate([values, dyadic, np.round(values, 3)]))


def test_extremes():
    info = sys.float_info
    values = [0.0, -0.0, 5e-324, -5e-324, info.min, -info.min, info.max, -info.max,
              np.nextafter(info.min, 0.0), np.nextafter(info.max, 0.0), 1e-292, 1e308,
              float("nan"), float("inf"), -float("inf")]
    assert_repr(values)
    assert texts([0.0, -0.0, 5e-324]) == ["0.0", "-0.0", "5e-324"]


def test_repeated_fallbacks():
    """float.__repr__ runs once per distinct bit pattern: -0.0 stays apart from 0.0."""
    values = np.tile([0.0, -0.0, 1.0, 0.5, -2.0, 5e-324, float("nan"), 0.1], 1000)
    assert_repr(values)
    assert texts(values[:3]) == ["0.0", "-0.0", "1.0"]


def test_powers_of_two():
    assert_repr(both_signs([2.0**e for e in range(-1074, 1024)]))


def test_powers_of_ten_and_neighbours():
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    below, above = np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)
    assert_repr(both_signs(np.concatenate([tens, below, above[np.isfinite(above)]])))


@pytest.mark.parametrize("value, want", [
    (9999999999999998.0, "9999999999999998.0"),
    (1e16, "1e+16"),
    (12345678901234568.0, "1.2345678901234568e+16"),
    (0.0001, "0.0001"),
    (0.00012345678901234567, "0.00012345678901234567"),
    (1e-05, "1e-05"),
    (1.5e-05, "1.5e-05"),
    (1e-100, "1e-100"),
    (-2.5e+300, "-2.5e+300"),
    (1.2345e+100, "1.2345e+100"),
    (123456789012345.6, "123456789012345.6"),
    (100.0, "100.0"),
    (1.0, "1.0"),
    (-0.5, "-0.5"),
])
def test_notation_switches(value, want):
    assert texts([value]) == [repr(value)] == [want]


# Exact ties: each value is a decimal with one digit more than repr writes,
# ending in 5, and repr rounds it half to even.
TIES = {
    10697428535983.9375: "10697428535983.938",       # 17 digits
    3 * 2.0**-24: "1.7881393432617188e-07",          # 17 digits, 10**23 not a double
    0.064266204833984375: "0.06426620483398438",     # 16 digits
    92811342101457.375: "92811342101457.38",         # 16 digits
}


def test_ties_pinned():
    assert texts(list(TIES)) == list(TIES.values())


def test_ties_need_the_guard(monkeypatch):
    """Without the margins the nearer-neighbour choice at a 16-digit tie goes
    the wrong way.  (A 17-digit tie needs no margin when 10**q is a double:
    E is exact there, and P and rint(E) are both even, so D is the even
    neighbour; where 10**q is not a double the margin covers the rounding.)"""
    monkeypatch.setattr(_floattext, "_GUARD", 0.0)
    monkeypatch.setattr(_floattext, "_TIE", 1.0)
    got = dict(zip(TIES, texts(list(TIES))))
    assert got[0.064266204833984375] == "0.06426620483398437"
    assert got[92811342101457.375] == "92811342101457.37"


@pytest.fixture(scope="module")
def million_trace():
    t = slow_decay_sequence(0.62, 1.3, 10**6)
    values = np.concatenate(list(t.values()))
    return values, XSequence(np.concatenate([values[:1], values])).ratios


def test_slow_decay_values_and_ratios(million_trace):
    values, ratios = million_trace
    assert_repr(values)
    assert_repr(ratios)


def test_slow_decay_values_certify(million_trace):
    """The margins pass all but a few values: the writer's speed rests on it."""
    values, ratios = million_trace
    assert certified_share(values) > 0.9999
    assert certified_share(ratios) > 0.9999


def test_int_field_widths():
    i = np.array([0, 9, 10, 99, 100, 9999, 10**4, 10**8 - 1, 10**8, 10**11, 10**12 - 1])
    assert _floattext.rows(_floattext.int_field(i), "\n") == "".join(f"{v}\n" for v in i.tolist())


def test_rows_join_fields():
    values = np.array([0.5, -1e-7, 3.0])
    joined = _floattext.rows("<", _floattext.int_field([7, 70, 700]), ",",
                             _floattext.float_field(values),
                             _floattext.label_field([1, 0, 1], ("|a\n", "|bcd\n")))
    assert joined == "<7,0.5|bcd\n<70,-1e-07|a\n<700,3.0|bcd\n"


def test_chunks_of_one_row(monkeypatch):
    """indexed_csv at one row per chunk: the same text as one chunk."""
    values = np.array([1.0, 2.5e-8, -0.0, 1e300])
    whole = "".join(seqspace.indexed_csv(values, values[::-1]))
    assert whole == "".join(f"{i},{a!r},{b!r}\n" for i, (a, b) in
                            enumerate(zip(values.tolist(), values[::-1].tolist())))
    monkeypatch.setattr(_floattext, "CHUNK_ROWS", 1)
    chunks = list(seqspace.indexed_csv(values, values[::-1]))
    assert len(chunks) == 4 and "".join(chunks) == whole


@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 9, 13])
def test_table_mixed_columns_across_chunk_edges(monkeypatch, n):
    """table over int, float and label columns and constants, in chunks of 4
    rows, against f-string repr rows; two float columns share each chunk's
    float_field call."""
    rng = np.random.default_rng(n)
    a = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-30, 30, n)
    b = np.where(rng.random(n) < 0.3, 0.0, 1.0 / rng.uniform(1e-3, 1.0, n))
    idx = rng.integers(0, 10**11, n)
    flags = rng.integers(0, 2, n)
    labels = ("|no\n", "|yes\n")
    want = "".join(f"<{i},{x!r};{y!r}{labels[f]}" for i, x, y, f in
                   zip(idx.tolist(), a.tolist(), b.tolist(), flags.tolist()))
    monkeypatch.setattr(_floattext, "CHUNK_ROWS", 4)
    chunks = list(_floattext.table("<", idx, ",", a, ";", b, _floattext.label_field(flags, labels)))
    assert len(chunks) == -(-n // 4) and "".join(chunks) == want
    ranged = "".join(_floattext.table(range(5, 5 + n), ",", a, "\n"))
    assert ranged == "".join(f"{5 + i},{x!r}\n" for i, x in enumerate(a.tolist()))

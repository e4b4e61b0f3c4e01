"""Text of float64 blocks, byte for byte what ``float.__repr__`` writes.

repr(x) is the shortest decimal that reads back as x and, among those,
the one nearest x (David Gay's dtoa, mode 0); it is laid out fixed for
1e-4 <= |x| < 1e16 and as d.ddde+XX elsewhere.  This module finds the same
digits for a whole block with float64 and int64 numpy arithmetic (the
route of Grisu3: Loitsch, PLDI 2010), certifies each element's digits by
explicit margins, and hands every element it cannot certify to
float.__repr__ itself.  So every element's text is repr's.

Digits.  A finite normal x = m * 2**e (2**52 <= m < 2**53) is scaled to
y = |x| * 10**q in [1e16, 1e17), q = 16 - floor(log10|x|), with 10**q as a
double-double: hi, the double nearest 10**q, and lo, the double nearest
10**q - hi, both from exact integer ratios.  |x| * hi is split exactly
(Dekker's two-product over 26-bit halves), so y = P + E with P = fl(|x|*hi)
an integer and E known to within about 1e-14 (the rounding of |x| * lo
and of one sum).  The 17-digit integer is D = P + rint(E), and
y = D + r with |r| <= 1/2.  A decimal reads back as x exactly when its
distance from y is below the half gap h = y / (2m), the rounding interval
of x scaled by 10**q (x not a power of two, whose lower gap is half its
upper one).  The nearest L-digit decimal to y is D + r rounded at
10**(17-L), and its distance from y does not grow with L, since every
L-digit decimal is an (L+1)-digit one; so the shortest length that reads
back is the first L whose nearest decimal passes, and those are repr's
digits.  The 16- and 15-digit probes run on the whole block (17 digits
always pass: h > 0.55 > |r|).  A 15-digit decimal that reads back lies
within h < 12 of y, and every other multiple of 100 lies 88 or more away,
so it is the only decimal of 15 digits or fewer that can: the shortest is
it without its trailing zeros.

Certify or fall back.  Each decision above compares two quantities known
to within about 1e-14: |r| against 1/2, a distance against h, and at 16
digits (where both neighbours may lie within h) the distances of the two
neighbours.  Each must clear _GUARD, or the element goes to float.__repr__.
That takes the rounding ties (x is a decimal one digit longer than repr
writes, ending in 5, such as 0.064266204833984375, which repr rounds half
to even), the distances within _GUARD of h, and D outside [1e16, 1e17)
(|x| within an ulp or two of a power of ten).  Zero, subnormals,
infinities, NaN, powers of two and |x| outside [1e-292, 1e308), where the
table of 10**q ends, go to float.__repr__ untried.  float.__repr__ runs
once per distinct bit pattern among a block's fallbacks, so a block of
zeros or of ratios all equal to 1.0 (the classic sequence's) costs a few
calls.

Layout.  Each element's digits (17 characters, zero-padded), its
exponent characters and the constant characters of repr's notation form a
source row; a pattern per (sign, notation, length), where the notation is
the decimal exponent in fixed layout or the exponent's width in
scientific, lists which source characters the text takes, then the NUL
column.  One gather builds every text left-aligned and NUL-padded.  A
row writer joins such fields and constant strings into rows, drops the
NULs by one boolean mask compaction per chunk and decodes the bytes as
ASCII.

The tables (10**q, the four-digit groups, the patterns) are built on first
use.  Everything here works on one block at a time; callers pass blocks of
a few thousand values, so the temporaries stay small.
"""

from __future__ import annotations

import functools

import numpy as np

# Columns of a float field: repr of a float64 takes at most 24 characters
# ("-2.2250738585072014e-308").
WIDTH = 24
# The margin every certified decision must clear, in units of the last of
# 17 digits; the quantities compared are known to within about 1e-14.
_GUARD = 2.0**-30
# |r| must be below this, or y lies within _GUARD of a 17-digit tie.
_TIE = 0.5 - _GUARD
# The scale exponents q the table holds: 10**q and its remainder stay
# normal doubles, and |x| * 10**q stays finite.
_QMIN, _QMAX = -291, 308
_MANTISSA = (1 << 52) - 1
_E16, _E17 = 10**16, 10**17
_POW10 = 10 ** np.arange(18, dtype=np.int64)
# A source row holds 28 characters, 7 four-byte words: NUL, the 17 digits
# from column 3, the constants ".0-e", then the exponent's sign and three
# digits.  Words are filled from tables of characters viewed as uint32.
_DIGIT, _POINT, _ZERO, _MINUS, _E, _EXP_SIGN, _EXP, _NUL = 3, 20, 21, 22, 23, 24, 25, 0
_SOURCE_WORDS = 7
_FIXED_LOW, _FIXED_HIGH = -4, 15   # decimal exponents written in fixed layout
_CLASSES = _FIXED_HIGH - _FIXED_LOW + 3   # fixed exponents, then 2- and 3-digit exponents


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v = high + low exactly, each with at most 26 significant bits: the
    high part is v rounded to 26 bits by its bit pattern."""
    high = ((v.view(np.uint64) + np.uint64(2**26)) & np.uint64(2**64 - 2**27)).view(np.float64)
    return high, v - high


@functools.cache
def _powers():
    """(hi, lo, hi's high half, hi's low half) of 10**q for q = _QMIN.._QMAX.

    10**q = num / den in integers; int / int is correctly rounded, so hi is
    the double nearest 10**q and lo the double nearest num/den - hi.
    """
    hi, lo = [], []
    for q in range(_QMIN, _QMAX + 1):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        h = num / den
        m, d2 = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d2 - m * den) / (den * d2))
    hi = np.array(hi)
    return (hi, np.array(lo), *_split(hi))


def _words(text: str) -> np.ndarray:
    """ASCII ``text`` as four-byte words, in the byte order of the machine."""
    return np.frombuffer(text.encode("ascii"), dtype=np.uint32)


@functools.cache
def _tables():
    """Word tables: 0000..9999; the first digit 0..9 after three NULs; the
    exponent's sign and three digits, + for 0..999 then - for 0..999."""
    groups = _words("".join(f"{i:04d}" for i in range(10**4)))
    first = _words("".join(f"\0\0\0{i}" for i in range(10)))
    exponent = _words("".join(f"{s}{i:03d}" for s in "+-" for i in range(10**3)))
    return groups, first, exponent


@functools.cache
def _patterns():
    """The source columns of each layout key's text, then NUL columns.

    The key is (negative * _CLASSES + notation) * 17 + length - 1, where the
    notation is the decimal exponent minus _FIXED_LOW in fixed layout, and
    then the 2- and 3-digit exponents of scientific layout.  Columns past a
    text's length point at the source row's NUL.
    """
    columns = np.full((2 * _CLASSES * 17, WIDTH), _NUL, dtype=np.intp)
    for negative in (0, 1):
        for notation in range(_CLASSES):
            for length in range(1, 18):
                digits = list(range(_DIGIT, _DIGIT + length))
                e10 = notation + _FIXED_LOW
                if notation >= _CLASSES - 2:   # d.ddde+XX or d.ddde+XXX
                    cols = digits[:1] + ([_POINT] + digits[1:] if length > 1 else [])
                    width = 3 if notation == _CLASSES - 1 else 2
                    cols += [_E, _EXP_SIGN] + list(range(_EXP + 3 - width, _EXP + 3))
                elif e10 < 0:                  # 0.000ddd
                    cols = [_ZERO, _POINT] + [_ZERO] * (-e10 - 1) + digits
                else:                          # ddd.ddd, ddd.0 or ddd000.0
                    cols = list(range(_DIGIT, _DIGIT + e10 + 1)) + [_POINT]
                    cols += list(range(_DIGIT + e10 + 1, _DIGIT + max(length, e10 + 2)))
                cols = [_MINUS] * negative + cols
                key = (negative * _CLASSES + notation) * 17 + length - 1
                columns[key, : len(cols)] = cols
    return columns


def _group_words(v: np.ndarray, out: np.ndarray) -> None:
    """The digits of the int64 values ``v``, zero-padded to four per column of
    ``out`` (a uint32 view), as words; v must be below 10**(4*columns)."""
    groups = _tables()[0]
    for j in range(out.shape[1] - 1, 0, -1):
        v, low = np.divmod(v, 10**4)
        out[:, j] = groups.take(low)
    out[:, 0] = groups.take(v)


def _shortest(x: np.ndarray):
    """(ok, D, k, e10): for each element of x that certifies, the 17-digit
    integer of its shortest repr digits (the digits, then zeros), their
    count 17 - k, and the decimal exponent of the first digit."""
    a = np.abs(x)
    mantissa = a.view(np.uint64) & np.uint64(_MANTISSA)
    with np.errstate(divide="ignore", invalid="ignore"):
        e10 = np.floor(np.log10(a))
    q = 16.0 - e10
    # q outside the table also takes zero, subnormals, infinities and NaN
    ok = (mantissa != 0) & (q >= _QMIN) & (q <= _QMAX)
    a = np.where(ok, a, 1.5)   # keep the arithmetic finite where it is not used
    index = np.where(ok, q - _QMIN, -_QMIN).astype(np.intp)
    hi, lo, hi_high, hi_low = (t.take(index) for t in _powers())
    a_high, a_low = _split(a)
    p = a * hi
    err = ((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high) + a_low * hi_low
    err += a * lo
    step = np.rint(err)
    r = err - step
    d = p.astype(np.int64) + step.astype(np.int64)
    half = p / (2.0 * (mantissa | np.uint64(1 << 52)).astype(np.float64))
    ok &= (d >= _E16) & (d < _E17) & (np.abs(r) < _TIE)

    def probe(k):
        """Distances of the nearest 17-k digit decimals below and above."""
        b = d % _POW10[k]
        return np.abs(b + r), (_POW10[k] - b) - r

    below, above = probe(1)
    near = np.minimum(below, above)
    ok &= np.abs(near - half) >= _GUARD
    ok &= ~((near < half + _GUARD) & (np.abs(below - above) < _GUARD))
    k = (near < half).astype(np.intp)
    below, above = probe(2)
    near = np.minimum(below, above)   # at 15 digits and fewer a tie is beyond h
    ok &= np.abs(near - half) >= _GUARD
    k[near < half] = 2
    # the chosen decimal: D rounded at 10**k, to the nearer neighbour
    scale = _POW10.take(k)
    b = d % scale
    d += np.where((scale - b) - r < np.abs(b + r), scale - b, -b)
    carry = d == _E17   # 99..9 rounded up to 10**17: one digit, exponent + 1
    d[carry] = _E16
    e10 = np.where(ok, e10, 0.0).astype(np.intp) + carry
    # a 15-digit pick is the only decimal of 15 digits or fewer within h of y:
    # the shortest is it without its trailing zeros
    short = np.flatnonzero(ok & (k == 2))
    tens = d[short] // 100
    while short.size:
        zero = tens % 10 == 0
        short, tens = short[zero], tens[zero] // 10
        k[short] += 1
    return ok, d, k, e10


def float_field(x) -> np.ndarray:
    """repr(float(x[i])) in row i, left-aligned in WIDTH columns, NUL after.

    x is a 1-d block of float64 values of any kind (NaN, infinities and
    zeros included).
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.size
    ok, d, k, e10 = _shortest(x)
    groups, first, exponent = _tables()
    source = np.empty((n, _SOURCE_WORDS), dtype=np.uint32)
    lead, rest = np.divmod(d, _E16)
    source[:, 0] = first.take(lead % 10)
    _group_words(rest, source[:, 1:5])
    source[:, 5] = _words(".0-e")[0]
    source[:, 6] = exponent.take(np.abs(e10) + 1000 * (e10 < 0))
    fixed = (e10 >= _FIXED_LOW) & (e10 <= _FIXED_HIGH)
    notation = np.where(fixed, e10 - _FIXED_LOW,
                        np.where(np.abs(e10) >= 100, _CLASSES - 1, _CLASSES - 2))
    key = (np.signbit(x) * _CLASSES + notation) * 17 + (16 - k)
    at = _patterns().take(key, axis=0)
    at += np.arange(0, 4 * _SOURCE_WORDS * n, 4 * _SOURCE_WORDS)[:, None]
    chars = source.view(np.uint8).ravel().take(at)
    fallback = np.flatnonzero(~ok)
    if fallback.size:
        bits, which = np.unique(x.view(np.uint64)[fallback], return_inverse=True)
        texts = list(map(float.__repr__, bits.view(np.float64).tolist()))
        texts = np.array(texts, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
        chars[fallback] = texts.take(which, axis=0)
    return chars


def int_field(i) -> np.ndarray:
    """Nonnegative integers below 10**12, right-aligned in 12 columns, NUL before."""
    i = np.asarray(i, dtype=np.int64)
    words = np.empty((i.size, 3), dtype=np.uint32)
    _group_words(i, words)
    chars = words.view(np.uint8)
    width = np.searchsorted(_POW10[1:12], i, side="right")   # digits - 1
    shown = np.arange(11, -1, -1) <= np.arange(12)[:, None]  # the last j + 1 columns
    return np.multiply(chars, shown.take(width, axis=0), out=chars)


def label_field(flags, labels) -> np.ndarray:
    """labels[flags[i]] in row i, left-aligned, NUL after."""
    width = max(map(len, labels))
    table = np.array([s.encode("ascii") for s in labels], dtype=f"S{width}")
    return table.view(np.uint8).reshape(len(labels), width).take(flags, axis=0)


def rows(*fields) -> str:
    """Rows of text, each the concatenation of one entry of every field.

    A field is an array of characters from the functions above, one row
    per entry, whose NUL characters are left out, or a str (without NUL),
    the same in every row.  The rows are joined with nothing between them:
    put separators and line ends in the fields.
    """
    n = next(len(f) for f in fields if not isinstance(f, str))
    chars = np.concatenate([
        np.broadcast_to(np.frombuffer(f.encode("ascii"), dtype=np.uint8), (n, len(f)))
        if isinstance(f, str) else f for f in fields], axis=1)
    return str(chars[chars != 0].data, "ascii")

"""Shortest round-trip decimals of float64 arrays, byte for byte ``repr``.

:func:`float_reprs` writes a whole array of non-negative finite doubles
at once.  The digits come from Schubfach (R. Giulietti, "The Schubfach
way to render doubles", 2020), which finds the shortest decimal in a
double's rounding interval, and the nearest one among equals, with a
fixed number of 64-bit integer operations and no per-digit loop, so it
runs as numpy ufuncs over ``uint64`` arrays.  The 64 x 64 -> 128-bit
products it needs are emulated on 32-bit limbs; ``uint64`` array
products wrap, as the algorithm wants.

Two departures from the Java reference make the digits those of
CPython's ``repr`` rather than of ``Double.toString``: one digit is
allowed (the shorter decimal is tried from ``s >= 10``, not 100) and
subnormals are not rescaled, so the smallest subnormal is ``5e-324``.
The digits are then laid out by CPython's ``'r'`` rule: positional
when the decimal point falls -4 < decpt <= 16 digits in, with ``.0``
after an integer; otherwise ``d.ddde±XX``; ``0.0`` for zero.  The
layout works on the 24 output bytes as three little-endian 64-bit
words per value, so it too is a fixed sequence of array operations.
"""

from __future__ import annotations

import numpy as np

__all__ = ["float_reprs"]

_MASK32 = 0xFFFFFFFF
_MASK63 = 2**63 - 1
_INF_BITS = 0x7FF0000000000000  # bit patterns from here on are inf, nan or negative

# decimal exponents k of 10**-k that the doubles need
_K_MIN = -324
_K_MAX = 292

# byte b of a word is character b of its 8.  _BELOW[i + 16] masks the
# characters before index i of a word, -16 <= i <= 24
_BELOW = np.array([(1 << 8 * min(max(i, 0), 8)) - 1 for i in range(-16, 25)], np.uint64)
_ASCII_ZEROS = int.from_bytes(b"0" * 8, "little")
_DOTS = int.from_bytes(b"." * 8, "little")
# the "0.000" that leads a positional value below 1, by word
_LEADING_ZERO = int.from_bytes(b"0.000000", "little")
_ZERO = (int.from_bytes(b"0.0", "little"), 0, 0)
_POW10 = np.array([10**i for i in range(18)], np.uint64)
# "e-324" .. "e+308", as words, by decimal exponent + 324
_EXPONENTS = np.array(
    [int.from_bytes(b"e%+03d" % e, "little") for e in range(-324, 309)], np.uint64
)


def _flog10pow2(e):
    """floor(e * log10(2)), for |e| up to about 5e6."""
    return (e * 661971961083) >> 41


def _flog10threequarterspow2(e):
    """floor(log10(3/4 * 2**e)), for |e| up to about 5e6."""
    return (e * 661971961083 - 274743187321) >> 41


def _flog2pow10(e):
    """floor(e * log2(10)), for |e| up to about 1e6."""
    return (e * 913124641741) >> 38


def _g_limbs() -> np.ndarray:
    """The 126-bit g(k) = floor(10**-k / 2**r) + 1 of each k, as 32-bit limbs.

    r is the one integer with 2**125 <= 10**-k / 2**r < 2**126.  The four
    rows are the low and high limbs of g0 = g mod 2**63 and of
    g1 = g // 2**63, column k - _K_MIN.  Exact: built from Python ints.
    """
    columns = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        num, den = (num, den << r) if r >= 0 else (num << -r, den)
        g = num // den + 1
        g0, g1 = g & _MASK63, g >> 63
        columns.append((g0 & _MASK32, g0 >> 32, g1 & _MASK32, g1 >> 32))
    return np.array(columns, np.uint64).T.copy()


_G0_LOW, _G0_HIGH, _G1_LOW, _G1_HIGH = _g_limbs()


def _mul(a0, a1, b0, b1):
    """High and low 64 bits of a * b, given the 32-bit limbs of a and of b."""
    low = a0 * b0
    cross1 = a1 * b0
    cross2 = a0 * b1
    mid = (low >> 32) + (cross1 & _MASK32) + (cross2 & _MASK32)
    high = a1 * b1 + (cross1 >> 32) + (cross2 >> 32) + (mid >> 32)
    return high, low + ((cross1 + cross2) << 32)


def _rop(g, cp):
    """floor(g * cp / 2**127), its last bit set when the remainder is not 0."""
    c0, c1 = cp & _MASK32, cp >> 32
    x1, _ = _mul(g[0], g[1], c0, c1)
    y1, y0 = _mul(g[2], g[3], c0, c1)
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _MASK63) + _MASK63) >> 63)


def _shortest(bits):
    """The shortest round-trip decimal f * 10**k of each positive double.

    Of the decimals in the double's rounding interval, f * 10**k has the
    fewest significant digits and, among those, lies nearest the double,
    ties going to even f.  f may end in zeros.
    """
    biased = bits >> 52
    fraction = bits & (2**52 - 1)
    normal = biased > 0
    c = np.where(normal, fraction | 2**52, fraction)
    q = np.where(normal, biased.astype(np.int64) - 1075, -1074)
    # a normal power of two above the least has a closer lower neighbour,
    # so its interval reaches only a quarter ulp below it
    irregular = (fraction == 0) & (biased > 1)
    k = np.where(irregular, _flog10threequarterspow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    row = k - _K_MIN
    g = (_G0_LOW[row], _G0_HIGH[row], _G1_LOW[row], _G1_HIGH[row])
    # the double and its interval's lower and upper ends, times 4 * 10**-k;
    # the interval is closed for even c and open for odd c
    cb = c << 2
    odd = c & 1
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - np.where(irregular, 1, 2).astype(np.uint64)) << h) + odd
    vbr = _rop(g, (cb + 2) << h) - odd
    s = vb >> 2
    # one digit fewer: the multiple of 10 * 10**k in the interval, if just one
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    shorter = (s >= 10) & (upin != ((sp10 + 10) << 2 <= vbr))
    # otherwise s or s + 1: the one in the interval, or the nearer if both
    uin = vbl <= s << 2
    win = (s + 1) << 2 <= vbr
    middle = (s << 2) + 2
    nearer_s = (vb < middle) | ((vb == middle) & ((s & 1) == 0))
    f = np.where(np.where(uin != win, uin, nearer_s), s, s + 1)
    return np.where(shorter, np.where(upin, sp10, sp10 + 10), f), k


def _eight_digits(v):
    """The eight decimal digits of each v < 10**8, one a byte, the first in the low byte."""
    high = v // 10000
    v = high | (v - high * 10000) << 32  # 4 + 4 digits in 32-bit lanes
    q = (v * 10486) >> 20 & 0x0000007F0000007F  # each lane // 100
    v = q | (v - q * 100) << 16  # 2-digit 16-bit lanes
    q = (v * 103) >> 10 & 0x000F000F000F000F  # each lane // 10
    return q | (v - q * 10) << 8


def float_reprs(values) -> np.ndarray:
    """``repr`` of each non-negative finite double, as a NUL-padded ``S24`` array.

    ``float_reprs(x).tolist()`` equals ``[repr(v).encode() for v in
    x.tolist()]`` for a 1-d ``x``.  Raises ValueError when a value is
    negative (-0.0 too), infinite or nan.
    """
    bits = np.ascontiguousarray(values, np.float64).reshape(-1).view(np.uint64)
    if (bits >= _INF_BITS).any():
        raise ValueError("float_reprs formats non-negative finite values only")
    zero = bits == 0
    has_zero = zero.any()
    if has_zero:
        bits = np.where(zero, 1, bits)  # any positive value; its text is replaced
    f, k = _shortest(bits)
    # f's digits left-aligned in 17 places, 8 + 8 + 1 digits to a word
    ndigits = np.searchsorted(_POW10, f, side="right")
    m = f * _POW10[17 - ndigits]
    head = m // 10**9
    rest = m - head * 10**9
    tail = rest // 10
    digits = [_eight_digits(head), _eight_digits(tail), (rest - tail * 10)]
    # significant digits end at the last digit that is not 0; as a double,
    # a word's bits of its nonzero digits has the last one's in its exponent
    significant = np.where(digits[2] > 0, 17, 0)
    for start, word in zip((0, 8), digits):
        nonzero = (word + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080
        last = ((nonzero.astype(np.float64).view(np.int64) >> 52) - 1030) >> 3
        np.maximum(significant, last + start + 1, out=significant)
    decpt = k + ndigits  # the value is 0.ddd * 10**decpt
    sci = (decpt > 16) | (decpt < -3)
    point = np.where(sci, 1, decpt)
    below_one = point <= 0
    # the first `keep` digits stay, `fill` characters follow ("." or
    # "0.000"), and the other digits move `fill` characters right
    keep = np.where(below_one, 0, point)
    fill = np.where(below_one, 2 - point, 1)
    length = np.where(
        below_one, fill + significant, np.maximum(significant, point + 1) + 1
    )
    length[sci & (significant == 1)] = 1
    shift = (8 * fill).astype(np.uint64)
    fill_text = np.where(below_one, _LEADING_ZERO, _DOTS).astype(np.uint64)
    out = np.empty((bits.size, 3), "<u8")
    carried = 0
    for w, word in enumerate(digits):
        # character i of the value is character i - 8 * w of word w
        text = word + _ASCII_ZEROS
        kept = _BELOW[keep + (16 - 8 * w)]
        filled = _BELOW[keep + fill + (16 - 8 * w)]
        moved = text << shift | carried
        carried = text >> (64 - shift)
        word = (text & kept) | (fill_text & filled & ~kept) | (moved & ~filled)
        out[:, w] = word & _BELOW[length + (16 - 8 * w)]
        fill_text = _DOTS
    if sci.any():
        rows = np.flatnonzero(sci)
        suffix = _EXPONENTS[decpt[rows] + (324 - 1)]
        offset = 8 * (length[rows, None] - np.array([0, 8, 16]))
        out[rows] |= np.where(
            offset >= 0,
            suffix[:, None] << np.maximum(offset, 0).astype(np.uint64),
            suffix[:, None] >> np.maximum(-offset, 0).astype(np.uint64),
        )
    if has_zero:
        out[zero] = _ZERO
    return out.view("S24").reshape(-1)

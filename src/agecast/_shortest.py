"""The ledger's CSV text, its floats the shortest round-trip decimals of ``repr``.

This module is the one place that knows the ledger's row format.
:func:`ledger_text` lays out any run of rows as CSV lines, under the
header line ``LEDGER_HEADER``.  :func:`write_reprs` writes the text of a
whole array of non-negative finite doubles at once, each value followed
by a comma.  The digits come from Schubfach (R. Giulietti, "The Schubfach
way to render doubles", 2020), which finds the shortest decimal in a
double's rounding interval, and the nearest one among equals, with a
fixed number of 64-bit integer operations and no per-digit loop, so it
runs as numpy ufuncs over ``uint64`` arrays.  The 64 x 64 -> 128-bit
products it needs are emulated on 32-bit limbs; ``uint64`` array
products wrap, as the algorithm wants.  The rounding interval's two ends
differ from the double by a power of two at the same scale, so their
products with the table entry g are the double's product plus or minus
g shifted left, not two more products.

Two departures from the Java reference make the digits those of
CPython's ``repr`` rather than of ``Double.toString``: one digit is
allowed (the shorter decimal is tried from ``s >= 10``, not 100) and
subnormals are not rescaled, so the smallest subnormal is ``5e-324``.
The digits are then laid out by CPython's ``'r'`` rule: positional
when the decimal point falls -4 < decpt <= 16 digits in, with ``.0``
after an integer; otherwise ``d.ddde±XX``; ``0.0`` for zero.  The
layout works on the 24 output bytes as three little-endian 64-bit
words per value, so it too is a fixed sequence of array operations, and
it writes those words straight into the caller's array, such as three
word columns of a ledger block's row matrix.  :func:`write_counting`
lays out the ledger's row numbers in the same words.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LEDGER_HEADER", "ledger_text", "write_counting", "write_reprs"]

LEDGER_HEADER = b"j,Y_j,X_1j,X_nonp_j,delivered\n"

# rows that ledger_text lays out at a time, which bounds its temporaries
_BLOCK_ROWS = 4096

_MASK32 = 0xFFFFFFFF
_MASK63 = 2**63 - 1
_INF_BITS = 0x7FF0000000000000  # bit patterns from here on are inf, nan or negative
_ONE_BITS = 0x3FF0000000000000

# decimal exponents k of 10**-k that the doubles need
_K_MIN = -324
_K_MAX = 292

# byte b of a word is character b of its 8.  _BELOW[i + 16] masks the
# characters before index i of a word, -16 <= i <= 24
_BELOW = np.array([(1 << 8 * min(max(i, 0), 8)) - 1 for i in range(-16, 25)], np.uint64)
_ASCII_ZEROS = int.from_bytes(b"0" * 8, "little")
_DOTS = int.from_bytes(b"." * 8, "little")
# the characters that follow the kept digits, as words: "." after a
# value's integer digits, or "0.000" before the digits of one below 1
_FILLS = np.array([_DOTS, int.from_bytes(b"0.000000", "little")], np.uint64)
_ZERO_TEXT = int.from_bytes(b"0.0,", "little")
# _COMMA_AT[i + 16] is a comma at character i of a word, 0 off the word
_COMMA_AT = np.array(
    [ord(",") << 8 * i if 0 <= i < 8 else 0 for i in range(-16, 25)], np.uint64
)
_POW10 = np.array([10**i for i in range(18)], np.uint64)
# "e-324," .. "e+308,", as words, by decimal exponent + 324, XOR a comma at
# character 0: XORed onto the comma that ends a value's digits, each puts
# its exponent there and the comma after it
_EXPONENTS = np.array(
    [int.from_bytes(b"e%+03d," % e, "little") ^ ord(",") for e in range(-324, 309)],
    np.uint64,
)
# the delivered column's text and the newline, by flag, as a word
_FLAG_LINES = np.array(
    [int.from_bytes(b"%d\n" % flag, "little") for flag in (0, 1)], np.uint64
)


def _flog10pow2(e, three_quarters=0):
    """floor(log10(2**e)), or floor(log10(3/4 * 2**e)) where ``three_quarters``
    is 1 or True, for |e| up to about 5e6."""
    return (e * 661971961083 - three_quarters * 274743187321) >> 41


def _flog2pow10(e):
    """floor(e * log2(10)), for |e| up to about 1e6."""
    return (e * 913124641741) >> 38


def _g_table() -> np.ndarray:
    """The 126-bit g(k) = floor(10**-k / 2**r) + 1 of each k, column k - _K_MIN.

    r is the one integer with 2**125 <= 10**-k / 2**r < 2**126.  The rows
    are g0 = g mod 2**63 and g1 = g // 2**63, then the low and high 32-bit
    limbs of g0 and of g1.  Exact: built from Python ints.
    """
    columns = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        num, den = (num, den << r) if r >= 0 else (num << -r, den)
        g = num // den + 1
        g0, g1 = g & _MASK63, g >> 63
        columns.append((g0, g1, g0 & _MASK32, g0 >> 32, g1 & _MASK32, g1 >> 32))
    return np.array(columns, np.uint64).T.copy()


_G = _g_table()


def _mul_high(a0, a1, b0, b1):
    """The high 64 bits of a * b, given the 32-bit limbs of a and of b."""
    low = a0 * b0
    cross1 = a1 * b0
    cross2 = a0 * b1
    mid = (low >> 32) + (cross1 & _MASK32) + (cross2 & _MASK32)
    return a1 * b1 + (cross1 >> 32) + (cross2 >> 32) + (mid >> 32)


def _plus(high, low, g, e):
    """The 128-bit high:low + g * 2**e, as its high and low words; 1 <= e < 64."""
    part = g << e
    low = low + part
    return high + (g >> (64 - e)) + (low < part), low


def _minus(high, low, g, e):
    """The 128-bit high:low - g * 2**e, as its high and low words; 1 <= e < 64."""
    part = g << e
    return high - (g >> (64 - e)) - (low < part), low - part


def _rop(x1, y1, y0):
    """floor(g * cp / 2**127), its last bit set when the remainder is not 0.

    x1 is the high word of g0 * cp, and y1:y0 is g1 * cp.
    """
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
    c = fraction | np.minimum(biased, 1) << 52
    q = np.maximum(biased, 1).astype(np.int64) - 1075
    # a normal power of two above the least has a closer lower neighbour,
    # so its interval reaches only a quarter ulp below it
    irregular = (fraction == 0) & (biased > 1)
    k = _flog10pow2(q, irregular)
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g0, g1, *limbs = np.take(_G, k - _K_MIN, axis=1)
    # the double and its interval's lower and upper ends, times 4 * 10**-k,
    # are g * cp / 2**127 for cp = 4 * c * 2**h and cp -+ 2**e, so each end
    # is the double's product plus or minus g shifted left; the interval
    # is closed for even c and open for odd c
    cp = c << h + 2
    c0, c1 = cp & _MASK32, cp >> 32
    x = _mul_high(limbs[0], limbs[1], c0, c1), g0 * cp
    y = _mul_high(limbs[2], limbs[3], c0, c1), g1 * cp
    vb = _rop(x[0], *y)
    e = h + 1
    vbr = _rop(_plus(*x, g0, e)[0], *_plus(*y, g1, e)) - (c & 1)
    e = e - irregular
    vbl = _rop(_minus(*x, g0, e)[0], *_minus(*y, g1, e)) + (c & 1)
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
    f = s + ~np.where(uin != win, uin, nearer_s)
    return np.where(shorter, sp10 + ~upin * np.uint64(10), f), k


def _eight_digits(v):
    """The eight decimal digits of each v < 10**8, one a byte, the first in the low byte."""
    high = v // 10000
    v = high | (v - high * 10000) << 32  # 4 + 4 digits in 32-bit lanes
    q = (v * 10486) >> 20 & 0x0000007F0000007F  # each lane // 100
    v = q | (v - q * 100) << 16  # 2-digit 16-bit lanes
    q = (v * 103) >> 10 & 0x000F000F000F000F  # each lane // 10
    return q | (v - q * 10) << 8


def write_counting(first: int, out: np.ndarray) -> None:
    """Write the decimal text of ``first + i`` and a comma into row i of ``out``.

    ``out`` is an ``(n, width)`` array of ``uint64`` words, possibly a
    strided view, with room for the last number and its comma; each row
    gets its text NUL-padded, 8 characters to a little-endian word.
    """
    count, width = out.shape
    last = first + count - 1
    # each number's digits right-aligned in `groups` words, leading zeros first
    values = np.arange(first, last + 1, dtype=np.uint64)
    groups = []
    for _ in range(-(-len(str(last)) // 8)):
        high = values // 10**8
        groups.insert(0, _eight_digits(values - high * 10**8) + _ASCII_ZEROS)
        values = high
    # rows of one digit count run between powers of ten; in them, output
    # word w is characters lead + 8 * w .. lead + 8 * w + 7 of the groups
    for digits in range(len(str(first)), len(str(last)) + 1):
        rows = slice(
            max(first, 10 ** (digits - 1)) - first, min(last + 1, 10**digits) - first
        )
        lead = 8 * len(groups) - digits
        for w in range(width):
            g, r = divmod(lead + 8 * w, 8)
            word = groups[g][rows] >> 8 * r if g < len(groups) else np.uint64(0)
            if r and g + 1 < len(groups):
                word = word | groups[g + 1][rows] << 64 - 8 * r
            end = digits - 8 * w + 16  # the comma's index into _BELOW and _COMMA_AT
            out[rows, w] = word & _BELOW[end] | _COMMA_AT[end]


def write_reprs(values, out: np.ndarray) -> None:
    """Write ``repr`` of each value, then a comma, as NUL-padded text into ``out``.

    ``out[..., w]`` receives characters ``8 * w`` to ``8 * w + 7`` of the
    text of ``values[...]`` as one little-endian word, so ``out`` has the
    shape of ``values`` plus a last axis of 3 ``uint64`` words, and may be
    a strided view, such as three word columns of a row matrix.  A
    ``repr`` is at most 23 characters, so its comma always fits.
    Raises ValueError when a value is negative (-0.0 too), infinite or
    nan, and then writes nothing.
    """
    bits = np.asarray(values, np.float64).view(np.uint64)
    if (bits >= _INF_BITS).any():
        raise ValueError("only non-negative finite values are formatted")
    zero = bits == 0
    has_zero = zero.any()
    if has_zero:
        bits = np.where(zero, _ONE_BITS, bits)  # any normal value; its text is replaced
    f, k = _shortest(bits)
    # f's digits left-aligned in 17 places, 8 + 8 + 1 digits to a word.  A
    # normal double's f has 16 or 17 digits; only subnormals have fewer
    ndigits = (f >= 10**16) + 16
    if (f < 10**15).any():
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
    # the first `keep` digits stay, `fill` characters follow ("." or
    # "0.000"), and the other digits move `fill` characters right
    keep = np.maximum(point, 0)
    fill = np.maximum(2 - point, 1)
    length = np.maximum(significant, point + 1) + fill
    has_sci = sci.any()
    if has_sci:
        length[sci & (significant == 1)] = 1
    shift = (8 * fill).astype(np.uint64)
    unshift = 64 - shift
    fill_text = _FILLS[(point <= 0).view(np.uint8)]
    # indices into _BELOW and _COMMA_AT, whose entry 16 is a word's character 0
    keep_at = keep + 16
    fill_at = keep_at + fill
    length_at = length + 16
    carried = 0
    for w, word in enumerate(digits):
        # character i of the value is character i - 8 * w of word w
        text = word + _ASCII_ZEROS
        moved = text << shift | carried
        carried = text >> unshift
        # characters before `keep` from text, then the fill, then moved
        word = fill_text ^ ((fill_text ^ text) & _BELOW[keep_at - 8 * w])
        word = moved ^ ((moved ^ word) & _BELOW[fill_at - 8 * w])
        word &= _BELOW[length_at - 8 * w]
        word |= _COMMA_AT[length_at - 8 * w]
        out[..., w] = word
        fill_text = _DOTS
    if has_sci:
        # the exponent goes where the loop put the comma, which moves after it
        rows = np.nonzero(sci)
        suffix = _EXPONENTS[decpt[rows] + (324 - 1)]
        offset = 8 * (length[rows][:, None] - np.array([0, 8, 16]))
        out[rows] ^= np.where(
            offset >= 0,
            suffix[:, None] << np.maximum(offset, 0).astype(np.uint64),
            suffix[:, None] >> np.maximum(-offset, 0).astype(np.uint64),
        )
    if has_zero:
        out[zero] = (_ZERO_TEXT, 0, 0)


def ledger_text(first: int, y, x1, x_nonp, delivered) -> bytes:
    """The CSV lines of the ledger rows numbered ``first``, ``first + 1``, ...

    The columns are those that ``simulator.generate_interval_sweep``
    yields, one entry per row.  The rows are laid out ``_BLOCK_ROWS`` at a
    time, so the temporaries stay a few blocks whatever the row count.
    """
    columns = (y, x1, x_nonp, delivered)
    return b"".join(
        _block_text(first + a, *(c[a : a + _BLOCK_ROWS] for c in columns))
        for a in range(0, y.size, _BLOCK_ROWS)
    )


def _block_text(first: int, y, x1, x_nonp, delivered) -> np.ndarray:
    """The CSV lines of one block whose first row is row ``first``, as ``uint8`` text.

    Each row is laid out in fixed-width ``uint64`` words: j and its comma,
    three 24-character fields that each hold a float's ``repr`` and its
    comma, and a word with the flag and the newline.  Every unused
    character is NUL, and one compaction drops them all.
    """
    size = y.size
    j_words = (len(str(first + size - 1)) + 8) // 8  # the digits and a comma
    rows = np.empty((size, j_words + 10), np.uint64)
    write_counting(first, rows[:, :j_words])
    floats = rows[:, j_words : j_words + 9].reshape(size, 3, 3)
    write_reprs(np.stack((y, x1, x_nonp), axis=1), floats)
    rows[:, -1] = _FLAG_LINES[delivered.view(np.uint8)]
    text = rows.view(np.uint8).reshape(-1)
    return text[text != 0]

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
word columns of a ledger block's row matrix.  No character moves by a
per-value amount: each part of a field has fixed characters, the digits
first, any exponent at characters 18 to 22 and the comma at 23, with
NULs between, which the ledger's compaction drops.  The digits are
those of one 24-digit frame per value, which a table lookup by decpt
turns into the field's text (see :func:`_layout_table`).
:func:`write_counting` lays out the ledger's row numbers in the same
words, each right-aligned before a comma in its field's last character.

Every intermediate of a block goes to a small set of named buffers in a
scratch that the caller owns and passes in, a ``simulator._Workspace``,
and each step writes its result into one of them with ``out=``, so a
warm call allocates no array but the compacted text of one block.  A
ufunc's ``where=`` and ``np.copyto``'s take a branch per element, so a
mask that mixes True and False enters the arithmetic as 0 or 1 instead.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LEDGER_HEADER", "ledger_text", "write_counting", "write_reprs"]

LEDGER_HEADER = b"j,Y_j,X_1j,X_nonp_j,delivered\n"

# rows that ledger_text lays out at a time, which bounds its scratch
_BLOCK_ROWS = 4096

# the uint64 slots and bool flags of scratch that formatting holds at most
_SLOTS = 12
_FLAGS = 7

_MASK32 = 0xFFFFFFFF
_MASK63 = 2**63 - 1
_INF_BITS = 0x7FF0000000000000  # bit patterns from here on are inf, nan or negative
_ONE_BITS = 0x3FF0000000000000

# decimal exponents k of 10**-k that the doubles need
_K_MIN = -324
_K_MAX = 292
# the places decpt of the decimal point, for the value 0.ddd * 10**decpt:
# 5e-324 is 0.5 * 10**-323 and the largest double 0.17976931348623157 * 10**309
_DECPT_MIN = -323
_DECPT_MAX = 309

# byte b of a word is character b of its 8.  _BELOW[i] masks the
# characters before index i of a word; under np.take's clip mode, an i
# below 0 masks none and one above 8 all
_BELOW = np.array([(1 << 8 * i) - 1 for i in range(9)], np.uint64)
_ASCII_ZEROS = int.from_bytes(b"0" * 8, "little")
# the last word of a row number's field: its digits, and the comma that
# takes the place of the 0 digit that ends the number times 10
_ASCII_ZEROS_COMMA = int.from_bytes(b"0000000,", "little")
# the delivered column's text for a False flag, and the newline, as a word
_ZERO_LINE = np.uint64(int.from_bytes(b"0\n", "little"))
_POW10 = np.array([10**i for i in range(18)], np.uint64)


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


def _layout_table() -> np.ndarray:
    """How each decpt's values fill their 24-character fields, column decpt - _DECPT_MIN.

    A field's characters start as the digits of a 24-digit frame.  A
    value below 1 (decpt from -3 to 0) has its 17 digits m, left-aligned
    as in :func:`_format`, after the frame's first 5 digits, 0s.  Any
    other has at its first 18 the number 10 * m - 9 * (m mod 10**(17 - p)),
    which is m with a 0 after digit p, for p = decpt, or 1 in exponent
    form.  The rows are:

    - the modulus 10**(17 - p), or 10**17 below 1, which leaves m as it is;
    - 10**16 / s and s: the frame is that number times the scale s, so
      its first word is the number over 10**16 / s;
    - three words to XOR onto the frame's text, which turn its 0 at
      character p into ``.``, or its first 5 into ``0.`` to ``0.000``
      with NULs before;
    - the least length of the text: p + 2 for a positional value of 1
      or more, so that a digit follows its point, else 0;
    - the last word's exponent at characters 18 to 22 and comma at 23.
    """
    columns = []
    for decpt in range(_DECPT_MIN, _DECPT_MAX + 1):
        positional = -3 <= decpt <= 16
        if positional and decpt <= 0:
            modulus, scale, least = 10**17, 10**2, 0
            text = b"\0" * (decpt + 3) + b"0." + b"0" * -decpt
        else:
            p = decpt if positional else 1
            modulus, scale, least = 10 ** (17 - p), 10**6, p + 2 if positional else 0
            text = b"0" * p + b"."
        point = int.from_bytes(bytes(c ^ ord("0") for c in text), "little")
        exponent = b"" if positional else b"e%+03d" % (decpt - 1)
        suffix = int.from_bytes(b"\0\0" + exponent.ljust(5, b"\0") + b",", "little")
        words = (point >> 64 * w & 2**64 - 1 for w in range(3))
        columns.append((modulus, 10**16 // scale, scale, *words, least, suffix))
    return np.array(columns, np.uint64).T.copy()


_MODULUS, _SPLIT, _SCALE, *_POINT, _LEAST, _SUFFIX = _layout_table()


def _scratch(scratch, n: int) -> tuple[list, list]:
    """The ``_SLOTS`` uint64 slots and ``_FLAGS`` bool flags of ``n`` values in ``scratch``.

    Every function here takes its buffers from this one set, so the set
    is as large as the most that one of them holds at once; no function
    keeps a slot across a call to another that takes the set.
    """
    slots = [scratch(f"slot{i}", np.uint64, n) for i in range(_SLOTS)]
    flags = [scratch(f"flag{i}", bool, n) for i in range(_FLAGS)]
    return slots, flags


def _ones(flag, out):
    """1 where ``flag``, else 0, into ``out``.

    Arithmetic with these words takes the place of a ufunc's ``where=``
    or ``np.copyto``'s, which take one branch per element and run many
    times slower on a mixed mask.
    """
    np.copyto(out, flag)
    return out


def _divmod(v, divisor, quotient, product):
    """``v // divisor`` into ``quotient``, and ``v`` left as ``v % divisor``.

    ``product`` is overwritten.  About five times faster than
    ``np.divmod`` on ``uint64`` arrays.
    """
    np.floor_divide(v, divisor, out=quotient)
    v -= np.multiply(quotient, divisor, out=product)
    return quotient


def _take(row, column, out):
    """Row ``row`` of ``_G`` at each column, into ``out``."""
    return np.take(_G[row], column, out=out, mode="clip")


def _lookup(table, index, out):
    """``table[index]`` into ``out``, an index past either end taking that end's entry."""
    return np.take(table, index, out=out, mode="clip")


def _mul_high(a0, a1, b0, b1, mid, cross, part):
    """The high 64 bits of a * b, given the 32-bit limbs of a and of b, into ``a1``.

    ``a0`` and the last three arguments are overwritten.
    """
    np.multiply(a0, b0, out=mid)
    mid >>= 32
    np.multiply(a1, b0, out=cross)
    np.multiply(a0, b1, out=a0)
    np.multiply(a1, b1, out=a1)
    for c in (cross, a0):
        # the low half of each cross product joins the middle sum, the high half a1
        np.bitwise_and(c, _MASK32, out=part)
        mid += part
        c >>= 32
        a1 += c
    mid >>= 32
    a1 += mid
    return a1


def _shifted(row, column, e, back, g, part):
    """Row ``row`` of ``_G`` at each column, as ``part = g << e`` and ``g >> back`` in ``g``.

    With ``back = 64 - e``, they are the low and high words of g * 2**e.
    """
    np.left_shift(_take(row, column, g), e, out=part)
    g >>= back
    return g, part


def _rop(x1, y1, y0, z, out):
    """floor(g * cp / 2**127) into ``out``, its last bit set when the remainder is not 0.

    x1 is the high word of g0 * cp, and y1:y0 is g1 * cp.  ``z`` is
    overwritten; it may be ``y0``, and ``out`` may be ``x1``.
    """
    np.right_shift(y0, 1, out=z)
    z += x1
    np.right_shift(z, 63, out=out)
    out += y1
    z &= _MASK63
    z += _MASK63
    z >>= 63
    out |= z
    return out


def _shortest(slots, flags):
    """The shortest round-trip decimal f * 10**k of each positive double.

    Of the decimals in the double's rounding interval, f * 10**k has the
    fewest significant digits and, among those, lies nearest the double,
    ties going to even f.  f may end in zeros.  The doubles' bits are
    read from ``slots[0]``; f is left in ``slots[0]`` and k - _K_MIN,
    the column of g(k) in ``_G``, in ``slots[1]`` as int64.  The other
    slots and the flags are overwritten.
    """
    bits, column, cp, e, c0, c1, *t = slots
    odd, irregular, carry, uin, win, nearer = flags
    np.bitwise_and(bits, 1, out=c0)
    np.not_equal(c0, 0, out=odd)
    fraction = np.bitwise_and(bits, 2**52 - 1, out=cp)
    biased = np.right_shift(bits, 52, out=bits)
    # a normal power of two above the least has a closer lower neighbour,
    # so its interval reaches only a quarter ulp below it
    np.equal(fraction, 0, out=irregular)
    irregular &= np.greater(biased, 1, out=carry)
    # c = fraction | min(biased, 1) << 52 and q = max(biased, 1) - 1075
    np.minimum(biased, 1, out=c0)
    c0 <<= 52
    c = np.bitwise_or(fraction, c0, out=cp)
    q = np.maximum(biased, 1, out=biased).view(np.int64)
    q -= 1075
    # k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) for the irregular,
    # and e = h + 1 for h = q + _flog2pow10(-k) + 2
    k = np.multiply(q, 661971961083, out=column.view(np.int64))
    k -= np.multiply(_ones(irregular, c1), 274743187321, out=c1).view(np.int64)
    k >>= 41
    h = np.multiply(k, -913124641741, out=e.view(np.int64))
    h >>= 38
    h += q
    h += 3
    column = np.subtract(k, _K_MIN, out=k)
    # the double and its interval's lower and upper ends, times 4 * 10**-k,
    # are g * cp / 2**127 for cp = 4 * c * 2**h and cp -+ 2**e, so each end
    # is the double's product plus or minus g shifted left; the interval
    # is closed for even c and open for odd c
    c <<= 1
    cp = np.left_shift(c, e, out=c)
    np.bitwise_and(cp, _MASK32, out=c0)
    np.right_shift(cp, 32, out=c1)
    x1 = _mul_high(_take(2, column, bits), _take(3, column, t[0]), c0, c1, *t[1:4])
    x0 = _take(0, column, bits)
    x0 *= cp
    y1 = _mul_high(_take(4, column, t[1]), _take(5, column, t[2]), c0, c1, *t[3:6])
    y0 = _take(1, column, t[1])
    y0 *= cp
    vb = _rop(x1, y1, y0, c0, cp)
    # the upper end: x + g0 * 2**e and y + g1 * 2**e, 128 bits each
    back = np.subtract(64, e, out=c1)
    high, part = _shifted(0, column, e, back, t[3], t[4])
    np.less(np.add(x0, part, out=t[5]), part, out=carry)
    high += x1
    high += _ones(carry, t[5])
    y_high, part = _shifted(1, column, e, back, t[4], t[5])
    y_low = np.add(y0, part, out=c0)
    np.less(y_low, part, out=carry)
    y_high += y1
    y_high += _ones(carry, part)
    vbr = _rop(high, y_high, y_low, y_low, high)
    vbr -= _ones(odd, c0)
    # the lower end, a quarter ulp nearer for the irregular ones: x and y
    # less g * 2**e, in place
    e -= _ones(irregular, c0)
    back += c0
    high, part = _shifted(0, column, e, back, t[4], t[5])
    np.less(x0, part, out=carry)
    x1 -= high
    x1 -= _ones(carry, c0)
    high, part = _shifted(1, column, e, back, t[4], t[5])
    np.less(y0, part, out=carry)
    y0 -= part
    y1 -= high
    y1 -= _ones(carry, c0)
    vbl = _rop(x1, y1, y0, y0, x1)
    vbl += _ones(odd, c0)
    s = np.right_shift(vb, 2, out=bits)
    # one digit fewer: the multiple of 10 * 10**k in the interval, if just one
    sp10 = np.floor_divide(s, 10, out=t[1])
    sp10 *= 10
    end = np.left_shift(sp10, 2, out=t[2])
    upin = np.less_equal(vbl, end, out=odd)
    end += 40
    np.not_equal(upin, np.less_equal(end, vbr, out=carry), out=carry)
    shorter = np.greater_equal(s, 10, out=irregular)
    shorter &= carry
    # otherwise s or s + 1: the one in the interval, or the nearer if both.
    # vb lies in [4s, 4s + 3], and s is the nearer below its middle 4s + 2,
    # and at it when s is even
    np.left_shift(s, 2, out=end)
    np.less_equal(vbl, end, out=uin)
    end += 4
    np.less_equal(end, vbr, out=win)
    np.bitwise_and(vb, 3, out=end)
    end += np.bitwise_and(s, 1, out=e)
    np.less(end, 3, out=nearer)
    # nearer becomes uin where uin != win
    np.not_equal(uin, win, out=win)
    uin ^= nearer
    uin &= win
    nearer ^= uin
    s += _ones(np.logical_not(nearer, out=nearer), e)
    sp10 += np.multiply(_ones(np.logical_not(upin, out=upin), e), 10, out=e)
    # s, or sp10 where shorter
    sp10 -= s
    sp10 *= _ones(shorter, e)
    s += sp10
    return s, column


def _eight_digits(v, q, r):
    """The eight decimal digits of each v < 10**8, one a byte, the first in the low byte.

    In place in ``v``; ``q`` and ``r`` are overwritten.
    """
    _divmod(v, 10000, q, r)
    v <<= 32
    v |= q  # 4 + 4 digits in 32-bit lanes
    for multiplier, bits, mask, base, shift in (
        (10486, 20, 0x0000007F0000007F, 100, 16),  # each lane // 100
        (103, 10, 0x000F000F000F000F, 10, 8),  # each lane // 10
    ):
        np.multiply(v, multiplier, out=q)
        q >>= bits
        q &= mask
        v -= np.multiply(q, base, out=r)
        v <<= shift
        v |= q
    return v


def write_counting(first: int, out: np.ndarray, scratch) -> None:
    """Write the decimal text of ``first + i`` and a comma into row i of ``out``.

    ``out`` is an ``(n, width)`` array of ``uint64`` words, possibly a
    strided view, with room for the last number and its comma, 8
    characters to a little-endian word.  Each row's comma is its last
    character, the number's digits end just before it, and NULs fill the
    characters before them.  ``scratch`` is the caller's
    ``simulator._Workspace``, whose slots hold the intermediates; see
    :func:`write_reprs`.
    """
    count, width = out.shape
    (values, lead, q, r, group, *_), (more, *_) = _scratch(scratch, count)
    values.fill(1)
    values[:1] = first
    np.cumsum(values, out=values)
    # the NULs before a number: its field's 8 * width - 1 digit places less its digits
    lead = lead.view(np.int64)
    lead.fill(8 * width - 2)
    for digits in range(1, len(str(first + count - 1))):
        lead -= np.greater_equal(values, 10**digits, out=more)
    # the digits of 10 times the number, 8 to a word from the last, whose
    # last digit, a 0, gives way to the comma
    for w in reversed(range(width)):
        np.copyto(group, values)
        _divmod(group, 10**7 if w == width - 1 else 10**8, values, q)
        if w == width - 1:
            group *= 10
        _eight_digits(group, q, r)
        group += _ASCII_ZEROS_COMMA if w == width - 1 else _ASCII_ZEROS
        at = np.subtract(lead, 8 * w, out=q.view(np.int64))
        group &= np.invert(_lookup(_BELOW, at, r), out=r)
        np.copyto(out[:, w], group)


def write_reprs(values, out: np.ndarray, scratch) -> None:
    """Write ``repr`` of each value, then a comma, as text in fixed slots into ``out``.

    ``out[..., w]`` receives characters ``8 * w`` to ``8 * w + 7`` of the
    24-character field of ``values[...]`` as one little-endian word, so
    ``out`` has the shape of ``values`` plus a last axis of 3 ``uint64``
    words, and may be a strided view, such as three word columns of a
    row matrix.  A field's comma is its character 23 and an exponent
    (``e-05`` to ``e+308``) starts at its character 18; the ``repr``'s
    other characters come first, and NULs fill the rest, so the field
    less its NULs is the ``repr`` and its comma.  Raises ValueError when
    a value is negative (-0.0 too), infinite or nan, and then writes
    nothing.

    ``scratch`` is a ``simulator._Workspace`` that the caller owns and
    reuses from call to call: every intermediate is written into its
    ``slot*`` and ``flag*`` buffers of ``values.size`` entries (a dozen
    uint64 slots), so a call allocates no array.  The buffers hold
    nothing between calls, and one scratch serves one call at a time.
    """
    values = np.asarray(values, np.float64)
    slots, flags = _scratch(scratch, values.size)
    np.copyto(slots[0].view(np.float64).reshape(values.shape), values)
    _format(slots, flags, out)


def _format(slots, flags, out: np.ndarray) -> None:
    """:func:`write_reprs` of the doubles whose bits are in ``slots[0]``, shaped as ``out[..., 0]``."""
    shape = out.shape[:-1]
    bits = slots[0]
    zero = flags[-1]
    if np.greater_equal(bits, _INF_BITS, out=zero).any():
        raise ValueError("only non-negative finite values are formatted")
    has_zero = np.equal(bits, 0, out=zero).any()
    if has_zero:
        np.copyto(bits, _ONE_BITS, where=zero)  # its "1.0" becomes "0.0" below
    f, column = _shortest(slots, flags[:-1])
    more = flags[0]
    index, length = (slots[i].view(np.int64) for i in (2, 3))
    m, x, q, r = slots[4:8]
    words = (slots[8], slots[9], x)
    # m: f's digits left-aligned in 17 places.  A normal double's f has 16
    # or 17 digits; only subnormals have fewer
    ndigits = index
    _ones(np.greater_equal(f, 10**16, out=more), ndigits)
    ndigits += 16
    if np.less(f, 10**15, out=more).any():
        for count, power in enumerate(_POW10, 1):
            np.copyto(ndigits, count, where=np.greater_equal(f, power, out=more))
    np.take(_POW10, np.subtract(17, ndigits, out=length), out=m, mode="clip")
    m *= f
    # the column of the layout tables, decpt - _DECPT_MIN for the value 0.ddd * 10**decpt
    index += column
    index += _K_MIN - _DECPT_MIN
    # the frame: x = 10 * m - 9 * (m mod the modulus), times the scale,
    # whose first 8 digits go to words[0] and the next 16 to the others
    _divmod(m, _lookup(_MODULUS, index, q), r, x)
    x *= 10
    x += m
    _divmod(x, _lookup(_SPLIT, index, q), words[0], r)
    x *= _lookup(_SCALE, index, q)
    _divmod(x, 10**8, words[1], r)
    # the text runs to the last digit that is not 0, or to the least length;
    # as a double, a word's bits of its nonzero digits has the last one's
    # in its exponent
    _lookup(_LEAST, index, length.view(np.uint64))
    last = r.view(np.int64)
    for start, word in zip((0, 8, 16), words):
        _eight_digits(word, q, r)
        np.add(word, 0x7F7F7F7F7F7F7F7F, out=q)
        q &= 0x8080808080808080
        np.copyto(r.view(np.float64), q, casting="unsafe")
        last >>= 52
        last -= 1030
        last >>= 3
        last += start + 1
        np.maximum(length, last, out=length)
    if has_zero:
        np.bitwise_xor(words[0], zero, out=words[0])  # 1.0's first digit becomes 0
    for w, word in enumerate(words):
        word += _ASCII_ZEROS
        word ^= _lookup(_POINT[w], index, q)
        word &= _lookup(_BELOW, np.subtract(length, 8 * w, out=last), q)
        if w == 2:
            word |= _lookup(_SUFFIX, index, q)
        np.copyto(out[..., w], word.reshape(shape))


def ledger_text(first: int, y, x1, x_nonp, delivered, scratch) -> np.ndarray:
    """The CSV lines of the ledger rows numbered ``first``, ``first + 1``, ..., as ``uint8`` text.

    The columns are those that ``simulator.generate_interval_sweep``
    yields, one entry per row.  The rows are laid out ``_BLOCK_ROWS`` at a
    time in ``scratch``, a ``simulator._Workspace`` that the caller owns:
    the block's intermediates go to the buffers that :func:`write_reprs`
    names, its row words, each field's text in fixed slots with NULs
    between, to ``rows`` and their nonzero mask to ``mask``, each reused
    from block to block and from call to call, and the text of every
    block, its NULs dropped, to ``text``.  The result is a view of
    ``text``, valid until the scratch is used again; apart from it, a
    call holds only the compacted text of one block at a time.
    """
    columns = (y, x1, x_nonp, delivered)
    # a row's text never exceeds its fixed-width words
    text = scratch("text", np.uint8, 8 * _row_words(first + y.size - 1) * y.size)
    end = 0
    for a in range(0, y.size, _BLOCK_ROWS):
        block = (c[a : a + _BLOCK_ROWS] for c in columns)
        end += _block_text(first + a, *block, scratch, text[end:])
    return text[:end]


def _row_words(last: int) -> int:
    """The words of a row whose number has as many digits as ``last``'s.

    j and its comma, three 24-character fields that each hold a float's
    ``repr`` and its comma, and a word with the flag and the newline.
    """
    return (len(str(last)) + 8) // 8 + 10


def _block_text(first: int, y, x1, x_nonp, delivered, scratch, out) -> int:
    """Write the CSV lines of one block whose first row is row ``first`` to ``out``; their length.

    Each row is laid out in fixed-width ``uint64`` words (see
    :func:`_row_words`).  Every unused character is NUL, and one
    compaction drops them all.
    """
    size = y.size
    width = _row_words(first + size - 1)
    rows = scratch("rows", np.uint64, size * width).reshape(size, width)
    write_counting(first, rows[:, : width - 10], scratch)
    slots, flags = _scratch(scratch, 3 * size)
    np.stack((y, x1, x_nonp), axis=1, out=slots[0].view(np.float64).reshape(size, 3))
    _format(slots, flags, rows[:, -10:-1].reshape(size, 3, 3))
    np.add(delivered, _ZERO_LINE, out=rows[:, -1])  # "0\n" or "1\n"
    text = rows.view(np.uint8).reshape(-1)
    mask = np.not_equal(text, 0, out=scratch("mask", bool, text.size))
    count = np.count_nonzero(mask)
    out[:count] = text[mask]
    return count

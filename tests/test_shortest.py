"""The vectorised float formatter against CPython's ``repr``, its oracle."""

import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repr_sweep
from agecast._shortest import _BLOCK_ROWS, ledger_text, write_counting, write_reprs
from agecast.simulator import _Workspace

# the bit pattern of inf; below it lie 0.0 and every positive finite double
INF_BITS = 0x7FF0000000000000


def float_reprs(values):
    """``repr_sweep.float_reprs`` in a new scratch."""
    return repr_sweep.float_reprs(values, _Workspace(np.size(values)))


def assert_matches_repr(values):
    values = np.asarray(values, np.float64)
    got = float_reprs(values).tolist()
    want = [repr(v).encode() for v in values.tolist()]
    mismatches = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not mismatches, f"{len(mismatches)} of {len(want)} differ, first {mismatches[:3]}"


def with_neighbours(values):
    values = np.asarray(values, np.float64)
    return np.concatenate(
        [values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)]
    )


def test_powers_of_two_and_their_neighbours():
    # 2**e at e >= -1022 and e = 52 have a closer lower neighbour; the least
    # normal and the subnormals do not
    assert_matches_repr(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_powers_of_ten_and_their_neighbours():
    assert_matches_repr(with_neighbours([float(f"1e{e}") for e in range(-323, 309)]))


def test_where_repr_switches_notation():
    # positional up to 16 digits before the point and 4 zeros after it
    switches = [1e16, 1e-4, 1e15, 1e-5, 9999999999999998.0, 0.001, 0.01, 0.1, 1.0]
    assert_matches_repr(with_neighbours(switches))
    assert float_reprs(np.array([1e16, 1e-4, 1e-5])).tolist() == [b"1e+16", b"0.0001", b"1e-05"]


def test_integers_near_two_to_the_53():
    assert_matches_repr(2.0**53 + np.arange(-2, 3) * 2.0)


def test_least_subnormals_zero_and_the_largest_double():
    assert_matches_repr(np.arange(5000, dtype=np.uint64).view(np.float64))
    assert_matches_repr([0.0, 5e-324, 1.7976931348623157e308, 2.2250738585072014e-308])
    assert float_reprs(np.array([0.0, 5e-324])).tolist() == [b"0.0", b"5e-324"]


def test_exact_midpoints_go_to_the_even_digit():
    # n + 1/4 and n + 3/4 for n in [2**50, 2**51) lie exactly halfway
    # between the two 17-digit decimals that read back as them
    n = np.random.default_rng(3).integers(2**50, 2**51, size=10_000).astype(np.float64)
    assert_matches_repr(np.concatenate([n + 0.25, n + 0.75]))
    assert float_reprs(np.array([2.0**50 + 0.25])).tolist() == [b"1125899906842624.2"]


def test_a_million_random_bit_patterns():
    rng = np.random.default_rng(20181)
    for _ in range(16):
        assert_matches_repr(rng.integers(0, INF_BITS, size=2**16, dtype=np.uint64).view(np.float64))


def test_service_time_draws():
    rng = np.random.default_rng(7)
    assert_matches_repr(rng.exponential(size=20_000))
    assert_matches_repr(1.0 + rng.exponential(size=20_000) / 3.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False), max_size=50))
def test_matches_repr_on_any_non_negative_float(values):
    assert_matches_repr(values)


def test_layout():
    out = float_reprs(np.array([[1.5, 2.0], [0.25, 1e300]]))
    assert out.dtype == np.dtype("S24")
    assert out.tolist() == [b"1.5", b"2.0", b"0.25", b"1e+300"]
    assert float_reprs(np.array([])).tolist() == []
    # a strided view reads the same as its copy
    values = np.random.default_rng(5).exponential(size=100)
    assert float_reprs(values[::3]).tolist() == float_reprs(values[::3].copy()).tolist()


def test_commas_and_exponents_sit_at_fixed_characters():
    # the ledger's compaction drops the NULs between them
    rng = np.random.default_rng(53)
    values = np.concatenate([
        rng.integers(0, INF_BITS, size=4096, dtype=np.uint64).view(np.float64),
        [0.0, 5e-324, 1e-05, 0.0001, 0.1, 1.5, 9999999999999998.0, 1e16, 1.7976931348623157e308],
    ])
    out = np.empty((values.size, 3), np.uint64)
    write_reprs(values, out, _Workspace(values.size))
    fields = out.view(np.uint8).reshape(-1, 24)
    assert (fields[:, 23] == ord(",")).all()
    assert ((fields == ord(",")).sum(axis=1) == 1).all()
    exponent = np.array(["e" in repr(v) for v in values.tolist()])
    assert exponent.any() and not exponent.all()
    assert ((fields == ord("e")).sum(axis=1) == exponent).all()
    assert (fields[exponent, 18] == ord("e")).all()


@pytest.mark.parametrize("first, count, width", [(1, 100, 1), (10**7 - 50, 100, 2), (3, 10, 3)])
def test_row_numbers_end_in_their_fields_last_character(first, count, width):
    out = np.full((count, width), 2**64 - 1, np.uint64)
    write_counting(first, out, _Workspace(count))
    fields = out.view(np.uint8).reshape(count, 8 * width)
    assert (fields[:, -1] == ord(",")).all()
    assert ((fields == ord(",")).sum(axis=1) == 1).all()
    text = [bytes(field[field != 0]) for field in fields]
    assert text == [b"%d," % j for j in range(first, first + count)]


@pytest.mark.parametrize("value", [-1.0, -0.0, np.inf, np.nan, -np.inf])
def test_negative_and_non_finite_values_are_refused(value):
    # and nothing is written
    out = np.arange(6, dtype=np.uint64).reshape(2, 3)
    with pytest.raises(ValueError, match="non-negative finite"):
        write_reprs(np.array([1.0, value]), out, _Workspace(2))
    assert out.tolist() == [[0, 1, 2], [3, 4, 5]]


def poison(scratch):
    """Fill every buffer of ``scratch`` with 0xFF bytes, as a stale write would leave it."""
    for buffer in scratch._buffers.values():
        buffer.view(np.uint8).fill(0xFF)


def least_subnormals(size):
    """0.0, 5e-324 and the next subnormals up."""
    return np.arange(size, dtype=np.uint64).view(np.float64)


class TestStaleScratch:
    """One scratch reused over blocks of every kind gives a new scratch's text."""

    def test_write_reprs(self):
        rng = np.random.default_rng(41)
        full = 3 * _BLOCK_ROWS
        blocks = [
            rng.exponential(size=full),
            # the ledger's short last block of 369 rows
            rng.exponential(size=3 * 369),
            # every value in exponent notation
            rng.exponential(size=full) * 1e90,
            least_subnormals(full),
            rng.integers(0, INF_BITS, size=full, dtype=np.uint64).view(np.float64),
            rng.exponential(size=3 * 369) * 1e-90,
            rng.exponential(size=full),
        ]
        scratch = _Workspace(full)
        for values in blocks:
            poison(scratch)
            got = repr_sweep.float_reprs(values, scratch).tolist()
            assert got == float_reprs(values).tolist()
            assert got == [repr(v).encode() for v in values.tolist()]

    def test_ledger_text(self):
        rng = np.random.default_rng(43)

        def columns(size, scale=1.0):
            y, x1, x_nonp = (rng.exponential(size=size) * scale for _ in range(3))
            return y, x1, x_nonp, x_nonp < y

        zeros = np.zeros(_BLOCK_ROWS)
        subnormals = least_subnormals(_BLOCK_ROWS)
        blocks = [
            (1, columns(_BLOCK_ROWS)),
            # the short last block; j gains a digit at 10**6
            (10**6 - 100, columns(369)),
            # two blocks and a short one; j takes a second word at 10**7
            (10**7 - _BLOCK_ROWS - 100, columns(2 * _BLOCK_ROWS + 369)),
            # every value in exponent notation, j back in one word
            (5, columns(_BLOCK_ROWS, 1e90)),
            (7, (subnormals, zeros, subnormals[::-1], subnormals > 1e-320)),
            (10**6 - 10, columns(_BLOCK_ROWS)),
        ]
        scratch = _Workspace(2 * _BLOCK_ROWS + 369)
        for first, block in blocks:
            poison(scratch)
            got = ledger_text(first, *block, scratch).tobytes()
            assert got == ledger_text(first, *block, _Workspace(block[0].size)).tobytes()
            assert got == repr_lines(first, *block)


def repr_lines(first, y, x1, x_nonp, delivered):
    """The CSV lines of rows from ``first``, written with ``repr``: the oracle for ``ledger_text``."""
    cols = (
        map(str, range(first, first + y.size)),
        map(repr, y.tolist()),
        map(repr, x1.tolist()),
        map(repr, x_nonp.tolist()),
        map(str, delivered.view(np.uint8).tolist()),
    )
    return "\n".join(chain(map(",".join, zip(*cols)), ("",))).encode()


def test_a_warm_call_holds_only_one_block_of_text():
    rng = np.random.default_rng(47)
    y, x1, x_nonp = (rng.exponential(size=4 * _BLOCK_ROWS) for _ in range(3))
    columns = (y, x1, x_nonp, x_nonp < y)
    scratch = _Workspace(y.size)
    ledger_text(1, *columns, scratch)
    tracemalloc.start()
    try:
        text = ledger_text(1, *columns, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the text is a view of the scratch; a block's mask is one bool per
    # byte of its 11-word rows.  Measured 0.27 MB: one block's compacted text
    mask = _BLOCK_ROWS * 11 * 8
    assert peak <= text.nbytes + mask

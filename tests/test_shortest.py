"""The vectorised float formatter against CPython's ``repr``, its oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agecast._shortest import write_reprs
from repr_sweep import float_reprs

# the bit pattern of inf; below it lie 0.0 and every positive finite double
INF_BITS = 0x7FF0000000000000


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


@pytest.mark.parametrize("value", [-1.0, -0.0, np.inf, np.nan, -np.inf])
def test_negative_and_non_finite_values_are_refused(value):
    # and nothing is written
    out = np.arange(6, dtype=np.uint64).reshape(2, 3)
    with pytest.raises(ValueError, match="non-negative finite"):
        write_reprs(np.array([1.0, value]), out)
    assert out.tolist() == [[0, 1, 2], [3, 4, 5]]

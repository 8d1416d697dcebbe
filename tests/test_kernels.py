"""The interval kernel: shapes, stream layout, row windows, budget and determinism."""

import tracemalloc

import numpy as np
import pytest

from agecast._shortest import _BLOCK_ROWS
from agecast.order_stats import MAX_K, ServiceDistribution
from agecast.simulator import (
    _ROWS,
    _Workspace,
    generate_interval_sweep,
    generate_intervals,
)

EXP1 = ServiceDistribution.exponential(1.0)

# a priority group of 65535 nodes; MAX_K itself draws too many columns to
# test here
WIDE_K = (MAX_K + 1) // 64 - 1


def whole_block_intervals(rng, dist, num_intervals, k):
    """The kernel's outputs from one column-major draw, transformed in full.

    Row 0 of the (k+1, N) block is the tracked non-priority node, row i
    priority node i.
    """
    x = dist.sample(rng, (k + 1, num_intervals))
    y = x[1:].max(axis=0)
    x1 = x[1]
    x_nonp = x[0]
    return y, x1, x_nonp, x_nonp < y


class _ScriptedRng:
    """Stand-in generator that replays preset uniforms in draw order."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None, out=None):
        if size is None and out is None:
            return self._values.pop(0)
        shape = size if out is None else out.shape
        count = int(np.prod(shape))
        block, self._values = self._values[:count], self._values[count:]
        assert len(block) == count, "script ran out of uniforms"
        block = np.reshape(np.array(block, dtype=np.float64), shape)
        if out is None:
            return block
        out[...] = block
        return out


def _kernel_peak(num_intervals, k):
    # the generator is made first: its first seeding imports modules
    rng = np.random.default_rng(4)
    tracemalloc.start()
    try:
        generate_intervals(rng, EXP1, num_intervals, k)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGenerateIntervals:
    def test_shapes_and_flags(self):
        rng = np.random.default_rng(5)
        dist = ServiceDistribution(rate=1.0, shift=0.5)
        y, x1, x_nonp, delivered = generate_intervals(rng, dist, 1000, 3)
        assert y.shape == x1.shape == x_nonp.shape == delivered.shape == (1000,)
        assert delivered.dtype == np.bool_
        assert np.array_equal(delivered, x_nonp < y)
        assert y.min() >= 0.5
        assert np.all(x1 <= y)

    def test_consumes_fixed_uniform_budget(self):
        k, num = 4, 777
        rng_a = np.random.default_rng(9)
        generate_intervals(rng_a, ServiceDistribution(rate=2.0), num, k)
        rng_b = np.random.default_rng(9)
        rng_b.random((num, k + 1))
        assert rng_a.random() == rng_b.random()

    def test_numpy_deterministic(self):
        dist = ServiceDistribution(rate=1.5, shift=1.0)
        a = generate_intervals(np.random.default_rng(3), dist, 5000, 2)
        b = generate_intervals(np.random.default_rng(3), dist, 5000, 2)
        for left, right in zip(a, b):
            assert np.array_equal(left, right)

    def test_argument_validation(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="num_intervals"):
            generate_intervals(rng, EXP1, 0, 1)
        with pytest.raises(ValueError, match="k"):
            generate_intervals(rng, EXP1, 10, 0)
        with pytest.raises(ValueError, match=f"k must be at most {MAX_K}"):
            generate_intervals(rng, EXP1, 10, MAX_K + 1)

    def test_scripted_draws_k1(self):
        # one interval: the tracked node draws 1 first, then node 1 draws 2,
        # so the tracked copy lands first and is delivered
        targets = np.array([1.0, 2.0])
        rng = _ScriptedRng(-np.expm1(-targets))
        y, x1, x_nonp, delivered = generate_intervals(rng, EXP1, 1, 1)
        assert y == pytest.approx([2.0], rel=1e-12)
        assert x1 == pytest.approx([2.0], rel=1e-12)
        assert x_nonp == pytest.approx([1.0], rel=1e-12)
        assert delivered.tolist() == [True]

    def test_scripted_draws_k2(self):
        # two intervals, one column of 2 uniforms per node: the tracked
        # node first, then priority nodes 1 and 2
        targets = np.array([5.0, 0.5, 1.0, 4.0, 3.0, 2.0])
        rng = _ScriptedRng(-np.expm1(-targets))
        y, x1, x_nonp, delivered = generate_intervals(rng, EXP1, 2, 2)
        assert y == pytest.approx([3.0, 4.0], rel=1e-12)
        assert x1 == pytest.approx([1.0, 4.0], rel=1e-12)
        assert x_nonp == pytest.approx([5.0, 0.5], rel=1e-12)
        assert delivered.tolist() == [False, True]

    @pytest.mark.parametrize("k", [1, 2, 5, 20, 100])
    @pytest.mark.parametrize(
        "num_intervals", [1, 4096, 4097, 3 * 4096 + 17]
    )
    def test_bitwise_equal_to_whole_block_oracle(self, k, num_intervals):
        dist = ServiceDistribution(rate=1.5, shift=0.25)
        got = generate_intervals(np.random.default_rng(k), dist, num_intervals, k)
        want = whole_block_intervals(np.random.default_rng(k), dist, num_intervals, k)
        for left, right in zip(got, want):
            assert left.dtype == right.dtype and left.shape == right.shape
            assert left.tobytes() == right.tobytes()

    @pytest.mark.parametrize("k, num_intervals", [(4095, 3000), (WIDE_K, 129)])
    def test_bitwise_equal_to_whole_block_oracle_at_wide_rows(self, k, num_intervals):
        dist = ServiceDistribution(rate=0.5, shift=2.0)
        got = generate_intervals(np.random.default_rng(k), dist, num_intervals, k)
        want = whole_block_intervals(np.random.default_rng(k), dist, num_intervals, k)
        for left, right in zip(got, want):
            assert left.tobytes() == right.tobytes()

    def test_memory_bounded_at_wide_rows(self):
        # a few length-N columns plus a fixed overhead that shows at this
        # small N, whatever k; one (k+1, N) block would be 64 MiB here
        num = 128
        assert _kernel_peak(num, WIDE_K) < 16 * num * 8

    def test_memory_does_not_grow_with_the_uniform_block(self):
        # a few length-N columns, not the N * (k+1) uniforms drawn
        num = 50_000
        assert _kernel_peak(num, 200) < 8 * num * 8


class TestGenerateIntervalSweep:
    KS = (1, 2, 3, 5, 8, 13)

    def test_each_point_equals_a_single_k_draw(self):
        dist = ServiceDistribution(rate=1.5, shift=0.25)
        points = generate_interval_sweep(np.random.default_rng(6), dist, 3000, self.KS)
        for k, got in zip(self.KS, points, strict=True):
            want = generate_intervals(np.random.default_rng(6), dist, 3000, k)
            for left, right in zip(got, want):
                assert left.tobytes() == right.tobytes()

    def test_intervals_grow_and_deliveries_persist_pathwise(self):
        # node i's draws serve every k >= i, so adding a node can only
        # delay the preemption: intervals lengthen, and a tracked copy that
        # landed before it at k still lands before it at k + 1
        dist = ServiceDistribution(rate=1.0, shift=1.0)
        points = list(
            generate_interval_sweep(np.random.default_rng(8), dist, 5000, range(1, 9))
        )
        for (y, x1, x_nonp, delivered), (y_next, x1_next, x_nonp_next, delivered_next) in zip(
            points, points[1:]
        ):
            assert np.array_equal(x1, x1_next) and np.array_equal(x_nonp, x_nonp_next)
            assert np.all(y_next >= y)
            assert np.any(y_next > y)
            assert np.all(delivered_next[delivered])
            assert np.any(delivered_next & ~delivered)

    def test_consumes_the_budget_of_its_largest_k(self):
        rng_a = np.random.default_rng(9)
        for _ in generate_interval_sweep(rng_a, EXP1, 321, (2, 4, 7)):
            pass
        rng_b = np.random.default_rng(9)
        rng_b.random((8, 321))
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("ks", [(), (2, 2), (3, 1)])
    def test_refuses_group_sizes_out_of_order(self, ks):
        with pytest.raises(ValueError, match="strictly increasing"):
            next(generate_interval_sweep(np.random.default_rng(1), EXP1, 10, ks))


def _windows(num_intervals):
    """Row windows to draw: every ledger block (a short last one included),
    the whole pass, single rows at both ends and, where N allows, windows
    longer than the kernel's chunk that start off a block edge."""
    edges = [*range(0, num_intervals, _BLOCK_ROWS), num_intervals]
    windows = set(zip(edges, edges[1:]))
    windows |= {(0, num_intervals), (0, 1), (num_intervals - 1, num_intervals)}
    if num_intervals > _ROWS + 1:
        windows |= {(1, num_intervals), (num_intervals - _ROWS - 2, num_intervals - 1)}
    return sorted(windows)


class TestRowWindow:
    @pytest.mark.parametrize("k", [1, 2, 20])
    @pytest.mark.parametrize("num_intervals", [1, 4095, 4096, 4097, 16385, 20011])
    def test_each_window_is_the_slice_of_the_whole_pass(self, k, num_intervals):
        dist = ServiceDistribution(rate=1.5, shift=0.25)
        whole = generate_intervals(np.random.default_rng(k), dist, num_intervals, k)
        for start, stop in _windows(num_intervals):
            rng = np.random.default_rng(k)
            got = next(
                generate_interval_sweep(rng, dist, num_intervals, (k,), rows=(start, stop))
            )
            for left, right in zip(got, whole):
                assert left.dtype == right.dtype
                assert left.tobytes() == right[start:stop].tobytes(), (start, stop)
            # the stream is left at row ``stop`` of node k's column
            after = np.random.default_rng(k)
            after.bit_generator.advance(k * num_intervals + stop)
            assert rng.random() == after.random()

    def test_a_window_of_a_sweep_into_a_workspace(self):
        ks, num_intervals, rows = (1, 2, 5, 8), 20011, (4096, 20011)
        whole = generate_interval_sweep(np.random.default_rng(3), EXP1, num_intervals, ks)
        work = _Workspace(rows[1] - rows[0])
        window = generate_interval_sweep(
            np.random.default_rng(3), EXP1, num_intervals, ks, work, rows=rows
        )
        for got, want in zip(window, whole, strict=True):
            for left, right in zip(got, want):
                assert left.tobytes() == right[slice(*rows)].tobytes()

    @pytest.mark.parametrize("rows", [(5, 5), (6, 5), (-1, 3), (0, 101), (100, 101), (0, 0)])
    def test_empty_or_outside_windows_are_refused(self, rows):
        with pytest.raises(ValueError, match="row st"):
            next(generate_interval_sweep(np.random.default_rng(1), EXP1, 100, (2,), rows=rows))

    @pytest.mark.parametrize("size", [1, 100, 20_011, 40_000])
    def test_a_workspace_of_any_size_gives_the_fresh_draw(self, size):
        # a buffer longer than the window lends its first rows, a shorter
        # one grows; what earlier windows left in them never shows
        ks, num_intervals = (1, 2, 5), 20_011
        work = _Workspace(size)
        for rows in [(0, 100), (4096, num_intervals), (7, 17), (0, num_intervals), (3, 4)]:
            for buffer in work._buffers.values():
                buffer.view(np.uint8).fill(0xFF)
            drawn = generate_interval_sweep(
                np.random.default_rng(3), EXP1, num_intervals, ks, work, rows=rows
            )
            fresh = generate_interval_sweep(
                np.random.default_rng(3), EXP1, num_intervals, ks, rows=rows
            )
            for got, want in zip(drawn, fresh, strict=True):
                for left, right in zip(got, want):
                    assert left.tobytes() == right.tobytes(), rows

    @pytest.mark.parametrize("bits", [np.random.SFC64, np.random.MT19937, np.random.Philox])
    def test_a_window_needs_a_generator_that_jumps_by_draws(self, bits):
        # Philox has an advance, but it counts blocks of four draws
        rng = np.random.Generator(bits(7))
        with pytest.raises(ValueError, match=f"needs a PCG64 .* got {bits.__name__}"):
            next(generate_interval_sweep(rng, EXP1, 100, (2,), rows=(10, 20)))

    @pytest.mark.parametrize("rows", [None, (0, 5000)])
    def test_a_whole_pass_on_sfc64_never_jumps(self, rows):
        got = next(
            generate_interval_sweep(
                np.random.Generator(np.random.SFC64(7)), EXP1, 5000, (3,), rows=rows
            )
        )
        want = whole_block_intervals(np.random.Generator(np.random.SFC64(7)), EXP1, 5000, 3)
        for left, right in zip(got, want):
            assert left.tobytes() == right.tobytes()

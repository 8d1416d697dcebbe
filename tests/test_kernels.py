"""The interval kernel: shapes, stream layout, budget and determinism."""

import tracemalloc

import numpy as np
import pytest

from agecast.order_stats import ServiceDistribution
from agecast.simulator import _BLOCK_ROWS, generate_intervals

EXP1 = ServiceDistribution.exponential(1.0)


def whole_block_intervals(rng, dist, num_intervals, k):
    """The kernel's outputs from one whole-block draw, transformed in full."""
    x = dist.sample(rng, (num_intervals, k + 1))
    y = x[:, :k].max(axis=1)
    x1 = np.ascontiguousarray(x[:, 0])
    x_nonp = np.ascontiguousarray(x[:, k])
    return y, x1, x_nonp, x_nonp < y


class _ScriptedRng:
    """Stand-in generator that replays preset uniforms in row-major order."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None):
        if size is None:
            return self._values.pop(0)
        count = int(np.prod(size))
        block, self._values = self._values[:count], self._values[count:]
        assert len(block) == count, "script ran out of uniforms"
        return np.reshape(np.array(block, dtype=np.float64), size)


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

    def test_scripted_draws_k1(self):
        # one interval: node 1 draws 2, the tracked node 1, so it delivers
        targets = np.array([2.0, 1.0])
        rng = _ScriptedRng(-np.expm1(-targets))
        y, x1, x_nonp, delivered = generate_intervals(rng, EXP1, 1, 1)
        assert y == pytest.approx([2.0], rel=1e-12)
        assert x1 == pytest.approx([2.0], rel=1e-12)
        assert x_nonp == pytest.approx([1.0], rel=1e-12)
        assert delivered.tolist() == [True]

    def test_scripted_draws_k2(self):
        # two intervals of k+1 = 3 uniforms each, one row per interval:
        # priority nodes in columns 0..1, the tracked node in column 2
        targets = np.array([1.0, 3.0, 5.0, 4.0, 2.0, 0.5])
        rng = _ScriptedRng(-np.expm1(-targets))
        y, x1, x_nonp, delivered = generate_intervals(rng, EXP1, 2, 2)
        assert y == pytest.approx([3.0, 4.0], rel=1e-12)
        assert x1 == pytest.approx([1.0, 4.0], rel=1e-12)
        assert x_nonp == pytest.approx([5.0, 0.5], rel=1e-12)
        assert delivered.tolist() == [False, True]

    @pytest.mark.parametrize("k", [1, 2, 5, 20, 100])
    @pytest.mark.parametrize(
        "num_intervals", [1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 17]
    )
    def test_bitwise_equal_to_whole_block_oracle(self, k, num_intervals):
        dist = ServiceDistribution(rate=1.5, shift=0.25)
        got = generate_intervals(np.random.default_rng(k), dist, num_intervals, k)
        want = whole_block_intervals(np.random.default_rng(k), dist, num_intervals, k)
        for left, right in zip(got, want):
            assert left.dtype == right.dtype and left.shape == right.shape
            assert left.tobytes() == right.tobytes()

    def test_memory_does_not_grow_with_the_uniform_block(self):
        k, num = 200, 50_000
        tracemalloc.start()
        try:
            generate_intervals(np.random.default_rng(2), EXP1, num, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < num * (k + 1) * 8 / 4

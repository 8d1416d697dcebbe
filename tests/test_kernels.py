"""The numpy interval kernel: shapes, stream budget and determinism."""

import numpy as np
import pytest

from agecast.kernels import generate_intervals


class TestGenerateIntervals:
    def test_shapes_and_flags(self):
        rng = np.random.default_rng(5)
        y, x1, x_nonp, delivered = generate_intervals(rng, 1.0, 0.5, 1000, 3)
        assert y.shape == x1.shape == x_nonp.shape == delivered.shape == (1000,)
        assert delivered.dtype == np.bool_
        assert np.array_equal(delivered, x_nonp < y)
        assert y.min() >= 0.5
        assert np.all(x1 <= y)

    def test_consumes_fixed_uniform_budget(self):
        k, num = 4, 777
        rng_a = np.random.default_rng(9)
        generate_intervals(rng_a, 2.0, 0.0, num, k)
        rng_b = np.random.default_rng(9)
        rng_b.random((num, k + 1))
        assert rng_a.random() == rng_b.random()

    def test_numpy_deterministic(self):
        a = generate_intervals(np.random.default_rng(3), 1.5, 1.0, 5000, 2)
        b = generate_intervals(np.random.default_rng(3), 1.5, 1.0, 5000, 2)
        for left, right in zip(a, b):
            assert np.array_equal(left, right)

    def test_argument_validation(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="num_intervals"):
            generate_intervals(rng, 1.0, 0.0, 0, 1)
        with pytest.raises(ValueError, match="k"):
            generate_intervals(rng, 1.0, 0.0, 10, 0)

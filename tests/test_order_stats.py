"""Harmonic sums, the service law and order-statistic moments."""

import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from harmonic_ulps import DIGITS, exact_harmonic, exact_harmonic2, ulps
from hypothesis import given, settings
from hypothesis import strategies as st

from agecast.order_stats import (
    MAX_K,
    ServiceDistribution,
    harmonic,
    harmonic2,
    order_stat_mean,
    order_stat_var,
)
from agecast.theory import age_nonpriority, priority_age

ZETA2 = math.pi**2 / 6.0
# the largest n the table holds; the series serve every n above it
TABLE_MAX = 1 << 14


class TestHarmonic:
    def test_empty_sum(self):
        assert harmonic(0) == 0.0
        assert harmonic2(0) == 0.0

    def test_small_values(self):
        assert harmonic(1) == 1.0
        assert harmonic(2) == 1.5
        assert harmonic2(1) == 1.0
        assert harmonic2(2) == 1.25

    def test_direct_summation(self):
        assert harmonic(10) == pytest.approx(2.9289682539682538, rel=1e-12)
        assert harmonic2(5) == pytest.approx(1.4636111111111112, rel=1e-12)

    def test_matches_compensated_sum_at_large_n(self):
        n = 100_000
        j = np.arange(1, n + 1, dtype=np.float64)
        assert harmonic(n) == pytest.approx(math.fsum(1.0 / j), rel=1e-12)
        assert harmonic2(n) == pytest.approx(math.fsum(1.0 / j**2), rel=1e-12)

    def test_step_invariant(self):
        edges = (TABLE_MAX, TABLE_MAX + 1, MAX_K + 1)
        for n in (1, 2, 17, 1023, 1024, 1025, 4096, 50_000, *edges):
            step = harmonic(n) - harmonic(n - 1)
            assert step == pytest.approx(1.0 / n, abs=1e-12)

    def test_matches_sequential_sum(self):
        # the table adds left to right, so every entry it holds is the loop's
        h1 = h2 = 0.0
        for n in range(1, TABLE_MAX + 1):
            h1 += 1.0 / n
            h2 += 1.0 / float(n) ** 2
            assert harmonic(n) == h1
            assert harmonic2(n) == h2

    def test_within_one_ulp_of_a_direct_sum_above_the_table(self):
        with localcontext() as ctx:
            ctx.prec = DIGITS
            h1 = sum(1 / Decimal(j) for j in range(1, TABLE_MAX + 1))
            h2 = sum(1 / Decimal(j) ** 2 for j in range(1, TABLE_MAX + 1))
            for n in range(TABLE_MAX + 1, TABLE_MAX + 9):
                h1 += 1 / Decimal(n)
                h2 += 1 / Decimal(n) ** 2
                assert ulps(harmonic(n), h1) <= 1.0
                assert ulps(harmonic2(n), h2) <= 1.0

    def test_within_one_ulp_of_the_long_series_up_to_max_k(self):
        # about 50 n from the table's edge to the largest index the closed forms read,
        # and one where the series without the rounding residual of ln n is 1.002 ulp off
        ns = np.unique(np.geomspace(TABLE_MAX + 1, MAX_K + 1, 50).round().astype(int))
        assert ns[-1] == MAX_K + 1
        for n in [*ns.tolist(), 3_590_202]:
            assert ulps(harmonic(n), exact_harmonic(n)) <= 1.0
            assert ulps(harmonic2(n), exact_harmonic2(n)) <= 1.0

    def test_increasing_across_the_table_edge(self):
        ns = range(TABLE_MAX - 8, TABLE_MAX + 9)
        for form in (harmonic, harmonic2):
            values = [form(n) for n in ns]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_closed_forms_at_max_k_allocate_little(self):
        dist = ServiceDistribution(rate=1.0, shift=1.0)
        tracemalloc.start()
        try:
            priority_age(dist, MAX_K)
            age_nonpriority(dist, MAX_K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_harmonic2_bounded_by_zeta2(self):
        for n in (1, 5, 100, 10_000):
            value = harmonic2(n)
            assert value < ZETA2
            assert ZETA2 - value < 1.0 / n

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            harmonic(-1)
        with pytest.raises(ValueError, match="nonnegative"):
            harmonic2(-3)

    def test_capacity_exceeded_rejected(self):
        # the bound is inclusive: the closed forms read H(MAX_K + 1)
        assert harmonic(MAX_K + 1) > 0 and harmonic2(MAX_K + 1) > 0
        with pytest.raises(ValueError, match=r"exceeds MAX_K \+ 1"):
            harmonic(MAX_K + 2)
        with pytest.raises(ValueError, match=r"exceeds MAX_K \+ 1"):
            harmonic2(MAX_K + 2)


class TestServiceDistribution:
    def test_mean_and_kind(self):
        # numpy integer and floating scalars are stored as plain floats
        for rate, shift in ((2.0, 1.0), (np.int64(2), np.int64(1)), (np.float32(2), np.float32(1))):
            exp = ServiceDistribution.exponential(rate)
            assert exp.mean() == 0.5
            assert exp.kind == "exp"
            sexp = ServiceDistribution.shifted_exponential(rate, shift)
            assert sexp.mean() == 1.5
            assert sexp.kind == "sexp"
            assert type(sexp.rate) is float and type(sexp.shift) is float

    def test_cdf(self):
        dist = ServiceDistribution(rate=1.0, shift=1.0)
        assert dist.cdf(0.5) == 0.0
        assert dist.cdf(1.0) == 0.0
        assert dist.cdf(2.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
        grid = dist.cdf(np.array([0.0, 1.0, 3.0]))
        assert grid[0] == 0.0
        assert grid[2] == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)

    def test_quantile(self):
        dist = ServiceDistribution(rate=1.0, shift=2.0)
        assert dist.quantile(0.0) == 2.0
        assert dist.quantile(1.0 - math.exp(-1.0)) == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("shift", [0.0, 1.0])
    def test_rate_one_transform_keeps_its_bits(self, shift):
        # rate 1 skips the divide, which changes no double
        dist = ServiceDistribution(rate=1.0, shift=shift)
        u = np.concatenate(([0.0], np.random.default_rng(5).random(10_000)))
        expected = shift - np.log1p(-u)
        np.testing.assert_array_equal(expected, shift - np.log1p(-u) / 1.0)
        np.testing.assert_array_equal(dist.quantile(u), expected)
        np.testing.assert_array_equal(dist._inverse_cdf(u.copy(), out=u), expected)
        assert dist.quantile(0.0) == shift

    def test_quantile_domain(self):
        dist = ServiceDistribution.exponential(1.0)
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            dist.quantile(1.0)
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            dist.quantile(-0.1)

    def test_cdf_inverts_quantile(self):
        dist = ServiceDistribution(rate=0.7, shift=1.3)
        u = np.linspace(0.0, 0.999, 50)
        assert dist.cdf(dist.quantile(u)) == pytest.approx(u, abs=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="rate"):
            ServiceDistribution(rate=0.0)
        with pytest.raises(ValueError, match="rate"):
            ServiceDistribution(rate=-1.0)
        with pytest.raises(ValueError, match="rate"):
            ServiceDistribution(rate=math.nan)
        with pytest.raises(ValueError, match="shift"):
            ServiceDistribution(rate=1.0, shift=-0.5)
        with pytest.raises(ValueError, match="shift"):
            ServiceDistribution(rate=1.0, shift=math.inf)
        for bad in ("1", None, math.nan, math.inf, 0, -1, np.float32(-1.5)):
            with pytest.raises(ValueError, match="rate"):
                ServiceDistribution(rate=bad)
        for bad in ("1", None, math.nan, math.inf, -1, np.int64(-2)):
            with pytest.raises(ValueError, match="shift"):
                ServiceDistribution(rate=1.0, shift=bad)

    def test_finite_range(self):
        # the bounds are inclusive
        for rate, shift in ((1e-100, 0.0), (1e100, 1e100), (1.0, 5e-324)):
            assert ServiceDistribution(rate, shift).rate == rate
        for rate in (1e-320, 9.9e-101, 1.1e100, 1e300):
            with pytest.raises(ValueError, match="rate must lie in"):
                ServiceDistribution(rate)
        for shift in (1.1e100, 1e308):
            with pytest.raises(ValueError, match="shift must be at most"):
                ServiceDistribution(1.0, shift)

    def test_sample_scalar_and_shape(self):
        dist = ServiceDistribution(rate=2.0, shift=1.0)
        rng = np.random.default_rng(42)
        one = dist.sample(rng)
        assert isinstance(one, float)
        assert one >= 1.0
        block = dist.sample(rng, (100, 3))
        assert block.shape == (100, 3)
        assert block.min() >= 1.0
        # the unchecked draw path is bitwise the checked public transform
        for shape in (None, 7, (100, 3)):
            rng_a, rng_b = np.random.default_rng(42), np.random.default_rng(42)
            drawn = dist.sample(rng_a, shape)
            assert np.array_equal(drawn, dist.quantile(rng_b.random(shape)))
            assert type(drawn) is type(dist.quantile(rng_b.random(shape)))

    def test_sample_mean_law_of_large_numbers(self):
        dist = ServiceDistribution(rate=2.0, shift=1.0)
        rng = np.random.default_rng(2025)
        draws = dist.sample(rng, 1_000_000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.5) < 4.0 * se


class TestOrderStatMoments:
    def test_single_draw(self):
        exp = ServiceDistribution.exponential(1.0)
        assert order_stat_mean(exp, 1, 1) == 1.0
        assert order_stat_var(exp, 1, 1) == 1.0

    def test_max_of_two_shifted(self):
        dist = ServiceDistribution(rate=1.0, shift=1.0)
        assert order_stat_mean(dist, 2, 2) == pytest.approx(2.5, rel=1e-12)
        assert order_stat_var(dist, 2, 2) == pytest.approx(1.25, rel=1e-12)

    def test_min_of_two(self):
        dist = ServiceDistribution.exponential(2.0)
        assert order_stat_mean(dist, 1, 2) == pytest.approx(0.25, rel=1e-12)

    def test_var_frozen_value(self):
        dist = ServiceDistribution.exponential(2.0)
        assert order_stat_var(dist, 2, 2) == pytest.approx(0.3125, rel=1e-12)

    def test_moments_bundle(self):
        # the middle of three: mean shift + 1/3 + 1/2, variance 1/9 + 1/4
        dist = ServiceDistribution(rate=1.0, shift=1.0)
        assert order_stat_mean(dist, 2, 3) == pytest.approx(11.0 / 6.0, rel=1e-12)
        assert order_stat_var(dist, 2, 3) == pytest.approx(13.0 / 36.0, rel=1e-12)

    def test_mean_strictly_increasing_in_rank(self):
        for rate, shift in ((1.0, 0.0), (2.0, 1.0)):
            dist = ServiceDistribution(rate=rate, shift=shift)
            for n in (2, 5, 50, 200):
                means = [order_stat_mean(dist, k, n) for k in range(1, n + 1)]
                assert all(b > a for a, b in zip(means, means[1:]))
                variances = [order_stat_var(dist, k, n) for k in range(1, n + 1)]
                assert all(b >= a for a, b in zip(variances, variances[1:]))

    def test_top_step_is_full_scale(self):
        # the gap between the two largest order statistics is 1/rate
        for n in (2, 7, 100):
            dist = ServiceDistribution(rate=4.0, shift=0.5)
            gap = order_stat_mean(dist, n, n) - order_stat_mean(dist, n - 1, n)
            assert gap == pytest.approx(1.0 / 4.0, abs=1e-12)

    def test_rank_domain_errors(self):
        dist = ServiceDistribution.exponential(1.0)
        with pytest.raises(ValueError, match="k"):
            order_stat_mean(dist, 0, 3)
        with pytest.raises(ValueError, match="k"):
            order_stat_mean(dist, 4, 3)
        with pytest.raises(ValueError, match="n"):
            order_stat_var(dist, 1, 0)

    @pytest.mark.parametrize(
        "seed,k,n,rate,shift",
        [(11, 2, 3, 1.0, 0.0), (12, 1, 4, 2.5, 1.5), (13, 5, 5, 0.7, 0.2)],
    )
    def test_monte_carlo_agreement(self, seed, k, n, rate, shift):
        dist = ServiceDistribution(rate=rate, shift=shift)
        rng = np.random.default_rng(seed)
        draws = 400_000
        col = np.sort(dist.sample(rng, (draws, n)), axis=1)[:, k - 1]
        mean_se = col.std(ddof=1) / math.sqrt(draws)
        assert abs(col.mean() - order_stat_mean(dist, k, n)) < 4.0 * mean_se
        centered = (col - col.mean()) ** 2
        var_se = centered.std(ddof=1) / math.sqrt(draws)
        assert abs(col.var(ddof=1) - order_stat_var(dist, k, n)) < 4.0 * var_se


class TestMomentProperties:
    @given(
        n=st.integers(min_value=2, max_value=300),
        data=st.data(),
        rate=st.floats(min_value=0.1, max_value=10.0),
        shift=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_mean_telescopes(self, n, data, rate, shift):
        k = data.draw(st.integers(min_value=2, max_value=n))
        dist = ServiceDistribution(rate=rate, shift=shift)
        step = order_stat_mean(dist, k, n) - order_stat_mean(dist, k - 1, n)
        assert step == pytest.approx(1.0 / (rate * (n - k + 1)), rel=1e-9)

    @given(
        n=st.integers(min_value=1, max_value=300),
        data=st.data(),
        rate=st.floats(min_value=0.1, max_value=10.0),
        shift=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_var_ignores_shift(self, n, data, rate, shift):
        k = data.draw(st.integers(min_value=1, max_value=n))
        shifted = ServiceDistribution(rate=rate, shift=shift)
        plain = ServiceDistribution(rate=rate, shift=0.0)
        assert order_stat_var(shifted, k, n) == order_stat_var(plain, k, n)

"""Closed-form age values against frozen oracles and cross-route identities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agecast.order_stats import ServiceDistribution, harmonic, order_stat_mean
from agecast.theory import (
    EULER_GAMMA,
    MAX_K,
    age_exponential,
    age_nonpriority,
    age_priority,
    age_priority_lower_bound,
    age_priority_shifted_exp,
    failure_prob,
    geometric_moments,
    interval_moments,
    priority_age,
    xtilde_mean,
)

EXP1 = ServiceDistribution.exponential(1.0)
SEXP11 = ServiceDistribution(rate=1.0, shift=1.0)

random_law = dict(
    rate=st.floats(min_value=0.2, max_value=5.0),
    shift=st.floats(min_value=0.0, max_value=3.0),
    k=st.integers(min_value=1, max_value=100),
)


class TestAgePriority:
    def test_plain_exponential_values(self):
        assert age_priority(EXP1, 1) == pytest.approx(2.0, rel=1e-12)
        assert age_priority(EXP1, 2) == pytest.approx(13.0 / 6.0, rel=1e-12)

    def test_shifted_value(self):
        assert age_priority(SEXP11, 1) == pytest.approx(3.25, rel=1e-12)
        assert age_priority_shifted_exp(1.0, 1.0, 1) == pytest.approx(3.25, rel=1e-12)

    def test_reduced_form_small_case(self):
        assert age_priority_shifted_exp(1.0, 0.0, 1) == pytest.approx(2.0, rel=1e-12)
        assert age_priority_shifted_exp(2.0, 0.0, 5) == pytest.approx(1.2311, abs=1e-4)

    def test_rate_two_with_shift(self):
        value = age_priority_shifted_exp(2.0, 1.0, 5)
        expected = 1.5 + 0.5 + harmonic(5) / 4.0 + harmonic2_of(5) / (8.0 + 4.0 * harmonic(5))
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(2.6562581063553825, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="k"):
            age_priority(EXP1, 0)
        with pytest.raises(ValueError, match="rate"):
            age_priority_shifted_exp(0.0, 1.0, 1)
        with pytest.raises(ValueError, match="shift"):
            age_priority_shifted_exp(1.0, -1.0, 1)
        for bad in ("1", None, math.nan, math.inf):
            with pytest.raises(ValueError, match="rate"):
                age_priority_lower_bound(bad, 1.0, 1)
            with pytest.raises(ValueError, match="shift"):
                age_priority_shifted_exp(1.0, bad, 1)

    @given(**random_law)
    @settings(max_examples=150, deadline=None)
    def test_reduced_form_matches_generic(self, rate, shift, k):
        dist = ServiceDistribution(rate=rate, shift=shift)
        generic = age_priority(dist, k)
        reduced = age_priority_shifted_exp(rate, shift, k)
        assert reduced == pytest.approx(generic, rel=1e-12)

    @given(**random_law)
    @settings(max_examples=100, deadline=None)
    def test_age_exceeds_mean_service(self, rate, shift, k):
        dist = ServiceDistribution(rate=rate, shift=shift)
        assert age_priority(dist, k) > dist.mean()


def harmonic2_of(n):
    return sum(1.0 / j**2 for j in range(1, n + 1))


class TestLowerBound:
    def test_frozen_values(self):
        assert age_priority_lower_bound(1.0, 0.0, 1) == pytest.approx(
            1.0 + 0.5 * EULER_GAMMA, rel=1e-12
        )
        assert age_priority_lower_bound(1.0, 0.0, 10) == pytest.approx(
            2.4399003789477893, rel=1e-12
        )
        assert age_priority_lower_bound(2.0, 1.0, 1) == pytest.approx(
            2.0 + 0.25 * EULER_GAMMA, rel=1e-12
        )

    def test_dominated_by_exact_age(self):
        for rate in (0.5, 1.0, 2.0):
            for shift in (0.0, 1.0, 2.0):
                for k in (1, 2, 10, 100, 1000):
                    exact = age_priority_shifted_exp(rate, shift, k)
                    bound = age_priority_lower_bound(rate, shift, k)
                    assert exact >= bound

    def test_gap_tightens_for_large_k(self):
        for rate in (0.5, 1.0, 2.0):
            for shift in (0.0, 1.0, 2.0):
                def gap(k):
                    return age_priority_shifted_exp(rate, shift, k) - age_priority_lower_bound(rate, shift, k)

                assert gap(1000) < gap(10)

    def test_bundle_includes_bound_only_when_shifted(self):
        shifted = priority_age(SEXP11, 3)
        assert shifted.lower_bound is not None
        assert shifted.value >= shifted.lower_bound
        plain = priority_age(EXP1, 3)
        assert plain.lower_bound is None


class TestCycleMoments:
    def test_failure_prob(self):
        assert failure_prob(1) == 0.5
        assert failure_prob(4) == pytest.approx(0.2, rel=1e-12)
        assert failure_prob(99) == pytest.approx(0.01, rel=1e-12)
        with pytest.raises(ValueError, match="k"):
            failure_prob(0)

    def test_geometric_moments(self):
        assert geometric_moments(1) == (2.0, 6.0)
        assert geometric_moments(2) == (1.5, 3.0)
        m_mean, m2_mean = geometric_moments(10)
        assert m_mean == pytest.approx(1.1, rel=1e-12)
        assert m2_mean == pytest.approx(1.32, rel=1e-12)

    def test_conditional_interval_means(self):
        moments = interval_moments(EXP1, 1)
        assert moments.yf_mean == pytest.approx(0.5, rel=1e-12)
        assert moments.ys_mean == pytest.approx(1.5, rel=1e-12)
        assert moments.y_mean == pytest.approx(1.0, rel=1e-12)
        shifted = interval_moments(SEXP11, 1)
        assert shifted.yf_mean == pytest.approx(1.5, rel=1e-12)
        assert shifted.ys_mean == pytest.approx(2.5, rel=1e-12)

    def test_mixture_recovers_interval_mean(self):
        from agecast.order_stats import order_stat_mean

        for rate, shift in ((1.0, 0.0), (0.5, 2.0)):
            dist = ServiceDistribution(rate=rate, shift=shift)
            for k in range(1, 201):
                moments = interval_moments(dist, k)
                mix = moments.q * moments.yf_mean + (1 - moments.q) * moments.ys_mean
                assert mix == pytest.approx(order_stat_mean(dist, k, k), abs=1e-10)

    def test_w_moments_frozen(self):
        moments = interval_moments(EXP1, 1)
        assert moments.w_mean == pytest.approx(2.0, rel=1e-12)
        assert moments.w2_mean == pytest.approx(6.0, rel=1e-12)
        moments = interval_moments(EXP1, 2)
        assert moments.w_mean == pytest.approx(2.25, rel=1e-12)
        assert moments.w2_mean == pytest.approx(7.125, rel=1e-12)

    @given(**random_law)
    @settings(max_examples=100, deadline=None)
    def test_w_second_moment_jensen(self, rate, shift, k):
        moments = interval_moments(ServiceDistribution(rate=rate, shift=shift), k)
        assert moments.w2_mean >= moments.w_mean**2

    @given(**random_law)
    @settings(max_examples=100, deadline=None)
    def test_w_mean_composition(self, rate, shift, k):
        dist = ServiceDistribution(rate=rate, shift=shift)
        moments = interval_moments(dist, k)
        assert moments.w_mean == pytest.approx(
            moments.m_mean * moments.y_mean, rel=1e-12
        )


def order_stat_xtilde(dist, k):
    """E[xtilde] by its definition: the mean of the k lowest of k+1 draws."""
    return sum(order_stat_mean(dist, i, k + 1) for i in range(1, k + 1)) / k


class TestXtilde:
    def test_frozen_values(self):
        assert xtilde_mean(EXP1, 1) == pytest.approx(0.5, rel=1e-12)
        assert xtilde_mean(SEXP11, 1) == pytest.approx(1.5, rel=1e-12)
        assert xtilde_mean(EXP1, 2) == pytest.approx(7.0 / 12.0, rel=1e-12)

    @given(**random_law)
    @settings(max_examples=100, deadline=None)
    def test_closed_form_route(self, rate, shift, k):
        # the closed form against the order-statistic sum it replaces
        dist = ServiceDistribution(rate=rate, shift=shift)
        assert xtilde_mean(dist, k) == pytest.approx(order_stat_xtilde(dist, k), rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 1000, 5000])
    def test_closed_form_route_at_fixed_k(self, k):
        for dist in (EXP1, SEXP11, ServiceDistribution(rate=0.3, shift=4.0)):
            assert xtilde_mean(dist, k) == pytest.approx(order_stat_xtilde(dist, k), rel=1e-12)


class TestAgeNonPriority:
    def test_plain_exponential_split(self):
        age = age_nonpriority(EXP1, 1)
        assert age.value == pytest.approx(2.0, rel=1e-12)
        assert age.delta0 == pytest.approx(0.5, rel=1e-12)
        assert age.delta1 == pytest.approx(0.375, rel=1e-12)
        assert age.delta2 == pytest.approx(1.125, rel=1e-12)

    def test_shifted_split(self):
        age = age_nonpriority(SEXP11, 1)
        assert age.value == pytest.approx(4.25, rel=1e-12)
        assert age.delta0 == pytest.approx(1.5, rel=1e-12)
        assert age.delta1 == pytest.approx(0.1875, rel=1e-12)
        assert age.delta2 == pytest.approx(2.5625, rel=1e-12)

    def test_value_is_component_sum(self):
        age = age_nonpriority(ServiceDistribution(rate=0.8, shift=2.0), 7)
        assert age.value == pytest.approx(
            age.delta0 + age.delta1 + age.delta2, abs=1e-12
        )

    def test_matches_exponential_identity_at_k5(self):
        assert age_nonpriority(EXP1, 5).value == pytest.approx(
            age_exponential(1.0, 5), abs=1e-10
        )

    @given(**random_law)
    @settings(max_examples=150, deadline=None)
    def test_renewal_reward_route(self, rate, shift, k):
        # the three-term split must equal E[W^2] / (2 E[W]) + E[xtilde]
        dist = ServiceDistribution(rate=rate, shift=shift)
        split = age_nonpriority(dist, k).value
        moments = interval_moments(dist, k)
        renewal = 0.5 * moments.w2_mean / moments.w_mean + xtilde_mean(dist, k)
        assert split == pytest.approx(renewal, rel=1e-10)

    @given(**random_law)
    @settings(max_examples=100, deadline=None)
    def test_never_below_priority_age(self, rate, shift, k):
        dist = ServiceDistribution(rate=rate, shift=shift)
        assert age_nonpriority(dist, k).value >= age_priority(dist, k) - 1e-9


class TestExponentialIdentity:
    def test_frozen_values(self):
        assert age_exponential(1.0, 1) == pytest.approx(2.0, rel=1e-12)
        assert age_exponential(1.0, 2) == pytest.approx(13.0 / 6.0, rel=1e-12)
        assert age_exponential(1.0, 10) == pytest.approx(2.7290, abs=1e-4)

    def test_both_node_classes_match(self):
        for rate in (0.5, 1.0, 2.0, 5.0):
            dist = ServiceDistribution.exponential(rate)
            for k in range(1, 201):
                base = age_exponential(rate, k)
                assert age_priority(dist, k) == pytest.approx(base, abs=1e-10)
                assert age_nonpriority(dist, k).value == pytest.approx(base, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="rate"):
            age_exponential(-1.0, 1)
        with pytest.raises(ValueError, match="k"):
            age_exponential(1.0, 0)

    def test_k_bounded_by_the_harmonic_tables(self):
        # age_nonpriority looks up H(k+1), the last entry the tables hold at MAX_K
        too_big = MAX_K + 1
        for form in (
            lambda: age_priority(EXP1, too_big),
            lambda: age_priority_shifted_exp(1.0, 1.0, too_big),
            lambda: age_exponential(1.0, too_big),
            lambda: age_nonpriority(EXP1, too_big),
            lambda: interval_moments(EXP1, too_big),
            lambda: xtilde_mean(EXP1, too_big),
        ):
            with pytest.raises(ValueError, match=f"k must be at most {MAX_K}"):
                form()
        # at MAX_K itself every form runs and keeps its identities
        exp_age = age_exponential(1.0, MAX_K)
        assert age_priority(EXP1, MAX_K) == pytest.approx(exp_age, abs=1e-10)
        assert age_nonpriority(EXP1, MAX_K).value == pytest.approx(exp_age, abs=1e-10)
        assert age_priority_shifted_exp(1.0, 1.0, MAX_K) > 0
        gap = age_nonpriority(SEXP11, MAX_K).value - age_priority(SEXP11, MAX_K)
        assert gap == pytest.approx(1.0 / MAX_K, abs=1e-10)
        moments = interval_moments(SEXP11, MAX_K)
        assert moments.ys_mean == 1.0 + harmonic(MAX_K + 1)


class TestHarmonicSeriesIdentity:
    def test_partial_sums(self):
        running = 0.0
        for k in range(1, 10_001):
            running += harmonic(k)
            target = (k + 1) * (harmonic(k + 1) - 1.0)
            assert abs(running - target) <= 1e-9 * target

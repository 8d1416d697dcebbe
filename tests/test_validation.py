"""Self-check machinery and a reduced-size full sweep of the checks."""

import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from agecast import validation
from agecast.cli import main
from agecast.order_stats import ServiceDistribution, order_stat_mean, order_stat_var
from agecast.simulator import MAX_SEED, InsufficientDataError
from agecast.validation import (
    _SAMPLE_BLOCK,
    CHECK_NAMES,
    CheckResult,
    ValidationSettings,
    _pooled_z,
    check_order_stat_monte_carlo,
    check_simulation_moments,
    run_checks,
)

FAST_SETTINGS = ValidationSettings(
    seed=1729, num_intervals=10_000, replications=4, tolerance=0.05
)


class TestMachinery:
    def test_known_names(self):
        assert len(CHECK_NAMES) == 14
        assert "age_regression" in CHECK_NAMES
        assert "simulation_determinism" in CHECK_NAMES
        assert all("check_" not in name for name in CHECK_NAMES)

    def test_names_in_validate_order(self):
        assert CHECK_NAMES == (
            "exponential_age_identity", "priority_bound_dominance",
            "shifted_exp_reduction", "formula_path_equivalence",
            "conditional_interval_mixture", "harmonic_series_identity",
            "order_stat_monotonicity", "order_stat_monte_carlo",
            "simulation_moments", "cycle_bookkeeping", "estimator_agreement",
            "age_regression", "csv_round_trip", "simulation_determinism",
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_checks(FAST_SETTINGS, ("age_regression", "bogus"))

    def test_subset_preserves_declaration_order(self):
        names = ("order_stat_monotonicity", "harmonic_series_identity")
        results = run_checks(FAST_SETTINGS, names)
        assert [r.name for r in results] == [
            "harmonic_series_identity",
            "order_stat_monotonicity",
        ]

    def test_largest_seed_runs_estimator_agreement(self):
        # the check derives its seeds by offsetting the master seed
        settings = ValidationSettings(seed=MAX_SEED, num_intervals=2000, replications=2)
        (result,) = run_checks(settings, ("estimator_agreement",))
        assert result.name == "estimator_agreement"
        assert result.passed, result.detail

    def test_results_are_records(self):
        results = run_checks(FAST_SETTINGS, ("shifted_exp_reduction",))
        assert all(isinstance(r, CheckResult) for r in results)
        assert all(r.detail for r in results)


class TestPooledZ:
    def test_too_few_samples_refused(self):
        for values in ([], [1.0]):
            with pytest.raises(InsufficientDataError, match="2 samples of w2, got"):
                _pooled_z(np.array(values), 1.0, "w2")

    def test_zero_spread_needs_no_division(self):
        assert _pooled_z(np.ones(2), 0.5, "q") == math.inf
        assert _pooled_z(np.ones(2), 1.0, "q") == 0.0


def set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestCheckThreads:
    def test_results_do_not_depend_on_the_cpu_count(self, monkeypatch, capsys):
        argv = ["validate", "--intervals", "10000", "--replications", "4", "--tolerance", "0.05"]
        runs = []
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            results = run_checks(FAST_SETTINGS)
            code = main(argv)
            runs.append((results, code, capsys.readouterr().out))
        assert runs[0] == runs[1]
        assert [r.name for r in runs[0][0]] == list(CHECK_NAMES)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_failing_check_cancels_the_queued_ones(self, monkeypatch, cpus):
        set_cpus(monkeypatch, cpus)
        first = InsufficientDataError("first in check order")
        sooner = InsufficientDataError("raised sooner, later in check order")
        calls = []

        def check(index):
            def run(settings):
                calls.append(index)
                # long enough for the caller to cancel what is still queued
                time.sleep(0.2)
                if index == 0:
                    raise first
                return True, "ran"

            return run

        def fails_at_once(settings):
            calls.append(1)
            raise sooner

        checks = [check(i) for i in range(len(CHECK_NAMES))]
        checks[1] = fails_at_once
        monkeypatch.setattr(validation, "_CHECKS", tuple(checks))
        before = threading.active_count()
        with pytest.raises(InsufficientDataError) as caught:
            run_checks(FAST_SETTINGS)
        assert caught.value is first
        assert len(calls) < len(CHECK_NAMES)
        # the pool's threads are joined before the error reaches the caller
        assert threading.active_count() == before

    def test_simulation_moments_holds_at_most_ten_arrays(self):
        settings = ValidationSettings(num_intervals=20_000, replications=2)
        # imports made on the first call stay out of the traced peak
        check_simulation_moments(settings)
        tracemalloc.start()
        try:
            check_simulation_moments(settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 7.6 length-(N R) float64 arrays; a whole ledger and its
        # moment samples alive at once took 13.3
        assert peak <= 10 * 8 * settings.num_intervals * settings.replications

    def test_simulation_moments_memory_does_not_grow_with_the_run(self):
        # imports made on the first call stay out of the traced peaks
        check_simulation_moments(ValidationSettings(num_intervals=2000, replications=2))
        peaks = []
        # N R = 2e5, then 2e6
        for num_intervals in (25_000, 250_000):
            tracemalloc.start()
            try:
                check_simulation_moments(ValidationSettings(num_intervals=num_intervals))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # less than one block of the eight float64 samples
        assert peaks[1] - peaks[0] < 8 * 8 * _SAMPLE_BLOCK


def whole_matrix_order_stat_monte_carlo(settings):
    """The order-stat Monte Carlo check as one (draws, n) matrix per law: the oracle."""
    rng = np.random.default_rng(settings.seed + 1)
    draws = max(settings.num_intervals, 10_000)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        rate = float(rng.uniform(0.3, 4.0))
        shift = float(rng.uniform(0.0, 3.0))
        dist = ServiceDistribution(rate=rate, shift=shift)
        samples = dist.sample(rng, (draws, n))
        samples.partition(k - 1, axis=1)
        col = samples[:, k - 1]
        mean_se = col.std(ddof=1) / math.sqrt(draws)
        worst = max(worst, abs(col.mean() - order_stat_mean(dist, k, n)) / mean_se)
        centered = (col - col.mean()) ** 2
        var_se = centered.std(ddof=1) / math.sqrt(draws)
        worst = max(worst, abs(col.var(ddof=1) - order_stat_var(dist, k, n)) / var_se)
    return (
        worst < 4.0,
        f"worst moment deviation {worst:.2f} se over 20 laws, {draws} draws each",
    )


@pytest.mark.parametrize("seed", [1729, 5, 7])
def test_order_stat_monte_carlo_equals_the_whole_matrix(seed):
    # several blocks and a short last one
    settings = ValidationSettings(seed=seed, num_intervals=3 * _SAMPLE_BLOCK + 17)
    assert check_order_stat_monte_carlo(settings) == whole_matrix_order_stat_monte_carlo(
        settings
    )


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in run_checks(FAST_SETTINGS)}


class TestAllChecksReduced:
    def test_everything_ran(self, results):
        assert set(results) == set(CHECK_NAMES)

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_check_passes(self, results, name):
        result = results[name]
        assert result.passed, f"{name}: {result.detail}"

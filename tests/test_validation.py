"""Self-check machinery and a reduced-size full sweep of the checks."""

import pytest

from agecast.simulator import MAX_SEED
from agecast.validation import CHECK_NAMES, CheckResult, ValidationSettings, run_checks

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

"""Self-check machinery and a reduced-size full sweep of the checks."""

import math
import os
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from agecast import simulator, validation
from agecast.cli import main
from agecast.order_stats import ServiceDistribution, order_stat_mean, order_stat_var
from agecast.simulator import (
    MAX_SEED,
    InsufficientDataError,
    SimConfig,
    _cycles,
    _map_replications,
    simulate_ledger,
)
from agecast.validation import (
    _SAMPLE_BLOCK,
    CHECK_NAMES,
    CheckResult,
    ValidationSettings,
    _bookkeeping,
    _pooled_z,
    _RunningMoments,
    check_cycle_bookkeeping,
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
                _pooled_z(moments_of(values), 1.0, "w2")

    def test_zero_spread_needs_no_division(self):
        assert _pooled_z(moments_of(np.ones(2)), 0.5, "q") == math.inf
        assert _pooled_z(moments_of(np.ones(2)), 1.0, "q") == 0.0


def moments_of(values):
    sample = _RunningMoments()
    sample.add(values)
    return sample


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

    def test_cycle_bookkeeping_memory_does_not_grow_with_the_run(self):
        # imports made on the first call stay out of the traced peaks
        check_cycle_bookkeeping(ValidationSettings(num_intervals=2000))
        peaks = []
        for num_intervals in (200_000, 2_000_000):
            tracemalloc.start()
            try:
                check_cycle_bookkeeping(ValidationSettings(num_intervals=num_intervals))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # less than one block of eight float64 arrays; the whole ledger and
        # its cycles grew by about 65 bytes per interval
        assert peaks[1] - peaks[0] < 8 * 8 * _SAMPLE_BLOCK


class TestOnePool:
    """The checks and the replications they simulate share one pool."""

    def test_no_more_threads_than_cpus(self, monkeypatch):
        set_cpus(monkeypatch, 1)
        serial = run_checks(FAST_SETTINGS)
        set_cpus(monkeypatch, 16)
        most = 0
        done = threading.Event()

        def sample():
            nonlocal most
            while not done.is_set():
                most = max(most, threading.active_count())
                time.sleep(0.0005)

        sampler = threading.Thread(target=sample)
        before = threading.active_count()
        sampler.start()
        started = []
        start = threading.Thread.start

        def counted_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        try:
            results = run_checks(FAST_SETTINGS)
        finally:
            done.set()
            sampler.join()
        # besides the caller (and any thread already running) and the
        # sampler; nested pools ran up to 21 at once
        assert most - before - 1 <= 16
        # and started dozens, a pool per simulating call
        assert len(started) <= 16
        assert results == serial

    def test_idle_threads_run_a_checks_replications(self, monkeypatch):
        set_cpus(monkeypatch, 16)
        threads = set()
        sweep = simulator.generate_interval_sweep

        def recorded(*args, **kwargs):
            threads.add(threading.get_ident())
            return sweep(*args, **kwargs)

        def slow(settings):
            time.sleep(0.3)
            return True, "slept"

        monkeypatch.setattr(simulator, "generate_interval_sweep", recorded)
        monkeypatch.setattr(validation, "_CHECKS", (validation.check_age_regression, slow))
        age_regression, _ = run_checks(FAST_SETTINGS)
        assert age_regression.passed, age_regression.detail
        # running them all in the check's own thread would use one
        assert len(threads) >= 2

    def test_at_most_one_workspace_per_cpu(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        lock = threading.Lock()
        alive = most = 0

        def dropped():
            nonlocal alive
            with lock:
                alive -= 1

        class Counted(simulator._Workspace):
            def __init__(self, size):
                nonlocal alive, most
                super().__init__(size)
                with lock:
                    alive += 1
                    most = max(most, alive)
                weakref.finalize(self, dropped)

        monkeypatch.setattr(simulator, "_Workspace", Counted)
        # the checks that replicate, so that two of them run at once
        replicating = (
            "estimator_agreement", "age_regression", "csv_round_trip", "simulation_determinism",
        )
        results = run_checks(ValidationSettings(num_intervals=20_000), replicating)
        assert all(result.passed for result in results)
        # a pool per check thread held four
        assert 1 <= most <= 2
        assert alive == 0

    def test_a_run_drops_its_workspaces_when_it_returns(self, monkeypatch):
        # more CPUs than replications: idle pool threads pick up the
        # replications of one run after another, and each thread keeping
        # the workspace of the last run it served held up to one per thread
        set_cpus(monkeypatch, 16)
        lock = threading.Lock()
        alive = most = 0

        def dropped():
            nonlocal alive
            with lock:
                alive -= 1

        class Counted(simulator._Workspace):
            def __init__(self, size):
                nonlocal alive, most
                super().__init__(size)
                with lock:
                    alive += 1
                    most = max(most, alive)
                weakref.finalize(self, dropped)

        monkeypatch.setattr(simulator, "_Workspace", Counted)
        config = SimConfig(
            ServiceDistribution(1.0), k=1, num_intervals=20_000, seed=1, replications=2
        )

        def runs(item):
            if item == 0:  # the others return at once and leave their threads idle
                for _ in range(20):
                    _map_replications(config, (1,), lambda *columns: time.sleep(0.002))

        simulator._ordered_map(runs, range(8))
        # what _run_bytes budgets for one run: min(CPUs, replications)
        assert 1 <= most <= 2
        assert alive == 0

    @pytest.mark.parametrize("cpus", [2, 16])
    def test_a_failing_replication_inside_a_check(self, monkeypatch, cpus):
        config = SimConfig(ServiceDistribution(1.0), k=1, num_intervals=100, seed=1, replications=6)
        sooner = InsufficientDataError("raised sooner, later in check order")
        calls = []
        lock = threading.Lock()

        def estimate(y, *columns):
            with lock:
                calls.append(None)
                first = len(calls) == 1
            # the first replication to start raises last
            time.sleep(0.2 if first else 0.01)
            raise InsufficientDataError(f"replication with y[0] = {y[0]!r}")

        def replicating(settings):
            _map_replications(config, (1,), estimate)

        def fails_at_once(settings):
            raise sooner

        set_cpus(monkeypatch, 1)
        with pytest.raises(InsufficientDataError) as serial:
            _map_replications(config, (1,), estimate)
        monkeypatch.setattr(validation, "_CHECKS", (replicating, fails_at_once))
        set_cpus(monkeypatch, cpus)
        calls.clear()
        before = threading.active_count()
        with pytest.raises(InsufficientDataError) as caught:
            run_checks(FAST_SETTINGS)
        # the first replication's, in replication order, of the first check
        assert str(caught.value) == str(serial.value)
        assert threading.active_count() == before


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


BOOKKEEPING = ("cycles", "counted", "expect", "w_sum", "y_sum", "corr")


def whole_run_bookkeeping(seed, num_intervals):
    """What _bookkeeping returns, from one whole ledger: the oracle."""
    rng = np.random.default_rng(seed)
    ledger = simulate_ledger(ServiceDistribution(rate=1.0, shift=0.5), 2, num_intervals, rng)
    d = np.flatnonzero(ledger.delivered)
    w, _ = _cycles(ledger.y, ledger.x_nonp, d)
    m = np.diff(d)
    return (
        m.size,
        int(m.sum()) + num_intervals - 1 - d[-1],
        num_intervals - 1 - d[0],
        w.sum(),
        ledger.y.sum(),
        float(np.corrcoef(m, ledger.y[d[1:]])[0, 1]),
    )


@pytest.mark.parametrize(
    "num_intervals", [_SAMPLE_BLOCK - 1, _SAMPLE_BLOCK + 1, 3 * _SAMPLE_BLOCK + 17]
)
@pytest.mark.parametrize("seed", [1729, 5])
def test_streamed_cycle_bookkeeping_equals_the_whole_run(seed, num_intervals):
    settings = ValidationSettings(seed=seed, num_intervals=num_intervals)
    streamed = dict(zip(BOOKKEEPING, _bookkeeping(settings), strict=True))
    oracle = dict(zip(BOOKKEEPING, whole_run_bookkeeping(seed + 17, num_intervals)))
    for name in ("cycles", "counted", "expect"):
        assert streamed[name] == oracle[name], name
    assert streamed["counted"] == streamed["expect"]
    assert (streamed["w_sum"] <= streamed["y_sum"]) == (oracle["w_sum"] <= oracle["y_sum"])
    # block sums added in turn, against numpy's pairwise sums of the whole
    for name in ("w_sum", "y_sum"):
        assert streamed[name] == pytest.approx(oracle[name], rel=1e-12), name
    assert streamed["corr"] == pytest.approx(oracle["corr"], rel=0, abs=1e-12)


class TestRunningMoments:
    def test_one_block_gives_the_two_pass_values(self):
        rng = np.random.default_rng(4)
        x, y = rng.random(1001), rng.integers(0, 9, 1001)
        alone, paired = _RunningMoments(), _RunningMoments()
        alone.add(x)
        paired.add(x, y)
        dx, dy = x - x.mean(), y - y.mean()
        assert (alone.count, alone.mean, alone.m2) == (1001, x.mean(), (dx * dx).sum())
        assert (paired.count, paired.mean, paired.other_mean) == (1001, x.mean(), y.mean())
        assert paired.m2 == (dx * dy).sum()

    def test_blocks_merge_to_the_whole_co_moment(self):
        rng = np.random.default_rng(5)
        x = rng.random(5000)
        y = 3.0 * x + rng.random(5000) + 1e6
        merged = _RunningMoments()
        for a, b in zip([0, 1, 7, 2048, 4999], [1, 7, 2048, 4999, 5000]):
            merged.add(x[a:b], y[a:b])
        whole = ((x - x.mean()) * (y - y.mean())).sum()
        assert merged.count == 5000
        assert merged.mean == pytest.approx(x.mean(), rel=1e-14)
        assert merged.other_mean == pytest.approx(y.mean(), rel=1e-14)
        assert merged.m2 == pytest.approx(whole, rel=1e-12)


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

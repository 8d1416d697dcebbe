"""Self-check machinery and a reduced-size full sweep of the checks."""

import math
import multiprocessing
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
    _ROWS,
    MAX_SEED,
    InsufficientDataError,
    SimConfig,
    _map_replications,
    run_age_sweep,
    simulate_ledger,
)
from agecast.theory import age_nonpriority, age_priority
from agecast.validation import (
    CHECK_NAMES,
    CheckResult,
    ValidationSettings,
    _bookkeeping,
    _co_moment,
    _deviation_sums,
    _kth_smallest,
    _pooled_z,
    check_age_regression,
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

    @pytest.mark.parametrize("check", validation._CHECKS, ids=CHECK_NAMES)
    def test_a_check_returns_a_python_bool_and_str(self, check):
        # as the module says, and before run_checks makes a record of them
        passed, detail = check(ValidationSettings(num_intervals=2000, replications=2))
        assert type(passed) is bool
        assert type(detail) is str


class TestPooledZ:
    def test_too_few_samples_refused(self):
        for values in ([], [1.0]):
            with pytest.raises(InsufficientDataError, match="2 samples of w2, got"):
                _pooled_z(_deviation_sums(values, 1.0), "w2")

    def test_zero_spread_needs_no_division(self):
        assert _pooled_z(_deviation_sums(np.ones(2), 0.5), "q") == math.inf
        assert _pooled_z(_deviation_sums(np.ones(2), 1.0), "q") == 0.0


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
        # the calls of every worker process
        calls = multiprocessing.Value("i", 0)

        def called():
            with calls.get_lock():
                calls.value += 1

        def check(index):
            def run(settings):
                called()
                # long enough for the caller to cancel what is still queued
                time.sleep(0.2)
                if index == 0:
                    raise InsufficientDataError("first in check order")
                return True, "ran"

            return run

        def fails_at_once(settings):
            called()
            raise InsufficientDataError("raised sooner, later in check order")

        checks = [check(i) for i in range(len(CHECK_NAMES))]
        checks[1] = fails_at_once
        monkeypatch.setattr(validation, "_CHECKS", tuple(checks))
        before = threading.active_count()
        with pytest.raises(InsufficientDataError) as caught:
            run_checks(FAST_SETTINGS)
        # a copy of the worker's exception, pickled back
        assert type(caught.value) is InsufficientDataError
        assert str(caught.value) == "first in check order"
        assert calls.value < len(CHECK_NAMES)
        # the pool's workers and threads are joined before the error reaches the caller
        assert multiprocessing.active_children() == []
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
        # measured 6.2 length-(N R) float64 arrays, and 7.1 while each block's
        # cycles were new arrays; a whole ledger and its moment samples alive
        # at once took 13.3
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
        assert peaks[1] - peaks[0] < 8 * 8 * _ROWS

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
        assert peaks[1] - peaks[0] < 8 * 8 * _ROWS


    def test_order_stat_monte_carlo_memory_does_not_grow_with_the_draws(self):
        # imports made on the first call stay out of the traced peaks
        check_order_stat_monte_carlo(ValidationSettings(num_intervals=2000))
        peaks = []
        for blocks in (4, 40):
            tracemalloc.start()
            try:
                check_order_stat_monte_carlo(
                    ValidationSettings(num_intervals=blocks * _ROWS)
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # less than one block of the widest matrix, eight float64 columns (the
        # laws drawn differ with the size); a column of all the draws and its
        # temporaries grew by 9.2 MB
        assert peaks[1] - peaks[0] < 8 * 8 * _ROWS

def record_started_workers(monkeypatch, log):
    """Append ``pid parent-pid`` to ``log`` from each pool worker that starts."""
    start = simulator._start_worker

    def recorded(*args):
        append_line(log, f"{os.getpid()} {os.getppid()}")
        start(*args)

    monkeypatch.setattr(simulator, "_start_worker", recorded)


def append_line(path, line: str) -> None:
    # one short appended write, whichever process makes it
    with open(path, "a") as handle:
        handle.write(line + "\n")


def count_workspaces(monkeypatch):
    """Count, over every process, the workspaces alive and the most alive at once."""
    alive, most = multiprocessing.Value("i", 0), multiprocessing.Value("i", 0)

    def dropped():
        with alive.get_lock():
            alive.value -= 1

    class Counted(simulator._Workspace):
        def __init__(self, size):
            super().__init__(size)
            with alive.get_lock():
                alive.value += 1
                most.value = max(most.value, alive.value)
            weakref.finalize(self, dropped)

    monkeypatch.setattr(simulator, "_Workspace", Counted)
    return alive, most


class TestOnePool:
    """The checks run on one pool, and each check's replications in its worker."""

    def test_no_more_threads_than_cpus(self, monkeypatch, tmp_path):
        # no more worker processes than CPUs, all forked by this process
        set_cpus(monkeypatch, 1)
        serial = run_checks(FAST_SETTINGS)
        set_cpus(monkeypatch, 4)
        log = tmp_path / "workers.txt"
        record_started_workers(monkeypatch, log)
        started = []
        start = threading.Thread.start

        def counted_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        results = run_checks(FAST_SETTINGS)
        workers = [line.split() for line in log.read_text().splitlines()]
        # the check workers, which run their replications themselves (a
        # pool per simulating call would fork more, from the workers)
        assert 2 <= len(workers) <= 4
        assert {parent for _, parent in workers} == {str(os.getpid())}
        # the pool's three handler threads, and no thread per check
        assert len(started) <= 3
        assert results == serial
        assert multiprocessing.active_children() == []

    def test_a_check_runs_its_replications_in_its_own_thread(self, monkeypatch, tmp_path):
        # in its own worker process, which forks no pool of its own
        set_cpus(monkeypatch, 16)
        log = tmp_path / "calls.txt"
        record_started_workers(monkeypatch, log)
        sweep = simulator.generate_interval_sweep

        def recorded(*args, **kwargs):
            append_line(log, f"sweep {os.getpid()}")
            return sweep(*args, **kwargs)

        def age_regression(settings):
            append_line(log, f"check {os.getpid()}")
            return validation.check_age_regression(settings)

        def at_once(settings):
            # leaves its worker idle while age_regression runs
            return True, "returned"

        monkeypatch.setattr(simulator, "generate_interval_sweep", recorded)
        monkeypatch.setattr(validation, "_CHECKS", (age_regression, at_once))
        result, _ = run_checks(FAST_SETTINGS)
        assert result.passed, result.detail
        lines = [line.split() for line in log.read_text().splitlines()]
        checks = [pid for what, pid in lines if what == "check"]
        sweeps = [pid for what, pid in lines if what == "sweep"]
        parents = [parent for what, parent in lines if what not in ("check", "sweep")]
        # in a pool worker, and every one of its runs with it
        assert checks and checks[0] != str(os.getpid())
        assert sweeps and set(sweeps) == set(checks)
        # two checks fork two workers, and the check forked none
        assert parents == [str(os.getpid())] * 2

    def test_at_most_one_workspace_per_cpu(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        alive, most = count_workspaces(monkeypatch)
        # the checks that replicate, so that two of them run at once
        replicating = (
            "estimator_agreement", "age_regression", "csv_round_trip", "simulation_determinism",
        )
        results = run_checks(ValidationSettings(num_intervals=20_000), replicating)
        assert all(result.passed for result in results)
        # a pool per check would hold two per check worker
        assert 1 <= most.value <= 2
        assert alive.value == 0

    def test_a_run_drops_its_workspaces_when_it_returns(self, monkeypatch):
        # more CPUs than replications, and runs made in a pool worker, which
        # run their replications in that worker: a worker that kept the
        # workspace of the last run it ran would hold one after the runs
        # return
        set_cpus(monkeypatch, 16)
        alive, most = count_workspaces(monkeypatch)
        config = SimConfig(
            ServiceDistribution(1.0), k=1, num_intervals=20_000, seed=1, replications=2
        )

        def runs(item):
            if item == 0:  # the others return at once and leave their workers idle
                for _ in range(20):
                    _map_replications(config, (1,), lambda *columns: time.sleep(0.002))

        simulator._ordered_map(runs, range(3))
        # each run holds one workspace, in the worker that made it
        assert most.value == 1
        assert alive.value == 0

    @pytest.mark.parametrize("cpus", [2, 16])
    def test_a_failing_replication_inside_a_check(self, monkeypatch, cpus):
        config = SimConfig(ServiceDistribution(1.0), k=1, num_intervals=100, seed=1, replications=6)
        sooner = InsufficientDataError("raised sooner, later in check order")
        # the calls of every worker process
        calls = multiprocessing.Value("i", 0)

        def estimate(y, *columns):
            with calls.get_lock():
                calls.value += 1
                first = calls.value == 1
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
        calls.value = 0
        before = threading.active_count()
        with pytest.raises(InsufficientDataError) as caught:
            run_checks(FAST_SETTINGS)
        # the first replication's, in replication order, of the first check
        assert str(caught.value) == str(serial.value)
        assert multiprocessing.active_children() == []
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
    settings = ValidationSettings(seed=seed, num_intervals=3 * _ROWS + 17)
    assert check_order_stat_monte_carlo(settings) == whole_matrix_order_stat_monte_carlo(
        settings
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_kth_smallest_selects_what_partition_does(n):
    rng = np.random.default_rng(n)
    columns, spare = np.full((8, 64), np.nan), np.full(64, np.nan)
    # few distinct values, so most rows hold ties; then distinct uniforms
    for block in (rng.integers(0, 3, (64, n)).astype(float), rng.random((37, n))):
        for k in range(1, n + 1):
            expected = np.partition(block, k - 1, axis=1)[:, k - 1]
            got = _kth_smallest(block, k, columns, spare)
            assert got.tobytes() == expected.tobytes()


def separate_runs_age_regression(settings):
    """The age regression check with each of its three cases as its own run: the oracle."""
    worst = 0.0
    label = ""
    cases = (
        (ServiceDistribution.exponential(1.0), 1),
        (ServiceDistribution.exponential(1.0), 2),
        (ServiceDistribution(rate=1.0, shift=1.0), 1),
    )
    for dist, k in cases:
        config = SimConfig(
            dist=dist,
            k=k,
            num_intervals=settings.num_intervals,
            seed=settings.seed,
            replications=settings.replications,
        )
        (sim,) = run_age_sweep((config,))
        for hat, target, tag in (
            (sim.age_priority_hat, age_priority(dist, k), "priority"),
            (sim.age_nonpriority_hat, age_nonpriority(dist, k).value, "non-priority"),
        ):
            rel = abs(hat - target) / target
            if rel > worst:
                worst = rel
                label = f"{tag} {dist.kind} k={k}"
    return (
        worst <= settings.tolerance,
        f"max relative error {worst:.5f} vs tolerance {settings.tolerance} ({label})",
    )


@pytest.mark.parametrize("seed", [1729, 5, 7])
def test_age_regression_equals_separate_runs(seed):
    settings = ValidationSettings(seed=seed, num_intervals=10_000, replications=4)
    assert check_age_regression(settings) == separate_runs_age_regression(settings)

BOOKKEEPING = ("cycles", "counted", "expect", "w_sum", "y_sum", "corr")


def whole_run_bookkeeping(seed, num_intervals):
    """What _bookkeeping returns, from one whole ledger: the oracle."""
    rng = np.random.default_rng(seed)
    ledger = simulate_ledger(ServiceDistribution(rate=1.0, shift=0.5), 2, num_intervals, rng)
    d = np.flatnonzero(ledger.delivered)
    # the cycles' spans and lengths by their definition
    w = np.diff(np.cumsum(ledger.y)[d])
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
    "num_intervals", [_ROWS - 1, _ROWS + 1, 3 * _ROWS + 17]
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


class TestDeviationSums:
    def test_one_block_gives_the_two_pass_values(self):
        rng = np.random.default_rng(4)
        x, y = rng.random(1001), rng.integers(0, 9, 1001)
        dx, dy = x - x.mean(), y - y.mean()
        count, x_sum, x2_sum = _deviation_sums(x, 0.5)
        assert count == 1001
        assert 0.5 + x_sum / count == pytest.approx(x.mean(), rel=1e-14)
        assert _co_moment(count, x_sum, x_sum, x2_sum) == pytest.approx(
            (dx * dx).sum(), rel=1e-12
        )
        _, y_sum, _ = _deviation_sums(y, 4.0)
        xy_sum = ((x - 0.5) * (y - 4.0)).sum()
        assert _co_moment(count, x_sum, y_sum, xy_sum) == pytest.approx(
            (dx * dy).sum(), rel=1e-12
        )

    def test_blocks_add_up_to_the_whole_co_moment(self):
        # y far from zero, each sample centred near its mean, as on a closed form
        rng = np.random.default_rng(5)
        x = rng.random(5000)
        y = 3.0 * x + rng.random(5000) + 1e6
        x_target, y_target = 0.5, 1e6 + 2.0
        sums = np.zeros(6)
        for a, b in zip([0, 1, 7, 2048, 4999], [1, 7, 2048, 4999, 5000]):
            xy_sum = ((x[a:b] - x_target) * (y[a:b] - y_target)).sum()
            sums += (
                *_deviation_sums(x[a:b], x_target)[1:],
                *_deviation_sums(y[a:b], y_target)[1:],
                xy_sum,
                b - a,
            )
        x_sum, x2_sum, y_sum, y2_sum, xy_sum, count = sums
        assert count == 5000
        assert x_target + x_sum / count == pytest.approx(x.mean(), rel=1e-14)
        assert y_target + y_sum / count == pytest.approx(y.mean(), rel=1e-14)
        dx, dy = x - x.mean(), y - y.mean()
        assert _co_moment(count, x_sum, x_sum, x2_sum) == pytest.approx((dx * dx).sum(), rel=1e-12)
        assert _co_moment(count, y_sum, y_sum, y2_sum) == pytest.approx((dy * dy).sum(), rel=1e-12)
        assert _co_moment(count, x_sum, y_sum, xy_sum) == pytest.approx((dx * dy).sum(), rel=1e-12)


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

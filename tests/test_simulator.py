"""Simulator bookkeeping, estimators and cross-check integration."""

import csv
import dataclasses
import faulthandler
import gc
import math
import multiprocessing
import os
import threading
import time
import tracemalloc
from itertools import chain

import numpy as np
import pytest

try:
    import resource
except ImportError:  # no resource module on this platform
    resource = None

from agecast import simulator
from agecast._shortest import _BLOCK_ROWS
from agecast.order_stats import ServiceDistribution
from agecast.simulator import (
    CROSS_CHECK_MAX_INTERVALS,
    AgeEstimates,
    CycleLedger,
    InsufficientDataError,
    LedgerSpec,
    SimConfig,
    SimResult,
    accumulate_nonpriority,
    accumulate_priority,
    generate_interval_sweep,
    generate_intervals,
    run_age_sweep,
    run_k_sweep,
    run_simulation,
    sample_path_cross_check,
    simulate_ledger,
    write_ledger_csv,
)
from agecast.simulator import (
    _POOL_MIN_ROWS,
    _ROWS,
    _RUN_START,
    _Workspace,
    _cycles,
    _integrate_age,
    _ledger_rows,
    _map_replications,
    _mean_se,
    _ordered_map,
    _pool_size,
    _replication_ages,
    _replication_estimates,
    _run_bytes,
)
from agecast.theory import (
    RenewalCycleMoments,
    age_exponential,
    age_nonpriority,
    age_priority,
    interval_moments,
)
from agecast.validation import _run_moments

EXP1 = ServiceDistribution.exponential(1.0)


def whole_run_cycles(y, x_nonp, d):
    """The spans w and openers xtilde of a whole run's cycles, by their definition: the oracle."""
    return np.diff(np.cumsum(y)[d]), x_nonp[d[:-1]]


def moment_samples(ledger):
    """Whole-run arrays whose means estimate the cycle moments: the oracle.

    Keyed by the RenewalCycleMoments field each one estimates, in
    SimResult's order, with the cycles of :func:`whole_run_cycles`.
    """
    d = np.flatnonzero(ledger.delivered)
    w, xtilde = whole_run_cycles(ledger.y, ledger.x_nonp, d)
    miss = ~ledger.delivered
    return {
        "y_mean": ledger.y,
        "w_mean": w,
        "w2_mean": w * w,
        "xtilde_mean": xtilde,
        "m_mean": np.diff(d),
        "q": miss,
        "yf_mean": ledger.y[miss],
        "ys_mean": ledger.y[d],
    }


def constant_ledger(num_intervals=5, y=1.0, x1=1.0, x_nonp=0.5):
    """All-delivered ledger with constant draws, ages computable by hand."""
    ones = np.ones(num_intervals)
    return CycleLedger.from_intervals(
        y * ones, x1 * ones, x_nonp * ones, np.ones(num_intervals, dtype=bool)
    )


class TestCycleLedger:
    def test_hand_worked_cycles(self):
        y = np.arange(1.0, 8.0)
        x_nonp = np.arange(10.0, 17.0)
        delivered = np.array([False, True, False, False, True, True, False])
        d = np.flatnonzero(delivered)
        w, xtilde, _ = _cycles(y, x_nonp, d, _Workspace(7))
        # deliveries at intervals 1, 4, 5 give cycles (1,4] and (4,5]
        np.testing.assert_array_equal(np.diff(d), [3, 1])
        np.testing.assert_allclose(w, [12.0, 6.0])
        np.testing.assert_allclose(xtilde, [x_nonp[1], x_nonp[4]])
        ledger = CycleLedger.from_intervals(y, y.copy(), x_nonp, delivered)
        assert ledger.num_intervals == 7
        assert ledger.num_cycles == 2

    def test_holds_only_the_drawn_columns(self):
        assert [f.name for f in dataclasses.fields(CycleLedger)] == [
            "y", "x1", "x_nonp", "delivered"
        ]

    def test_simulate_ledger_holds_about_three_arrays(self):
        num_intervals = 200_000
        # made before tracing starts: its first seeding imports secrets
        rng = np.random.default_rng(11)
        tracemalloc.start()
        try:
            ledger = simulate_ledger(EXP1, 3, num_intervals, rng)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        array = 8 * num_intervals
        # three float64 columns and a bool one: measured 3.1 arrays retained
        # and 4.2 at the peak; with the cycle columns it was 5.4 and 7.1
        assert retained <= 3.5 * array
        assert peak <= 5 * array
        assert ledger.num_intervals == num_intervals

    def test_fewer_than_two_deliveries_means_no_cycles(self):
        y = np.ones(4)
        for delivered in ([False, True, False, False], [False] * 4):
            delivered = np.array(delivered)
            ledger = CycleLedger.from_intervals(y, y, y, delivered)
            assert ledger.num_cycles == 0
            d = np.flatnonzero(delivered)
            w, xtilde, _ = _cycles(y, y, d, _Workspace(4))
            assert np.diff(d).size == w.size == xtilde.size == 0

    def test_cycle_tiling(self):
        rng = np.random.default_rng(42)
        ledger = simulate_ledger(EXP1, 2, 2000, rng)
        d = np.flatnonzero(ledger.delivered)
        w = _cycles(ledger.y, ledger.x_nonp, d, _Workspace(2000))[0]
        assert np.diff(d).sum() == d[-1] - d[0]
        ends = np.cumsum(ledger.y)
        assert w.sum() == pytest.approx(ends[d[-1]] - ends[d[0]], rel=1e-12)
        assert w.sum() <= ledger.y.sum()

    def test_moment_samples(self):
        y = np.arange(1.0, 8.0)
        delivered = np.array([False, True, False, False, True, True, False])
        ledger = CycleLedger.from_intervals(y, y, y + 10.0, delivered)
        samples = moment_samples(ledger)
        # each key names the theory moment it estimates, in SimResult order
        theory = {field.name for field in dataclasses.fields(RenewalCycleMoments)}
        assert set(samples) <= theory
        hats = [f.name for f in dataclasses.fields(SimResult) if f.name.endswith("_hat")]
        assert hats[2:] == [f"{name}_hat" for name in samples]
        np.testing.assert_array_equal(samples["w2_mean"], [144.0, 36.0])
        np.testing.assert_array_equal(samples["q"], ~delivered)
        np.testing.assert_array_equal(samples["yf_mean"], [1.0, 3.0, 4.0, 7.0])
        np.testing.assert_array_equal(samples["ys_mean"], [2.0, 5.0, 6.0])


class TestAccumulators:
    def test_priority_constant_path(self):
        # each counted interval adds area 1*1 + 1/2 over length 1
        assert accumulate_priority(constant_ledger()) == pytest.approx(1.5)

    def test_nonpriority_constant_path(self):
        # every interval delivers, so each cycle has w=1 and opener 0.5
        assert accumulate_nonpriority(constant_ledger()) == pytest.approx(1.0)

    def test_priority_matches_plain_loop(self):
        rng = np.random.default_rng(7)
        ledger = simulate_ledger(EXP1, 3, 500, rng)
        area = 0.0
        for j in range(1, ledger.num_intervals):
            area += ledger.y[j - 1] * ledger.x1[j] + 0.5 * ledger.y[j] ** 2
        expected = area / ledger.y[1:].sum()
        assert accumulate_priority(ledger) == pytest.approx(expected, rel=1e-12)

    def test_nonpriority_matches_plain_loop(self):
        rng = np.random.default_rng(8)
        ledger = simulate_ledger(EXP1, 3, 500, rng)
        d = np.flatnonzero(ledger.delivered)
        spans, openers = whole_run_cycles(ledger.y, ledger.x_nonp, d)
        area = sum(0.5 * w**2 + xt * w for w, xt in zip(spans, openers))
        expected = area / spans.sum()
        assert accumulate_nonpriority(ledger) == pytest.approx(expected, rel=1e-12)

    def test_priority_needs_two_intervals(self):
        ledger = constant_ledger(num_intervals=1)
        with pytest.raises(InsufficientDataError, match="2 intervals"):
            accumulate_priority(ledger)

    @pytest.mark.parametrize("num_intervals", [0, 1, 2, 4])
    def test_nonpriority_needs_a_cycle(self, num_intervals):
        # at most row 1 delivers, so no cycle closes; an empty ledger has no
        # first end time for the run's start to join
        y = np.ones(num_intervals)
        delivered = np.arange(num_intervals) == 1
        ledger = CycleLedger.from_intervals(y, y, y, delivered)
        with pytest.raises(InsufficientDataError, match="2 deliveries, got"):
            accumulate_nonpriority(ledger)


class TestSimConfig:
    def test_validation(self):
        good = dict(dist=EXP1, k=1, num_intervals=10, seed=1)
        SimConfig(**good)
        with pytest.raises(ValueError, match="k"):
            SimConfig(**{**good, "k": 0})
        with pytest.raises(ValueError, match="num_intervals"):
            SimConfig(**{**good, "num_intervals": 1})
        with pytest.raises(ValueError, match="seed"):
            SimConfig(**{**good, "seed": -1})
        with pytest.raises(ValueError, match="seed"):
            SimConfig(**{**good, "seed": 2**64})
        with pytest.raises(ValueError, match="replications"):
            SimConfig(**{**good, "replications": 0})
        config = SimConfig(
            dist=EXP1,
            k=np.int64(3),
            num_intervals=np.int32(10),
            seed=np.uint64(2**64 - 1),
            replications=np.int64(2),
        )
        for name in ("k", "num_intervals", "seed", "replications"):
            assert type(getattr(config, name)) is int
        assert (config.k, config.seed) == (3, 2**64 - 1)
        for name in ("k", "num_intervals", "seed", "replications"):
            for bad in ("1", None, math.nan, math.inf, 2.0, -1):
                with pytest.raises(ValueError, match=name):
                    SimConfig(**{**good, name: bad})

    def test_refuses_a_law_whose_draws_round_to_the_shift(self):
        # one ulp of the shift would exceed 2**-20 of the mean tail 1/rate
        law = ServiceDistribution(rate=2.0**32, shift=1.5)
        with pytest.raises(ValueError, match=r"rate \* shift must be at most 2\*\*32"):
            SimConfig(dist=law, k=2, num_intervals=10, seed=1)
        SimConfig(dist=ServiceDistribution(rate=2.0**32, shift=1.0), k=2, num_intervals=10, seed=1)
        # the closed forms still take the law
        assert math.isfinite(age_priority(law, 2) + age_nonpriority(law, 2).value)


class TestRunKSweep:
    SEXP = ServiceDistribution(rate=1.0, shift=1.0)

    def configs(self, ks, **overrides):
        base = dict(dist=self.SEXP, num_intervals=3000, seed=31, replications=3)
        return [SimConfig(k=k, **{**base, **overrides}) for k in ks]

    @pytest.mark.parametrize("ks", [range(1, 9), range(3, 7)])
    def test_each_point_equals_its_own_run(self, ks):
        configs = self.configs(ks)
        assert run_k_sweep(configs) == tuple(run_simulation(c) for c in configs)

    def test_refuses_configs_that_differ_beyond_k(self):
        with pytest.raises(ValueError, match="differ only in k"):
            run_k_sweep([*self.configs([1]), *self.configs([2], seed=32)])
        with pytest.raises(ValueError, match="strictly increasing"):
            run_k_sweep(self.configs([3, 2]))
        with pytest.raises(ValueError, match="at least one config"):
            run_k_sweep([])

    @pytest.mark.parametrize("ks", [range(1, 9), range(3, 7)])
    def test_age_sweep_equals_the_k_sweep_ages(self, ks):
        configs = self.configs(ks)
        names = [field.name for field in dataclasses.fields(AgeEstimates)]
        expected = tuple(
            AgeEstimates(**{name: getattr(result, name) for name in names})
            for result in run_k_sweep(configs)
        )
        assert run_age_sweep(configs) == expected
        with pytest.raises(ValueError, match="differ only in k"):
            run_age_sweep([*self.configs([1]), *self.configs([2], seed=32)])


@pytest.mark.parametrize("shift", [0.0, 1.0])
@pytest.mark.parametrize("k", [1, 2, 5, 20])
@pytest.mark.parametrize("seed, num_intervals", [(3, 2_000), (17, 20_011), (2026, 100_000)])
def test_replication_estimates_equal_the_ledger_estimates(shift, k, seed, num_intervals):
    # bit for bit: the sweep reads its estimates off the columns, the
    # oracle takes the means of the whole-run sample arrays
    columns = generate_intervals(
        np.random.default_rng(seed), ServiceDistribution(1.0, shift), num_intervals, k
    )
    ledger = CycleLedger.from_intervals(*columns)
    expected = {
        "age_priority": accumulate_priority(ledger),
        "age_nonpriority": accumulate_nonpriority(ledger),
    }
    expected.update((name, float(values.mean())) for name, values in moment_samples(ledger).items())
    work = _Workspace(num_intervals)
    estimates = _replication_estimates(*columns, work)
    assert list(estimates) == list(expected)
    assert estimates == expected
    ages = {name: expected[name] for name in ("age_priority", "age_nonpriority")}
    # a new workspace, and the one the estimates used
    for work in (_Workspace(num_intervals), work):
        assert _replication_ages(*columns, work) == ages


class TestStreamedCycleMoments:
    """Cycles of row windows with a carry, and the streamed moments, against the oracle."""

    @pytest.mark.parametrize("dist", [EXP1, ServiceDistribution(1.0, 1.0)], ids=["exp", "sexp"])
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize(
        "num_intervals",
        [_ROWS - 1, _ROWS, _ROWS + 1, 3 * _ROWS + 17],
    )
    def test_streamed_moments_equal_the_whole_arrays(self, dist, k, num_intervals):
        seed, skip = 1729, 2 * num_intervals
        rng = np.random.default_rng(seed)
        rng.random(skip)  # the uniforms of the laws before this one
        oracle = moment_samples(CycleLedger(*generate_intervals(rng, dist, num_intervals, k)))
        streamed = _run_moments(seed, skip, dist, k, num_intervals)
        assert list(streamed) == list(oracle)
        targets = interval_moments(dist, k)
        for name, values in oracle.items():
            values = values.astype(np.float64)
            # the sums of the deviations from the closed form
            count, z_sum, z2_sum = streamed[name]
            assert count == values.size, name
            mean = getattr(targets, name) + z_sum / count
            assert mean == pytest.approx(values.mean(), rel=1e-12), name
            std = math.sqrt((z2_sum - z_sum * z_sum / count) / (count - 1))
            assert std == pytest.approx(values.std(ddof=1), rel=1e-12), name

    @staticmethod
    def assert_blocks_give_the_oracle(ledger, bounds):
        # each block's cycles from _cycles with the carry of the blocks
        # before, in one workspace; m from the carried delivery's row
        carry = _RUN_START
        work = _Workspace(max(np.diff(bounds)))
        parts = []
        for a, b in zip(bounds, bounds[1:]):
            d = np.flatnonzero(ledger.delivered[a:b])
            m = np.diff(np.concatenate((carry[1], d)))
            w, xtilde, carry = _cycles(ledger.y[a:b], ledger.x_nonp[a:b], d, work, carry)
            parts.append({"w_mean": w.copy(), "w2_mean": w * w, "xtilde_mean": xtilde.copy(), "m_mean": m})
        oracle = moment_samples(ledger)
        for name in parts[0]:
            joined = np.concatenate([part[name] for part in parts])
            np.testing.assert_array_equal(joined, oracle[name], err_msg=name)
        # the carried end time is the whole run's
        assert carry[0].tolist() == [np.cumsum(ledger.y)[-1]]
        return parts

    def test_a_block_without_deliveries_carries_the_open_cycle(self):
        rng = np.random.default_rng(3)
        y, x_nonp = rng.random(16), rng.random(16)
        # blocks of four: none before the first delivery, one delivery, none
        # while a cycle is open, then two deliveries
        delivered = np.zeros(16, dtype=bool)
        delivered[[5, 13, 14]] = True
        parts = self.assert_blocks_give_the_oracle(
            CycleLedger(y, y, x_nonp, delivered), [0, 4, 8, 12, 16]
        )
        # the cycle opened in block 1 closes in block 3, from the carried
        # opener and end time
        assert [part["w_mean"].size for part in parts] == [0, 0, 0, 2]
        assert parts[3]["w_mean"][0] == np.cumsum(y)[13] - np.cumsum(y)[5]
        assert parts[3]["xtilde_mean"].tolist() == [x_nonp[5], x_nonp[13]]
        assert parts[3]["m_mean"].tolist() == [8, 1]

    @pytest.mark.parametrize("k", [1, 5])
    def test_uneven_blocks_of_a_drawn_run_give_the_whole_arrays(self, k):
        ledger = CycleLedger(*generate_intervals(np.random.default_rng(8), EXP1, 20_011, k))
        self.assert_blocks_give_the_oracle(ledger, [0, 1, 2, 7, 4096, 4097, 15_000, 20_011])


def estimates_or_error(columns, work, estimate):
    try:
        return estimate(*columns, work)
    except InsufficientDataError as exc:
        return str(exc)


class TestWorkspace:
    """The reused buffers give the estimates of new arrays, bit for bit."""

    SEXP = ServiceDistribution(rate=1.0, shift=1.0)

    def test_stale_tails_are_never_read(self):
        num_intervals = 20_011
        work = _Workspace(num_intervals)
        deliveries = []
        # delivery counts fall from k = 20 to k = 1, then rise again
        for seed, k in [(1, 20), (2, 1), (3, 20), (4, 2), (5, 1)]:
            columns = generate_intervals(
                np.random.default_rng(seed), self.SEXP, num_intervals, k
            )
            deliveries.append(int(columns[3].sum()))
            fresh = _Workspace(num_intervals)
            assert _replication_estimates(*columns, work) == (
                _replication_estimates(*columns, fresh)
            )
            # a slice read past what this point wrote would now read NaN
            for name in ("spans", "y"):
                work(name).fill(np.nan)
        assert deliveries[1] < min(deliveries[0], deliveries[2])
        assert deliveries[4] < deliveries[3] < deliveries[2]

    @pytest.mark.parametrize(
        "num_intervals",
        [2, 3, _ROWS - 1, _ROWS, _ROWS + 1, 20_011],
    )
    def test_one_workspace_over_replications_equals_new_arrays(self, num_intervals):
        # two replications of a k sweep share one workspace for the draws and
        # the estimates: from k = 1, where y is x1, and from k = 3, where y
        # is always the buffer that the cycles then overwrite
        work = _Workspace(num_intervals)
        for ks in ((1, 2, 5, 20), (3, 4, 9)):
            for estimate in (_replication_estimates, _replication_ages):
                for seed in (11, 12):
                    reused = generate_interval_sweep(
                        np.random.default_rng(seed), self.SEXP, num_intervals, ks, work
                    )
                    new = generate_interval_sweep(
                        np.random.default_rng(seed), self.SEXP, num_intervals, ks
                    )
                    for k, in_work, columns in zip(ks, reused, new):
                        assert (in_work[0] is in_work[1]) == (k == 1)
                        for a, b in zip(in_work, columns):
                            np.testing.assert_array_equal(a, b)
                        assert estimates_or_error(in_work, work, estimate) == (
                            estimates_or_error(columns, _Workspace(num_intervals), estimate)
                        )

    @pytest.mark.parametrize("deliveries", [0, 1, 2, 7])
    @pytest.mark.parametrize("bounds", [[0, 10], [0, 1, 4, 5, 10], [0, 7, 8, 10]])
    @pytest.mark.parametrize("own_y", [False, True], ids=["y_apart", "y_in_work"])
    def test_cycles_in_a_workspace_equal_new_arrays(self, deliveries, bounds, own_y):
        # carried windows of uneven sizes in one reused workspace, larger
        # than any window and NaN wherever the last window left it, give
        # the whole run's cycles of new arrays
        y = np.arange(1.0, 11.0)
        x_nonp = np.linspace(0.5, 5.0, 10)
        delivered = np.zeros(10, dtype=bool)
        delivered[[0, 2, 3, 5, 6, 8, 9][:deliveries]] = True
        work = _Workspace(16)
        carry = _RUN_START
        parts = []
        for a, b in zip(bounds, bounds[1:]):
            work("spans").fill(np.nan)
            work("y").fill(np.nan)
            if own_y:
                # as from k = 2, where y is the drawn buffer that the cycles spend
                window = work("y", size=b - a)
                window[:] = y[a:b]
            else:
                # as at k = 1, where y is x1, which must stay as it is
                window = y[a:b].copy()
            d = np.flatnonzero(delivered[a:b])
            w, xtilde, carry = _cycles(window, x_nonp[a:b], d, work, carry)
            parts.append((w.copy(), xtilde.copy()))
            if not own_y:
                np.testing.assert_array_equal(window, y[a:b])
        expected = whole_run_cycles(y, x_nonp, np.flatnonzero(delivered))
        for got, want in zip(zip(*parts), expected):
            np.testing.assert_array_equal(np.concatenate(got), want)

    @pytest.mark.parametrize("x_nonp", [0.5, 2.0])
    def test_too_short_message_is_unchanged(self, x_nonp):
        # every interval delivers, or a single one does
        y = np.ones(6)
        columns = (y, y, np.full(6, x_nonp), np.full(6, x_nonp) < y)
        columns[3][0] = True
        message = "replication too short to observe both delivery outcomes"
        for estimate in (_replication_estimates, _replication_ages):
            with pytest.raises(InsufficientDataError) as caught:
                estimate(*columns, _Workspace(6))
            assert str(caught.value) == message


class TestReplicationThreads:
    SEXP = ServiceDistribution(rate=1.0, shift=1.0)

    def on_one_cpu_and_two(self, monkeypatch, run):
        results = []
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            results.append(run())
        return results

    @pytest.mark.parametrize("ks", [range(1, 9), range(3, 7)])
    def test_k_sweep_does_not_depend_on_the_cpu_count(self, monkeypatch, ks):
        configs = [
            SimConfig(dist=self.SEXP, k=k, num_intervals=3000, seed=31, replications=3)
            for k in ks
        ]
        one, two = self.on_one_cpu_and_two(monkeypatch, lambda: run_k_sweep(configs))
        assert one == two

    def test_simulation_and_cross_check_do_not_depend_on_the_cpu_count(self, monkeypatch):
        config = SimConfig(dist=self.SEXP, k=2, num_intervals=5000, seed=8, replications=5)
        one, two = self.on_one_cpu_and_two(
            monkeypatch, lambda: (run_simulation(config), sample_path_cross_check(config))
        )
        assert one == two

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_one_thread_per_cpu_at_most_one_per_replication(self, monkeypatch, cpus):
        # one worker process per CPU and at most one per replication, so
        # 64 CPUs fork four
        set_cpus(monkeypatch, cpus)
        config = SimConfig(dist=EXP1, k=1, num_intervals=100, seed=1, replications=4)
        pids = _map_replications(config, (1, 2), lambda *columns: os.getpid())
        assert len(pids) == 4 and all(len(per_k) == 2 for per_k in pids)
        # a replication's points run in one process
        assert all(len(set(per_k)) == 1 for per_k in pids)
        used = {pid for per_k in pids for pid in per_k}
        assert len(used) <= min(cpus, 4)
        # a pool of one is the caller itself; a larger one never uses it
        assert (os.getpid() in used) == (min(cpus, 4) == 1)
        assert multiprocessing.active_children() == []

    def test_two_threads_map_at_once(self, monkeypatch):
        # each map hands its own function and items to the workers it forks
        set_cpus(monkeypatch, 2)
        configs = [
            SimConfig(dist=self.SEXP, k=k, num_intervals=2000, seed=seed, replications=4)
            for k, seed in ((2, 41), (5, 42))
        ]
        results = {}

        def run(config):
            results[config.seed] = run_simulation(config)

        threads = [threading.Thread(target=run, args=(config,)) for config in configs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        set_cpus(monkeypatch, 1)
        assert results == {config.seed: run_simulation(config) for config in configs}
        assert multiprocessing.active_children() == []

    def test_a_failing_replication_cancels_the_queued_ones(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        config = SimConfig(dist=EXP1, k=1, num_intervals=100, seed=1, replications=8)
        # the calls of every worker process
        calls = multiprocessing.Value("i", 0)

        def estimate(*columns):
            with calls.get_lock():
                calls.value += 1
                first = calls.value == 1
            if first:
                raise InsufficientDataError("replication too short")
            # long enough for the caller to cancel what is still queued
            time.sleep(0.2)

        before = threading.active_count()
        with pytest.raises(InsufficientDataError) as caught:
            _map_replications(config, (1,), estimate)
        # a copy of the worker's exception, pickled back
        assert type(caught.value) is InsufficientDataError
        assert str(caught.value) == "replication too short"
        assert calls.value < config.replications
        # the pool's workers and threads are joined before the error reaches the caller
        assert multiprocessing.active_children() == []
        assert threading.active_count() == before

    def test_one_cpu_sweep_holds_at_most_ten_arrays(self, monkeypatch):
        set_cpus(monkeypatch, 1)
        num_intervals = 100_000
        configs = [
            SimConfig(dist=self.SEXP, k=k, num_intervals=num_intervals, seed=2026, replications=2)
            for k in range(1, 21)
        ]
        # imports made on the first call stay out of the traced peak
        run_k_sweep(configs[:1])
        tracemalloc.start()
        try:
            run_k_sweep(configs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 6.4 arrays; a CycleLedger per k needed about 14
        assert peak <= 10 * 8 * num_intervals

    @pytest.mark.parametrize("sweep", [run_age_sweep, run_k_sweep])
    def test_one_cpu_sweep_peak_is_most_of_the_run_budget(self, monkeypatch, sweep):
        # the budget that refuses a sweep refuses little that would fit
        set_cpus(monkeypatch, 1)
        num_intervals, replications = 100_000, 8
        configs = [
            SimConfig(self.SEXP, k, num_intervals, seed=2026, replications=replications)
            for k in range(1, 6)
        ]
        # imports made on the first call stay out of the traced peak
        sweep(configs[:1])
        tracemalloc.start()
        try:
            sweep(configs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 0.848 of the budget for run_age_sweep and 0.866 for run_k_sweep
        assert 0.8 <= peak / _run_bytes(num_intervals, replications) <= 1.0

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_workspaces_are_dropped_on_return(self, monkeypatch, cpus):
        # on one CPU the workspace is filled in this process, on two in the
        # workers' copies; this process's goes when the run returns
        set_cpus(monkeypatch, cpus)
        run_simulation(SimConfig(dist=EXP1, k=3, num_intervals=1000, seed=1, replications=4))
        # earlier tests may leave workspaces in unreachable cycles (tracebacks)
        gc.collect()
        assert not [obj for obj in gc.get_objects() if isinstance(obj, _Workspace)]

    @pytest.mark.skipif(
        not hasattr(resource, "RUSAGE_THREAD"), reason="needs per-thread rusage"
    )
    def test_one_cpu_sweep_reuses_its_buffers(self, monkeypatch):
        # on one CPU the replications run in this thread, so its minor page
        # faults count what the sweep's allocations hand back and take again
        set_cpus(monkeypatch, 1)
        configs = [
            SimConfig(dist=self.SEXP, k=k, num_intervals=100_000, seed=2026, replications=8)
            for k in range(1, 21)
        ]
        run_k_sweep(configs[:1])
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        run_k_sweep(configs)
        faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
        # measured 1.4 k; 114 k with new temporaries at every point
        assert faults <= 20_000


def test_nested_items_run_once_each_in_item_order(monkeypatch, tmp_path):
    # more workers than cores: the outer items run on the pool's worker
    # processes, and each runs its nested items in its own worker, once
    # each and in item order
    set_cpus(monkeypatch, 4)
    log = tmp_path / "runs.txt"

    def leaf(item):
        # one short appended write per run, whichever process makes it
        with open(log, "a") as handle:
            handle.write(f"{item}\n")
        return item, os.getpid()

    def outer(i):
        here = os.getpid()
        nested = _ordered_map(leaf, [(i, j) for j in range(50)])
        assert {pid for _, pid in nested} == {here}
        return [item for item, _ in nested], here

    faulthandler.dump_traceback_later(120, exit=True)
    try:
        results = _ordered_map(outer, range(6))
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert [items for items, _ in results] == [[(i, j) for j in range(50)] for i in range(6)]
    used = {pid for _, pid in results}
    assert os.getpid() not in used and len(used) <= 4
    runs = log.read_text().splitlines()
    assert len(runs) == 300 and len(set(runs)) == 300
    assert multiprocessing.active_children() == []


def test_a_failing_map_lets_the_running_items_finish(monkeypatch, tmp_path):
    # no worker is killed: one killed while it sends a result would hold
    # the lock of the pool's result queue for good, and the pool would hang
    set_cpus(monkeypatch, 2)

    def item(i):
        if i == 0:
            raise ValueError("item 0")
        time.sleep(0.3)
        (tmp_path / str(i)).touch()

    for _ in range(3):
        with pytest.raises(ValueError, match="item 0"):
            _ordered_map(item, range(8))
        ran = sorted(int(path.name) for path in tmp_path.iterdir())
        # item 1 was running when item 0 failed, and the queued ones were cancelled
        assert ran[0] == 1 and len(ran) < 7
        assert multiprocessing.active_children() == []
        for path in tmp_path.iterdir():
            path.unlink()


def test_standard_error_keeps_its_bits_and_does_not_overflow():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        size = int(rng.integers(2, 9))
        values = rng.standard_normal(size) * 10.0 ** rng.uniform(-150, 150, size)
        assert _mean_se(values)[1] == float(values.std(ddof=1) / np.sqrt(size))
    # the squared deviations of these, about 1e400, overflowed
    with np.errstate(all="raise"):
        assert _mean_se(np.array([1e200, 3e200])) == (2e200, 1e200)
        assert _mean_se(np.array([0.0, 0.0])) == (0.0, 0.0)


class TestRunSimulation:
    def test_moments_near_theory(self):
        config = SimConfig(
            dist=EXP1, k=2, num_intervals=20_000, seed=20260818, replications=4
        )
        result = run_simulation(config)
        truth = age_exponential(1.0, 2)
        assert result.age_priority_hat == pytest.approx(
            truth, abs=4 * result.age_priority_se
        )
        assert result.age_nonpriority_hat == pytest.approx(
            truth, abs=4 * result.age_nonpriority_se
        )
        assert result.m_mean_hat == pytest.approx(1.5, abs=4 * result.m_mean_se)
        assert result.w_mean_hat == pytest.approx(2.25, abs=4 * result.w_mean_se)
        assert result.q_hat == pytest.approx(1 / 3, abs=4 * result.q_se)
        assert result.intervals_used == 4 * 20_000

    def test_w_consistent_with_m_and_y(self):
        config = SimConfig(
            dist=EXP1, k=3, num_intervals=20_000, seed=5, replications=4
        )
        result = run_simulation(config)
        assert result.w_mean_hat == pytest.approx(
            result.m_mean_hat * result.y_mean_hat, rel=0.02
        )

    def test_deterministic_given_seed(self):
        config = SimConfig(
            dist=EXP1, k=1, num_intervals=5000, seed=99, replications=3
        )
        first = dataclasses.asdict(run_simulation(config))
        second = dataclasses.asdict(run_simulation(config))
        assert first == second

    def test_single_replication_has_nan_stderr(self):
        config = SimConfig(
            dist=EXP1, k=1, num_intervals=5000, seed=7, replications=1
        )
        result = run_simulation(config)
        assert math.isnan(result.age_priority_se)
        assert math.isnan(result.q_se)
        assert math.isfinite(result.age_priority_hat)

    def test_two_intervals_cannot_cover_both_outcomes(self):
        # two deliveries plus one miss need at least three intervals
        config = SimConfig(dist=EXP1, k=1, num_intervals=2, seed=0)
        with pytest.raises(InsufficientDataError):
            run_simulation(config)


def integrate_priority(ledger):
    # node 1 receives every update, as in sample_path_cross_check
    return _integrate_age(ledger.y, np.arange(ledger.num_intervals), ledger.x1)


def integrate_nonpriority(ledger):
    # the tracked node receives only its deliveries
    d = np.flatnonzero(ledger.delivered)
    return _integrate_age(ledger.y, d, ledger.x_nonp[d])


class TestCrossCheck:
    def test_constant_path_integrals(self):
        ledger = constant_ledger()
        assert integrate_priority(ledger) == pytest.approx(1.5)
        assert integrate_nonpriority(ledger) == pytest.approx(1.0)

    def test_integral_needs_two_receptions(self):
        y = np.ones(4)
        one_delivery = CycleLedger.from_intervals(
            y, y, y, np.array([False, True, False, False])
        )
        message = "2 receptions to integrate, got 1"
        with pytest.raises(InsufficientDataError, match=message):
            integrate_nonpriority(one_delivery)
        with pytest.raises(InsufficientDataError, match=message):
            integrate_priority(constant_ledger(num_intervals=1))

    def test_cross_check_needs_two_deliveries(self):
        # two intervals per replication: most of the eight replications
        # see fewer than two deliveries
        config = SimConfig(dist=EXP1, k=1, num_intervals=2, seed=0)
        with pytest.raises(InsufficientDataError, match="receptions"):
            sample_path_cross_check(config)

    def test_priority_integral_matches_accumulator(self):
        # same sawtooth, but the covered windows differ at the path ends,
        # so agreement is O(1/num_intervals) rather than exact
        rng = np.random.default_rng(12)
        ledger = simulate_ledger(EXP1, 2, 50_000, rng)
        assert integrate_priority(ledger) == pytest.approx(
            accumulate_priority(ledger), abs=1e-4
        )

    def test_agreement_with_estimators(self):
        config = SimConfig(
            dist=ServiceDistribution.shifted_exponential(1.0, 1.0),
            k=2,
            num_intervals=50_000,
            seed=1729,
            replications=4,
        )
        result = run_simulation(config)
        check = sample_path_cross_check(config)
        assert abs(check.age_priority_hat - result.age_priority_hat) < 0.05
        assert abs(check.age_nonpriority_hat - result.age_nonpriority_hat) < 0.05

    def test_interval_cap(self):
        config = SimConfig(
            dist=EXP1, k=1, num_intervals=CROSS_CHECK_MAX_INTERVALS + 1, seed=1
        )
        with pytest.raises(ValueError, match="cross-check"):
            sample_path_cross_check(config)


def reference_ledger(spec):
    """The columns of ``spec``'s dump, drawn whole as the CLI once did."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    return simulate_ledger(spec.dist, spec.k, spec.num_intervals, rng)


def repr_ledger_rows(spec, start):
    """``_ledger_rows`` as written with ``repr``: the oracle for its bytes."""
    stop = min(start + _BLOCK_ROWS, spec.num_intervals)
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    y, x1, x_nonp, delivered = next(
        generate_interval_sweep(
            rng, spec.dist, spec.num_intervals, (spec.k,), rows=(start, stop)
        )
    )
    cols = (
        map(str, range(start + 1, stop + 1)),
        map(repr, y.tolist()),
        map(repr, x1.tolist()),
        map(repr, x_nonp.tolist()),
        map(str, delivered.view(np.uint8).tolist()),
    )
    text = "\n".join(chain(map(",".join, zip(*cols)), ("",)))
    return text.encode(), int(np.count_nonzero(delivered))


def ledger_rows(spec, start, stop, work=None):
    """``_ledger_rows`` with its text as bytes, in ``work`` or else a new workspace."""
    text, deliveries = _ledger_rows(spec, start, stop, work or _Workspace(_ROWS))
    return text.tobytes(), deliveries


def repr_task(spec, start, stop):
    """``repr_ledger_rows`` of the blocks of rows ``start .. stop - 1``, joined."""
    blocks = [repr_ledger_rows(spec, a) for a in range(start, stop, _BLOCK_ROWS)]
    return b"".join(b for b, _ in blocks), sum(d for _, d in blocks)


def read_ledger(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T


def _writer_peak(tmp_path, num_intervals):
    spec = LedgerSpec(EXP1, 3, num_intervals, 5)
    tracemalloc.start()
    try:
        write_ledger_csv(spec, tmp_path / "peak.csv")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLedgerCsv:
    def test_format_and_round_trip(self, tmp_path):
        spec = LedgerSpec(EXP1, 2, 50, 3)
        ledger = reference_ledger(spec)
        path = tmp_path / "ledger.csv"
        assert write_ledger_csv(spec, path) == ledger.delivered.sum()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "j,Y_j,X_1j,X_nonp_j,delivered"
        assert len(lines) == 51
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert [int(r["j"]) for r in rows] == list(range(1, 51))
        assert all(r["delivered"] in {"0", "1"} for r in rows)
        # repr formatting survives the float round trip exactly
        np.testing.assert_array_equal(
            np.array([float(r["Y_j"]) for r in rows]), ledger.y
        )
        np.testing.assert_array_equal(
            np.array([float(r["X_nonp_j"]) for r in rows]), ledger.x_nonp
        )

    @pytest.mark.parametrize("k", [1, 20])
    def test_blocks_drawn_one_by_one_equal_the_whole_draw(self, tmp_path, monkeypatch, k):
        set_cpus(monkeypatch, 1)
        spec = LedgerSpec(ServiceDistribution(rate=2.0, shift=0.5), k, 3 * 4096 + 17, 11)
        ledger = reference_ledger(spec)
        path = tmp_path / "ledger.csv"
        write_ledger_csv(spec, path)
        j, y, x1, x_nonp, delivered = read_ledger(path)
        np.testing.assert_array_equal(j, np.arange(1, spec.num_intervals + 1))
        for got, want in ((y, ledger.y), (x1, ledger.x1), (x_nonp, ledger.x_nonp)):
            assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(delivered, ledger.delivered)

    @pytest.mark.parametrize(
        "dist, k",
        [
            (EXP1, 20),
            (ServiceDistribution(rate=2.0, shift=0.5), 4),
            # y is x1
            (EXP1, 1),
            # every value prints in exponent form
            (ServiceDistribution.exponential(1e-90), 3),
            (ServiceDistribution(rate=1e90, shift=1e-85), 2),
        ],
    )
    def test_block_bytes_equal_the_repr_oracle(self, dist, k):
        spec = LedgerSpec(dist, k, 2 * _BLOCK_ROWS + 17, 23)
        for start in range(0, spec.num_intervals, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, spec.num_intervals)
            assert ledger_rows(spec, start, stop) == repr_ledger_rows(spec, start)

    @pytest.mark.parametrize(
        "start",
        [10**7 - 100, 10**8 - 100, 10**15 - 100, 10**16 - 100, 10**16 + 10 - 50],
    )
    def test_row_numbers_across_powers_of_ten_equal_the_repr_oracle(self, start):
        # far into a long dump: a row window jumps the stream in O(log N)
        # steps and draws only its own rows.  j gains a digit in the block;
        # with its comma it takes a second word from 10**7 on and a third
        # from 10**15 on
        spec = LedgerSpec(EXP1, 2, 10**16 + 10, 29)
        stop = min(start + _BLOCK_ROWS, spec.num_intervals)
        assert ledger_rows(spec, start, stop) == repr_ledger_rows(spec, start)

    def test_a_task_of_blocks_equals_its_blocks(self):
        spec = LedgerSpec(EXP1, 4, 10**9, 3)
        start = 10**8 - _BLOCK_ROWS - 100
        stop = start + _ROWS
        assert ledger_rows(spec, start, stop) == repr_task(spec, start, stop)

    def test_one_stale_workspace_over_tasks_equals_new_ones(self):
        # a writer's workspace holds every task's draws and text; a short
        # task draws into the first rows of the full task's buffers
        long = LedgerSpec(EXP1, 20, 10**9, 3)
        short = LedgerSpec(EXP1, 1, _ROWS + 369, 5)
        tiny = LedgerSpec(ServiceDistribution.exponential(1e-90), 3, _POOL_MIN_ROWS + 4465, 7)
        tasks = [
            (long, 0),
            # the short last task, whose last block has 369 rows
            (short, _ROWS),
            # j gains a digit at 10**6, and takes a second word at 10**7
            (long, 10**6 - 100),
            (long, 10**7 - 5000),
            (short, 0),
            # every value in exponent notation; j back in one word
            (tiny, 0),
            (tiny, _POOL_MIN_ROWS),
            (long, 10**6 - 100),
        ]
        work = _Workspace(_ROWS)
        for spec, start in tasks:
            for buffer in work._buffers.values():
                buffer.view(np.uint8).fill(0xFF)
            stop = min(start + _ROWS, spec.num_intervals)
            got = ledger_rows(spec, start, stop, work)
            assert got == ledger_rows(spec, start, stop)
            assert got == repr_task(spec, start, stop)

    def test_two_threads_dump_at_once(self, tmp_path, monkeypatch):
        # each call formats in a workspace of its own, so the dumps never
        # see each other's buffers
        set_cpus(monkeypatch, 1)
        specs = [LedgerSpec(EXP1, k, 2 * _ROWS + 17, 9) for k in (3, 20)]
        paths = [tmp_path / f"thread{k}.csv" for k in (3, 20)]
        threads = [
            threading.Thread(target=write_ledger_csv, args=job) for job in zip(specs, paths)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for spec, path in zip(specs, paths):
            write_ledger_csv(spec, tmp_path / "alone.csv")
            assert path.read_bytes() == (tmp_path / "alone.csv").read_bytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_dump_over_a_longer_file_equals_a_fresh_one(
        self, tmp_path, monkeypatch, cpus
    ):
        set_cpus(monkeypatch, cpus)
        spec = LedgerSpec(EXP1, 3, _POOL_MIN_ROWS + 17, 7)
        fresh, old = tmp_path / "fresh.csv", tmp_path / "old.csv"
        write_ledger_csv(spec, fresh)
        old.write_bytes(fresh.read_bytes() + b"9" * 100_000)
        write_ledger_csv(spec, old)
        assert old.read_bytes() == fresh.read_bytes()

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            LedgerSpec(EXP1, 0, 10, 1)
        with pytest.raises(ValueError, match="num_intervals must be at least 1"):
            LedgerSpec(EXP1, 2, 0, 1)
        with pytest.raises(ValueError, match="seed must be at least 0"):
            LedgerSpec(EXP1, 2, 10, -1)
        with pytest.raises(ValueError, match="rate \\* shift"):
            LedgerSpec(ServiceDistribution(rate=1e100, shift=1.0), 2, 10, 1)
        # one interval is a valid dump
        assert LedgerSpec(EXP1, 2, 1, 1).num_intervals == 1

    def test_serial_peak_does_not_grow_with_n(self, tmp_path, monkeypatch):
        set_cpus(monkeypatch, 1)
        # imports made on the first call stay out of the traced peak
        _writer_peak(tmp_path, 10)
        small, large = _writer_peak(tmp_path, 65_536), _writer_peak(tmp_path, 262_144)
        # measured 4.6 and 4.2 MiB (4.95 and 4.55 before the writer's
        # workspace); the first dump adds 0.4 MiB of state that numpy keeps.
        # The workspace holds a task's drawn columns (0.64 MiB), a block's
        # slots and flags (1.22), row words and mask (0.69) and a task's
        # text (1.38), and a block's compacted text passes through (0.26).
        # The larger dump's whole columns alone would be 8.7 MB
        assert large <= small + 64 * 1024
        assert max(small, large) <= 4.8 * 2**20


def set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestLedgerWorkerPool:
    def test_pool_size(self, monkeypatch, tmp_path):
        # the workers of the map that the ledger's tasks run through
        set_cpus(monkeypatch, 2)
        assert _pool_size(1) == 1
        assert _pool_size(2) == 2
        set_cpus(monkeypatch, 1)
        assert _pool_size(10) == 1
        # never more workers than items: the tasks of the smallest pooled ledger
        set_cpus(monkeypatch, 64)
        assert _pool_size(_POOL_MIN_ROWS // _ROWS) == 4
        # a map in a pool's worker runs inline, and so does one without fork
        monkeypatch.setattr(simulator, "_worker", (None, ()))
        assert _pool_size(4) == 1
        monkeypatch.setattr(simulator, "_worker", None)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert _pool_size(4) == 1
        # a ledger below the floor runs its tasks without the map
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork"])
        monkeypatch.setattr(simulator, "_ordered_map", None)
        spec = LedgerSpec(EXP1, 3, _POOL_MIN_ROWS - 1, 5)
        assert write_ledger_csv(spec, tmp_path / "x.csv") == reference_ledger(spec).delivered.sum()

    @pytest.fixture
    def no_hang(self):
        # a pool that hangs ends the test run with every thread's traceback
        faulthandler.dump_traceback_later(120, exit=True)
        yield
        faulthandler.cancel_dump_traceback_later()

    @pytest.mark.parametrize("cpus", [3, 4])
    def test_more_workers_than_cores_write_in_row_order(
        self, tmp_path, monkeypatch, no_hang, cpus
    ):
        monkeypatch.setattr(simulator, "_POOL_MIN_ROWS", 1)
        set_cpus(monkeypatch, cpus)
        # four tasks, the last of 17 rows
        spec = LedgerSpec(EXP1, 3, 3 * _ROWS + 17, 31)
        assert _pool_size(4) == cpus
        path = tmp_path / "ledger.csv"
        starts = range(0, spec.num_intervals, _BLOCK_ROWS)
        blocks = [repr_ledger_rows(spec, a) for a in starts]
        assert write_ledger_csv(spec, path) == sum(d for _, d in blocks)
        header = b"j,Y_j,X_1j,X_nonp_j,delivered\n"
        assert path.read_bytes() == header + b"".join(b for b, _ in blocks)
        assert multiprocessing.active_children() == []

    def test_a_failing_task_reaches_the_caller_and_leaves_no_workers(
        self, tmp_path, monkeypatch, no_hang
    ):
        set_cpus(monkeypatch, 2)
        original = simulator._ledger_rows

        def failing_rows(spec, start, stop, work):
            # the later tasks wait for this one's turn, which never comes
            if start == _ROWS:
                raise ValueError("task 1 failed")
            return original(spec, start, stop, work)

        monkeypatch.setattr(simulator, "_ledger_rows", failing_rows)
        began = time.monotonic()
        with pytest.raises(ValueError, match="task 1 failed"):
            spec = LedgerSpec(EXP1, 3, _POOL_MIN_ROWS + 17, 5)
            write_ledger_csv(spec, tmp_path / "x.csv")
        assert time.monotonic() - began < 60
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "k, num_intervals",
        [
            (3, 1),
            (3, 4095),
            (3, 4096),
            (3, 4097),
            (3, _POOL_MIN_ROWS - 1),
            (3, _POOL_MIN_ROWS),
            (3, _POOL_MIN_ROWS + 1),
            # y and x1 are one array at k = 1
            (1, _POOL_MIN_ROWS),
        ],
    )
    def test_same_bytes_on_one_cpu_and_two(self, tmp_path, monkeypatch, k, num_intervals):
        spec = LedgerSpec(EXP1, k, num_intervals, num_intervals)
        ledger = reference_ledger(spec)
        dumps = []
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            path = tmp_path / f"cpus{cpus}.csv"
            # the count of the pooled path too
            assert write_ledger_csv(spec, path) == ledger.delivered.sum()
            dumps.append(path.read_bytes())
        assert dumps[0] == dumps[1]
        lines = dumps[0].decode().splitlines()
        assert len(lines) == num_intervals + 1
        assert lines[-1].split(",")[:2] == [str(num_intervals), repr(float(ledger.y[-1]))]
        assert multiprocessing.active_children() == []

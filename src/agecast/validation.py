"""Named self-checks wiring the closed forms to independent evidence.

Each check returns whether it passed and a one-line detail string;
``run_checks`` records both under the check's name, which is its
function name without the ``check_`` prefix.  The CLI ``validate``
subcommand runs all of them with fixed seeds and turns any failure into
a nonzero exit.  Tolerances for exact algebraic
identities are fixed; statistical checks use 4-standard-error windows
and the age regression uses the configured relative tolerance.
"""

from __future__ import annotations

import math
import os
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .order_stats import (
    ServiceDistribution,
    check_real,
    harmonic,
    order_stat_mean,
    order_stat_var,
)
from .simulator import (
    MAX_SEED,
    InsufficientDataError,
    _RUN_START,
    SimConfig,
    _cycles,
    _ordered_map,
    generate_interval_sweep,
    run_age_sweep,
    run_simulation,
    sample_path_cross_check,
)
from .sweeps import SweepSpec, read_report_csv, sweep_k, write_report_csv
from .theory import (
    age_exponential,
    age_nonpriority,
    age_priority,
    age_priority_lower_bound,
    age_priority_shifted_exp,
    interval_moments,
    xtilde_mean,
)

__all__ = ["CheckResult", "ValidationSettings", "run_checks", "CHECK_NAMES"]

# rows that a sampling check draws and reduces at a time; small enough that a
# block's arrays stay below a short run's whole arrays
_SAMPLE_BLOCK = 16384


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationSettings:
    """Seed, run size and tolerance the checks run with.

    The run-size fields follow the rules of the SimConfig the simulation
    checks build from them; the tolerance is a finite nonnegative number,
    as in SweepSpec.
    """

    seed: int = 1729
    num_intervals: int = 100_000
    replications: int = 8
    tolerance: float = 0.02

    def __post_init__(self) -> None:
        config = SimConfig(
            dist=ServiceDistribution(rate=1.0),
            k=1,
            num_intervals=self.num_intervals,
            seed=self.seed,
            replications=self.replications,
        )
        for name, value in (
            ("seed", config.seed),
            ("num_intervals", config.num_intervals),
            ("replications", config.replications),
            ("tolerance", check_real("tolerance", self.tolerance)),
        ):
            object.__setattr__(self, name, value)


def check_exponential_age_identity(settings: ValidationSettings) -> tuple[bool, str]:
    """Priority and non-priority closed forms coincide with no shift."""
    worst = 0.0
    for rate in (0.5, 1.0, 2.0, 5.0):
        dist = ServiceDistribution.exponential(rate)
        for k in range(1, 201):
            base = age_exponential(rate, k)
            worst = max(
                worst,
                abs(age_priority(dist, k) - base),
                abs(age_nonpriority(dist, k).value - base),
            )
    return worst < 1e-10, f"max deviation {worst:.3e} over k=1..200, four rates"


def check_priority_bound_dominance(settings: ValidationSettings) -> tuple[bool, str]:
    """The asymptotic lower bound stays below the exact priority age."""
    violations = 0
    tighter = True
    for rate in (0.5, 1.0, 2.0):
        for shift in (0.0, 1.0, 2.0):
            gaps = {}
            for k in range(1, 1001):
                value = age_priority_shifted_exp(rate, shift, k)
                bound = age_priority_lower_bound(rate, shift, k)
                if value < bound:
                    violations += 1
                if k in (10, 1000):
                    gaps[k] = value - bound
            if gaps[1000] >= gaps[10]:
                tighter = False
    return (
        violations == 0 and tighter,
        f"{violations} violations over 9000 grid points; "
        f"gap shrinks from k=10 to k=1000: {tighter}",
    )


def check_shifted_exp_reduction(settings: ValidationSettings) -> tuple[bool, str]:
    """The reduced shifted-exponential form matches the generic formula."""
    worst = 0.0
    for rate in (0.5, 1.0, 2.0, 5.0):
        for shift in (0.0, 0.5, 1.0, 2.0):
            dist = ServiceDistribution(rate=rate, shift=shift)
            for k in (1, 2, 3, 5, 10, 50, 200):
                generic = age_priority(dist, k)
                reduced = age_priority_shifted_exp(rate, shift, k)
                worst = max(worst, abs(generic - reduced) / generic)
    return worst < 1e-12, f"max relative deviation {worst:.3e}"


def check_formula_path_equivalence(settings: ValidationSettings) -> tuple[bool, str]:
    """Theorem split and renewal-reward route give the same age."""
    rng = np.random.default_rng(settings.seed)
    worst = 0.0
    for _ in range(50):
        rate = float(rng.uniform(0.2, 5.0))
        shift = float(rng.uniform(0.0, 3.0))
        k = int(rng.integers(1, 101))
        dist = ServiceDistribution(rate=rate, shift=shift)
        split = age_nonpriority(dist, k).value
        moments = interval_moments(dist, k)
        renewal = 0.5 * moments.w2_mean / moments.w_mean + xtilde_mean(dist, k)
        worst = max(worst, abs(split - renewal) / split)
    return worst < 1e-10, f"max relative deviation {worst:.3e} over 50 random laws"


def check_conditional_interval_mixture(settings: ValidationSettings) -> tuple[bool, str]:
    """Miss/delivery-conditioned means mix back to the interval mean."""
    worst = 0.0
    for rate in (0.5, 1.0, 2.0):
        for shift in (0.0, 1.0):
            dist = ServiceDistribution(rate=rate, shift=shift)
            for k in range(1, 201):
                moments = interval_moments(dist, k)
                mix = moments.q * moments.yf_mean + (1 - moments.q) * moments.ys_mean
                target = order_stat_mean(dist, k, k)
                worst = max(worst, abs(mix - target))
    return worst < 1e-10, f"max deviation {worst:.3e} over k=1..200 grids"


def check_harmonic_series_identity(settings: ValidationSettings) -> tuple[bool, str]:
    """Partial sums of H follow (k+1)(H(k+1) - 1) exactly."""
    worst = 0.0
    running = 0.0
    for k in range(1, 10_001):
        running += harmonic(k)
        target = (k + 1) * (harmonic(k + 1) - 1.0)
        worst = max(worst, abs(running - target) / target)
    return worst < 1e-9, f"max relative deviation {worst:.3e} up to k=10000"


def check_order_stat_monotonicity(settings: ValidationSettings) -> tuple[bool, str]:
    """Order-stat mean and variance increase with the rank."""
    ok = True
    for rate, shift in ((1.0, 0.0), (2.0, 1.0)):
        dist = ServiceDistribution(rate=rate, shift=shift)
        for n in range(2, 201, 7):
            means = [order_stat_mean(dist, k, n) for k in range(1, n + 1)]
            variances = [order_stat_var(dist, k, n) for k in range(1, n + 1)]
            if any(b <= a for a, b in zip(means, means[1:])):
                ok = False
            if any(b < a for a, b in zip(variances, variances[1:])):
                ok = False
    return ok, "strict mean growth, var growth"


def check_order_stat_monte_carlo(settings: ValidationSettings) -> tuple[bool, str]:
    """Sorted-sample draws hit the closed-form moments within 4 se."""
    rng = np.random.default_rng(settings.seed + 1)
    draws = max(settings.num_intervals, 10_000)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        rate = float(rng.uniform(0.3, 4.0))
        shift = float(rng.uniform(0.0, 3.0))
        dist = ServiceDistribution(rate=rate, shift=shift)
        # the rows of one (draws, n) matrix of uniforms, drawn a block at a
        # time in the same row-major order; each row keeps its k-th smallest
        col = np.empty(draws)
        for start in range(0, draws, _SAMPLE_BLOCK):
            block = rng.random((min(_SAMPLE_BLOCK, draws - start), n))
            # in place: the k-th smallest of each row moves to column k - 1
            block.partition(k - 1, axis=1)
            col[start : start + block.shape[0]] = block[:, k - 1]
        # the inverse CDF is nondecreasing, so it maps each row's k-th smallest
        # uniform to the k-th smallest of the row's service times
        dist._inverse_cdf(col, out=col)
        mean = col.mean()
        # the squared deviations in place: bit for bit numpy's var and std
        np.subtract(col, mean, out=col)
        var = np.multiply(col, col, out=col).sum() / (draws - 1)
        mean_se = math.sqrt(var) / math.sqrt(draws)
        worst = max(worst, abs(mean - order_stat_mean(dist, k, n)) / mean_se)
        var_se = col.std(ddof=1) / math.sqrt(draws)
        worst = max(worst, abs(var - order_stat_var(dist, k, n)) / var_se)
    return (
        worst < 4.0,
        f"worst moment deviation {worst:.2f} se over 20 laws, {draws} draws each",
    )


class _RunningMoments:
    """Count, mean and sum of squared deviations (M2) of a sample fed in blocks.

    ``add(values, other)`` feeds paired samples instead: ``other_mean`` is
    the mean of ``other``, and M2 the co-moment, the sum of the products of
    the two samples' deviations.  Each block's means and M2 are taken in
    two passes over the block, then merged into the running ones by the
    pairwise formula of Chan, Golub and LeVeque (*Amer. Statistician*,
    1983), so that the sample is never held whole.  One block alone gives
    the two-pass values bit for bit.
    """

    def __init__(self) -> None:
        self.count = 0
        self.mean = self.other_mean = 0.0
        self.m2 = 0.0

    def add(self, values, other=None) -> None:
        values = np.asarray(values, dtype=np.float64)
        size = values.size
        if size == 0:
            return
        mean = float(values.mean())
        deviations = np.subtract(values, mean)
        other_mean, other_deviations = mean, deviations
        if other is not None:
            other = np.asarray(other, dtype=np.float64)
            other_mean = float(other.mean())
            other_deviations = np.subtract(other, other_mean)
        # numpy's own reduction: a BLAS dot product would wake its threads
        m2 = float(np.multiply(deviations, other_deviations, out=deviations).sum())
        count = self.count + size
        delta, other_delta = mean - self.mean, other_mean - self.other_mean
        self.mean += delta * (size / count)
        self.other_mean += other_delta * (size / count)
        self.m2 += m2 + delta * other_delta * (self.count * size / count)
        self.count = count


def _pooled_z(sample: _RunningMoments, target: float, tag: str) -> float:
    """|mean - target| in standard errors; inf or 0 when the values have no spread."""
    if sample.count < 2:
        raise InsufficientDataError(
            f"simulation moments need at least 2 samples of {tag}, got {sample.count}"
        )
    gap = abs(sample.mean - target)
    se = math.sqrt(sample.m2 / (sample.count - 1)) / math.sqrt(sample.count)
    if se == 0.0:
        return math.inf if gap > 0.0 else 0.0
    return gap / se


def _run_cycles(
    seed: int, skip: int, dist: ServiceDistribution, k: int, num_intervals: int
) -> Iterator[tuple]:
    """Per block of one run at group size k: ``(y, delivered, d, w, xtilde, m)``.

    The run is the pass of :func:`generate_interval_sweep` that starts
    ``skip`` uniforms into the stream of ``default_rng(seed)``, drawn
    ``_SAMPLE_BLOCK`` rows at a time as row windows of the pass, so memory
    is one block whatever ``num_intervals``.  ``d`` indexes the block's
    deliveries, and w, xtilde and m are its :func:`_cycles`, carried.
    """
    carry = _RUN_START
    for start in range(0, num_intervals, _SAMPLE_BLOCK):
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(skip)
        rows = (start, min(start + _SAMPLE_BLOCK, num_intervals))
        y, _, x_nonp, delivered = next(
            generate_interval_sweep(rng, dist, num_intervals, (k,), rows=rows)
        )
        d = np.flatnonzero(delivered)
        w, xtilde, m, carry = _cycles(y, x_nonp, d, carry=carry)
        yield y, delivered, d, w, xtilde, m


def _run_moments(
    seed: int, skip: int, dist: ServiceDistribution, k: int, num_intervals: int
) -> dict[str, _RunningMoments]:
    """Running moments of a :func:`_run_cycles` run's samples, keyed in SimResult's
    order by the :class:`agecast.theory.RenewalCycleMoments` field each estimates."""
    moments: dict[str, _RunningMoments] = {}
    for y, delivered, d, w, xtilde, m in _run_cycles(seed, skip, dist, k, num_intervals):
        miss = ~delivered
        samples = {
            "y_mean": y, "w_mean": w, "w2_mean": w * w, "xtilde_mean": xtilde,
            "m_mean": m, "q": miss, "yf_mean": y[miss], "ys_mean": y[d],
        }
        for name, values in samples.items():
            moments.setdefault(name, _RunningMoments()).add(values)
    return moments


def check_simulation_moments(settings: ValidationSettings) -> tuple[bool, str]:
    """Empirical cycle moments track the closed forms within 4 se.

    One long run of intervals x replications per law with pooled
    per-sample standard errors, so each comparison is an effectively
    normal z-score.  The six laws are consecutive passes of one stream,
    ``default_rng(seed + 3)``: each starts where the ones before it end,
    as a run at group size k takes k + 1 uniforms per interval, and each
    run streams (:func:`_run_moments`).  At the ``validate`` defaults the
    check failed on 0 of the seeds 1..100 (``tests/gate_seeds.py``,
    stream version 2).
    """
    num_intervals = settings.num_intervals * settings.replications
    worst = 0.0
    label = ""
    skip = 0
    for rate, shift in ((1.0, 0.0), (1.0, 1.0)):
        for k in (1, 2, 5):
            dist = ServiceDistribution(rate=rate, shift=shift)
            moments = interval_moments(dist, k)
            samples = _run_moments(settings.seed + 3, skip, dist, k, num_intervals)
            for name, sample in samples.items():
                tag = name.removesuffix("_mean")
                z = _pooled_z(sample, getattr(moments, name), tag)
                if z > worst:
                    worst = z
                    label = f"{tag} at rate={rate}, shift={shift}, k={k}"
            skip += num_intervals * (k + 1)
    return worst < 4.0, f"worst deviation {worst:.2f} se ({label})"


def _bookkeeping(settings: ValidationSettings) -> tuple:
    """``(cycles, counted, expect, w_sum, y_sum, corr)`` of the check's run.

    The run is ``num_intervals`` rows at k = 2, the pass of
    ``default_rng(seed + 17)``, streamed by :func:`_run_cycles`.
    ``counted`` adds the rows after the last delivery to the summed cycle
    lengths m, and ``expect`` is the rows after the first delivery.
    ``corr`` pairs each m with the y that closes its cycle, from merged
    moments, or is 0 when either has no spread.
    """
    lengths, closing, paired = _RunningMoments(), _RunningMoments(), _RunningMoments()
    first = last = None
    row = counted = w_sum = y_sum = 0
    num_intervals = settings.num_intervals
    dist = ServiceDistribution(rate=1.0, shift=0.5)
    for y, _, d, w, _, m in _run_cycles(settings.seed + 17, 0, dist, 2, num_intervals):
        if d.size:
            first = row + d[0] if first is None else first
            last = row + d[-1]
        row += y.size
        counted += int(m.sum())
        w_sum += w.sum()
        y_sum += y.sum()
        # each of the block's deliveries closes a cycle, but the run's first
        closing_y = y[d[d.size - m.size :]]
        lengths.add(m)
        closing.add(closing_y)
        paired.add(m, closing_y)
    if lengths.count < 2:
        raise InsufficientDataError(
            "cycle bookkeeping needs at least 3 deliveries, got "
            f"{lengths.count + (first is not None)}"
        )
    # 0 for a constant series, which has no correlation to estimate
    corr = paired.m2 / (math.sqrt(lengths.m2) * math.sqrt(closing.m2) or math.inf)
    expect = num_intervals - 1 - first
    return lengths.count, counted + num_intervals - 1 - last, expect, w_sum, y_sum, corr


def check_cycle_bookkeeping(settings: ValidationSettings) -> tuple[bool, str]:
    """Cycle counts and spans tile the simulated horizon (:func:`_bookkeeping`)."""
    cycles, counted, expect, w_sum, y_sum, corr = _bookkeeping(settings)
    tiling_ok = counted == expect
    span_ok = w_sum <= y_sum
    corr_ok = abs(corr) < 4.0 / math.sqrt(cycles)
    return (
        tiling_ok and span_ok and corr_ok,
        f"interval tiling {tiling_ok}, span bound {span_ok}, "
        f"|corr(M, closing Y)| = {abs(corr):.4f}",
    )


def check_estimator_agreement(settings: ValidationSettings) -> tuple[bool, str]:
    """Polygon estimators match direct sawtooth integration."""
    num_intervals = min(settings.num_intervals, 50_000)
    worst = 0.0
    for offset, (rate, shift, k) in enumerate(((1.0, 0.0, 1), (1.0, 1.0, 3))):
        config = SimConfig(
            dist=ServiceDistribution(rate=rate, shift=shift),
            k=k,
            num_intervals=num_intervals,
            # wrap around so every seed ValidationSettings accepts stays valid
            seed=(settings.seed + 23 + offset) % (MAX_SEED + 1),
            replications=4,
        )
        (sim,) = run_age_sweep((config,))
        integrated = sample_path_cross_check(config)
        for hat, se, other, other_se in (
            (
                sim.age_priority_hat,
                sim.age_priority_se,
                integrated.age_priority_hat,
                integrated.age_priority_se,
            ),
            (
                sim.age_nonpriority_hat,
                sim.age_nonpriority_se,
                integrated.age_nonpriority_hat,
                integrated.age_nonpriority_se,
            ),
        ):
            allowance = 2.0 * math.hypot(se, other_se) + 100.0 / num_intervals
            worst = max(worst, abs(hat - other) / allowance)
    return worst < 1.0, f"worst deviation at {worst:.2f} of allowance"


def check_age_regression(settings: ValidationSettings) -> tuple[bool, str]:
    """Simulated ages land within the relative tolerance of theory."""
    worst = 0.0
    label = ""
    cases = (
        (ServiceDistribution.exponential(1.0), 1),
        (ServiceDistribution.exponential(1.0), 2),
        (ServiceDistribution(rate=1.0, shift=1.0), 1),
    )
    for dist, k in cases:
        (sim,) = run_age_sweep(
            (
                SimConfig(
                    dist=dist,
                    k=k,
                    num_intervals=settings.num_intervals,
                    seed=settings.seed,
                    replications=settings.replications,
                ),
            )
        )
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


def check_csv_round_trip(settings: ValidationSettings) -> tuple[bool, str]:
    """Emitted sweep files re-parse to identical rows, byte for byte."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.csv")
        spec = SweepSpec(
            variable="k",
            values=(1, 2),
            rate=1.0,
            shift=1.0,
            k=1,
            num_intervals=2000,
            replications=2,
            seed=settings.seed,
            tolerance=1.0,
            out_path=path,
        )
        report = sweep_k(spec)
        parsed = read_report_csv(path, variable="k", tolerance=1.0)
        rows_ok = parsed.rows == report.rows
        with open(path, "rb") as handle:
            first = handle.read()
        write_report_csv(parsed, path)
        with open(path, "rb") as handle:
            second = handle.read()
    return (
        rows_ok and first == second,
        f"rows identical {rows_ok}, bytes identical {first == second}",
    )


def check_simulation_determinism(settings: ValidationSettings) -> tuple[bool, str]:
    """Same config, same result."""
    config = SimConfig(
        dist=ServiceDistribution(rate=2.0, shift=0.5),
        k=3,
        num_intervals=5000,
        seed=settings.seed,
        replications=3,
    )
    first = run_simulation(config)
    second = run_simulation(config)
    return (
        first == second,
        "bit-identical repeat" if first == second else "results diverged",
    )


_CHECKS = (
    check_exponential_age_identity,
    check_priority_bound_dominance,
    check_shifted_exp_reduction,
    check_formula_path_equivalence,
    check_conditional_interval_mixture,
    check_harmonic_series_identity,
    check_order_stat_monotonicity,
    check_order_stat_monte_carlo,
    check_simulation_moments,
    check_cycle_bookkeeping,
    check_estimator_agreement,
    check_age_regression,
    check_csv_round_trip,
    check_simulation_determinism,
)

CHECK_NAMES = tuple(fn.__name__.removeprefix("check_") for fn in _CHECKS)


def run_checks(
    settings: ValidationSettings, names: tuple[str, ...] | None = None
) -> list[CheckResult]:
    """Run the selected checks (all by default) and collect the records.

    The checks run on one thread per CPU of the affinity mask, at most one
    per check, and in this thread when that is one; the records come back
    in ``CHECK_NAMES`` order, so they do not depend on the CPU count.  The
    replications that the checks simulate join the same pool
    (:func:`agecast.simulator._ordered_map`), so no more threads run than
    CPUs, and each pool thread keeps at most one replication workspace,
    which goes when the run that last used it returns.  If a check
    raises, the queued ones are cancelled and the first exception in
    check order reaches the caller once the threads have stopped.  Peak
    memory is the sum of the peaks of the items running at once.
    """
    wanted = set(names) if names is not None else set(CHECK_NAMES)
    unknown = wanted - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown check names: {sorted(unknown)}")

    def run(check) -> CheckResult:
        name, fn = check
        passed, detail = fn(settings)
        return CheckResult(name=name, passed=bool(passed), detail=detail)

    return _ordered_map(
        run, [(name, fn) for name, fn in zip(CHECK_NAMES, _CHECKS) if name in wanted]
    )

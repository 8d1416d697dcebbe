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
    SimConfig,
    run_simulation,
    sample_path_cross_check,
    simulate_ledger,
)
from .sweeps import SweepSpec, read_report_csv, sweep_k, write_report_csv
from .theory import (
    age_exponential,
    age_nonpriority,
    age_priority,
    age_priority_lower_bound,
    age_priority_shifted_exp,
    failure_prob,
    interval_moments,
    xtilde_mean,
)

__all__ = ["CheckResult", "ValidationSettings", "run_checks", "CHECK_NAMES"]


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
        samples = dist.sample(rng, (draws, n))
        col = np.sort(samples, axis=1)[:, k - 1]
        mean_se = col.std(ddof=1) / math.sqrt(draws)
        worst = max(worst, abs(col.mean() - order_stat_mean(dist, k, n)) / mean_se)
        centered = (col - col.mean()) ** 2
        var_se = centered.std(ddof=1) / math.sqrt(draws)
        worst = max(worst, abs(col.var(ddof=1) - order_stat_var(dist, k, n)) / var_se)
    return (
        worst < 4.0,
        f"worst moment deviation {worst:.2f} se over 20 laws, {draws} draws each",
    )


def _pooled_z(values: np.ndarray, target: float, tag: str) -> float:
    """|mean - target| in standard errors; inf or 0 when the values have no spread."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise InsufficientDataError(
            f"simulation moments need at least 2 samples of {tag}, got {values.size}"
        )
    gap = abs(float(values.mean()) - target)
    se = float(values.std(ddof=1)) / math.sqrt(values.size)
    if se == 0.0:
        return math.inf if gap > 0.0 else 0.0
    return gap / se


def check_simulation_moments(settings: ValidationSettings) -> tuple[bool, str]:
    """Empirical cycle moments track the closed forms within 4 se.

    One long run per law with pooled per-sample standard errors, so each
    comparison is an effectively normal z-score and the whole check
    false-alarms on well under 1% of seeds.
    """
    rng = np.random.default_rng(settings.seed + 3)
    num_intervals = settings.num_intervals * settings.replications
    worst = 0.0
    label = ""
    for rate, shift in ((1.0, 0.0), (1.0, 1.0)):
        for k in (1, 2, 5):
            dist = ServiceDistribution(rate=rate, shift=shift)
            ledger = simulate_ledger(dist, k, num_intervals, rng)
            moments = interval_moments(dist, k)
            miss = ~ledger.delivered
            comparisons = [
                (miss, failure_prob(k), "q"),
                (ledger.y, moments.y_mean, "y"),
                (ledger.m, moments.m_mean, "m"),
                (ledger.w, moments.w_mean, "w"),
                (ledger.w**2, moments.w2_mean, "w2"),
                (ledger.xtilde, moments.xtilde_mean, "xtilde"),
                (ledger.y[miss], moments.yf_mean, "yf"),
                (ledger.y[ledger.delivered], moments.ys_mean, "ys"),
            ]
            for values, target, tag in comparisons:
                z = _pooled_z(values, target, tag)
                if z > worst:
                    worst = z
                    label = f"{tag} at rate={rate}, shift={shift}, k={k}"
    return worst < 4.0, f"worst deviation {worst:.2f} se ({label})"


def check_cycle_bookkeeping(settings: ValidationSettings) -> tuple[bool, str]:
    """Cycle counts and spans tile the simulated horizon."""
    rng = np.random.default_rng(settings.seed + 17)
    dist = ServiceDistribution(rate=1.0, shift=0.5)
    ledger = simulate_ledger(dist, 2, settings.num_intervals, rng)
    deliveries = np.flatnonzero(ledger.delivered)
    if ledger.num_cycles < 1:
        raise InsufficientDataError(
            f"cycle bookkeeping needs at least 2 deliveries, got {deliveries.size}"
        )
    trailing = ledger.num_intervals - 1 - deliveries[-1]
    counted = int(ledger.m.sum() + trailing)
    expect = ledger.num_intervals - 1 - deliveries[0]
    tiling_ok = counted == expect
    span_ok = ledger.w.sum() <= ledger.y.sum()
    corr = float(np.corrcoef(ledger.m, ledger.y_success)[0, 1])
    corr_ok = abs(corr) < 4.0 / math.sqrt(ledger.num_cycles)
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
        sim = run_simulation(config)
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
        sim = run_simulation(
            SimConfig(
                dist=dist,
                k=k,
                num_intervals=settings.num_intervals,
                seed=settings.seed,
                replications=settings.replications,
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
    """Run the selected checks (all by default) and collect the records."""
    wanted = set(names) if names is not None else set(CHECK_NAMES)
    unknown = wanted - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown check names: {sorted(unknown)}")
    results = []
    for name, fn in zip(CHECK_NAMES, _CHECKS):
        if name in wanted:
            passed, detail = fn(settings)
            results.append(CheckResult(name=name, passed=bool(passed), detail=detail))
    return results

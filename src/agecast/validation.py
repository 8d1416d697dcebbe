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
    _ROWS,
    SimConfig,
    _ordered_map,
    _run_cycles,
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

__all__ = ["CheckResult", "ValidationSettings", "run_checks", "select_checks", "CHECK_NAMES"]


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
    """Sorted-sample draws hit the closed-form moments within 4 se.

    A law's draws are the rows of one (draws, n) matrix of uniforms, drawn
    ``_ROWS`` rows at a time in row-major order into one reused block,
    and each row keeps its k-th smallest (:func:`_kth_smallest`).  Each
    block adds the power sums S1..S4 of the kept values' deviations z
    from the closed-form mean, so memory is one block whatever the
    draws; the sample variance and the standard error of the
    squared deviations follow from the sums (M2 and M4 are the second and
    fourth sums about the sample mean).  At the ``validate`` defaults the
    check failed on 0 of the seeds 1..100 (``tests/gate_seeds.py``, stream
    version 2).
    """
    rng = np.random.default_rng(settings.seed + 1)
    draws = max(settings.num_intervals, 10_000)
    # a block of the widest matrix, its columns and one spare column
    drawn, columns, spare = np.empty(8 * _ROWS), np.empty((8, _ROWS)), np.empty(_ROWS)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        rate = float(rng.uniform(0.3, 4.0))
        shift = float(rng.uniform(0.0, 3.0))
        dist = ServiceDistribution(rate=rate, shift=shift)
        target = order_stat_mean(dist, k, n)
        sums = np.zeros(4)
        for start in range(0, draws, _ROWS):
            rows = min(_ROWS, draws - start)
            block = rng.random(out=drawn[: rows * n].reshape(rows, n))
            # the inverse CDF is nondecreasing, so it maps each row's k-th smallest
            # uniform to the k-th smallest of the row's service times
            z = dist._inverse_cdf(_kth_smallest(block, k, columns, spare)) - target
            z2 = z * z
            sums += (z.sum(), z2.sum(), (z2 * z).sum(), (z2 * z2).sum())
        s1, s2, s3, s4 = sums.tolist()
        d = s1 / draws
        m2 = s2 - s1 * d
        m4 = s4 - 4 * d * s3 + 6 * d * d * s2 - 3 * draws * d**4
        var = m2 / (draws - 1)
        worst = max(worst, abs(d) / (math.sqrt(var) / math.sqrt(draws)))
        var_se = math.sqrt((m4 - m2 * m2 / draws) / (draws - 1)) / math.sqrt(draws)
        worst = max(worst, abs(var - order_stat_var(dist, k, n)) / var_se)
    return (
        worst < 4.0,
        f"worst moment deviation {worst:.2f} se over 20 laws, {draws} draws each",
    )


def _kth_smallest(block, k: int, columns, spare) -> np.ndarray:
    """Each row's k-th smallest value of the (rows, n) ``block``, bit for bit ``np.partition``'s.

    The columns of ``block`` are copied into the first n rows of the
    buffer ``columns``, and a selection network bubbles over them: k
    passes that each move the next smallest to the front with
    ``np.minimum``, or, when fewer, n - k + 1 passes that each move the
    next largest to the back with ``np.maximum``.  ``spare``, a buffer of
    at least ``rows``, takes the side of each exchange that moves, and the
    last pass carries only its extreme.  A minimum or maximum returns one
    of its operands, so the result holds the selected elements; it is
    valid until ``columns`` or ``spare`` is written again.  At the
    ``validate`` defaults (n <= 8), the check took 49 ms on one CPU of a
    2-vCPU host with it, against 105 ms with ``block.partition``.
    """
    rows, n = block.shape
    np.copyto(columns[:n, :rows], block.T)
    lines = [column[:rows] for column in columns[:n]]
    spare = spare[:rows]
    # the side each pass bubbles its extreme to, and the side it keeps
    extreme, other = np.minimum, np.maximum
    if k > n - k + 1:
        # the k-th smallest is the (n - k + 1)-th largest: bubble from the back
        lines.reverse()
        k, extreme, other = n - k + 1, np.maximum, np.minimum
    for done in range(k):
        for j in range(n - 2, done - 1, -1):
            a, b = lines[j], lines[j + 1]
            extreme(a, b, out=spare)
            if done < k - 1:
                other(a, b, out=b)
            lines[j], spare = spare, a
    return lines[k - 1]


def _deviation_sums(values, target: float) -> np.ndarray:
    """``[count, sum of z, sum of z**2]`` of the deviations z = values - target.

    The running sum of every streamed check: the sums of a sample's blocks
    add up to the sums of the whole sample, which is never held.  The
    target is the sample's closed-form mean, which its sample mean lies
    near, so the moment about the sample mean that :func:`_co_moment`
    takes from the sums loses few bits to cancellation.
    """
    z = np.subtract(values, target, dtype=np.float64)
    # numpy's own reduction: a BLAS dot product would wake its threads
    return np.array((z.size, z.sum(), np.multiply(z, z, out=z).sum()))


def _co_moment(count, sum_a, sum_b, sum_ab) -> float:
    """The sum of (a - mean a)(b - mean b), from the count and the sums of a, b and ab.

    With b = a it is M2, the sum of squared deviations about the mean.
    """
    return float(sum_ab - sum_a * sum_b / count)


def _pooled_z(sums, tag: str) -> float:
    """|mean - target| in standard errors, from :func:`_deviation_sums`; inf or 0
    when the values have no spread."""
    count, z_sum, z2_sum = sums.tolist()
    if count < 2:
        raise InsufficientDataError(
            f"simulation moments need at least 2 samples of {tag}, got {int(count)}"
        )
    gap = abs(z_sum / count)
    m2 = _co_moment(count, z_sum, z_sum, z2_sum)
    if m2 <= 0.0:
        return math.inf if gap > 0.0 else 0.0
    return gap / (math.sqrt(m2 / (count - 1)) / math.sqrt(count))


def _run_moments(
    seed: int, skip: int, dist: ServiceDistribution, k: int, num_intervals: int
) -> dict[str, np.ndarray]:
    """:func:`_deviation_sums` of a :func:`_run_cycles` run's samples, keyed in SimResult's
    order by the :class:`agecast.theory.RenewalCycleMoments` field each estimates,
    about that field of ``interval_moments(dist, k)``."""
    moments = interval_moments(dist, k)
    sums: dict[str, np.ndarray] = {}
    for y, delivered, d, w, xtilde, m in _run_cycles(seed, skip, dist, k, num_intervals):
        miss = ~delivered
        # a gather at the indices costs a fifth of a boolean index's time
        samples = {
            "y_mean": y, "w_mean": w, "w2_mean": w * w, "xtilde_mean": xtilde,
            "m_mean": m, "q": miss, "yf_mean": np.take(y, np.flatnonzero(miss)),
            "ys_mean": y[d],
        }
        for name, values in samples.items():
            sums[name] = sums.get(name, 0.0) + _deviation_sums(values, getattr(moments, name))
    return sums


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
            samples = _run_moments(settings.seed + 3, skip, dist, k, num_intervals)
            for name, sums in samples.items():
                tag = name.removesuffix("_mean")
                z = _pooled_z(sums, tag)
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
    ``corr`` pairs each m with the y that closes its cycle, from the sums
    of a = m - E[M], b = y - E[Y_S], a**2, b**2 and ab (:func:`_co_moment`),
    or is 0 when either has no spread.
    """
    first = last = None
    row = cycles = counted = w_sum = y_sum = 0
    sums = np.zeros(5)
    num_intervals = settings.num_intervals
    dist = ServiceDistribution(rate=1.0, shift=0.5)
    moments = interval_moments(dist, 2)
    for y, _, d, w, _, m in _run_cycles(settings.seed + 17, 0, dist, 2, num_intervals):
        if d.size:
            first = row + d[0] if first is None else first
            last = row + d[-1]
        row += y.size
        cycles += m.size
        counted += int(m.sum())
        w_sum += w.sum()
        y_sum += y.sum()
        # each of the block's deliveries closes a cycle, but the run's first
        a = np.subtract(m, moments.m_mean)
        b = np.subtract(y[d[d.size - m.size :]], moments.ys_mean)
        sums += (a.sum(), b.sum(), (a * a).sum(), (b * b).sum(), (a * b).sum())
    if cycles < 2:
        raise InsufficientDataError(
            "cycle bookkeeping needs at least 3 deliveries, got "
            f"{cycles + (first is not None)}"
        )
    a_sum, b_sum, a2_sum, b2_sum, ab_sum = sums
    m2_a = _co_moment(cycles, a_sum, a_sum, a2_sum)
    m2_b = _co_moment(cycles, b_sum, b_sum, b2_sum)
    # 0 for a constant series, which has no correlation to estimate
    spread = math.sqrt(m2_a) * math.sqrt(m2_b) if m2_a > 0.0 and m2_b > 0.0 else math.inf
    corr = _co_moment(cycles, a_sum, b_sum, ab_sum) / spread
    expect = num_intervals - 1 - first
    return cycles, counted + num_intervals - 1 - last, expect, w_sum, y_sum, corr


def check_cycle_bookkeeping(settings: ValidationSettings) -> tuple[bool, str]:
    """Cycle counts and spans tile the simulated horizon (:func:`_bookkeeping`).

    At the ``validate`` defaults the check failed on 0 of the seeds
    1..100 (``tests/gate_seeds.py``, stream version 2).
    """
    cycles, counted, expect, w_sum, y_sum, corr = _bookkeeping(settings)
    # the sums are numpy numbers, and a check returns Python bools
    tiling_ok = bool(counted == expect)
    span_ok = bool(w_sum <= y_sum)
    corr_ok = abs(corr) < 4.0 / math.sqrt(cycles)
    return (
        tiling_ok and span_ok and corr_ok,
        f"interval tiling {tiling_ok}, span bound {span_ok}, "
        f"|corr(M, closing Y)| = {abs(corr):.4f}",
    )


def check_estimator_agreement(settings: ValidationSettings) -> tuple[bool, str]:
    """Polygon estimators match direct sawtooth integration.

    At the ``validate`` defaults the check failed on 0 of the seeds
    1..100 (``tests/gate_seeds.py``, stream version 2).
    """
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
    """Simulated ages land within the relative tolerance of theory.

    The cases are the exponential law at k = 1 and 2, then the shifted
    one at k = 1.  The two exponential cases are the points of one k
    sweep, which equal separate runs at their k.  At the ``validate``
    defaults the check failed on 0 of the seeds 1..100
    (``tests/gate_seeds.py``, stream version 2).
    """
    worst = 0.0
    label = ""
    for dist, ks in (
        (ServiceDistribution.exponential(1.0), (1, 2)),
        (ServiceDistribution(rate=1.0, shift=1.0), (1,)),
    ):
        configs = [
            SimConfig(
                dist=dist,
                k=k,
                num_intervals=settings.num_intervals,
                seed=settings.seed,
                replications=settings.replications,
            )
            for k in ks
        ]
        for k, sim in zip(ks, run_age_sweep(configs)):
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


def select_checks(names) -> tuple[str, ...]:
    """``names`` as a tuple; ValueError listing the checks if one names none."""
    unknown = set(names) - set(CHECK_NAMES)
    if unknown:
        raise ValueError(
            f"unknown checks {sorted(unknown)}; available: {', '.join(CHECK_NAMES)}"
        )
    return tuple(names)


# the checks that run longest, submitted first so that the others fill the
# remaining workers around them (on 2 CPUs, simulation_moments queued ninth
# started about 0.1 s late and finished last)
_LONGEST = ("simulation_moments", "order_stat_monte_carlo", "age_regression", "estimator_agreement")


def run_checks(
    settings: ValidationSettings, names: tuple[str, ...] | None = None
) -> list[CheckResult]:
    """Run the selected checks (all by default) and collect the records.

    The checks run through :func:`agecast.simulator._ordered_map`: on one
    forked worker process per CPU of the affinity mask, at most one per
    check, and in this process when that is one.  They are submitted
    longest first (``_LONGEST``, then the rest in ``CHECK_NAMES`` order),
    and the records come back in ``CHECK_NAMES`` order, so they do not
    depend on the CPU count.  When two or more checks run on two or more
    CPUs, a check runs the replications it simulates in its own worker,
    so no more workers run than CPUs, and a worker holds at most one
    replication workspace at a time, which goes when its run returns.  A
    check run alone runs in this process, so its runs replicate on pools
    of their own, as a sweep's do.  If a check raises, the queued ones
    are cancelled and the first exception in submission order reaches
    the caller once the workers have stopped.  Each worker peaks on its
    own; their sum at any moment is the sum of the peaks of the checks
    running then.
    """
    wanted = set(CHECK_NAMES if names is None else select_checks(names))
    checks = [(name, fn) for name, fn in zip(CHECK_NAMES, _CHECKS) if name in wanted]
    # a stable sort, so the rest keep check order
    rank = {name: place for place, name in enumerate(_LONGEST)}
    checks.sort(key=lambda check: rank.get(check[0], len(rank)))

    def run(check) -> CheckResult:
        name, fn = check
        passed, detail = fn(settings)
        return CheckResult(name=name, passed=bool(passed), detail=detail)

    records = {record.name: record for record in _ordered_map(run, checks)}
    return [records[name] for name in CHECK_NAMES if name in records]

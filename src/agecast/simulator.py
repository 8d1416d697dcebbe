"""Renewal simulation of preemptive multicast updating.

Each service interval draws k+1 i.i.d. service times: the k priority
copies plus one tracked non-priority copy.  The interval length is the
max of the k priority times (the source preempts once the whole priority
group has the update), and the non-priority node keeps the update iff
its copy lands first.  Two renewal-reward estimators read off the time
average age for each node class, and an independent event-by-event
integration of the age sawtooth cross-checks the bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .kernels import generate_intervals
from .order_stats import ServiceDistribution, check_count

__all__ = [
    "CrossCheck",
    "CycleLedger",
    "InsufficientDataError",
    "SimConfig",
    "SimResult",
    "accumulate_nonpriority",
    "accumulate_priority",
    "run_interval",
    "run_simulation",
    "sample_path_cross_check",
    "simulate_ledger",
    "write_ledger_csv",
]

CROSS_CHECK_MAX_INTERVALS = 100_000

# master seeds are 64-bit unsigned integers
MAX_SEED = 2**64 - 1


class InsufficientDataError(ValueError):
    """A run was too short to form the requested estimator."""


@dataclass(frozen=True)
class SimConfig:
    """One simulation request.

    ``seed`` is the master seed; each of the ``replications`` runs draws
    from its own child stream spawned deterministically from it.
    """

    dist: ServiceDistribution
    k: int
    num_intervals: int
    seed: int
    replications: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", check_count("k", self.k))
        # the priority area estimator needs a preceding interval
        object.__setattr__(
            self, "num_intervals", check_count("num_intervals", self.num_intervals, 2)
        )
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0, MAX_SEED))
        object.__setattr__(
            self, "replications", check_count("replications", self.replications)
        )


@dataclass(frozen=True)
class CycleLedger:
    """Raw per-interval draws plus the derived non-priority cycle records.

    Per interval: length ``y``, node 1's service time ``x1``, the tracked
    non-priority service time ``x_nonp`` and its ``delivered`` flag.  Per
    complete cycle (delivery to delivery): interval count ``m``, summed
    length ``w``, opening delivered service time ``xtilde`` and the
    closing interval's length ``y_success``.
    """

    y: np.ndarray
    x1: np.ndarray
    x_nonp: np.ndarray
    delivered: np.ndarray
    m: np.ndarray
    w: np.ndarray
    xtilde: np.ndarray
    y_success: np.ndarray

    @classmethod
    def from_intervals(cls, y, x1, x_nonp, delivered) -> "CycleLedger":
        d = np.flatnonzero(delivered)
        if d.size >= 2:
            ends = np.cumsum(y)
            # cycle l covers intervals d[l-1]+1 .. d[l]; its span is the
            # difference of interval end times at the two deliveries
            w = ends[d[1:]] - ends[d[:-1]]
            m = np.diff(d)
            xtilde = x_nonp[d[:-1]]
            y_success = y[d[1:]]
        else:
            w = np.empty(0)
            m = np.empty(0, dtype=np.int64)
            xtilde = np.empty(0)
            y_success = np.empty(0)
        return cls(
            y=y,
            x1=x1,
            x_nonp=x_nonp,
            delivered=delivered,
            m=m,
            w=w,
            xtilde=xtilde,
            y_success=y_success,
        )

    @property
    def num_intervals(self) -> int:
        return self.y.size

    @property
    def num_cycles(self) -> int:
        return self.w.size


def run_interval(
    dist: ServiceDistribution, k: int, rng: np.random.Generator
) -> tuple[float, float, float, bool]:
    """Draw one service interval; see :func:`simulate_ledger` for bulk runs.

    Returns ``(y, x1, x_nonp, delivered)``.  Consumes the same k+1
    uniforms the bulk kernels would, in the same order.
    """
    k = check_count("k", k)
    x = dist.sample(rng, k + 1)
    y = float(x[:k].max())
    return y, float(x[0]), float(x[k]), bool(x[k] < y)


def simulate_ledger(
    dist: ServiceDistribution,
    k: int,
    num_intervals: int,
    rng: np.random.Generator,
) -> CycleLedger:
    """Simulate ``num_intervals`` intervals and derive the cycle records."""
    y, x1, x_nonp, delivered = generate_intervals(
        rng, dist.rate, dist.shift, num_intervals, k
    )
    return CycleLedger.from_intervals(y, x1, x_nonp, delivered)


def accumulate_priority(ledger: CycleLedger) -> float:
    """Renewal-reward age estimate for priority node 1.

    Sums the exact polygon area over each interval after the first,
    y[j-1] * x1[j] + y[j]**2 / 2, then divides by the covered time.  The
    first interval is dropped because its polygon needs the preceding
    interval length.
    """
    if ledger.num_intervals < 2:
        raise InsufficientDataError(
            "priority age needs at least 2 intervals, got "
            f"{ledger.num_intervals}"
        )
    y, x1 = ledger.y, ledger.x1
    area = y[:-1] @ x1[1:] + 0.5 * (y[1:] @ y[1:])
    return float(area / y[1:].sum())


def accumulate_nonpriority(ledger: CycleLedger) -> float:
    """Renewal-reward age estimate for the tracked non-priority node.

    Cycles end at successful deliveries; the first cycle opens at the
    first delivery and a trailing incomplete cycle is dropped.  Each
    complete cycle contributes area w**2 / 2 + xtilde * w, where xtilde
    is the service time of the delivery that opened the cycle.
    """
    if ledger.num_cycles < 1:
        raise InsufficientDataError(
            "non-priority age needs at least 2 deliveries, got "
            f"{int(np.count_nonzero(ledger.delivered))}"
        )
    w, xtilde = ledger.w, ledger.xtilde
    area = 0.5 * (w @ w) + xtilde @ w
    return float(area / w.sum())


@dataclass(frozen=True)
class SimResult:
    """Replication-averaged estimates with across-replication stderrs.

    Every ``*_hat`` field is the mean over replications of the
    per-replication estimate; the matching ``*_se`` is the sample
    standard deviation over replications divided by sqrt(R), and is NaN
    when R = 1.  ``q_hat`` estimates the per-interval miss probability,
    ``yf_mean_hat`` and ``ys_mean_hat`` the interval length conditional
    on a miss and on a delivery.  ``intervals_used`` counts intervals
    over all replications.
    """

    age_priority_hat: float
    age_priority_se: float
    age_nonpriority_hat: float
    age_nonpriority_se: float
    y_mean_hat: float
    y_mean_se: float
    w_mean_hat: float
    w_mean_se: float
    w2_mean_hat: float
    w2_mean_se: float
    xtilde_mean_hat: float
    xtilde_mean_se: float
    m_mean_hat: float
    m_mean_se: float
    q_hat: float
    q_se: float
    yf_mean_hat: float
    yf_mean_se: float
    ys_mean_hat: float
    ys_mean_se: float
    intervals_used: int

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 1:
        return float(values[0]), float("nan")
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))


def _replication_rngs(config: SimConfig) -> list[np.random.Generator]:
    # child streams are spawned from the master seed, so replication r is
    # reproducible on its own and independent of the others
    seq = np.random.SeedSequence(config.seed)
    return [np.random.default_rng(child) for child in seq.spawn(config.replications)]


def run_simulation(config: SimConfig) -> SimResult:
    """Run R independent replications and aggregate their estimates.

    Identical configs give identical results.  Raises
    :class:`InsufficientDataError` if any replication sees fewer than two
    deliveries or not a single miss, which at practical run lengths only
    happens for tiny ``num_intervals``.
    """
    per_rep: list[list[float]] = []
    for rng in _replication_rngs(config):
        ledger = simulate_ledger(config.dist, config.k, config.num_intervals, rng)
        failed = ledger.y[~ledger.delivered]
        succeeded = ledger.y[ledger.delivered]
        if failed.size == 0 or ledger.num_cycles < 1:
            raise InsufficientDataError(
                "replication too short to observe both delivery outcomes"
            )
        per_rep.append(
            [
                accumulate_priority(ledger),
                accumulate_nonpriority(ledger),
                float(ledger.y.mean()),
                float(ledger.w.mean()),
                float(ledger.w @ ledger.w / ledger.num_cycles),
                float(ledger.xtilde.mean()),
                float(ledger.m.mean()),
                float(np.mean(~ledger.delivered)),
                float(failed.mean()),
                float(succeeded.mean()),
            ]
        )
    columns = np.asarray(per_rep, dtype=np.float64).T
    stats = [_mean_se(col) for col in columns]
    flattened = [value for pair in stats for value in pair]
    return SimResult(
        *flattened,
        intervals_used=config.replications * config.num_intervals,
    )


@dataclass(frozen=True)
class CrossCheck:
    """Sawtooth-integration age estimates, aggregated like SimResult."""

    age_priority_hat: float
    age_priority_se: float
    age_nonpriority_hat: float
    age_nonpriority_se: float


def _integrate_priority(ledger: CycleLedger) -> float:
    # node 1 receives update j at (start of interval j) + x1[j] and its
    # age resets to x1[j]; integrate the sawtooth trapezoid by trapezoid
    # between the first and last delivery
    if ledger.num_intervals < 2:
        raise InsufficientDataError("need at least 2 intervals to integrate")
    starts = np.concatenate(([0.0], np.cumsum(ledger.y)[:-1]))
    t = starts + ledger.x1
    dt = np.diff(t)
    area = ledger.x1[:-1] @ dt + 0.5 * (dt @ dt)
    return float(area / (t[-1] - t[0]))


def _integrate_nonpriority(ledger: CycleLedger) -> float:
    # the tracked node receives update j at (start of interval j) +
    # x_nonp[j] whenever delivered, resetting its age to x_nonp[j]
    d = np.flatnonzero(ledger.delivered)
    if d.size < 2:
        raise InsufficientDataError(
            f"need at least 2 deliveries to integrate, got {d.size}"
        )
    starts = np.concatenate(([0.0], np.cumsum(ledger.y)[:-1]))
    t = starts[d] + ledger.x_nonp[d]
    reset = ledger.x_nonp[d]
    dt = np.diff(t)
    area = reset[:-1] @ dt + 0.5 * (dt @ dt)
    return float(area / (t[-1] - t[0]))


def sample_path_cross_check(config: SimConfig) -> CrossCheck:
    """Integrate the age sawtooth directly, bypassing the cycle algebra.

    Replays exactly the sample paths :func:`run_simulation` would see for
    the same config and integrates age event by event.  Capped at
    ``CROSS_CHECK_MAX_INTERVALS`` intervals per replication because the
    point is bookkeeping verification, not throughput.
    """
    if config.num_intervals > CROSS_CHECK_MAX_INTERVALS:
        raise ValueError(
            "cross-check is limited to "
            f"{CROSS_CHECK_MAX_INTERVALS} intervals, got {config.num_intervals}"
        )
    ages_p = []
    ages_e = []
    for rng in _replication_rngs(config):
        ledger = simulate_ledger(config.dist, config.k, config.num_intervals, rng)
        ages_p.append(_integrate_priority(ledger))
        ages_e.append(_integrate_nonpriority(ledger))
    p_hat, p_se = _mean_se(np.asarray(ages_p))
    e_hat, e_se = _mean_se(np.asarray(ages_e))
    return CrossCheck(
        age_priority_hat=p_hat,
        age_priority_se=p_se,
        age_nonpriority_hat=e_hat,
        age_nonpriority_se=e_se,
    )


def write_ledger_csv(ledger: CycleLedger, path) -> None:
    """Dump one row per interval: j, Y_j, X_1j, X_nonp_j, delivered."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("j,Y_j,X_1j,X_nonp_j,delivered\n")
        for j in range(ledger.num_intervals):
            handle.write(
                f"{j + 1},{float(ledger.y[j])!r},{float(ledger.x1[j])!r},"
                f"{float(ledger.x_nonp[j])!r},{int(ledger.delivered[j])}\n"
            )

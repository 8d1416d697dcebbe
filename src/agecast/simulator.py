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

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .order_stats import MAX_K, ServiceDistribution, check_count

__all__ = [
    "CrossCheck",
    "CycleLedger",
    "InsufficientDataError",
    "SimConfig",
    "SimResult",
    "accumulate_nonpriority",
    "accumulate_priority",
    "generate_intervals",
    "run_simulation",
    "sample_path_cross_check",
    "simulate_ledger",
    "write_ledger_csv",
]

CROSS_CHECK_MAX_INTERVALS = 100_000

# rows of uniforms the kernel and the ledger writer handle at a time
_BLOCK_ROWS = 4096

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
        object.__setattr__(self, "k", check_count("k", self.k, maximum=MAX_K))
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


def generate_intervals(
    rng: np.random.Generator, dist: ServiceDistribution, num_intervals: int, k: int
):
    """Draw ``num_intervals`` service intervals for a k-node priority group.

    This is the one place that lays out the random stream.  Interval j
    consumes row j of a row-major (num_intervals, k+1) block of uniforms:
    columns 0..k-1 are the priority nodes and column k the tracked
    non-priority node.  So the call consumes exactly
    ``num_intervals * (k + 1)`` uniforms, and a given seed yields a
    bit-identical sample path on every run.

    k is at most ``MAX_K``.  The block is drawn ``_BLOCK_ROWS`` rows at a
    time, or fewer when k > 1023 so that one block never holds more than
    MAX_K + 1 = 2**22 doubles (32 MiB).  That yields the same doubles as
    one draw, so memory is O(num_intervals + min(_BLOCK_ROWS * k, 2**22))
    rather than O(num_intervals * k).  The inverse CDF is nondecreasing,
    so the row max is taken over the raw uniforms and only three columns
    are transformed: two when k == 1, where x1 is y.

    Returns ``(y, x1, x_nonp, delivered)``: the interval lengths (max of
    the k priority service times), node 1's service times, the tracked
    non-priority node's service times and its delivery flags
    (``x_nonp < y``).
    """
    num_intervals = check_count("num_intervals", num_intervals)
    k = check_count("k", k, maximum=MAX_K)
    rows = min(_BLOCK_ROWS, (MAX_K + 1) // (k + 1))
    u_max = np.empty(num_intervals)
    u_1 = np.empty(num_intervals)
    u_nonp = np.empty(num_intervals)
    for start in range(0, num_intervals, rows):
        stop = min(start + rows, num_intervals)
        block = rng.random((stop - start, k + 1))
        # column-wise folds; a row reduction over k columns is far slower
        m = u_max[start:stop]
        m[:] = block[:, 0]
        for c in range(1, k):
            np.maximum(m, block[:, c], out=m)
        u_1[start:stop] = block[:, 0]
        u_nonp[start:stop] = block[:, k]
        del block  # released before the next draw, so one block is live at a time
    y = dist._inverse_cdf(u_max)
    x1 = y if k == 1 else dist._inverse_cdf(u_1)
    x_nonp = dist._inverse_cdf(u_nonp)
    return y, x1, x_nonp, x_nonp < y


def simulate_ledger(
    dist: ServiceDistribution, k: int, num_intervals: int, rng: np.random.Generator
) -> CycleLedger:
    """Simulate ``num_intervals`` intervals and derive the cycle records."""
    return CycleLedger.from_intervals(*generate_intervals(rng, dist, num_intervals, k))


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
    area = (y[:-1] * x1[1:]).sum() + 0.5 * (y[1:] * y[1:]).sum()
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
    area = 0.5 * (w * w).sum() + (xtilde * w).sum()
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


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 1:
        return float(values[0]), float("nan")
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))


def _replication_ledgers(config: SimConfig) -> Iterator[CycleLedger]:
    # child streams are spawned from the master seed, so replication r is
    # reproducible on its own and independent of the others
    for child in np.random.SeedSequence(config.seed).spawn(config.replications):
        rng = np.random.default_rng(child)
        yield simulate_ledger(config.dist, config.k, config.num_intervals, rng)


def run_simulation(config: SimConfig) -> SimResult:
    """Run R independent replications and aggregate their estimates.

    Identical configs give identical results.  Raises
    :class:`InsufficientDataError` if any replication sees fewer than two
    deliveries or not a single miss, which at practical run lengths only
    happens for tiny ``num_intervals``.
    """
    per_rep: list[list[float]] = []
    for ledger in _replication_ledgers(config):
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
                float((ledger.w * ledger.w).sum() / ledger.num_cycles),
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


def _integrate_age(ledger: CycleLedger, events: np.ndarray, reset: np.ndarray) -> float:
    # the node receives update events[i] at (start of interval events[i])
    # + reset[i] and its age resets to reset[i]; integrate the sawtooth
    # trapezoid by trapezoid between the first and last reception
    if events.size < 2:
        raise InsufficientDataError(
            f"need at least 2 receptions to integrate, got {events.size}"
        )
    starts = np.concatenate(([0.0], np.cumsum(ledger.y)[:-1]))
    t = starts[events] + reset
    dt = np.diff(t)
    area = (reset[:-1] * dt).sum() + 0.5 * (dt * dt).sum()
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
    for ledger in _replication_ledgers(config):
        # node 1 receives every update; the tracked node only its deliveries
        every = np.arange(ledger.num_intervals)
        ages_p.append(_integrate_age(ledger, every, ledger.x1))
        d = np.flatnonzero(ledger.delivered)
        ages_e.append(_integrate_age(ledger, d, ledger.x_nonp[d]))
    return CrossCheck(*_mean_se(ages_p), *_mean_se(ages_e))


def write_ledger_csv(ledger: CycleLedger, path) -> None:
    """Dump one row per interval: j, Y_j, X_1j, X_nonp_j, delivered.

    Floats are written with ``repr``, so they read back exactly.  Rows are
    formatted a block at a time, column by column.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("j,Y_j,X_1j,X_nonp_j,delivered\n")
        for start in range(0, ledger.num_intervals, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, ledger.num_intervals)
            cols = (
                map(str, range(start + 1, stop + 1)),
                map(repr, ledger.y[start:stop].tolist()),
                map(repr, ledger.x1[start:stop].tolist()),
                map(repr, ledger.x_nonp[start:stop].tolist()),
                map(str, ledger.delivered[start:stop].view(np.uint8).tolist()),
            )
            handle.write("\n".join(map(",".join, zip(*cols))) + "\n")

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

import os
import signal
import threading
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .order_stats import MAX_K, ServiceDistribution, check_count

__all__ = [
    "AgeEstimates",
    "CrossCheck",
    "CycleLedger",
    "InsufficientDataError",
    "LedgerSpec",
    "STREAM_VERSION",
    "SimConfig",
    "SimResult",
    "accumulate_nonpriority",
    "accumulate_priority",
    "check_simulable",
    "generate_interval_sweep",
    "generate_intervals",
    "run_age_sweep",
    "run_k_sweep",
    "run_simulation",
    "sample_path_cross_check",
    "simulate_ledger",
    "write_ledger_csv",
]

CROSS_CHECK_MAX_INTERVALS = 100_000

# rows the ledger writer lays out at a time
_BLOCK_ROWS = 4096

# uniforms the interval kernel draws into its buffer at a time when it
# folds a node into the running max; the same stream as a whole column
_COLUMN_CHUNK = 16384

# the delivered column's text and the newline, by flag, as a word
_FLAG_LINES = np.array(
    [int.from_bytes(b"%d\n" % flag, "little") for flag in (0, 1)], np.uint64
)

# rows the ledger writer draws, formats and writes as one task
_TASK_ROWS = 4 * _BLOCK_ROWS

# from this many rows on, the ledger writer formats on a worker pool; below
# it, starting the workers costs more than they save
_POOL_MIN_ROWS = 4 * _TASK_ROWS

# master seeds are 64-bit unsigned integers
MAX_SEED = 2**64 - 1

# above this rate * shift, one ulp of the shift exceeds about 2**-20 of the
# mean tail 1/rate, so simulated service times start to round to the shift
# and tie
MAX_RATE_SHIFT = 2.0**32


def check_simulable(dist: ServiceDistribution) -> ServiceDistribution:
    """``dist``, if its simulated service times stay distinct.

    Raises ValueError naming rate and shift when rate * shift exceeds
    ``MAX_RATE_SHIFT``.  The closed forms accept every law in range.
    """
    if dist.rate * dist.shift > MAX_RATE_SHIFT:
        raise ValueError(
            "rate * shift must be at most 2**32 to simulate, got rate "
            f"{dist.rate} and shift {dist.shift}"
        )
    return dist


class InsufficientDataError(ValueError):
    """A run was too short to form the requested estimator."""


@dataclass(frozen=True)
class SimConfig:
    """One simulation request.

    ``seed`` is the master seed; each of the ``replications`` runs draws
    from its own child stream spawned deterministically from it.  The law
    must pass :func:`check_simulable`.
    """

    dist: ServiceDistribution
    k: int
    num_intervals: int
    seed: int
    replications: int = 8

    def __post_init__(self) -> None:
        check_simulable(self.dist)
        object.__setattr__(self, "k", check_count("k", self.k, maximum=MAX_K))
        # the priority area estimator needs a preceding interval
        object.__setattr__(
            self, "num_intervals", check_count("num_intervals", self.num_intervals, 2)
        )
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0, MAX_SEED))
        object.__setattr__(
            self, "replications", check_count("replications", self.replications)
        )


# the carry of :func:`_cycles` into a run's first row window
_RUN_START = (0.0, (np.empty(0, np.intp), np.empty(0), np.empty(0)))


def _cycles(y, x_nonp, d, work=None, carry=None) -> tuple:
    """The complete renewal cycles of one run, ``(w, xtilde)``, or of a row window of it.

    The one place that turns deliveries into cycles.  ``d`` indexes the
    delivering intervals (``np.flatnonzero`` of the flags), and cycle l
    covers intervals d[l-1]+1 .. d[l] (``np.diff(d)`` counts them).  Its
    span ``w`` is the difference of the interval end times at its two
    deliveries, and ``xtilde`` is the service time of the delivery that
    opened it.  A trailing incomplete cycle is dropped, so with fewer than
    two deliveries both are empty.

    With a ``carry``, the columns are a row window of a run, and the
    result is ``(w, xtilde, m, carry)``: the cycles that close in the
    window, their lengths and the carry into the next window.  A carry is
    ``(end, last)``: the run's end time so far, and the row, end time and
    x_nonp of its last delivery so far as arrays of one element (of none
    before the first delivery), the row counted from the next window's
    start.  ``_RUN_START`` begins a run.  The carried end time joins the
    window's first y before the running sum, so joined over the windows,
    w, xtilde and m = ``np.diff(d)`` are the whole run's bit for bit.

    With a :class:`_Workspace` ``work`` and no carry, the end times and
    ``w`` are written into its ``y`` buffer and the gathered end times and
    ``xtilde`` into its ``spans`` buffer, with the same values; ``w`` and
    ``xtilde`` are then valid until those buffers are written again.  If
    ``y`` is that ``y`` buffer, its running sum is taken in place, so the
    caller must be done with ``y``.
    """
    if carry is not None:
        ends = y.copy()
        ends[0] += carry[0]
        np.cumsum(ends, out=ends)
        rows, times, openers = map(np.concatenate, zip(carry[1], (d, ends[d], x_nonp[d])))
        last = rows[-1:] - y.size, times[-1:], openers[-1:]
        return np.diff(times), openers[:-1], np.diff(rows), (ends[-1], last)
    if work is None:
        return np.diff(np.cumsum(y)[d]), x_nonp[d[:-1]]
    ends, spans = work("y"), work("spans")
    # the indices come from flatnonzero, so clipping never moves one; the
    # default mode would copy ``out`` first
    gathered = np.take(np.cumsum(y, out=ends), d, out=spans[: d.size], mode="clip")
    w = np.subtract(gathered[1:], gathered[:-1], out=ends[: gathered[1:].size])
    return w, np.take(x_nonp, d[:-1], out=spans[: w.size], mode="clip")


def _priority_age(y: np.ndarray, x1: np.ndarray, out=None) -> float:
    # ``out``, if given, holds each product in turn instead of a new array
    products = None if out is None else out[: y.size - 1]
    area = (
        np.multiply(y[:-1], x1[1:], out=products).sum()
        + 0.5 * np.multiply(y[1:], y[1:], out=products).sum()
    )
    return float(area / y[1:].sum())


def _nonpriority_age(w: np.ndarray, xtilde: np.ndarray) -> tuple[float, float, float]:
    """The non-priority age estimate, the sum of w**2 and the sum of w.

    Overwrites ``w`` with w**2 and ``xtilde`` with xtilde * w.
    """
    w_sum = w.sum()
    xw_sum = np.multiply(xtilde, w, out=xtilde).sum()
    w_sq_sum = np.multiply(w, w, out=w).sum()
    area = 0.5 * w_sq_sum + xw_sum
    return float(area / w_sum), w_sq_sum, w_sum


class _Workspace:
    """Named buffers that one thread reuses from pass to pass, made on first use.

    ``work(name, dtype, size)`` is the buffer ``name``, of ``size``
    elements (the workspace's size by default); the dtype and size of its
    first request stay.  A buffer holds whatever its last writer left, so
    every user writes a slice before it reads it and reads only that
    slice.  A replication thread's workspace holds the columns that
    :func:`generate_interval_sweep` draws (float64 ``x_nonp``, ``u_max``,
    ``x1`` and ``y``, the bool ``delivered`` and a short ``chunk``), the
    float64 ``spans`` that :func:`_cycles` and the estimators write, and,
    for :func:`_replication_estimates` only, the bool ``miss`` mask.
    """

    def __init__(self, size: int):
        self.size = size
        self._buffers: dict[str, np.ndarray] = {}

    def __call__(self, name: str, dtype=np.float64, size: int | None = None) -> np.ndarray:
        buffer = self._buffers.get(name)
        if buffer is None:
            buffer = np.empty(self.size if size is None else size, dtype)
            self._buffers[name] = buffer
        return buffer


def _run_bytes(num_intervals: int, replications: int) -> int:
    """Bytes of the arrays that a run or sweep holds at once.

    Per replication thread: a :class:`_Workspace` of five float64
    buffers and one bool (and a bool miss mask for the full estimates of
    :func:`run_k_sweep`), and the int64 delivery or miss indices, so the
    bound has one float64 buffer of slack.  A run has at most one thread
    per replication, each pool thread keeps at most one workspace, and a
    workspace goes when the last run that used it returns.  ``validate``
    adds only ``order_stat_monte_carlo``'s column; its other runs stream.
    """
    return (6 * 8 + 2 + 8) * num_intervals * min(_usable_cpus(), replications)


# the version of the random-stream layout below; every seeded output
# depends on it.  1 was row-major by interval, 2 is column-major by node.
STREAM_VERSION = 2


def generate_interval_sweep(
    rng: np.random.Generator,
    dist: ServiceDistribution,
    num_intervals: int,
    ks,
    work: _Workspace | None = None,
    rows: tuple[int, int] | None = None,
) -> Iterator[tuple]:
    """Draw ``num_intervals`` service intervals at each group size in ``ks``.

    This is the one place that lays out the random stream.  It is
    column-major by node: the first ``num_intervals`` uniforms serve the
    tracked non-priority node, the next ``num_intervals`` node 1, then
    node 2 and so on.  Node i's service times are therefore the same at
    every k >= i, so one pass serves a strictly increasing ``ks``, and
    the interval length y_{k+1} = max(y_k, X_{k+1}) grows pathwise.  The
    pass consumes exactly ``num_intervals * (max(ks) + 1)`` uniforms, and
    a given seed yields a bit-identical sample path on every run.

    ``rows=(start, stop)`` draws only intervals ``start .. stop - 1`` of
    that pass, bit for bit the same slice of every column.  Before it
    draws a node's column, the pass jumps the stream ahead to row
    ``start`` of that column with ``rng.bit_generator.advance``, which
    PCG64 does in O(log N) steps; the stream is left at row ``stop`` of
    the last column.  A window short of the whole pass therefore needs a
    PCG64 or PCG64DXSM generator (any other raises ValueError), while the
    whole pass never jumps and takes any generator.  The ledger writer
    draws each block of a dump this way, in the process that formats it.

    Each node after node 1 is drawn ``_COLUMN_CHUNK`` uniforms at a time
    and folded into a running max of the raw uniforms, which the
    nondecreasing inverse CDF maps to y; memory is four arrays of the
    window's length at every k.  x_nonp and x1 are transformed once and
    y once per k (never at k == 1, where y is x1).

    Yields ``(y, x1, x_nonp, delivered)`` per k, in the order of ``ks``:
    the interval lengths (max of the k priority service times), node 1's
    service times, the tracked non-priority node's service times and its
    delivery flags (``x_nonp < y``).  Without ``work``, a yielded array is
    never changed afterwards, and the pass keeps no reference to a k's
    ``y`` or ``delivered`` once it resumes.  With a ``_Workspace`` of the
    window's length, every column is written into its buffers
    instead, so a yielded array is valid only until the pass resumes:
    the next k overwrites ``y`` and ``delivered``, and the next pass
    through the same workspace overwrites all four.  The values are the
    same either way.
    """
    num_intervals = check_count("num_intervals", num_intervals)
    ks = tuple(check_count("k", k, maximum=MAX_K) for k in ks)
    if not ks or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError(f"ks must be nonempty and strictly increasing, got {ks}")
    if rows is None:
        start, stop = 0, num_intervals
    else:
        start = check_count("row start", rows[0], 0)
        stop = check_count("row stop", rows[1], start + 1, num_intervals)
    size = stop - start
    # their advance(n) skips exactly n uniforms of ``random``
    if size < num_intervals and not isinstance(
        rng.bit_generator, (np.random.PCG64, np.random.PCG64DXSM)
    ):
        raise ValueError(
            "a row window jumps the stream, which needs a PCG64 or PCG64DXSM "
            f"generator, got {type(rng.bit_generator).__name__}"
        )
    if work is None:

        def work(name, dtype=np.float64, size=size):
            # a new array each time, so that a yielded array is never changed
            return np.empty(size, dtype)

    elif work.size != size:
        raise ValueError(f"workspace holds {work.size} intervals, the pass draws {size}")
    # the stream stands at uniform ``position`` of the whole pass
    position = 0

    def seek(node: int) -> None:
        # jump to row ``start`` of ``node``'s column; 0 is the tracked node
        nonlocal position
        gap = node * num_intervals + start - position
        if gap:
            rng.bit_generator.advance(gap)
        position = node * num_intervals + stop

    seek(0)
    x_nonp = rng.random(out=work("x_nonp"))
    dist._inverse_cdf(x_nonp, out=x_nonp)
    seek(1)
    u_max = rng.random(out=work("u_max"))
    x1 = dist._inverse_cdf(u_max, out=work("x1"))
    chunk = work("chunk", size=min(size, _COLUMN_CHUNK))
    drawn = 1
    for k in ks:
        for node in range(drawn + 1, k + 1):
            seek(node)
            for offset in range(0, size, chunk.size):
                part = u_max[offset : offset + chunk.size]
                np.maximum(part, rng.random(out=chunk[: part.size]), out=part)
        drawn = k
        y = x1 if k == 1 else dist._inverse_cdf(u_max, out=work("y"))
        yield y, x1, x_nonp, np.less(x_nonp, y, out=work("delivered", bool))
        del y  # so the caller can free it before the next draw


# The whole-run API, down to accumulate_nonpriority, has no caller left in
# agecast.  It stays for perfbench: checks.py builds its ledger oracle from
# simulate_ledger, and tracer.py times the rest under these names.


@dataclass(frozen=True)
class CycleLedger:
    """The per-interval draws of one simulated run, and nothing derived.

    Per interval: length ``y``, node 1's service time ``x1``, the tracked
    non-priority service time ``x_nonp`` and its ``delivered`` flag.  The
    renewal cycles are read off these columns by :func:`_cycles` where
    they are needed.
    """

    y: np.ndarray
    x1: np.ndarray
    x_nonp: np.ndarray
    delivered: np.ndarray

    @classmethod
    def from_intervals(cls, y, x1, x_nonp, delivered) -> "CycleLedger":
        return cls(y, x1, x_nonp, delivered)

    @property
    def num_intervals(self) -> int:
        return self.y.size

    @property
    def num_cycles(self) -> int:
        return max(int(np.count_nonzero(self.delivered)) - 1, 0)


def generate_intervals(
    rng: np.random.Generator, dist: ServiceDistribution, num_intervals: int, k: int
):
    """Draw ``num_intervals`` service intervals for a k-node priority group.

    The single-k case of :func:`generate_interval_sweep`: it consumes
    exactly ``num_intervals * (k + 1)`` uniforms and returns
    ``(y, x1, x_nonp, delivered)``.
    """
    return next(generate_interval_sweep(rng, dist, num_intervals, (k,)))


def simulate_ledger(
    dist: ServiceDistribution, k: int, num_intervals: int, rng: np.random.Generator
) -> CycleLedger:
    """Simulate ``num_intervals`` intervals and keep their four drawn columns.

    With ``rng = default_rng(SeedSequence(seed))`` these are the rows that
    :func:`write_ledger_csv` dumps for ``LedgerSpec(dist, k, num_intervals,
    seed)`` without ever holding them whole, so it is the dump's oracle.
    """
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
    return _priority_age(ledger.y, ledger.x1)


def accumulate_nonpriority(ledger: CycleLedger) -> float:
    """Renewal-reward age estimate for the tracked non-priority node.

    Each complete cycle of :func:`_cycles` contributes area
    w**2 / 2 + xtilde * w over its span w.
    """
    d = np.flatnonzero(ledger.delivered)
    w, xtilde = _cycles(ledger.y, ledger.x_nonp, d)
    if w.size < 1:
        raise InsufficientDataError(
            f"non-priority age needs at least 2 deliveries, got {d.size}"
        )
    return _nonpriority_age(w, xtilde)[0]


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


@dataclass(frozen=True)
class AgeEstimates:
    """The two replication-averaged ages of a :class:`SimResult`, with their stderrs."""

    age_priority_hat: float
    age_priority_se: float
    age_nonpriority_hat: float
    age_nonpriority_se: float


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 1:
        return float(values[0]), float("nan")
    # std squares the deviations, which overflow for values near 1e200;
    # scaling by a power of two first and back afterwards is exact
    exponent = np.frexp(np.abs(values).max())[1]
    spread = np.ldexp(np.ldexp(values, -exponent).std(ddof=1), exponent)
    return float(values.mean()), float(spread / np.sqrt(values.size))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, or 1 without one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# per thread: ``pool``, the executor whose thread it is, and ``held``, its
# replication workspace (:func:`_map_replications`)
_here = threading.local()
# guards the hand-over of a thread's workspace from one run to the next
_hand_over = threading.Lock()


class _Held:
    """A thread's replication workspace and the run that last claimed it."""

    __slots__ = ("work", "run")

    def __init__(self) -> None:
        self.work = self.run = None


def _join_pool(pools: list) -> None:
    # a pool thread's initializer: nested calls it makes share its pool
    _here.pool = pools[0]


def _ordered_map(fn, items: Sequence) -> list:
    """``[fn(item) for item in items]``, on the process's one thread pool.

    A call from outside a pool with two or more items, on two or more
    usable CPUs, opens a pool of one thread per CPU of the affinity mask
    (threads start as items arrive, so at most one per item) and shuts
    it down before it returns; otherwise ``fn`` runs in the caller's
    thread.  A call made from one of the pool's threads submits its
    items to that same pool, then walks them in item order: an item no
    thread has started yet is cancelled and run in the calling thread,
    and one that another thread runs is waited for.  So a thread never
    waits on queued work, idle threads pick up nested items, and never
    more than one pool thread per CPU runs.  Each pool thread keeps at
    most one replication workspace (:func:`_map_replications`).

    Results come back in item order, so they do not depend on the thread
    count.  If a call raises, the queued ones are cancelled and the first
    exception in item order reaches the caller once the items already
    running have stopped, and, for the call that opened the pool, once
    its threads have stopped.
    """
    pool = getattr(_here, "pool", None)
    if pool is not None and len(items) > 1:
        return _walk(pool, fn, items, inline=True)
    if pool is not None or min(_usable_cpus(), len(items)) <= 1:
        return list(map(fn, items))
    # here, so that importing agecast stays as fast
    from concurrent.futures import ThreadPoolExecutor

    pools: list = []
    pool = ThreadPoolExecutor(_usable_cpus(), initializer=_join_pool, initargs=(pools,))
    pools.append(pool)
    try:
        return _walk(pool, fn, items, inline=False)
    finally:
        pool.shutdown(cancel_futures=True)


def _walk(pool, fn, items: Sequence, inline: bool) -> list:
    """Submit ``fn`` of every item to ``pool`` and collect the results in item order.

    With ``inline``, an item that no thread has started is cancelled and
    run in this thread instead of waited for (the help-first rule of
    work-stealing schedulers).  If an item raises, the items not yet
    started are cancelled and the running ones waited for before the
    exception propagates.
    """
    futures = [pool.submit(fn, item) for item in items]
    try:
        return [
            fn(item) if inline and future.cancel() else future.result()
            for item, future in zip(items, futures)
        ]
    except BaseException:
        # cancel every queued item first; the rest are running or done
        for future in [future for future in futures if not future.cancel()]:
            future.exception()
        raise


def _map_replications(config: SimConfig, ks, fn) -> list[list]:
    """Per replication, ``fn(y, x1, x_nonp, delivered, work)`` at each k in ``ks``.

    Replication r draws from child stream r spawned from the master seed,
    so it is reproducible on its own and independent of the others.  The
    replications run through :func:`_ordered_map`, one thread per usable
    CPU and at most one per replication (numpy releases the GIL while it
    draws, transforms and sums), and come back in replication order.

    Each thread keeps one :class:`_Workspace`, draws every replication it
    runs into it and passes it to ``fn`` as ``work`` for its scratch.  A
    workspace is replaced when a replication needs another length, and is
    dropped when the last run that used it returns, so a run keeps at
    most one workspace per thread that ran it, and a pool thread at most
    one whichever runs it serves.  The columns ``fn`` gets are
    overwritten at the next k, so ``fn`` must not keep them.
    """
    children = np.random.SeedSequence(config.seed).spawn(config.replications)
    # the holders of the threads that ran a replication; the list is also
    # this run's mark on the holders it last claimed
    claimed: list[_Held] = []

    def replicate(child) -> list:
        held = getattr(_here, "held", None)
        if held is None:
            held = _here.held = _Held()
        with _hand_over:
            held.run = claimed
            work = held.work
        claimed.append(held)
        if work is None or work.size != config.num_intervals:
            work = held.work = None  # freed before the next one is made
            work = held.work = _Workspace(config.num_intervals)
        rng = np.random.default_rng(child)
        intervals = generate_interval_sweep(
            rng, config.dist, config.num_intervals, ks, work
        )
        return [fn(*columns, work) for columns in intervals]

    try:
        return _ordered_map(replicate, children)
    finally:
        # every replication has stopped; a holder that no later run claimed
        # lets its workspace go
        with _hand_over:
            for held in claimed:
                if held.run is claimed:
                    held.work = held.run = None


def _replication_ages(y, x1, x_nonp, delivered, work=None) -> dict[str, float]:
    """One replication's two ages at one k, keyed by SimResult field without suffix.

    All a sweep point writes.  Bit for bit ``accumulate_priority`` and
    ``accumulate_nonpriority`` of a CycleLedger of the same columns; see
    :func:`_ages` for the buffers it uses and spends.
    """
    return _ages(y, x1, x_nonp, np.flatnonzero(delivered), work)[0]


def _ages(y, x1, x_nonp, d, work):
    """:func:`_replication_ages` from the delivery indices ``d``, with the sums of w**2 and w.

    The priority age comes first, its products in the ``spans`` buffer of
    the workspace ``work`` (a new one when it is None).  :func:`_cycles`
    then writes the cycles into the ``y`` and ``spans`` buffers, so a
    ``y`` drawn into the workspace is spent; at k = 1, ``y`` is ``x1``,
    which it never writes.  Raises :class:`InsufficientDataError` unless
    the run sees two deliveries and a miss.
    """
    if work is None:
        work = _Workspace(y.size)
    age_priority = _priority_age(y, x1, out=work("spans"))
    w, xtilde = _cycles(y, x_nonp, d, work)
    if d.size == y.size or d.size < 2:
        raise InsufficientDataError(
            "replication too short to observe both delivery outcomes"
        )
    age_nonpriority, w_sq_sum, w_sum = _nonpriority_age(w, xtilde)
    ages = {"age_priority": age_priority, "age_nonpriority": age_nonpriority}
    return ages, w_sq_sum, w_sum


def _replication_estimates(y, x1, x_nonp, delivered, work=None) -> dict[str, float]:
    """One replication's estimates at one k, keyed by SimResult field without suffix.

    Read straight off the interval columns and their :func:`_cycles`, with
    every length-N temporary in the buffers of the workspace ``work`` (a
    new one when it is None), so a thread that reuses one workspace makes
    no length-N array per point.  The sums of y come first, because
    :func:`_ages` spends a ``y`` drawn into the workspace.  Each sum sees
    the same values as the one over a new array, contiguous and of the
    same length, so it keeps its bits: each value equals, bit for bit,
    ``accumulate_priority``, ``accumulate_nonpriority`` of a CycleLedger of
    the same columns, or the mean of the whole-run array of the sample it
    is named after (y, the cycles' w, w**2, xtilde and lengths from
    :func:`_cycles`, the miss flags, and y at the misses and at the
    deliveries).
    """
    num_intervals = y.size
    if work is None:
        work = _Workspace(num_intervals)
    spans = work("spans")
    y_sum = y.sum()
    # the gathers of y go to ``spans`` until the ages need it, the misses' first
    # so that their indices are freed early (take's clip mode as in _cycles)
    missed = np.flatnonzero(np.logical_not(delivered, out=work("miss", bool)))
    yf_sum = np.take(y, missed, out=spans[: missed.size], mode="clip").sum()
    del missed
    d = np.flatnonzero(delivered)
    ys_sum = np.take(y, d, out=spans[: d.size], mode="clip").sum()
    ages, w_sq_sum, w_sum = _ages(y, x1, x_nonp, d, work)
    deliveries = d.size
    misses = num_intervals - deliveries
    cycles = deliveries - 1
    xtilde_sum = np.take(x_nonp, d[:-1], out=spans[:cycles], mode="clip").sum()
    return {
        **ages,
        "y_mean": float(y_sum / num_intervals),
        "w_mean": float(w_sum / cycles),
        "w2_mean": float(w_sq_sum / cycles),
        "xtilde_mean": float(xtilde_sum / cycles),
        # the integer cycle lengths diff(d) sum exactly in float64
        "m_mean": float(d[-1] - d[0]) / cycles,
        "q": misses / num_intervals,
        "yf_mean": float(yf_sum / misses),
        "ys_mean": float(ys_sum / deliveries),
    }


def _combine(per_rep: Sequence[Sequence[dict]]) -> list[dict[str, float]]:
    """Per point, each estimate's replication mean and stderr.

    ``per_rep`` holds, in replication order, one dict of estimates per
    point; each point's dict keys the mean and the stderr of an estimate
    by its name with ``_hat`` and ``_se``.
    """
    points = []
    for point in zip(*per_rep):
        fields = {}
        for name in point[0]:
            values = [estimates[name] for estimates in point]
            fields[f"{name}_hat"], fields[f"{name}_se"] = _mean_se(values)
        points.append(fields)
    return points


def _k_sweep(configs: Sequence[SimConfig], estimate) -> tuple[SimConfig, list[dict]]:
    """The first config, and per point the :func:`_combine` of ``estimate``."""
    configs = tuple(configs)
    if not configs:
        raise ValueError("a k sweep needs at least one config")
    first = configs[0]
    if any(replace(config, k=first.k) != first for config in configs):
        raise ValueError("the configs of a k sweep must differ only in k")
    per_rep = _map_replications(first, [config.k for config in configs], estimate)
    return first, _combine(per_rep)


def run_k_sweep(configs: Sequence[SimConfig]) -> tuple[SimResult, ...]:
    """Run configs that differ only in a strictly increasing k.

    Each replication makes one pass of :func:`generate_interval_sweep`
    that adds one node per k, so the points share their draws (common
    random numbers), and each result equals ``run_simulation`` of its
    config.  Raises :class:`InsufficientDataError` if any replication at
    any k sees fewer than two deliveries or not a single miss, which at
    practical run lengths only happens for tiny ``num_intervals``.

    The replications run on one thread per CPU of the affinity mask, at
    most one per replication, and are combined in replication order, so
    the results do not depend on the CPU count.  Each thread reuses one
    workspace of a few length-N buffers for all its replications and
    points, so memory is about the thread count times that workspace at
    any k (tracemalloc: 6.4 arrays at N = 100 000, k = 1..20, one thread;
    6.3 for :func:`run_age_sweep`).
    """
    first, points = _k_sweep(configs, _replication_estimates)
    used = first.replications * first.num_intervals
    return tuple(SimResult(**fields, intervals_used=used) for fields in points)


def run_age_sweep(configs: Sequence[SimConfig]) -> tuple[AgeEstimates, ...]:
    """The two ages of :func:`run_k_sweep`, bit for bit, and nothing else.

    Each point computes only its ages (:func:`_replication_ages`), which
    saves the cycle moments' gathers and the miss mask's buffer; the
    sweeps and the age checks read no other field.
    """
    _, points = _k_sweep(configs, _replication_ages)
    return tuple(AgeEstimates(**fields) for fields in points)


def run_simulation(config: SimConfig) -> SimResult:
    """Run R independent replications and aggregate their estimates.

    The one-k case of :func:`run_k_sweep`.  Identical configs give
    identical results.
    """
    return run_k_sweep((config,))[0]


@dataclass(frozen=True)
class CrossCheck(AgeEstimates):
    """Sawtooth-integration age estimates, aggregated like SimResult."""


def _integrate_age(y: np.ndarray, events: np.ndarray, reset: np.ndarray) -> float:
    # the node receives update events[i] at (start of interval events[i])
    # + reset[i] and its age resets to reset[i]; integrate the sawtooth
    # trapezoid by trapezoid between the first and last reception
    if events.size < 2:
        raise InsufficientDataError(
            f"need at least 2 receptions to integrate, got {events.size}"
        )
    starts = np.concatenate(([0.0], np.cumsum(y)[:-1]))
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
    per_rep = _map_replications(config, (config.k,), _integrated_ages)
    return CrossCheck(**_combine(per_rep)[0])


def _integrated_ages(y, x1, x_nonp, delivered, work) -> dict[str, float]:
    # node 1 receives every update; the tracked node only its deliveries.
    # ``work`` goes unused: the cross-check's runs are short
    d = np.flatnonzero(delivered)
    return {
        "age_priority": _integrate_age(y, np.arange(y.size), x1),
        "age_nonpriority": _integrate_age(y, d, x_nonp[d]),
    }


@dataclass(frozen=True)
class LedgerSpec:
    """One ledger dump: the law, k, the row count and the master seed.

    Its rows are the columns that :func:`simulate_ledger` draws from
    ``default_rng(SeedSequence(seed))``.  The law must pass
    :func:`check_simulable`.
    """

    dist: ServiceDistribution
    k: int
    num_intervals: int
    seed: int

    def __post_init__(self) -> None:
        check_simulable(self.dist)
        object.__setattr__(self, "k", check_count("k", self.k, maximum=MAX_K))
        object.__setattr__(
            self, "num_intervals", check_count("num_intervals", self.num_intervals)
        )
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0, MAX_SEED))


def _block_text(first: int, y, x1, x_nonp, delivered) -> np.ndarray:
    """The CSV lines of one block whose first row is row ``first``, as ``uint8`` text.

    Each row is laid out in fixed-width ``uint64`` words: j and its comma,
    three 24-character fields that each hold a float's ``repr`` and its
    comma, and a word with the flag and the newline.  Every unused
    character is NUL, and one compaction drops them all.
    """
    from ._shortest import write_counting, write_reprs

    size = y.size
    j_words = (len(str(first + size - 1)) + 8) // 8  # the digits and a comma
    rows = np.empty((size, j_words + 10), np.uint64)
    write_counting(first, rows[:, :j_words])
    floats = rows[:, j_words : j_words + 9].reshape(size, 3, 3)
    write_reprs(np.stack((y, x1, x_nonp), axis=1), floats, b",")
    rows[:, -1] = _FLAG_LINES[delivered.view(np.uint8)]
    text = rows.view(np.uint8).reshape(-1)
    return text[text != 0]


def _ledger_rows(
    spec: LedgerSpec, start: int, stop: int | None = None
) -> tuple[bytes, int]:
    """CSV lines and delivery count of rows ``start .. stop - 1`` of a ledger.

    ``stop`` defaults to the end of the block that begins at ``start``.
    The rows are drawn here, as one row window of the whole pass from the
    seed's PCG64 start state, so no process holds more than these rows of
    any column.  They are laid out a block of ``_BLOCK_ROWS`` at a time by
    :func:`_block_text`, whose floats come from ``_shortest.write_reprs``,
    byte for byte their ``repr``.
    """
    if stop is None:
        stop = min(start + _BLOCK_ROWS, spec.num_intervals)
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    columns = next(
        generate_interval_sweep(
            rng, spec.dist, spec.num_intervals, (spec.k,), rows=(start, stop)
        )
    )
    blocks = (
        _block_text(start + 1 + a, *(c[a : a + _BLOCK_ROWS] for c in columns))
        for a in range(0, stop - start, _BLOCK_ROWS)
    )
    return b"".join(blocks), int(np.count_nonzero(columns[3]))


def _write_all(fd: int, data) -> None:
    """Write all of ``data`` to ``fd``, over as many partial writes as it takes."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _write_rows(spec: LedgerSpec, fd: int, turn, start: int) -> int:
    """Draw, format and write the task of rows from ``start``; its delivery count.

    A task is ``_TASK_ROWS`` rows.  With ``turn`` None, the text is
    written to ``fd`` at once.  On a pool, ``turn`` is a shared
    ``(Condition, value)``: the text is formatted first, then written
    once the value reaches this task's index, which it then moves on, so
    the workers write in row order through the file offset they share.
    """
    stop = min(start + _TASK_ROWS, spec.num_intervals)
    text, deliveries = _ledger_rows(spec, start, stop)
    if turn is None:
        _write_all(fd, text)
        return deliveries
    condition, position = turn
    task = start // _TASK_ROWS
    with condition:
        condition.wait_for(lambda: position.value == task)
        _write_all(fd, text)
        position.value = task + 1
        condition.notify_all()
    return deliveries


# a pool worker's task, set by _start_worker in the worker only
_worker_task = None


def _start_worker(spec: LedgerSpec, fd: int, turn) -> None:
    global _worker_task
    _worker_task = partial(_write_rows, spec, fd, turn)
    # Ctrl-C reaches the whole process group; only the parent acts on it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _keep_freed_heap()


def _keep_freed_heap() -> None:
    """Have glibc keep this process's freed heap for reuse.

    Formatting a ledger task makes and frees a few MB of temporaries
    and text in the process that formats it.  Under glibc's default
    thresholds that memory goes back to the kernel after every block
    and faults in again on the next: a 1 M-row dump at k = 20 took about
    29 % more CPU on two CPUs without this call in the forked workers,
    and about 34 % more on one CPU without it in the ``ledger`` command.
    The thresholds are process-wide, so this runs only in processes
    agecast owns: the forked workers and the ``ledger`` command.
    Without glibc's ``mallopt`` it does nothing.
    """
    try:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, OSError, AttributeError, TypeError):
        return
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: keep up to 64 MiB of free heap
    mallopt(-3, 8 << 20)  # M_MMAP_THRESHOLD: serve blocks below 8 MiB from the heap


def _worker_rows(start: int) -> int:
    return _worker_task(start)


def _pool_size(num_rows: int) -> int:
    """Processes that write a ledger of ``num_rows`` rows; 1 means this one alone."""
    if num_rows < _POOL_MIN_ROWS:
        return 1
    import multiprocessing  # here, so that importing agecast stays as fast

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    tasks = -(-num_rows // _TASK_ROWS)
    return min(_usable_cpus(), tasks)


def write_ledger_csv(ledger: LedgerSpec, path) -> int:
    """Dump one row per interval: j, Y_j, X_1j, X_nonp_j, delivered.

    Returns the number of deliveries.  ``ledger`` names the dump.  Its
    rows are drawn, formatted and written a task of ``_TASK_ROWS`` =
    16384 at a time, each drawn as one row window of the seed's stream
    and laid out as byte text a block of 4096 rows at a time; memory
    stays a few tasks whatever ``num_intervals``.  Floats are written as
    the shortest decimal that reads back to the same double, byte for
    byte ``repr``, by the vectorised kernel ``_shortest.write_reprs``,
    which the tests check against ``repr``.  From ``_POOL_MIN_ROWS`` =
    65536 rows on, where the ``fork`` start method exists and the
    process may run on more than one CPU, the tasks run on a pool of
    forked workers, at most one per CPU of the affinity mask.  Each
    worker writes its own text to the file descriptor it inherits, in row
    order, and sends back only its delivery count; fork spares each
    worker a fresh import of agecast, and the workers share only the
    spec, the descriptor and the turn.  If a task raises, the exception
    reaches the caller and the waiting workers are terminated.  The bytes
    do not depend on the path taken or on the CPU count.
    """
    # imported on the ledger path only, and before the fork, so that the
    # workers inherit it
    from . import _shortest  # noqa: F401

    starts = range(0, ledger.num_intervals, _TASK_ROWS)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        # written before the fork, so the workers' writes follow it
        _write_all(fd, b"j,Y_j,X_1j,X_nonp_j,delivered\n")
        workers = _pool_size(ledger.num_intervals)
        if workers == 1:
            return sum(map(partial(_write_rows, ledger, fd, None), starts))
        import multiprocessing

        # fork, so that no worker imports agecast again and each inherits
        # the descriptor, whose file offset they all share.  The workers
        # are forked before the pool starts its own threads, and they call
        # no BLAS routine.
        context = multiprocessing.get_context("fork")
        turn = (context.Condition(), context.RawValue("q", 0))
        with context.Pool(workers, _start_worker, (ledger, fd, turn)) as pool:
            deliveries = sum(pool.imap(_worker_rows, starts))
            pool.close()
            pool.join()
        return deliveries
    finally:
        os.close(fd)

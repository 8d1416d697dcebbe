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

# rows that every reader of the stream takes at a time: the interval kernel
# folds a node's column into the running max in chunks of this many
# uniforms, the ledger writer draws, formats and writes a task of this many
# rows, and validate's streamed checks draw and reduce blocks of this many
_ROWS = 16384

# from this many rows on, the ledger writer formats on a worker pool; below
# it, starting the workers costs more than they save
_POOL_MIN_ROWS = 4 * _ROWS

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


# the carry of :func:`_cycles` into a run's first row window: no time has
# passed and no delivery has been seen
_RUN_START = (np.zeros(1), np.empty(0, np.intp), np.empty(0), np.empty(0))


def _cycles(y, x_nonp, d, work, carry=_RUN_START) -> tuple:
    """The renewal cycles that close in a row window of a run: ``(w, xtilde, carry)``.

    The one place that turns deliveries into cycles.  ``d`` indexes the
    window's delivering intervals (``np.flatnonzero`` of its flags), and a
    cycle runs from one delivery to the next: its span ``w`` is the
    difference of the interval end times at the two, and ``xtilde`` is the
    service time of the delivery that opened it.  A cycle still open at
    the window's end is left to the next window.

    ``carry`` is ``(end, row, time, opener)``: the run's end time so far,
    and the row, end time and x_nonp of its last delivery so far, each an
    array of one element (the last three of none before the first
    delivery), the row counted from the window's start.  ``_RUN_START``
    begins a run, so a whole run is the window that starts there, and its
    cycles are ``np.diff(np.cumsum(y)[d])`` and ``x_nonp[d[:-1]]``.  The
    returned carry holds its own arrays and goes into the next window, so
    joined over the windows, w and xtilde are the whole run's bit for bit.

    The end times and then ``w`` are written into the ``y`` buffer of the
    :class:`_Workspace` ``work``, and the end times and then the openers
    of the deliveries, the carried one first, into its ``spans`` buffer;
    ``w`` and ``xtilde`` are valid until those buffers are written again.
    If ``y`` is that ``y`` buffer, the end times are summed in place, so
    the caller must be done with ``y``.
    """
    end, row, time, opener = carry
    ends = work("y", size=y.size)
    # numpy copies nothing when ``y`` is ``ends``
    np.copyto(ends, y)
    ends[:1] += end
    np.cumsum(ends, out=ends)
    # the end times of the carried delivery and the window's, then their openers
    spans = work("spans", size=row.size + d.size)
    spans[: row.size] = time
    # the indices come from flatnonzero, so clipping never moves one; the
    # default mode would copy ``out`` first
    np.take(ends, d, out=spans[row.size :], mode="clip")
    # copied before ``w`` and the openers overwrite them
    end, time = ends[-1:].copy(), spans[-1:].copy()
    w = np.subtract(spans[1:], spans[:-1], out=ends[: spans[1:].size])
    spans[: row.size] = opener
    np.take(x_nonp, d, out=spans[row.size :], mode="clip")
    row = (d[-1:] if d.size else row) - y.size
    return w, spans[:-1], (end, row, time, spans[-1:].copy())


def _priority_age(y: np.ndarray, x1: np.ndarray, out: np.ndarray) -> float:
    # ``out`` holds each product in turn
    products = out[: y.size - 1]
    area = (
        np.multiply(y[:-1], x1[1:], out=products).sum()
        + 0.5 * np.multiply(y[1:], y[1:], out=products).sum()
    )
    return float(area / y[1:].sum())


def _nonpriority_age(w: np.ndarray, xtilde: np.ndarray) -> tuple[float, float, float, float]:
    """The non-priority age estimate, the sum of w**2, the sum of w and the sum of xtilde.

    Overwrites ``w`` with w**2 and ``xtilde`` with xtilde * w, after their sums.
    """
    w_sum = w.sum()
    xtilde_sum = xtilde.sum()
    xw_sum = np.multiply(xtilde, w, out=xtilde).sum()
    w_sq_sum = np.multiply(w, w, out=w).sum()
    area = 0.5 * w_sq_sum + xw_sum
    return float(area / w_sum), w_sq_sum, w_sum, xtilde_sum


class _Workspace:
    """Named buffers that one process reuses from pass to pass, made on first use.

    ``work(name, dtype, size)`` is the first ``size`` elements (the
    workspace's size by default) of the buffer ``name``.  A buffer is
    made, of the request's dtype, on the first request and again,
    larger, on a request for more than it holds, so each name keeps one
    dtype.  A buffer holds whatever its last writer left, so every user
    writes a slice before it reads it and reads only that slice.

    The process that makes a workspace owns it, and a workspace made
    empty before a fork becomes each forked worker's own; no two
    processes or threads share one.  Each owner names its buffers:

    - a replication workspace, one per process that runs replications of
      a :func:`_map_replications` call, which goes when the call returns:
      the float64 ``x_nonp``, ``u_max``, ``x1``, ``y`` and ``chunk`` and
      the bool ``delivered`` that :func:`generate_interval_sweep` draws,
      the float64 ``spans`` of the estimators, and for
      :func:`_replication_estimates` only the bool ``miss`` mask; the
      whole run's :func:`_cycles` go into ``y`` and ``spans``;
    - a ledger writer's workspace, one per :func:`write_ledger_csv` call,
      and its copy in each forked worker: the same drawn columns of one
      task, and the scratch and text that ``_shortest.ledger_text`` names;
    - the two workspaces of one :func:`_run_cycles` run: the drawn
      columns of one block, and the block's cycles: the float64 ``y``
      (end times, then spans) and ``spans`` (the deliveries' end times,
      then their openers) of :func:`_cycles`, and the intp delivery
      ``rows`` and cycle lengths ``m``;
    - the cycles workspace of one :func:`accumulate_nonpriority` call:
      ``y`` and ``spans`` of the whole run.
    """

    def __init__(self, size: int):
        self.size = size
        self._buffers: dict[str, np.ndarray] = {}

    def __call__(self, name: str, dtype=np.float64, size: int | None = None) -> np.ndarray:
        size = self.size if size is None else size
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size, dtype)
        return buffer if buffer.size == size else buffer[:size]


def _run_bytes(num_intervals: int, replications: int) -> int:
    """Bytes of the arrays that a run, sweep or ``validate`` holds at once.

    Per process that runs replications: a :class:`_Workspace` of five
    float64 buffers and one bool (and a bool miss mask for the full
    estimates of :func:`run_k_sweep`), and the int64 delivery or miss
    indices, so the bound has one float64 buffer of slack.  A run has at
    most one worker per replication and one workspace per worker, and
    its workspaces go when it returns.  The bound counts the workspaces
    of all the processes, ``min(cpus, replications)`` of them, although
    each worker peaks on its own.  The slack is kept: from
    ``--intervals`` 10^5 to 4·10^5 (``tests/peak_growth.py``, 2 vCPUs),
    the peak RSS of a one-CPU ``sweep-k --k 1..5`` grows 47.4 to 48.5
    bytes per interval.  On two CPUs that script reads the largest
    single process, which grows 27.0.

    ``validate`` is refused by this bound alone.  Its sampling checks
    stream in blocks of rows, and of its runs only ``age_regression``'s
    grow with ``--intervals``; they run one at a time.  When two or more
    checks run, a check runs in a pool worker and its runs replicate in
    that worker.  A check run alone runs in the caller, and its runs use
    pools of their own, as a sweep's do.
    """
    return (6 * 8 + 2 + 8) * num_intervals * min(_usable_cpus(), replications)


def _new_array(name: str, dtype=np.float64, size: int = 0) -> np.ndarray:
    # a new array each time, so that a yielded array is never changed
    return np.empty(size, dtype)


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
    and ``validate``'s streamed checks draw each ``_ROWS`` rows of a run
    this way (:func:`_draw_rows`).

    Each node after node 1 is drawn ``_ROWS`` uniforms at a time
    and folded into a running max of the raw uniforms, which the
    nondecreasing inverse CDF maps to y; memory is four arrays of the
    window's length at every k.  x_nonp and x1 are transformed once and
    y once per k (never at k == 1, where y is x1).

    Yields ``(y, x1, x_nonp, delivered)`` per k, in the order of ``ks``:
    the interval lengths (max of the k priority service times), node 1's
    service times, the tracked non-priority node's service times and its
    delivery flags (``x_nonp < y``).  Without ``work``, a yielded array is
    never changed afterwards, and the pass keeps no reference to a k's
    ``y`` or ``delivered`` once it resumes.  With a ``_Workspace``, every
    column is written into the first rows of its buffers instead (a
    buffer shorter than the window grows), so a yielded array is valid
    only until the pass resumes:
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
    work = partial(_new_array if work is None else work, size=size)
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
    chunk = work("chunk", size=min(size, _ROWS))
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


def _draw_rows(seed, skip, dist, k, num_intervals, rows, work) -> tuple:
    """Row window ``rows`` of one run, drawn into ``work``: ``(y, x1, x_nonp, delivered)``.

    The run is the pass of :func:`generate_interval_sweep` at group size k
    that starts ``skip`` uniforms into the stream of ``default_rng(seed)``.
    Only the window is drawn, so a reader of a long run holds no more than
    its rows of any column; the columns are valid until ``work`` draws
    again.
    """
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(skip)
    return next(generate_interval_sweep(rng, dist, num_intervals, (k,), work, rows=rows))


def _run_cycles(
    seed: int, skip: int, dist: ServiceDistribution, k: int, num_intervals: int
) -> Iterator[tuple]:
    """Per block of one run at group size k: ``(y, delivered, d, w, xtilde, m)``.

    The one reader that carries a run from block to block.  The run is
    the pass of :func:`generate_interval_sweep` that starts ``skip``
    uniforms into the stream of ``default_rng(seed)``.  Each ``_ROWS``
    rows are drawn into one :class:`_Workspace` (:func:`_draw_rows`) and
    their cycles taken in a second one, so ``y`` stays whole and memory is
    two blocks whatever ``num_intervals``.  ``d`` indexes the block's
    deliveries, and w, xtilde and the cycle lengths m (``np.diff(d)`` over
    the whole run) are those of the cycles that close in the block
    (:func:`_cycles`).  A block's arrays are valid until the next block
    is drawn.
    """
    draw, work = _Workspace(_ROWS), _Workspace(_ROWS)
    carry = _RUN_START
    for start in range(0, num_intervals, _ROWS):
        rows = (start, min(start + _ROWS, num_intervals))
        y, _, x_nonp, delivered = _draw_rows(seed, skip, dist, k, num_intervals, rows, draw)
        d = np.flatnonzero(delivered)
        # the rows of the carried delivery and the block's
        opened = np.concatenate((carry[1], d), out=work("rows", np.intp, carry[1].size + d.size))
        m = np.subtract(opened[1:], opened[:-1], out=work("m", np.intp, opened[1:].size))
        w, xtilde, carry = _cycles(y, x_nonp, d, work, carry)
        yield y, delivered, d, w, xtilde, m


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
    return _priority_age(ledger.y, ledger.x1, np.empty(ledger.num_intervals))


def accumulate_nonpriority(ledger: CycleLedger) -> float:
    """Renewal-reward age estimate for the tracked non-priority node.

    Each complete cycle of the whole run (:func:`_cycles`, in a workspace
    of its own, so the ledger's columns stay as they are) contributes
    area w**2 / 2 + xtilde * w over its span w.
    """
    d = np.flatnonzero(ledger.delivered)
    w, xtilde, _ = _cycles(ledger.y, ledger.x_nonp, d, _Workspace(ledger.num_intervals))
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


# the ``(fn, items, cancelled)`` of the map that a pool worker of
# _ordered_map serves, set after the fork by _start_worker; None in every
# other process
_worker = None


def _start_worker(fn, items, cancelled) -> None:
    global _worker
    _worker = fn, items, cancelled
    # Ctrl-C reaches the whole process group; only the parent acts on it
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _run_item(index: int):
    fn, items, cancelled = _worker
    # an item still queued when the map failed returns without running
    return None if cancelled.value else fn(items[index])


def _pool_size(count: int) -> int:
    """Worker processes that :func:`_ordered_map` forks for ``count`` items; 1 means none."""
    workers = min(_usable_cpus(), count)
    if workers <= 1 or _worker is not None:
        return 1
    import multiprocessing  # here, so that importing agecast stays as fast

    return workers if "fork" in multiprocessing.get_all_start_methods() else 1


def _ordered_map(fn, items: Sequence, cancel=None) -> list:
    """``[fn(item) for item in items]``, on at most one level of forked workers.

    A call with two or more items, on two or more usable CPUs, forks a
    pool of one worker process per CPU of the affinity mask, at most one
    per item, and stops it before it returns.  Any other call, any call
    made in one of the pool's workers, and any call where the ``fork``
    start method does not exist runs its items in the caller, so a
    nested map (a check's replications) stays in the worker of the item
    that makes it and never more than one worker per CPU runs.

    ``fn`` and ``items`` reach the workers by inheritance, unpickled, and
    each item's index goes to a worker; only results and exceptions are
    pickled back.  What ``fn`` reads is therefore the caller's state at
    the fork, and what it writes stays in the worker: a buffer made empty
    before the call becomes each worker's own.  Results come back in item
    order, so they do not depend on the worker count.  If a call raises,
    the queued ones are cancelled, the running ones finish, and the first
    exception in item order reaches the caller once every worker has
    stopped.  Items that wait on other items must stop waiting when the
    map fails: ``cancel``, if given, is called in the caller then, after
    the queued items are cancelled, to release them.
    """
    workers = _pool_size(len(items))
    if workers == 1:
        return list(map(fn, items))
    import multiprocessing

    # fork, so that no worker imports agecast again.  The pool forks its
    # workers before it starts its own threads, and they call no BLAS
    # routine.  imap returns in item order and raises the first exception
    # in item order
    context = multiprocessing.get_context("fork")
    cancelled = context.RawValue("b", 0)
    with context.Pool(workers, _start_worker, (fn, items, cancelled)) as pool:
        try:
            return list(pool.imap(_run_item, range(len(items))))
        except BaseException:
            cancelled.value = 1
            if cancel is not None:
                cancel()
            raise
        finally:
            # the workers stop on their own: a worker that Pool.terminate
            # kills while it sends a result leaves the lock of the result
            # queue taken, and the pool's task thread then waits on it forever
            pool.close()
            pool.join()


def _map_replications(config: SimConfig, ks, fn) -> list[list]:
    """Per replication, ``fn(y, x1, x_nonp, delivered, work)`` at each k in ``ks``.

    Replication r draws from child stream r spawned from the master seed,
    so it is reproducible on its own and independent of the others.  The
    replications run through :func:`_ordered_map`, one worker process per
    usable CPU and at most one per replication, or all in the caller when
    it is one of the pool's workers; they come back in replication order.

    This call makes one :class:`_Workspace`, empty, before the map.  Each
    process that runs a replication of the call (the caller, or each
    worker, which owns its copy after the fork) draws every replication it
    runs into it and passes it to ``fn`` as ``work`` for its scratch.  The
    workspace goes when the call returns, and a worker's when the worker
    exits, so a run holds at most one per process that ran it.  The
    columns ``fn`` gets are overwritten at the next k, so ``fn`` must not
    keep them, and ``fn`` must return what pickles.
    """
    children = np.random.SeedSequence(config.seed).spawn(config.replications)
    work = _Workspace(config.num_intervals)

    def replicate(child) -> list:
        rng = np.random.default_rng(child)
        intervals = generate_interval_sweep(
            rng, config.dist, config.num_intervals, ks, work
        )
        return [fn(*columns, work) for columns in intervals]

    return _ordered_map(replicate, children)


def _replication_ages(y, x1, x_nonp, delivered, work) -> dict[str, float]:
    """One replication's two ages at one k, keyed by SimResult field without suffix.

    All a sweep point writes.  Bit for bit ``accumulate_priority`` and
    ``accumulate_nonpriority`` of a CycleLedger of the same columns; see
    :func:`_ages` for the buffers it uses and spends.
    """
    return _ages(y, x1, x_nonp, np.flatnonzero(delivered), work)[0]


def _ages(y, x1, x_nonp, d, work):
    """:func:`_replication_ages` from the delivery indices ``d``, with the sums of w**2, w and xtilde.

    The priority age comes first, its products in the ``spans`` buffer of
    the workspace ``work``.  The whole run's :func:`_cycles` then go into
    the ``y`` and ``spans`` buffers, so a ``y`` drawn into the workspace
    is spent; at k = 1, ``y`` is ``x1``, which is copied and never
    written.  Raises :class:`InsufficientDataError` unless the run sees
    two deliveries and a miss.
    """
    age_priority = _priority_age(y, x1, work("spans"))
    w, xtilde, _ = _cycles(y, x_nonp, d, work)
    if d.size == y.size or d.size < 2:
        raise InsufficientDataError(
            "replication too short to observe both delivery outcomes"
        )
    age_nonpriority, w_sq_sum, w_sum, xtilde_sum = _nonpriority_age(w, xtilde)
    ages = {"age_priority": age_priority, "age_nonpriority": age_nonpriority}
    return ages, w_sq_sum, w_sum, xtilde_sum


def _replication_estimates(y, x1, x_nonp, delivered, work) -> dict[str, float]:
    """One replication's estimates at one k, keyed by SimResult field without suffix.

    Read straight off the interval columns and their :func:`_cycles`, with
    every length-N temporary in the buffers of the workspace ``work``, so
    a process that reuses one workspace makes no length-N array per point.
    The sums of y come first, because :func:`_ages` spends a ``y`` drawn
    into the workspace.  Each sum sees the same values as the one over a
    new array, contiguous and of the same length, so it keeps its bits:
    each value equals, bit for bit, ``accumulate_priority``,
    ``accumulate_nonpriority`` of a CycleLedger of the same columns, or
    the mean of the whole-run array of the sample it is named after (y,
    the cycles' w, w**2 and xtilde from :func:`_cycles`, their lengths
    ``np.diff(d)``, the miss flags, and y at the misses and at the
    deliveries).
    """
    num_intervals = y.size
    spans = work("spans")
    y_sum = y.sum()
    # the gathers of y go to ``spans`` until the ages need it, the misses' first
    # so that their indices are freed early (take's clip mode as in _cycles)
    missed = np.flatnonzero(np.logical_not(delivered, out=work("miss", bool)))
    yf_sum = np.take(y, missed, out=spans[: missed.size], mode="clip").sum()
    del missed
    d = np.flatnonzero(delivered)
    ys_sum = np.take(y, d, out=spans[: d.size], mode="clip").sum()
    ages, w_sq_sum, w_sum, xtilde_sum = _ages(y, x1, x_nonp, d, work)
    deliveries = d.size
    misses = num_intervals - deliveries
    cycles = deliveries - 1
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

    The replications run on one forked worker per CPU of the affinity
    mask, at most one per replication, or in the caller when it is a
    pool worker (a ``validate`` check), and are combined in replication
    order, so the results do not depend on the CPU count.  Each process
    reuses one workspace of a few length-N buffers for all its
    replications and points, and drops it when the sweep returns, so
    memory is about the worker count times that workspace at any k
    (tracemalloc: 6.4 arrays at N = 100 000, k = 1..20, in one process;
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


def _ledger_rows(
    spec: LedgerSpec, start: int, stop: int, work: _Workspace
) -> tuple[np.ndarray, int]:
    """CSV lines and delivery count of rows ``start .. stop - 1`` of a ledger.

    The rows are drawn into ``work`` by :func:`_draw_rows`, from the start
    of the seed's stream: ``default_rng(seed)`` is the stream of
    ``default_rng(SeedSequence(seed))``.  ``_shortest.ledger_text`` lays
    them out in ``work``, its floats byte for byte their ``repr``, so the
    text is a ``uint8`` view of ``work``, valid until ``work`` is used
    again.
    """
    from ._shortest import ledger_text

    rows = (start, stop)
    columns = _draw_rows(spec.seed, 0, spec.dist, spec.k, spec.num_intervals, rows, work)
    return ledger_text(start + 1, *columns, work), int(np.count_nonzero(columns[3]))


def _write_all(fd: int, data) -> None:
    """Write all of ``data`` to ``fd``, over as many partial writes as it takes."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _write_rows(spec: LedgerSpec, fd: int, turn, work: _Workspace, start: int) -> int:
    """Draw, format and write the task of rows from ``start``; its delivery count.

    A task is ``_ROWS`` rows, drawn and laid out in ``work`` (see
    :func:`_ledger_rows`).  With ``turn`` None, the text is
    written to ``fd`` at once.  On a pool, ``turn`` is a shared
    ``(Condition, value)``: the text is formatted first, then written
    once the value reaches this task's index, which it then moves on, so
    the workers write in row order through the file offset they share.
    A value of -1 (:func:`_break_turn`) means the dump failed: the task
    then returns without writing.
    """
    stop = min(start + _ROWS, spec.num_intervals)
    text, deliveries = _ledger_rows(spec, start, stop, work)
    if turn is None:
        _write_all(fd, text)
        return deliveries
    condition, position = turn
    task = start // _ROWS
    with condition:
        condition.wait_for(lambda: position.value in (task, -1))
        if position.value == task:
            _write_all(fd, text)
            position.value = task + 1
            condition.notify_all()
    return deliveries


def _break_turn(turn) -> None:
    """Release the tasks that wait for a turn that a failed task will never pass on."""
    condition, position = turn
    with condition:
        position.value = -1
        condition.notify_all()


def write_ledger_csv(ledger: LedgerSpec, path) -> int:
    """Dump one row per interval: j, Y_j, X_1j, X_nonp_j, delivered.

    Returns the number of deliveries.  ``ledger`` names the dump.  Its
    rows are drawn, formatted and written a task of ``_ROWS`` =
    16384 at a time, each drawn as one row window of the seed's stream
    and laid out as byte text by ``_shortest.ledger_text``.  Each process
    that formats owns one :class:`_Workspace` of a task's rows, which
    holds the task's columns, every intermediate of its text and the
    text itself from task to task: this call makes one, empty, and each
    forked worker fills its own copy after the fork.  No workspace is
    shared, so two threads may dump at once.  Memory stays one workspace
    per process whatever ``num_intervals``, and no process-wide
    allocator setting is changed.  Floats are written as the shortest
    decimal that reads back to the same double, byte for byte ``repr``,
    which the tests check.  From ``_POOL_MIN_ROWS`` = 65536 rows on, the
    tasks run through :func:`_ordered_map`, so on more than one CPU they
    run on its pool of forked workers, at most one per CPU of the
    affinity mask.  Each worker writes its own text to the file
    descriptor it inherits, in row order, and sends back only its
    delivery count; the workers share only the spec, the descriptor and
    the turn.  If a task raises, the queued tasks are cancelled, the
    tasks that wait for their turn return without writing, and the
    exception reaches the caller.  The bytes do not depend on the path
    taken or on the CPU count.
    """
    # imported on the ledger path only, and before the fork, so that the
    # workers inherit it
    from ._shortest import LEDGER_HEADER

    starts = range(0, ledger.num_intervals, _ROWS)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        # written before the fork, so the workers' writes follow it
        _write_all(fd, LEDGER_HEADER)
        turn = None
        if ledger.num_intervals >= _POOL_MIN_ROWS and _pool_size(len(starts)) > 1:
            import multiprocessing

            # the workers write through the file offset they share, in turn
            context = multiprocessing.get_context("fork")
            turn = (context.Condition(), context.RawValue("q", 0))
        write = partial(_write_rows, ledger, fd, turn, _Workspace(_ROWS))
        if turn is None:
            return sum(map(write, starts))
        return sum(_ordered_map(write, starts, partial(_break_turn, turn)))
    finally:
        os.close(fd)

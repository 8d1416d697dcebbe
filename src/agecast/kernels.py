"""The vectorized numpy interval kernel.

Each service interval consumes k+1 uniforms from the generator, one row
of a row-major (num_intervals, k+1) block: columns 0..k-1 are the
priority nodes and column k the tracked non-priority node.  A given seed
therefore yields a bit-identical sample path on every run.
"""

from __future__ import annotations

import numpy as np

from .order_stats import check_count

__all__ = ["generate_intervals"]


def generate_intervals(
    rng: np.random.Generator,
    rate: float,
    shift: float,
    num_intervals: int,
    k: int,
):
    """Draw ``num_intervals`` service intervals for a k-node priority group.

    Returns ``(y, x1, x_nonp, delivered)``: the interval lengths (max of
    the k priority service times), node 1's service times, the tracked
    non-priority node's service times and its delivery flags
    (``x_nonp < y``).  Consumes exactly ``num_intervals * (k + 1)``
    uniforms from ``rng``.
    """
    num_intervals = check_count("num_intervals", num_intervals)
    k = check_count("k", k)
    u = rng.random((num_intervals, k + 1))
    x = float(shift) - np.log1p(-u) / float(rate)
    y = x[:, :k].max(axis=1)
    x1 = np.ascontiguousarray(x[:, 0])
    x_nonp = np.ascontiguousarray(x[:, k])
    return y, x1, x_nonp, x_nonp < y

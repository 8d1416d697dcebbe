"""Closed-form average age of information for multicast status updating.

A source repeatedly sends updates; each update is preempted by the next
one as soon as all k priority nodes have received it, so a service
interval lasts the max of k i.i.d. service times.  Non-priority nodes
keep an update only if their own copy lands before the preemption.
This module evaluates the long-run average age for both node classes,
the exponential special case where the two coincide, and the renewal
moments the non-priority derivation runs through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .order_stats import (
    MAX_K,
    ServiceDistribution,
    check_count,
    harmonic,
    harmonic2,
    order_stat_mean,
    order_stat_var,
)

__all__ = [
    "EULER_GAMMA",
    "MAX_K",
    "NonPriorityAge",
    "PriorityAge",
    "RenewalCycleMoments",
    "age_exponential",
    "age_nonpriority",
    "age_priority",
    "age_priority_lower_bound",
    "age_priority_shifted_exp",
    "failure_prob",
    "geometric_moments",
    "interval_moments",
    "priority_age",
    "xtilde_mean",
]

EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class PriorityAge:
    """Average age at a priority node, with the large-k lower bound.

    ``lower_bound`` is populated only for shifted-exponential laws and is
    ``None`` for the plain exponential.
    """

    value: float
    lower_bound: float | None


@dataclass(frozen=True)
class NonPriorityAge:
    """Average age at a non-priority node, split into its three terms.

    ``value == delta0 + delta1 + delta2``: the mean service time of a
    delivered update, plus the two inter-delivery contributions.
    """

    value: float
    delta0: float
    delta1: float
    delta2: float


@dataclass(frozen=True)
class RenewalCycleMoments:
    """Moments of one non-priority renewal cycle.

    A cycle spans the M consecutive service intervals between successful
    deliveries: M - 1 misses followed by one delivery.  Y_F is an interval
    conditioned on a miss, Y_S one conditioned on a delivery, W the summed
    cycle length and xtilde the service time of the update opening the
    cycle.
    """

    q: float
    m_mean: float
    m2_mean: float
    y_mean: float
    yf_mean: float
    yf_var: float
    ys_mean: float
    ys_var: float
    w_mean: float
    w2_mean: float
    xtilde_mean: float


def age_priority(dist: ServiceDistribution, k: int) -> float:
    """Average age at a priority node: mu + e/2 + v/(2e).

    ``e`` and ``v`` are the mean and variance of a service interval, the
    max of the k priority service times.  Valid for any service law with
    known order-statistic moments; independent of the total node count.
    """
    k = check_count("k", k, maximum=MAX_K)
    e = order_stat_mean(dist, k, k)
    v = order_stat_var(dist, k, k)
    return dist.mean() + 0.5 * e + 0.5 * v / e


def age_priority_shifted_exp(rate: float, shift: float, k: int) -> float:
    """Priority age for the shifted exponential, fully reduced.

    3c/2 + 1/rate + H(k)/(2 rate) + H2(k)/(2 rate**2 c + 2 rate H(k)),
    writing c for the shift.  Agrees with :func:`age_priority` to within
    floating roundoff.
    """
    k = check_count("k", k, maximum=MAX_K)
    law = ServiceDistribution(rate, shift)
    rate, shift = law.rate, law.shift
    hk = harmonic(k)
    return (
        1.5 * shift
        + 1.0 / rate
        + 0.5 * hk / rate
        + harmonic2(k) / (2.0 * rate**2 * shift + 2.0 * rate * hk)
    )


def age_priority_lower_bound(rate: float, shift: float, k: int) -> float:
    """Large-k lower bound on the priority age.

    3c/2 + 1/rate + (ln k + gamma)/(2 rate).  The gap to the exact value
    shrinks as k grows because H(k) - ln k decreases to gamma and the
    remaining variance term vanishes.
    """
    k = check_count("k", k)
    law = ServiceDistribution(rate, shift)
    rate, shift = law.rate, law.shift
    return 1.5 * shift + 1.0 / rate + 0.5 * (math.log(k) + EULER_GAMMA) / rate


def priority_age(dist: ServiceDistribution, k: int) -> PriorityAge:
    """Priority age bundled with its lower bound when the law is shifted."""
    value = age_priority(dist, k)
    if dist.shift > 0.0:
        bound = age_priority_lower_bound(dist.rate, dist.shift, k)
    else:
        bound = None
    return PriorityAge(value=value, lower_bound=bound)


def failure_prob(k: int) -> float:
    """Probability a non-priority node misses one update: 1/(k+1).

    The miss happens iff the node's service time is the largest of the
    k+1 draws in play, and all ranks are equally likely for continuous
    i.i.d. laws.
    """
    k = check_count("k", k)
    return 1.0 / (k + 1)


def geometric_moments(k: int) -> tuple[float, float]:
    """First two moments of M, the geometric inter-delivery count.

    E[M] = (k+1)/k and E[M^2] = (k+1)(k+2)/k**2 for success probability
    k/(k+1) per interval.
    """
    k = check_count("k", k)
    m_mean = (k + 1) / k
    m2_mean = (k + 1) * (k + 2) / k**2
    return m_mean, m2_mean


def interval_moments(dist: ServiceDistribution, k: int) -> RenewalCycleMoments:
    """All renewal-cycle moments for a non-priority node.

    Conditioned on a miss the interval is the k-th smallest of the k+1
    service times in play (the missing node holds the max); conditioned
    on a delivery it is the max itself.  Mixing the two with weight
    q = 1/(k+1) recovers the unconditional interval mean, the max of k.
    """
    k = check_count("k", k, maximum=MAX_K)
    q = failure_prob(k)
    m_mean, m2_mean = geometric_moments(k)
    yf_mean = order_stat_mean(dist, k, k + 1)
    yf_var = order_stat_var(dist, k, k + 1)
    ys_mean = order_stat_mean(dist, k + 1, k + 1)
    ys_var = order_stat_var(dist, k + 1, k + 1)
    y_mean = q * yf_mean + (1.0 - q) * ys_mean
    w_mean = m_mean * y_mean
    w2_mean = (
        (m_mean - 1.0) * yf_var
        + ys_var
        + (m2_mean - 2.0 * m_mean + 1.0) * yf_mean**2
        + ys_mean**2
        + 2.0 * (m_mean - 1.0) * yf_mean * ys_mean
    )
    return RenewalCycleMoments(
        q=q,
        m_mean=m_mean,
        m2_mean=m2_mean,
        y_mean=y_mean,
        yf_mean=yf_mean,
        yf_var=yf_var,
        ys_mean=ys_mean,
        ys_var=ys_var,
        w_mean=w_mean,
        w2_mean=w2_mean,
        xtilde_mean=xtilde_mean(dist, k),
    )


def xtilde_mean(dist: ServiceDistribution, k: int) -> float:
    """Mean service time of an update that actually gets delivered.

    A delivered copy cannot be the largest of the k+1 draws in play, so
    its law is a uniform mixture of the k lowest order statistics.  The
    means of all k+1 order statistics sum to (k+1) E[X], so the k lowest
    sum to (k+1) E[X] - E[X_(k+1:k+1)], which gives
    shift + ((k+1) - H(k+1)) / (rate k).
    """
    k = check_count("k", k, maximum=MAX_K)
    return dist.shift + ((k + 1) - harmonic(k + 1)) / (dist.rate * k)


def age_nonpriority(dist: ServiceDistribution, k: int) -> NonPriorityAge:
    """Average age at a non-priority node, as its three-term split.

    delta0 is the mean delivered service time; delta1 carries the
    interval variances; delta2 the squared-mean cross terms.  The sum
    equals E[W^2] / (2 E[W]) + E[xtilde], the renewal-reward form.
    """
    k = check_count("k", k, maximum=MAX_K)
    moments = interval_moments(dist, k)
    denom = 2.0 * (k + 1) * order_stat_mean(dist, k, k)
    delta0 = moments.xtilde_mean
    delta1 = (moments.yf_var + k * moments.ys_var) / denom
    delta2 = (
        (k + 2) / k * moments.yf_mean**2
        + k * moments.ys_mean**2
        + 2.0 * moments.ys_mean * moments.yf_mean
    ) / denom
    return NonPriorityAge(
        value=delta0 + delta1 + delta2,
        delta0=delta0,
        delta1=delta1,
        delta2=delta2,
    )


def age_exponential(rate: float, k: int) -> float:
    """Average age for plain-exponential service, any node class.

    1/rate + H(k)/(2 rate) + H2(k)/(2 rate H(k)).  With no shift the
    priority and non-priority ages coincide exactly.
    """
    k = check_count("k", k, maximum=MAX_K)
    rate = ServiceDistribution(rate).rate
    hk = harmonic(k)
    return (1.0 + 0.5 * hk + 0.5 * harmonic2(k) / hk) / rate

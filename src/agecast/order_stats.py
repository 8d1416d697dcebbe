"""Order statistics of shifted-exponential service times.

The k-th smallest of n i.i.d. shifted-exponential draws has closed-form
mean and variance built from truncated harmonic sums.  This module holds
the harmonic numbers (a table, then series), the two input validators every
request object uses, the service-law abstraction used everywhere else, and
the two order-statistic moment formulas.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "MAX_K",
    "ServiceDistribution",
    "check_count",
    "check_real",
    "harmonic",
    "harmonic2",
    "order_stat_mean",
    "order_stat_var",
]

EULER_GAMMA = 0.5772156649015329

# The largest group size k anywhere: a larger k exits 2, an exit-code contract,
# and stream v2 simulates O(k) uniforms per interval.  The closed forms read H(k+1).
MAX_K = 4194303

# H(n) and H2(n) for n <= 2**14, added left to right; the series serve larger n
_J = np.arange(1, (1 << 14) + 1, dtype=np.float64)
_H1 = np.concatenate(([0.0], np.cumsum(1.0 / _J)))
_H2 = np.concatenate(([0.0], np.cumsum(1.0 / _J**2)))


def _check_index(n: int) -> int:
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"harmonic index must be nonnegative, got {n}")
    if n > MAX_K + 1:
        raise ValueError(f"harmonic index {n} exceeds MAX_K + 1 = {MAX_K + 1}")
    return n


def harmonic(n: int) -> float:
    """H(n) = sum_{j=1..n} 1/j, with H(0) = 0.

    Above the table, its asymptotic series, within 1/(252n**6) (Knuth, TAOCP 1.2.7).
    """
    n = _check_index(n)
    if n < _H1.size:
        return float(_H1[n])
    x = float(n)
    log = math.log(x)
    # ln x - log, to about 2**-53: without it the error passes one ulp at some n
    return math.fsum(
        (log, (x - math.exp(log)) / x, EULER_GAMMA, 0.5 / x, -1 / (12 * x**2), 1 / (120 * x**4))
    )


def harmonic2(n: int) -> float:
    """H2(n) = sum_{j=1..n} 1/j**2, with H2(0) = 0.

    Above the table, pi**2/6 - psi'(n+1) by its series (Abramowitz and Stegun 6.4.12).
    """
    n = _check_index(n)
    if n < _H2.size:
        return float(_H2[n])
    x = float(n)
    return math.fsum((math.pi**2 / 6, -1 / x, 0.5 / x**2, -1 / (6 * x**3), 1 / (30 * x**5)))


def check_count(name: str, value, minimum: int = 1, maximum: int | None = None) -> int:
    """``value`` as an ``int``, if it is an integer of any type in range.

    Accepts anything ``operator.index`` accepts (``int``, numpy integer
    scalars) and rejects floats, strings and None.  Raises ValueError
    naming ``name`` when the value is not an integer or lies outside
    ``[minimum, maximum]``.
    """
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {count}")
    if maximum is not None and count > maximum:
        raise ValueError(f"{name} must be at most {maximum}, got {count}")
    return count


def check_real(name: str, value, positive: bool = False) -> float:
    """``value`` as a finite ``float``: positive, or else nonnegative.

    Accepts any ``numbers.Real`` (``int``, ``float``, numpy integer and
    floating scalars) and rejects strings, None, NaN and infinities.
    Raises ValueError naming ``name``.
    """
    # int and float first: they skip the slower abstract-class check
    real = float(value) if isinstance(value, (float, int, numbers.Real)) else math.nan
    if not math.isfinite(real):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if positive and real <= 0:
        raise ValueError(f"{name} must be positive, got {real}")
    if real < 0:
        raise ValueError(f"{name} must be nonnegative, got {real}")
    return real


@dataclass(frozen=True)
class ServiceDistribution:
    """Shifted-exponential service law: ``shift`` plus an Exp(``rate``) tail.

    ``shift == 0`` recovers the plain exponential.  The CDF is
    F(x) = 1 - exp(-rate * (x - shift)) for x >= shift and 0 below.
    The rate lies in [1e-100, 1e100] and the shift in [0, 1e100]; in that
    range every closed form is finite at every k up to ``MAX_K``.
    """

    rate: float
    shift: float = 0.0

    def __post_init__(self) -> None:
        rate = check_real("rate", self.rate, positive=True)
        shift = check_real("shift", self.shift)
        # the one finite-range rule: every closed form stays finite inside it
        if not 1e-100 <= rate <= 1e100:
            raise ValueError(f"rate must lie in [1e-100, 1e100], got {rate}")
        if shift > 1e100:
            raise ValueError(f"shift must be at most 1e100, got {shift}")
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "shift", shift)

    @classmethod
    def exponential(cls, rate: float) -> "ServiceDistribution":
        return cls(rate=rate, shift=0.0)

    @classmethod
    def shifted_exponential(cls, rate: float, shift: float) -> "ServiceDistribution":
        return cls(rate=rate, shift=shift)

    @property
    def kind(self) -> str:
        """``"exp"`` when the shift is zero, ``"sexp"`` otherwise."""
        return "exp" if self.shift == 0.0 else "sexp"

    def mean(self) -> float:
        return self.shift + 1.0 / self.rate

    def cdf(self, x):
        """F(x), elementwise for array input."""
        arr = np.asarray(x, dtype=np.float64)
        out = np.where(arr > self.shift, -np.expm1(-self.rate * (arr - self.shift)), 0.0)
        return float(out) if out.ndim == 0 else out

    def _inverse_cdf(self, u, out=None):
        # the one inverse-CDF transform; u must already lie in [0, 1).  The
        # ufuncs of shift - log1p(-u) / rate run in place on ``out`` (a new
        # array when None; it may be ``u``), so an array makes no temporaries.
        # x / 1.0 == x for every double, so rate 1 skips the divide
        if out is None:
            out = np.empty(np.shape(u))
        np.negative(u, out=out)
        np.log1p(out, out=out)
        if self.rate != 1.0:
            np.divide(out, self.rate, out=out)
        np.subtract(self.shift, out, out=out)
        return float(out) if out.ndim == 0 else out

    def quantile(self, u):
        """Inverse CDF on [0, 1), elementwise for array input."""
        arr = np.asarray(u, dtype=np.float64)
        if np.any((arr < 0.0) | (arr >= 1.0)):
            raise ValueError("quantile argument must lie in [0, 1)")
        return self._inverse_cdf(arr)

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-CDF draw(s); a scalar for ``size=None``, else an array.

        Consumes exactly one uniform per sample, in row-major order of
        ``size``, so a seeded stream reproduces runs deterministically.
        Equals ``quantile(rng.random(size))`` without its domain check,
        which generator output in [0, 1) never needs.
        """
        return self._inverse_cdf(rng.random(size))


def _check_rank(k: int, n: int) -> tuple[int, int]:
    n = check_count("sample size n", n)
    return check_count("order index k", k, 1, n), n


def order_stat_mean(dist: ServiceDistribution, k: int, n: int) -> float:
    """Mean of the k-th smallest of n draws: shift + (H(n) - H(n-k)) / rate."""
    k, n = _check_rank(k, n)
    return dist.shift + (harmonic(n) - harmonic(n - k)) / dist.rate


def order_stat_var(dist: ServiceDistribution, k: int, n: int) -> float:
    """Variance of the k-th smallest of n draws: (H2(n) - H2(n-k)) / rate**2.

    The shift drops out; only the exponential tail contributes spread.
    """
    k, n = _check_rank(k, n)
    return (harmonic2(n) - harmonic2(n - k)) / dist.rate**2

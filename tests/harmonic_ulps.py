"""How far ``harmonic`` and ``harmonic2`` lie from H(n) and H2(n) above their table.

Draws COUNT values of n in (2**14, 2**22], half log-spaced and half
uniformly random from a fixed seed, and compares H(n) and H2(n) with a
40-digit ``decimal`` Euler-Maclaurin reference.  Prints the worst error
of each in ulps of the exact value, with the n where it occurs, and exits
1 if either is above 1 ulp.  Not part of the test suite, which checks a
few dozen n against the same reference:

    PYTHONPATH=src python3 tests/harmonic_ulps.py [COUNT]

COUNT defaults to 20000.
"""

from __future__ import annotations

import math
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from agecast.order_stats import MAX_K, harmonic, harmonic2

SEED = 2022
DIGITS = 40
# Euler's constant and pi**2/6, to 50 digits
GAMMA = Decimal("0.57721566490153286060651209008240243104215933593992")
ZETA2 = Decimal("1.6449340668482264364724151666460251892189499012068")
# the Bernoulli numbers B_2, B_4, ..., B_12; from SMALLEST_N on, the first
# term left out is below 1e-55 of either sum
BERNOULLI = tuple(
    Fraction(*b) for b in ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730))
)
# the first n above the table of harmonic and harmonic2
SMALLEST_N = (1 << 14) + 1


def _decimal(fraction: Fraction) -> Decimal:
    return Decimal(fraction.numerator) / Decimal(fraction.denominator)


def exact_harmonic(n: int) -> Decimal:
    """H(n) to DIGITS digits, for n > 2**14.

    ln n + gamma + 1/(2n) - sum_k B_2k / (2k n**2k), through B_12.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS + 10
        x = Decimal(n)
        total = x.ln() + GAMMA + 1 / (2 * x)
        for i, b in enumerate(BERNOULLI, 1):
            total -= _decimal(b / (2 * i)) / x ** (2 * i)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return +total


def exact_harmonic2(n: int) -> Decimal:
    """H2(n) to DIGITS digits, for n > 2**14.

    pi**2/6 minus the tail sum psi'(n+1) = 1/n - 1/(2n**2) +
    sum_k B_2k / n**(2k+1), through B_12.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS + 10
        x = Decimal(n)
        tail = 1 / x - 1 / (2 * x**2)
        for i, b in enumerate(BERNOULLI, 1):
            tail += _decimal(b) / x ** (2 * i + 1)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return ZETA2 - tail


def ulps(value: float, exact: Decimal) -> float:
    """|value - exact| in units in the last place of the double nearest ``exact``."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return float(abs(Decimal(value) - exact) / Decimal(math.ulp(float(exact))))


def sample_n(count: int) -> list[int]:
    """``count`` values of n in [SMALLEST_N, MAX_K + 1]: half log-spaced, half random."""
    spaced = np.geomspace(SMALLEST_N, MAX_K + 1, count // 2).round().astype(np.int64)
    drawn = np.random.default_rng(SEED).integers(SMALLEST_N, MAX_K + 2, count - spaced.size)
    return np.concatenate((spaced, drawn)).tolist()


def main(argv: list[str]) -> int:
    count = int(float(argv[0])) if argv else 20000
    start = time.perf_counter()
    worst = {}
    for name, form, exact in (
        ("H", harmonic, exact_harmonic),
        ("H2", harmonic2, exact_harmonic2),
    ):
        worst[name] = max((ulps(form(n), exact(n)), n) for n in sample_n(count))
    elapsed = time.perf_counter() - start
    print(f"seed {SEED}: {count} values of n in [{SMALLEST_N}, {MAX_K + 1}], {elapsed:.1f} s")
    for name, (error, n) in worst.items():
        print(f"  {name}: worst {error:.3f} ulp, at n = {n}")
    return 1 if max(error for error, _ in worst.values()) > 1.0 else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

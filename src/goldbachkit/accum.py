"""Deterministic compensated accumulation helpers.

Every weighted prime sum in this package is accumulated in ascending index
order with error-free transformations, so repeated runs are bit-identical
and summation drift stays far below the test tolerances.  Size bounds the
package asserts on its own results fail with BoundExceeded.
"""

import math

import numpy as np


class BoundExceeded(AssertionError):
    """A computed value broke a size bound that holds in exact arithmetic.

    Carries ``value`` and ``bound``; the check allows a relative slack of
    1e-9 for rounding (check_bound).  An AssertionError, so handlers of
    the bare assertion still catch it.
    """

    def __init__(self, what: str, value: float, bound: float):
        super().__init__(f"{what} = {value!r} exceeds its bound {bound!r}")
        self.value = value
        self.bound = bound


def check_bound(what: str, value: float, bound: float) -> None:
    """Raise BoundExceeded when value > bound (1 + 1e-9)."""
    if value > bound * (1.0 + 1e-9):
        raise BoundExceeded(what, value, bound)


def exact_sum(values) -> float:
    """Correctly rounded sum (Shewchuk partials via math.fsum).

    Accepts any iterable of floats, including numpy arrays.  The result is
    independent of grouping, which is what makes the order-reversal
    determinism guards in the test suite exact rather than approximate.
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return math.fsum(values)


# Entries per block of running_prefix: 128 KiB of float64, so a block and
# its TwoSum scratch stay in L2 while both cumsums run over it.
_PREFIX_BLOCK = 1 << 14


def running_prefix(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Neumaier running sums of ``values``.

    Returns (hi, lo) with hi[i] + lo[i] equal to sum(values[:i+1]) to far
    better than double precision.  Keeping the compensation term per index
    lets callers reconstruct adjacent differences without the catastrophic
    cancellation a plain float64 cumsum would suffer at large magnitudes.

    ``hi`` is the sequential float64 cumsum and ``lo`` the cumsum of the
    rounding errors of its steps, each found by Knuth's branch-free TwoSum
    (TAOCP vol. 2, 4.2.2; Ogita, Rump and Oishi 2005, Alg. 3.1): for the
    step t = s + v, b = t - s is the part taken from v and the error is
    (s - (t - b)) + (v - b).  Both are bit-identical to the scalar loop
    ``t = s + v``, ``c += (s - t) + v`` if |s| >= |v| else ``(v - t) + s``,
    ``s = t`` started from s = c = 0.0 (Neumaier 1974): without overflow
    the rounding error of a float addition is a unique number, and both
    forms compute it exactly.  They could differ only in the sign of a
    zero error, which no sum shows: lo, like the loop's c, starts from
    +0.0, and a float sum is -0.0 only when both terms are.

    The work runs over blocks of _PREFIX_BLOCK entries, so each block is
    read from memory once and both cumsums and the TwoSum run on it in
    cache (Lam, Rothberg and Wolf, ASPLOS 1991).  Blocks do not change
    bits: a block's cumsum runs in place over hi[start-1:stop], so it
    starts from the previous block's total and makes the same sequential
    additions as one cumsum over the whole input, and lo carries over the
    same way.  Beyond ``hi`` and ``lo`` only one block of scratch is
    alive, so the peak is twice the input's bytes plus one block.
    """
    values = np.asarray(values, dtype=np.float64)
    block = _PREFIX_BLOCK
    hi = np.empty_like(values)
    lo = np.empty_like(values)
    # The loop starts from +0.0, so 0.0 + values[0] also turns a leading
    # -0.0 into +0.0; every later sum of a +0.0 with a -0.0 stays +0.0.
    hi[:1] = values[:1] + 0.0
    lo[:1] = 0.0  # the first step, 0.0 + values[0], is exact
    scratch = np.empty(min(block, len(values)))
    for start in range(1, len(values), block):
        stop = min(start + block, len(values))
        b = scratch[: stop - start]
        hi[start:stop] = values[start:stop]
        np.cumsum(hi[start - 1 : stop], out=hi[start - 1 : stop])
        new, prev = hi[start:stop], hi[start - 1 : stop - 1]
        err = lo[start:stop]
        np.subtract(new, prev, out=b)
        np.subtract(new, b, out=err)
        np.subtract(prev, err, out=err)
        np.subtract(values[start:stop], b, out=b)
        err += b
        np.cumsum(lo[start - 1 : stop], out=lo[start - 1 : stop])
    return hi, lo


def weighted_power_sum(coeffs: np.ndarray, x: float, j: int) -> float:
    """sum_{1 <= n <= x} coeffs[n] * (x - n)**j, exactly accumulated.

    ``coeffs`` is indexed from 0; index 0 is ignored.  For j = 0 every term
    is coeffs[n] * 1.0, which is bit-identical to coeffs[n], so the j = 0
    case reproduces a plain compensated sum of the coefficients exactly.
    """
    m = int(math.floor(x))
    if m < 1:
        return 0.0
    m = min(m, len(coeffs) - 1)
    n = np.arange(1, m + 1, dtype=np.float64)
    terms = coeffs[1 : m + 1] * (x - n) ** j
    return exact_sum(terms)


def _power_step(m: np.ndarray, f: float, p: int) -> np.ndarray:
    """(m + f)**p - m**p for m, f >= 0, as the positive binomial sum
    sum_{i < p} C(p, i) m^i f^(p-i), so no cancellation is involved."""
    return sum(math.comb(p, i) * m**i * f ** (p - i) for i in range(p))


def riesz_integral(coeffs: np.ndarray, j: int, x: float) -> float:
    """Exact integral over [0, x] of the order-(j) Riesz mean of ``coeffs``.

    The integrand t -> (1/j!) sum_{n <= t} coeffs[n] (t-n)^j is piecewise
    polynomial with breakpoints at the integers, so unit cell [a, a+1]
    contributes sum_{n <= a} coeffs[n] ((a+1-n)^{j+1} - (a-n)^{j+1}), and
    the total needs only a division by (j+1)!.  No quadrature is involved.

    The full cells are summed by parts: grouped by d = a - n, their terms
    are [(d+1)^{j+1} - d^{j+1}] C(floor(x) - 1 - d), with C the running
    prefix sum of the coefficients (hi and lo parts of running_prefix,
    both kept as terms).  A fractional x adds the partial cell
    [floor(x), x] as sum_{n <= x} coeffs[n] ((x-n)^{j+1} - (floor(x)-n)^{j+1}).
    All of it is one compensated sum of O(x) terms.  This is Abel
    summation over the prefix sums, not the per-n telescoped sum
    sum_n coeffs[n] (x-n)^{j+1} that weighted_power_sum forms, so the two
    agree only up to rounding, which is what psi_integral_check compares.

    For coefficients >= 0, with p = j + 1, m = floor(x), U = 2^-53 and
    D = weighted_power_sum(coeffs, x, p) / p!, the result R obeys, to
    first order,

      |R - D| <= ((3p + 8) U + 2 (m U)^2) D.

    Count a power y**e as within eU (libm pow, or e - 1 products), every
    other product, fsum and the division as U.  D is within (p + 3) U of
    the exact integral I.  In R, the weights (d+1)^p - d^p are integer
    sums, exact while (m - 1)^p <= 2^53; past that, and in the partial
    cell always, _power_step is within (2p + 1) U: terms within (p + 2) U,
    then p - 1 additions of terms >= 0.  hi + lo is within 2 (m U)^2 of
    each prefix sum: lo is a float cumsum of at most m TwoSum errors, each
    <= U hi.  The products by the weights, fsum and the division bring R
    within ((2p + 4) U + 2 (m U)^2) I.
    """
    if x <= 1.0:
        return 0.0
    top = int(math.floor(x))
    p = j + 1
    hi, lo = running_prefix(coeffs[1:top])
    d = np.arange(top - 1, dtype=np.float64)
    weights = _power_step(d, 1.0, p)
    terms = [weights * hi[::-1], weights * lo[::-1]]
    if x > top:
        n = np.arange(1, top + 1, dtype=np.float64)
        terms.append(coeffs[1 : top + 1] * _power_step(top - n, x - top, p))
    return exact_sum(np.concatenate(terms)) / math.factorial(p)


def max_discrepancy(a, b, scale: float) -> float:
    """Largest elementwise |a-b| / max(|a|, |b|, floor/rel), rel = 1e-9.

    The floor is 1e-12 * max(1, scale).  Calibrated so that
    ``max_discrepancy(a, b, scale) <= 1e-9`` holds exactly when every element
    satisfies |a-b| <= max(1e-9 * max(|a|,|b|), floor): entries whose
    magnitudes sit below floor/rel are measured against the floor rather
    than against themselves.  FFT round-off is proportional to the
    transform's total energy rather than to individual entries, so
    comparisons against structurally-zero entries of a large table pass the
    table's magnitude as ``scale``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    floor = 1e-12 * max(1.0, scale)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor / 1e-9)
    return float(np.max(np.abs(a - b) / denom))

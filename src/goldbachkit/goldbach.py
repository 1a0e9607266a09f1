"""Weighted Goldbach representation counts and their averages.

G_k(n) = sum over ordered k-tuples (n_1, ..., n_k) of positive integers
with n_1 + ... + n_k = n of Lambda(n_1) ... Lambda(n_k).  Two independent
construction routes are kept: an exact direct convolution (the oracle) and
an FFT route padded far enough that cyclic wraparound cannot occur.  On
top of the tables: prefix sums S_k(X), the part-capped variant with
coefficients Lambda - 1, and the singular series.  The Riesz means
T_j(x) = (1/j!) sum_{n <= x} (x-n)^j G_k(n) are mangoldt.riesz_psi_j of a
G_k table.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .accum import running_prefix
from .mangoldt import (MAX_TABLE_LEN, ArrayResult, MangoldtTable, distinct_prime_factors,
                       primes_up_to)

# Direct convolutions are O(k N^2); gk_direct refuses longer tables.
DIRECT_ORACLE_CAP = 8192


def _five_smooth_ceil(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n; numpy's pocketfft is fast at these lengths."""
    best = 1 << max(n - 1, 0).bit_length()
    power5 = 1
    while power5 < best:
        odd = power5
        while odd < best:
            # odd = 3^b 5^c; the smallest odd * 2^a >= n
            best = min(best, odd << max(-(-n // odd) - 1, 0).bit_length())
            odd *= 3
        power5 *= 5
    return best


def gk_fft_length(k: int, limit: int) -> int:
    """Admission bound for gk_fft: the smallest 5-smooth length >= k limit + 1.

    It is the length of the k >= 3 transform; the k = 2 route transforms
    at about half of it.  Raises ValueError when it exceeds MAX_TABLE_LEN,
    so callers can refuse a request before they sieve for it.
    """
    pad = _five_smooth_ceil(k * limit + 1)
    if pad > MAX_TABLE_LEN:
        raise ValueError(f"FFT padding {pad} exceeds supported size {MAX_TABLE_LEN}")
    return pad


DEFAULT_PRIME_CUTOFF = 1e5


@dataclass(frozen=True, eq=False)
class GoldbachTable(ArrayResult):
    """G_k(n) for 0 <= n <= limit; entries below n = 2k are exactly 0.

    Lambda(0) = Lambda(1) = 0, so every part of a weighted composition is
    at least 2 and G_k is supported on [2k, kN].  In an FFT table of G_2
    the odd entries are direct sums of at most log2(N) terms, with no
    transform round-off, and exactly 0.0 where G_2(n) = 0 (see gk_fft).
    """

    k: int
    limit: int
    values: np.ndarray = field(repr=False)
    method: str = "direct"


@dataclass(frozen=True, eq=False)
class PrefixSums(ArrayResult):
    """S_k(X) = sum_{n <= X} G_k(n) as a compensated running sum.

    ``sums`` is the float64 view hi + lo; the hi/lo split is retained so
    that increment(X) can reproduce G_k(X) without cancellation even when
    S_k(X) is ten orders of magnitude larger.
    """

    k: int
    limit: int
    sums: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)
    lo: np.ndarray = field(repr=False)

    def increment(self, x: int) -> float:
        """Compensated S_k(x) - S_k(x-1)."""
        if x == 0:
            return self.hi[0] + self.lo[0]
        return (self.hi[x] - self.hi[x - 1]) + (self.lo[x] - self.lo[x - 1])


@dataclass(frozen=True)
class SingularSeriesQuery:
    """Parameters for the local-density Euler product of G_k(n)."""

    k: int
    n: int
    prime_cutoff: float = DEFAULT_PRIME_CUTOFF

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"need k >= 2, got {self.k}")
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.n >= MAX_TABLE_LEN**2:
            raise ValueError(f"need n < {MAX_TABLE_LEN**2} to factor by the sieve, got {self.n}")
        if not 2 <= self.prime_cutoff < math.inf:
            raise ValueError(f"need prime cutoff >= 2 and finite, got {self.prime_cutoff}")


def _check_build_args(table: MangoldtTable, k: int, limit: int) -> None:
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if limit > table.limit:
        raise ValueError(
            f"table limit {limit} exceeds sieve limit {table.limit}"
        )
    if limit < 1:
        raise ValueError(f"need a positive limit, got {limit}")


def _convolution_powers(base: np.ndarray, k: int, length: int) -> list[np.ndarray]:
    """[base, base^2, ..., base^k] under direct convolution, first ``length`` terms.

    ``base`` is zero-padded to ``length`` and every power is truncated
    there: indices only add up under convolution, so terms beyond the
    truncation can never fall back into range.
    """
    first = np.zeros(length)
    first[: len(base)] = base[:length]
    powers = [first]
    for _ in range(k - 1):
        powers.append(np.convolve(powers[-1], base)[:length])
    return powers


def gk_direct(table: MangoldtTable, k: int, limit: int) -> GoldbachTable:
    """G_k by k-1 successive exact direct convolutions (the oracle route).

    Intermediate stages are truncated at ``limit``: parts are >= 1, so
    partial sums beyond the limit can never fall back into range.
    """
    _check_build_args(table, k, limit)
    if limit > DIRECT_ORACLE_CAP:
        raise ValueError(
            f"direct oracle capped at {DIRECT_ORACLE_CAP} (O(k N^2)); requested {limit}"
        )
    out = _convolution_powers(table.values[: limit + 1], k, limit + 1)[-1]
    return GoldbachTable(k=k, limit=limit, values=out, method="direct")


def _self_convolution(x: np.ndarray, k: int) -> np.ndarray:
    """The k-fold linear convolution of x, as one real FFT power.

    The transform length is the smallest 5-smooth 2^a 3^b 5^c >= k(len(x) - 1)
    + 1, so the cyclic convolution has no wraparound.
    """
    pad = _five_smooth_ceil(k * (len(x) - 1) + 1)
    return np.fft.irfft(np.fft.rfft(x, pad) ** k, pad)


# Odd entries per block of G_2's shifted adds: a 256 KiB accumulator that
# stays in L2 while every shift of odd is added into it.
_SHIFT_BLOCK = 1 << 15


def _g2_from_odd_half(lam: np.ndarray) -> np.ndarray:
    """G_2 on [0, N] from Lambda on [0, N], split as odd + T (see gk_fft)."""
    limit = len(lam) - 1
    odd = np.ascontiguousarray(lam[1::2])  # odd[a] = Lambda(2a + 1)
    values = np.zeros(limit + 1)
    values[2::2] = _self_convolution(odd, 2)[: limit // 2]  # n = 2c + 2
    powers = [1 << i for i in range(1, limit.bit_length())]  # the 2^i <= N, i >= 1
    log2 = math.log(2)  # Lambda(2^i), as build_mangoldt writes it
    block = _SHIFT_BLOCK
    shifted = np.empty(min(block, len(odd)))
    for start in range(0, len(odd), block):  # odd n = 2c + 1, c in [start, stop)
        stop = min(start + block, len(odd))
        acc = shifted[: stop - start]
        acc.fill(0.0)
        for p in powers:  # n - 2^i = 2(c - 2^(i-1)) + 1
            first = max(start, p // 2)
            if first < stop:
                acc[first - start :] += odd[first - p // 2 : stop - p // 2]
        np.multiply(acc, 2.0 * log2, out=values[2 * start + 1 : 2 * stop : 2])
    log2_squared = log2 * log2
    for i, p in enumerate(powers):  # T*T: each n = 2^i + 2^j, i <= j, is written once
        for q in powers[i:]:
            if p + q <= limit:
                values[p + q] += (1.0 if p == q else 2.0) * log2_squared
    return values


def gk_fft(table: MangoldtTable, k: int, limit: int) -> GoldbachTable:
    """G_k via real-input FFTs, zero-padded past any wraparound.

    U is the unit roundoff 2^-53 and eta = 8U the per-level FFT constant
    of Higham, *Accuracy and Stability of Numerical Algorithms*, Thm 24.2
    (stated for radix 2; Ramos, Math. Comp. 1971, treats general radices,
    and numpy's 5-smooth lengths are taken at the same constant).  For x
    of length L >= 1 padded to a length P past wraparound, the computed
    k-fold self-convolution is, at every entry, within

      E_k(x, P) = ((k + 1) log2(P) eta + 3kU) ||x||_1^(k-1) ||x||_2

    of the exact one, to first order: Thm 24.2 bounds the forward error by
    log2(P) eta sqrt(P) ||x||_2; the k-th power multiplies it by
    k ||X||_inf^(k-1) <= k ||x||_1^(k-1), and its k - 1 complex products add
    sqrt(5) U each; the inverse adds log2(P) eta ||x^(*k)||_2 <= log2(P) eta
    ||x||_1^(k-1) ||x||_2, and U for its 1/P scaling.

    k = 2.  Lambda on [0, N] vanishes at every even index but the powers
    of two, so it splits as odd + T with odd[a] = Lambda(2a + 1) and T =
    log 2 at each 2^i <= N, i >= 1, and G_2 = odd*odd + 2 odd*T + T*T:

    - even n = 2c + 2: (odd*odd)(c), one transform at the 5-smooth length
      P >= 2 len(odd) - 1, about N where the full route needs 2N + 1,
      plus the one T*T term, log(2)^2 at n = 2^(i+1) or 2 log(2)^2 at
      n = 2^i + 2^j, i < j.  Within E_2(odd, P) + 2U G_2(n).
    - odd n: 2 log 2 sum_i Lambda(n - 2^i), at most log2(N) shifted adds
      of odd and no transform.  Every term is >= 0, so the entry is within
      log2(N) U G_2(n) of the exact sum, and it is exactly 0.0 where no
      n - 2^i is a prime power.  The adds run block by block over the
      output: each block takes every shift, in the order of 2^i, while it
      is in cache, so every entry gets the additions of whole-array
      shifted adds in the same order, and the same bits.

    k >= 3.  One power of the whole table, x = Lambda on [0, N], at P =
    gk_fft_length(k, N) >= kN + 1; within E_k(x, P).  A half-grid route
    does not pay here: G_k needs every power odd^m, m = 2..k, each
    inverted at about kN/2 points, which is about k^2 N / 2 transform
    points against this route's 2kN, plus k rounds of shifts; in a trial
    it was no faster at k = 3, and it loses from k = 4.

    Both routes leave FFT round-off in the structural zeros n < 2k, so
    those entries are set to exactly 0.  gk_fft_length(k, N) is checked
    first either way: it is the size the caller admits before sieving.
    """
    _check_build_args(table, k, limit)
    gk_fft_length(k, limit)
    lam = table.values[: limit + 1]
    if k == 2:
        values = _g2_from_odd_half(lam)
    else:
        values = _self_convolution(lam, k)[: limit + 1].copy()
    values[: 2 * k] = 0.0
    return GoldbachTable(k=k, limit=limit, values=values, method="fft")


def sk_prefix(table: GoldbachTable) -> PrefixSums:
    """Running averages S_k(X) for X = 0..limit, compensated."""
    hi, lo = running_prefix(table.values)
    return PrefixSums(k=table.k, limit=table.limit, sums=hi + lo, hi=hi, lo=lo)


def bk_truncated(table: MangoldtTable, k: int, n: int, x: float) -> float:
    """Part-capped sum over compositions with coefficients Lambda - 1.

    sum over n_1 + ... + n_k = n, 1 <= n_i <= x, of prod (Lambda(n_i) - 1),
    evaluated by iterated direct convolution of the capped coefficient
    array (distributively identical to the composition sum).
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if x > table.limit:
        raise ValueError(f"cap {x} exceeds sieve limit {table.limit}")
    if n > k * x:
        raise ValueError(f"n = {n} unreachable with {k} parts <= {x}")
    if n < k:
        return 0.0
    cap = min(int(math.floor(x)), n)
    base = np.zeros(cap + 1)
    base[1:] = table.values[1 : cap + 1] - 1.0
    return float(_convolution_powers(base, k, n + 1)[-1][n])


def bk_decomposition_check(table: MangoldtTable, k: int, n: int) -> tuple[float, float]:
    """Both sides of the alternating expansion of the part-capped sum.

    For x >= n the cap is inactive and expanding prod(Lambda(n_i) - 1)
    by how many factors take the -1 gives

      B_k(n) = sum_{i=0}^{k} (-1)^i C(k,i) W_i,
      W_i = sum_m C(n-m-1, i-1) G_{k-i}(m)   (1 <= i <= k-1),
      W_0 = G_k(n),  W_k = C(n-1, k-1),

    where the binomial counts the compositions of the i free parts.
    Returns (direct capped sum at x = n, expansion); they agree to
    rounding.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if not k <= n <= table.limit:
        raise ValueError(f"need k <= n <= sieve limit, got n = {n}")
    lhs = bk_truncated(table, k, n, float(n))

    # G_1 = Lambda, ..., G_k up to n by one direct-convolution ladder.
    tables = _convolution_powers(table.values[: n + 1], k, n + 1)

    terms: list[float] = []
    terms.append(float(tables[k - 1][n]))  # i = 0
    for i in range(1, k):
        g = tables[k - i - 1].tolist()
        inner = [
            math.comb(n - m - 1, i - 1) * g[m]
            for m in range(max(1, k - i), n - i + 1)
        ]
        terms.append((-1) ** i * math.comb(k, i) * math.fsum(inner))
    terms.append((-1) ** k * math.comb(n - 1, k - 1))  # i = k
    return lhs, math.fsum(terms)


def singular_series(query: SingularSeriesQuery) -> tuple[float, float]:
    """Truncated local-density product for G_k(n), with a tail estimate.

    value = prod_{p | n} (1 - (-1/(p-1))^(k-1)) * prod_{p !| n} (1 - (-1/(p-1))^k)

    The second product is truncated at p <= prime_cutoff; prime divisors of
    n are always included, even above the cutoff.  The reported tail is a
    value-scale bound: the omitted non-divisor factors satisfy
    |log(1 - u)| <= 2|u| with |u| = (p-1)^(-k), and summing over integers
    beyond the cutoff P gives sum |log| <= 2 (P-1)^(1-k) / (k-1), so
    |true - truncated| <= |truncated| * expm1(of that).
    """
    k, n, cutoff = query.k, query.n, query.prime_cutoff
    primes = primes_up_to(int(math.floor(cutoff))).tolist()
    value = 1.0
    for p in primes + [p for p in distinct_prime_factors(n) if p > cutoff]:
        u = -1.0 / (p - 1)
        value *= 1.0 - u ** (k - 1 if n % p == 0 else k)
    tail_log = 2.0 * (cutoff - 1.0) ** (1 - k) / (k - 1)
    return value, abs(value) * math.expm1(tail_log)


def write_goldbach_csv(table: GoldbachTable, stream) -> None:
    """Dump (n, G_k(n)) rows with a self-describing header, 17 significant digits."""
    stream.write(f"# k={table.k} N={table.limit} method={table.method}\n")
    stream.write("n,value\n")
    for n in range(table.k, table.limit + 1):
        stream.write(f"{n},{table.values[n]:.17g}\n")

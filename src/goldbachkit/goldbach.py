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
from .mangoldt import MAX_TABLE_LEN, MangoldtTable, distinct_prime_factors, primes_up_to

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
    """Transform length gk_fft uses for G_k up to ``limit``.

    Raises ValueError when it exceeds MAX_TABLE_LEN, so callers can refuse
    a request before they sieve for it.
    """
    pad = _five_smooth_ceil(k * limit + 1)
    if pad > MAX_TABLE_LEN:
        raise ValueError(f"FFT padding {pad} exceeds supported size {MAX_TABLE_LEN}")
    return pad


DEFAULT_PRIME_CUTOFF = 1e5


@dataclass(frozen=True)
class GoldbachTable:
    """G_k(n) for 0 <= n <= limit; entries below n = 2k are exactly 0.

    Lambda(0) = Lambda(1) = 0, so every part of a weighted composition is
    at least 2 and G_k is supported on [2k, kN].
    """

    k: int
    limit: int
    values: np.ndarray = field(repr=False)
    method: str = "direct"

    def __post_init__(self):
        self.values.setflags(write=False)


@dataclass(frozen=True)
class PrefixSums:
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


def gk_fft(table: MangoldtTable, k: int, limit: int) -> GoldbachTable:
    """G_k via a real-input FFT power, zero-padded past any wraparound.

    The k-fold convolution of coefficients supported on [2, N] (Lambda(1)
    = 0) is supported on [2k, kN]; padding to the smallest 5-smooth length
    2^a 3^b 5^c >= kN + 1 (``gk_fft_length``) makes the cyclic convolution
    agree with the linear one exactly.  The transform leaves round-off in
    the structural zeros n < 2k, so those entries are set to exactly 0.
    """
    _check_build_args(table, k, limit)
    pad = gk_fft_length(k, limit)
    spectrum = np.fft.rfft(table.values[: limit + 1], pad)
    values = np.fft.irfft(spectrum**k, pad)[: limit + 1].copy()
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
        g = tables[k - i - 1]
        inner = [
            math.comb(n - m - 1, i - 1) * float(g[m])
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

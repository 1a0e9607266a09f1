"""Sieve-based arithmetic substrate.

Builds von Mangoldt tables Lambda(n) from one Eratosthenes prime sieve,
and evaluates the Chebyshev-type sums every other module feeds on:
psi(x), the Riesz means psi_j(x) = (1/j!) sum_{n<=x} Lambda(n)(x-n)^j,
sums over one residue class, exact primorials, and the distinct prime
factors of an integer.  Factoring divides by the same sieve's primes up
to sqrt(n), so it is bounded by the sieve's cap: n < MAX_TABLE_LEN^2.

ArrayResult is the one home of the immutability rule: every result type
that holds arrays (MangoldtTable here, GoldbachTable, PrefixSums,
ZeroTable, ArcClassification) subclasses it, so its arrays are read-only
once built and concurrent readers are always safe.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .accum import exact_sum, riesz_integral, weighted_power_sum

# Largest table, in entries, the sieve and the G_k transforms allocate; larger
# requests are refused up front rather than swapping the machine to death.
MAX_TABLE_LEN = 1 << 27


@dataclass(frozen=True, eq=False)
class ArrayResult:
    """Base of the results that hold numpy arrays: every array is read-only.

    __post_init__ marks each ndarray attribute read-only, so a built result
    cannot be changed in place.  Subclasses are declared with
    ``@dataclass(frozen=True, eq=False)``.  eq=False because an array has
    no single truth value: a generated field-by-field == could only raise
    ValueError, and its hash TypeError.  Such results compare and hash by
    identity; results without arrays stay values.
    """

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


@dataclass(frozen=True, eq=False)
class MangoldtTable(ArrayResult):
    """Lambda(n) for 1 <= n <= limit, as float64 logs of primes.

    values[n] = log p when n = p^m for a prime p, else 0.  Index 0 is a
    padding slot and always 0.
    """

    limit: int
    values: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class Primorial:
    """Product of all primes below a cutoff, in factored form.

    Python integers are arbitrary precision, so the value can never wrap
    around; the factored form is kept because phi and the per-prime Mertens
    product need the prime list anyway.
    """

    primes: tuple[int, ...]

    @property
    def value(self) -> int:
        return math.prod(self.primes)

    @property
    def phi(self) -> int:
        return math.prod(p - 1 for p in self.primes)


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit (ascending, int64), by boolean Eratosthenes sieve.

    The sieve holds odd numbers only, odd[j] for 2j + 1, so it is half as
    long and each prime p crosses off its odd multiples from p^2 with
    step p in j.  The primes are the marked j turned into 2j + 1 in
    place, with 2 in the slot of 1, so one array is allocated.

    Refuses (ValueError) a sieve longer than MAX_TABLE_LEN before allocating.
    """
    if limit < 2:
        return np.array([], dtype=np.int64)
    if limit + 1 > MAX_TABLE_LEN:
        raise ValueError(f"sieve of {limit + 1} entries exceeds supported size {MAX_TABLE_LEN}")
    odd = np.ones((limit + 1) // 2, dtype=bool)  # odd[0], for 1, is kept for 2
    for p in range(3, math.isqrt(limit) + 1, 2):
        if odd[p // 2]:
            odd[p * p // 2 :: p] = False
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def build_mangoldt(limit: int) -> MangoldtTable:
    """Sieve Lambda(n) for n <= limit.

    The primes come from primes_up_to; math.log(p) is written at every
    prime p in one assignment, then at p^2, p^3, ... <= limit for the
    p <= sqrt(limit).  math.log, not np.log: the two differ in the last
    bit at some primes.

    Raises ValueError for limit < 2, and for a limit primes_up_to refuses.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    primes = primes_up_to(limit)
    plist = primes.tolist()
    values = np.zeros(limit + 1)
    values[primes] = np.fromiter(map(math.log, plist), float, len(plist))
    for p in plist:
        if p * p > limit:
            break
        q = p * p
        while q <= limit:
            values[q] = values[p]
            q *= p
    return MangoldtTable(limit=limit, values=values)


def _check_range(table: MangoldtTable, x: float) -> None:
    if x > table.limit:
        raise ValueError(
            f"argument {x} exceeds sieve limit {table.limit}; rebuild the table"
        )


def chebyshev_psi(table: MangoldtTable, x: float) -> float:
    """psi(x) = sum_{n <= x} Lambda(n): the class sum mod 1, compensated."""
    return psi_progression(table, x, 1, 0)


def riesz_psi_j(table, j: int, x: float) -> float:
    """psi_j(x) = (1/j!) sum_{n <= x} Lambda(n) (x-n)^j, for j >= 0 and x >= 1.

    The order-j Riesz mean of any table with ``values`` and ``limit``; of a
    G_k table it is T_j(x) = (1/j!) sum_{n <= x} (x-n)^j G_k(n), T_0 = S_k(x).
    Computed as a direct weighted sum (never by recursion on j) in the same
    ascending compensated order as chebyshev_psi; for j = 0 each weight is
    exactly 1.0 so the result is bit-for-bit equal to chebyshev_psi.
    Raises ValueError for j < 0, x < 1 and x beyond the table's limit.
    """
    if j < 0:
        raise ValueError(f"Riesz order must be >= 0, got {j}")
    if x < 1:
        raise ValueError(f"evaluation point must be >= 1, got {x}")
    _check_range(table, x)
    return weighted_power_sum(table.values, x, j) / math.factorial(j)


def psi_shift_check(table: MangoldtTable, j: int, x: float) -> tuple[float, float]:
    """Unit-shift increment of psi_j against its x^j growth scale.

    Returns (psi_j(x+1) - psi_j(x), x^j); the ratio of the two is bounded,
    which callers assert at whatever constant they calibrate.
    """
    if j < 1:
        raise ValueError("shift check needs j >= 1")
    a = riesz_psi_j(table, j, x)
    return riesz_psi_j(table, j, x + 1) - a, x**j


def psi_integral_check(table: MangoldtTable, j: int, x: float) -> tuple[float, float]:
    """psi_j(x) against the exact integral of psi_{j-1} over [0, x].

    psi_{j-1} is piecewise polynomial with integer breakpoints, so the
    integral is evaluated cell by cell in closed form (a finite sum, no
    quadrature).  The two return values agree up to summation-order noise.
    """
    if j < 1:
        raise ValueError("integral identity needs j >= 1")
    return riesz_psi_j(table, j, x), riesz_integral(table.values, j - 1, x)


def psi_progression(table, x: float, q: int, a: int) -> float:
    """psi(x; q, a) = sum_{n <= x, n == a (mod q)} Lambda(n), compensated.

    The one residue-class sum of the package: any table with ``values``
    and ``limit`` is summed the same way (a G_k table gives the class sums
    of G_k).  An empty class is an fsum of an empty slice, exactly 0.0.
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    _check_range(table, x)
    m = int(math.floor(x))
    if m < 1:
        return 0.0
    return exact_sum(table.values[a % q or q : m + 1 : q])


def primorial(y: float) -> Primorial:
    """Product of all primes p < y, exact and factored."""
    if not 2 <= y < math.inf:
        raise ValueError(f"primorial cutoff must be >= 2 and finite, got {y}")
    return Primorial(primes=tuple(primes_up_to(math.ceil(y) - 1).tolist()))


def distinct_prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending.

    Trial division by the sieved primes p <= sqrt(n); what is left of n
    once they are divided out is 1 or one prime above sqrt(n).  The sieve
    refuses n >= MAX_TABLE_LEN^2 = 2^54 (ValueError) before it allocates;
    just below it a call takes about 2.7 s and 270 MB (2-vCPU VM).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    primes = primes_up_to(math.isqrt(n))
    out = primes[n % primes == 0].tolist()
    cofactor = n
    for p in out:
        while cofactor % p == 0:
            cofactor //= p
    return out + [cofactor] if cofactor > 1 else out

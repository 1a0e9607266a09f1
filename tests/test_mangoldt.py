import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goldbachkit import (
    build_mangoldt,
    chebyshev_psi,
    distinct_prime_factors,
    gk_fft,
    primorial,
    progression_bound_check,
    psi_integral_check,
    psi_progression,
    psi_shift_check,
    riesz_psi_j,
)
from goldbachkit.mangoldt import MAX_TABLE_LEN, primes_up_to

from conftest import lambda_by_trial_division

LOG2 = math.log(2)
LOG3 = math.log(3)


def test_lambda_values_small():
    table = build_mangoldt(100)
    assert table.values[1] == 0.0
    assert table.values[6] == 0.0
    assert table.values[8] == LOG2
    assert table.values[9] == LOG3
    assert table.values[97] == math.log(97)


def test_sieve_matches_trial_division(sieve_10k):
    # exact equality: both routes store math.log of the same base prime
    for n in range(1, 10_001):
        assert sieve_10k.values[n] == lambda_by_trial_division(n), n
    # limits whose top entry is a prime power or a square, so the prime
    # sieve's isqrt cut and the last prime-power step land on the limit
    for limit in (2, 3, 4, 8, 9, 25, 27, 121, 1 << 10):
        expected = [lambda_by_trial_division(n) for n in range(limit + 1)]
        assert build_mangoldt(limit).values.tolist() == expected, limit


def test_prime_power_shares_prime_value(sieve_10k):
    for p in (2, 3, 5, 7, 11, 13):
        q = p * p
        while q <= sieve_10k.limit:
            assert sieve_10k.values[q] == sieve_10k.values[p]
            q *= p


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def test_total_mass_matches_prime_power_enumeration(sieve_10k):
    # independent route: enumerate primes by trial division, then powers
    terms = []
    for p in range(2, sieve_10k.limit + 1):
        if not _is_prime(p):
            continue
        q = p
        while q <= sieve_10k.limit:
            terms.append(math.log(p))
            q *= p
    independent = math.fsum(terms)
    assert chebyshev_psi(sieve_10k, sieve_10k.limit) == pytest.approx(
        independent, rel=1e-9
    )


def _per_prime_mangoldt(limit):
    """Reference: each prime p writes math.log(p) at p, p^2, p^3, ... <= limit."""
    values = np.zeros(limit + 1)
    for p in primes_up_to(limit).tolist():
        logp = math.log(p)
        q = p
        while q <= limit:
            values[q] = logp
            q *= p
    return values


# a prime power at the limit (2^16, 3^10, 251^2), a prime there (65537),
# one short of a square (251^2 - 1), and the benchmark's 2^21
@pytest.mark.parametrize("limit", [1 << 16, 3**10, 65537, 251**2 - 1, 251**2, 1 << 21])
def test_sieve_bytes_match_per_prime_loop(limit):
    assert build_mangoldt(limit).values.tobytes() == _per_prime_mangoldt(limit).tobytes()


def _plain_sieve(limit):
    """Every integer in one boolean array, each prime crossing off its multiples."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if is_prime[i]:
            is_prime[i * i :: i] = False
    return is_prime


def test_odd_sieve_matches_plain_sieve():
    small = [p for p in range(2, 60) if all(p % d for d in range(2, p))]
    limits = list(range(3001))
    limits += [p * p + d for p in small for d in (-1, 0, 1)]
    limits += [(1 << j) + d for j in range(1, 23) for d in (-1, 1)]
    plain = _plain_sieve(max(limits))
    for limit in limits:
        primes = primes_up_to(limit)
        assert primes.dtype == np.int64, limit
        assert np.array_equal(primes, np.flatnonzero(plain[: limit + 1])), limit


def test_build_rejects_tiny_limit():
    with pytest.raises(ValueError):
        build_mangoldt(1)


def test_sieve_refuses_oversized_limit():
    # limit + 1 entries, so the largest supported limit is MAX_TABLE_LEN - 1
    for limit in (MAX_TABLE_LEN, 10**12):
        with pytest.raises(ValueError, match="exceeds supported size"):
            primes_up_to(limit)
        with pytest.raises(ValueError, match="exceeds supported size"):
            build_mangoldt(limit)


def test_table_is_immutable(sieve_10k):
    with pytest.raises(ValueError):
        sieve_10k.values[2] = 0.0


def test_psi_examples(sieve_10k):
    assert chebyshev_psi(sieve_10k, 1) == 0.0
    expected = math.fsum([3 * LOG2, 2 * LOG3, math.log(5), math.log(7)])
    assert chebyshev_psi(sieve_10k, 10) == pytest.approx(expected, rel=1e-15)
    # prime-number-theorem scale sanity
    x = 10_000.0
    assert abs(chebyshev_psi(sieve_10k, x) - x) < 0.02 * x


def test_psi_out_of_range(sieve_10k):
    with pytest.raises(ValueError):
        chebyshev_psi(sieve_10k, 10_001)


def test_psi_monotone(sieve_10k):
    values = [chebyshev_psi(sieve_10k, float(x)) for x in range(1, 400)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_riesz_j0_bit_identical(sieve_10k):
    for x in (1.0, 2.0, 10.0, 97.5, 1000.0, 9999.0):
        assert riesz_psi_j(sieve_10k, 0, x) == chebyshev_psi(sieve_10k, x)


def test_riesz_hand_values(sieve_10k):
    assert riesz_psi_j(sieve_10k, 1, 3.0) == pytest.approx(LOG2, rel=1e-15)
    expected = 2 * LOG2 + LOG3 / 2
    assert riesz_psi_j(sieve_10k, 2, 4.0) == pytest.approx(expected, rel=1e-15)


def test_riesz_nonnegative(sieve_10k):
    for j in range(5):
        for x in (1.0, 7.0, 64.0, 999.0):
            assert riesz_psi_j(sieve_10k, j, x) >= 0.0


def test_psijquery_validation(sieve_10k):
    with pytest.raises(ValueError, match="Riesz order"):
        riesz_psi_j(sieve_10k, -1, 10.0)
    with pytest.raises(ValueError, match="evaluation point"):
        riesz_psi_j(sieve_10k, 0, 0.5)


def test_shift_check(sieve_10k):
    diff, scale = psi_shift_check(sieve_10k, 1, 100.0)
    assert scale == 100.0
    assert 0.0 <= diff <= chebyshev_psi(sieve_10k, 101.0)
    assert diff / scale < 3.0

    diff2, _ = psi_shift_check(sieve_10k, 2, 10.0)
    brute = riesz_psi_j(sieve_10k, 2, 11.0) - riesz_psi_j(sieve_10k, 2, 10.0)
    assert diff2 == pytest.approx(brute, rel=1e-12)

    diff3, _ = psi_shift_check(sieve_10k, 1, 1.0)
    assert diff3 == 0.0


@pytest.mark.parametrize("j", [1, 2, 3, 4])
@pytest.mark.parametrize("x", [2.0, 3.0, 4.0, 10.0, 100.0, 537.25, 1000.0])
def test_integral_identity(sieve_10k, j, x):
    direct, integral = psi_integral_check(sieve_10k, j, x)
    assert direct == pytest.approx(integral, rel=1e-9, abs=1e-12)


def test_integral_identity_hand_cases(sieve_10k):
    direct, integral = psi_integral_check(sieve_10k, 1, 3.0)
    assert direct == pytest.approx(LOG2, rel=1e-13)
    assert integral == pytest.approx(LOG2, rel=1e-13)
    direct, integral = psi_integral_check(sieve_10k, 1, 2.0)
    assert direct == 0.0 and integral == 0.0
    direct, integral = psi_integral_check(sieve_10k, 2, 4.0)
    assert integral == pytest.approx(2 * LOG2 + LOG3 / 2, rel=1e-13)


def test_progression_examples(sieve_10k):
    assert psi_progression(sieve_10k, 10.0, 1, 0) == chebyshev_psi(sieve_10k, 10.0)
    assert psi_progression(sieve_10k, 10.0, 4, 3) == pytest.approx(
        LOG3 + math.log(7), rel=1e-15
    )
    assert psi_progression(sieve_10k, 10.0, 4, 0) == pytest.approx(2 * LOG2, rel=1e-15)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 6, 30, 97])
def test_progression_partition(sieve_10k, q):
    # at x = 10, q = 30 and 97 leave most classes empty
    for x in (5000.0, 10.0):
        classes = [psi_progression(sieve_10k, x, q, a) for a in range(q)]
        assert math.fsum(classes) == pytest.approx(chebyshev_psi(sieve_10k, x), rel=1e-9)
        for a, value in enumerate(classes):
            if (a or q) > x:  # no n in [1, x] is congruent to a
                assert value == 0.0
        rows = progression_bound_check(sieve_10k, x / 2, q).rows
        assert {row.residue: row.psi_value for row in rows} == {
            a: classes[a] for a in range(q) if math.gcd(a, q) == 1
        }


def test_progression_of_a_goldbach_table(sieve_10k):
    # the class sum takes any table with values and limit
    g2 = gk_fft(sieve_10k, 2, 1000)
    for q, a in ((1, 0), (6, 4), (30, 2), (30, -28)):
        expected = math.fsum(g2.values[n] for n in range(1, 1001) if (n - a) % q == 0)
        assert psi_progression(g2, 1000.0, q, a) == expected
    with pytest.raises(ValueError, match="exceeds sieve limit"):
        psi_progression(g2, 1001.0, 6, 4)


def test_primorial_examples():
    assert primorial(3).value == 2
    assert primorial(3).phi == 1
    assert primorial(11).value == 210
    assert primorial(11).phi == 48
    assert primorial(20).value == 9699690
    with pytest.raises(ValueError):
        primorial(1.5)
    for y in (math.nan, math.inf):
        with pytest.raises(ValueError, match="primorial cutoff must be >= 2"):
            primorial(y)


def test_primorial_is_exact_at_scale():
    # product of primes below 100 exceeds 2^64; exactness must survive
    q = primorial(100)
    assert q.value % 97 == 0 and q.value % 89 == 0
    assert q.value > 2**64


def test_distinct_prime_factors_matches_brute():
    for n in range(1, 300):
        brute = [p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)]
        assert distinct_prime_factors(n) == brute, n
    assert distinct_prime_factors(30030) == [2, 3, 5, 7, 11, 13]
    assert distinct_prime_factors(2 * 999983) == [2, 999983]
    # a prime: the cofactor left after the sieved primes up to 10^7 is n itself
    assert distinct_prime_factors(10**14 + 31) == [10**14 + 31]
    with pytest.raises(ValueError):
        distinct_prime_factors(0)


def _factors_by_integer_trial_division(n: int) -> list[int]:
    """Oracle: divide by every integer p with p^2 <= what is left of n."""
    out, m, p = [], n, 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return out + [m] if m > 1 else out


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10**10))
@example(999983**2)
def test_distinct_prime_factors_matches_trial_division(n):
    assert distinct_prime_factors(n) == _factors_by_integer_trial_division(n)


def test_distinct_prime_factors_refused_before_allocating(monkeypatch):
    def refuse(shape, *args, **kwargs):
        raise MemoryError(f"allocated {shape} before checking the sieve size")

    monkeypatch.setattr(np, "ones", refuse)
    # 2^54 would sieve up to its root 2^27, one entry past MAX_TABLE_LEN
    with pytest.raises(ValueError, match="exceeds supported size"):
        distinct_prime_factors(MAX_TABLE_LEN**2)

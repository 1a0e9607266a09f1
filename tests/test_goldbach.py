import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goldbachkit import (
    SingularSeriesQuery,
    bk_decomposition_check,
    bk_truncated,
    build_mangoldt,
    gk_direct,
    gk_fft,
    max_discrepancy,
    riesz_psi_j,
    singular_series,
    sk_prefix,
    write_goldbach_csv,
)
from goldbachkit import goldbach
from goldbachkit.accum import riesz_integral
from goldbachkit.goldbach import _five_smooth_ceil, gk_fft_length

LOG2 = math.log(2)
LOG3 = math.log(3)
U = 2.0**-53
FFT_ETA = 8 * U  # gk_fft's per-level constant (Higham, Thm 24.2)


def brute_gk(table, k, n):
    """Composition-enumeration oracle for G_k(n)."""
    values = table.values

    def rec(parts_left, remaining, acc):
        if parts_left == 1:
            if 1 <= remaining <= table.limit:
                return acc * values[remaining]
            return 0.0
        total = 0.0
        for part in range(1, remaining - parts_left + 2):
            if values[part] != 0.0:
                total += rec(parts_left - 1, remaining - part, acc * values[part])
        return total

    return rec(k, n, 1.0)


def brute_bk(table, k, n, x):
    """Composition-enumeration oracle for the part-capped Lambda-1 sum."""
    cap = int(math.floor(x))

    def rec(parts_left, remaining):
        if parts_left == 1:
            if 1 <= remaining <= cap:
                return table.values[remaining] - 1.0
            return 0.0
        total = 0.0
        for part in range(1, min(cap, remaining - parts_left + 1) + 1):
            total += (table.values[part] - 1.0) * rec(parts_left - 1, remaining - part)
        return total

    return rec(k, n)


def test_gk_direct_examples(sieve_10k):
    g2 = gk_direct(sieve_10k, 2, 16)
    assert g2.values[4] == pytest.approx(LOG2**2, rel=1e-15)
    assert g2.values[5] == pytest.approx(2 * LOG2 * LOG3, rel=1e-15)
    assert g2.values[3] == 0.0
    g3 = gk_direct(sieve_10k, 3, 16)
    assert g3.values[6] == pytest.approx(LOG2**3, rel=1e-15)


def test_gk_against_enumeration(sieve_10k):
    for k in (2, 3):
        table = gk_direct(sieve_10k, k, 24)
        for n in range(1, 25):
            assert table.values[n] == pytest.approx(
                brute_gk(sieve_10k, k, n), rel=1e-12, abs=1e-12
            ), (k, n)


def test_gk_zero_below_k(sieve_10k):
    for k in (2, 3, 4):
        table = gk_direct(sieve_10k, k, 64)
        assert np.all(table.values[:k] == 0.0)
        assert np.all(table.values >= 0.0)


# kN + 1 just past a power of two, where the 5-smooth length is furthest
# below the next power of two
PAST_POWER_OF_TWO = {2: 2048, 3: 1366, 4: 1024}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_fft_matches_direct(sieve_10k, k):
    for n in (256, PAST_POWER_OF_TWO[k]):
        direct = gk_direct(sieve_10k, k, n)
        fft = gk_fft(sieve_10k, k, n)
        scale = float(np.max(direct.values))
        assert max_discrepancy(direct.values, fft.values, scale=scale) <= 1e-9, n


def _is_five_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def test_fft_length_is_smallest_five_smooth():
    for n in range(1, 5001):
        length = _five_smooth_ceil(n)
        assert length >= n and _is_five_smooth(length), n
        assert not any(_is_five_smooth(m) for m in range(n, length)), n
    assert gk_fft_length(2, 1 << 21) == 4_199_040  # 2^7 3^8 5, just over half of 2^23
    with pytest.raises(ValueError, match="exceeds supported size"):
        gk_fft_length(16, 1 << 23)


# limits 2..4096, odd and even, with the powers of two and their neighbours drawn often
K2_LIMITS = st.one_of(
    st.integers(min_value=2, max_value=4096),
    st.sampled_from([m for e in range(1, 13) for m in (2**e - 1, 2**e, 2**e + 1) if m >= 2]),
)


@settings(max_examples=60, deadline=None)
@given(K2_LIMITS)
@example(2049)
def test_fft_k2_within_derived_bound(sieve_10k, limit):
    """gk_fft at k = 2 against gk_direct, entry by entry, within the bounds
    the gk_fft docstring derives plus the direct route's own round-off."""
    fft = gk_fft(sieve_10k, 2, limit).values
    direct = gk_direct(sieve_10k, 2, limit).values
    odd = sieve_10k.values[1 : limit + 1 : 2]
    pad = _five_smooth_ceil(2 * len(odd) - 1)
    transform = (3 * math.log2(pad) * FFT_ETA + 6 * U) * odd.sum() * math.sqrt(odd @ odd)
    n = np.arange(limit + 1)
    fft_bound = np.where(n % 2 == 0, transform + 2 * U * direct,
                         math.log2(limit) * U * direct)
    # np.convolve: at most n + 1 nonnegative products per entry, gamma_(n+1) G_2(n)
    direct_bound = (n + 1) * U * direct
    assert np.all(np.abs(fft - direct) <= fft_bound + direct_bound)
    assert np.all(fft[:4] == 0.0)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4]).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(min_value=2 * k, max_value=4096))))
@example((3, 4096))
@example((4, 4096))
def test_fft_k3_k4_within_derived_bound(sieve_10k, drawn):
    """gk_fft at k = 3, 4 against gk_direct, entry by entry, within the
    gk_fft docstring's E_k(Lambda, P) plus the direct route's own round-off."""
    k, limit = drawn
    fft = gk_fft(sieve_10k, k, limit).values
    direct = gk_direct(sieve_10k, k, limit).values
    lam = sieve_10k.values[: limit + 1]
    pad = _five_smooth_ceil(k * limit + 1)
    fft_bound = (((k + 1) * math.log2(pad) * FFT_ETA + 3 * k * U)
                 * lam.sum() ** (k - 1) * math.sqrt(lam @ lam))
    # k - 1 np.convolve stages, each at most n + 1 nonnegative products per entry
    direct_bound = (k - 1) * (np.arange(limit + 1) + 1) * U * direct
    assert np.all(np.abs(fft - direct) <= fft_bound + direct_bound)
    assert np.all(fft[: 2 * k] == 0.0)


@settings(max_examples=60, deadline=None)
@given(K2_LIMITS)
@example(4096)
def test_fft_k2_odd_entries_are_short_sums(sieve_10k, limit):
    """Odd n: G_2(n) = sum_i 2 Lambda(2^i) Lambda(n - 2^i), within log2(N) U G_2(n)
    of an fsum of its terms (plus the reference's own 2U), and exactly 0.0
    where every term is 0."""
    lam = sieve_10k.values
    fft = gk_fft(sieve_10k, 2, limit).values
    powers = [1 << i for i in range(1, limit.bit_length())]
    for n in range(1, limit + 1, 2):
        terms = [2 * lam[p] * lam[n - p] for p in powers if p < n]
        exact = math.fsum(terms)
        if not any(terms):
            assert fft[n] == 0.0, n
        assert abs(fft[n] - exact) <= (math.log2(limit) + 2) * U * exact, n


def test_fft_k2_odd_entry_without_representation(sieve_10k):
    # 149 - 2^i = 147, 145, 141, 133, 117, 85, 21: no prime power, so G_2(149) = 0
    assert gk_fft(sieve_10k, 2, 4096).values[149] == 0.0


def _unblocked_odd_g2(lam):
    """G_2 at odd n = 2c + 1: every shift of the odd half added over the whole
    array, one shift after the other in increasing 2^i, then scaled."""
    limit = len(lam) - 1
    odd = lam[1::2]
    shifted = np.zeros(len(odd))
    reached = np.zeros(len(odd), dtype=bool)
    for i in range(1, limit.bit_length()):
        h = 1 << (i - 1)
        shifted[h:] += odd[:-h]
        reached[h:] |= odd[:-h] > 0.0
    return (2.0 * LOG2) * shifted, reached


def _check_blocked_odd_g2(table, limit):
    lam = table.values[: limit + 1]
    expected, reached = _unblocked_odd_g2(lam)
    odd_entries = gk_fft(table, 2, limit).values[1::2]
    assert odd_entries.tobytes() == expected.tobytes()
    # exactly +0.0 where no n - 2^i is a prime power, and only there
    assert np.array_equal(odd_entries == 0.0, ~reached)
    assert not np.signbit(odd_entries).any()


def test_fft_k2_odd_entries_across_shift_blocks():
    # the odd half spans 4 full blocks of the module's block size and half of a fifth
    block = goldbach._SHIFT_BLOCK
    limit = 9 * block
    assert (limit + 1) // 2 == 4 * block + block // 2
    _check_blocked_odd_g2(build_mangoldt(limit), limit)


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("limit", [5, 64, 999, 1000])
def test_fft_k2_odd_entries_in_small_shift_blocks(sieve_10k, monkeypatch, block, limit):
    monkeypatch.setattr(goldbach, "_SHIFT_BLOCK", block)
    _check_blocked_odd_g2(sieve_10k, limit)


def test_fft_small_table_zero_entry(sieve_10k):
    # at tiny sizes the FFT noise sits below the literal absolute floor
    fft = gk_fft(sieve_10k, 2, 16)
    assert abs(fft.values[3]) <= 1e-12


def test_gk_invariant_under_sieve_extension():
    small = build_mangoldt(128)
    large = build_mangoldt(256)
    for k in (2, 3):
        a = gk_direct(small, k, 128).values
        b = gk_direct(large, k, 128).values
        assert max_discrepancy(a, b, scale=float(np.max(a))) <= 1e-12


def test_convolution_recursion(sieve_10k):
    # G_k = G_{k-1} * Lambda over parts >= 1
    limit = 96
    tables = {1: sieve_10k.values[: limit + 1]}
    for k in (2, 3, 4):
        tables[k] = gk_direct(sieve_10k, k, limit).values
    for k in (3, 4):
        for n in (k, k + 5, 40, 96):
            direct = math.fsum(
                tables[k - 1][n - m] * sieve_10k.values[m] for m in range(1, n)
            )
            assert tables[k][n] == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_direct_cap(sieve_10k):
    with pytest.raises(ValueError):
        gk_direct(sieve_10k, 2, 9000)


def test_prefix_sums(sieve_10k):
    g2 = gk_direct(sieve_10k, 2, 4096)
    prefix = sk_prefix(g2)
    expected = LOG2**2 + 2 * LOG2 * LOG3
    assert prefix.sums[5] == pytest.approx(expected, rel=1e-14)
    assert prefix.sums[1] == 0.0  # X = k - 1
    assert np.all(np.diff(prefix.sums) >= -1e-12)
    # main-term dominance at moderate scale
    ratio = prefix.sums[4096] / (4096.0**2 / 2.0)
    assert 0.9 <= ratio <= 1.1


def test_prefix_increments_reproduce_values(sieve_10k):
    g2 = gk_fft(sieve_10k, 2, 4096)
    prefix = sk_prefix(g2)
    for x in (2, 3, 4, 149, 1024, 4095, 4096):
        inc = prefix.increment(x)
        ref = g2.values[x]
        assert abs(inc - ref) <= max(1e-9 * abs(ref), 1e-12), x


def test_bk_truncated_trivial(sieve_10k):
    assert bk_truncated(sieve_10k, 2, 2, 1.0) == 1.0
    assert bk_truncated(sieve_10k, 3, 3, 1.0) == -1.0


def test_bk_truncated_against_enumeration(sieve_10k):
    for k, n, x in [(2, 4, 4.0), (2, 9, 5.0), (3, 9, 4.0), (3, 12, 12.0), (4, 10, 3.0)]:
        assert bk_truncated(sieve_10k, k, n, x) == pytest.approx(
            brute_bk(sieve_10k, k, n, x), rel=1e-12, abs=1e-12
        ), (k, n, x)


def test_bk_truncation_saturates(sieve_10k):
    for k, n in [(2, 12), (3, 17)]:
        at_n = bk_truncated(sieve_10k, k, n, float(n))
        for x in (float(n), n + 1.0, 2.0 * n, 10.0 * n):
            assert bk_truncated(sieve_10k, k, n, x) == pytest.approx(at_n, rel=1e-12)


def test_bk_unreachable_raises(sieve_10k):
    with pytest.raises(ValueError):
        bk_truncated(sieve_10k, 2, 10, 4.0)


def test_bk_decomposition(sieve_10k):
    lhs, rhs = bk_decomposition_check(sieve_10k, 2, 2)
    assert lhs == 1.0
    assert rhs == pytest.approx(1.0, rel=1e-12)
    for k, n in [(2, 6), (3, 8), (2, 40), (3, 30), (4, 25)]:
        lhs, rhs = bk_decomposition_check(sieve_10k, k, n)
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-9), (k, n)


def test_bk_decomposition_above_oracle_cap(sieve_10k):
    # the convolution ladder has no cap: n = 8300 is past gk_direct's
    lhs, rhs = bk_decomposition_check(sieve_10k, 2, 8300)
    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-9)


def test_riesz_T(sieve_10k):
    # T_j of a G_k table is riesz_psi_j of that table
    g2 = gk_direct(sieve_10k, 2, 600)
    prefix = sk_prefix(g2)
    for x in (6.0, 127.0, 600.0):
        assert riesz_psi_j(g2, 0, x) == pytest.approx(prefix.sums[int(x)], rel=1e-12)
    expected = 2 * LOG2**2 + 2 * LOG2 * LOG3
    assert riesz_psi_j(g2, 1, 6.0) == pytest.approx(expected, rel=1e-13)
    with pytest.raises(ValueError, match="exceeds sieve limit"):
        riesz_psi_j(g2, 1, 601.0)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_riesz_T_integral_identity(sieve_10k, j):
    g2 = gk_direct(sieve_10k, 2, 512)
    for x in (10.0, 100.0, 500.0):
        direct = riesz_psi_j(g2, j + 1, x)
        integral = riesz_integral(g2.values, j, x)
        assert direct == pytest.approx(integral, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("cutoff", [1.0, math.nan, math.inf])
def test_singular_series_query_refuses_bad_cutoff(cutoff):
    with pytest.raises(ValueError, match="need prime cutoff >= 2"):
        SingularSeriesQuery(2, 30, cutoff)


def test_singular_series_query_refuses_unfactorable_n():
    SingularSeriesQuery(2, 2**54 - 1)
    with pytest.raises(ValueError, match="need n < 18014398509481984"):
        SingularSeriesQuery(2, 2**54)


def test_singular_series_odd_vanishes():
    for n in (1, 3, 5, 99, 1001):
        value, tail = singular_series(SingularSeriesQuery(2, n, 1000.0))
        assert value == 0.0
        assert tail == 0.0


def test_singular_series_twin_constant():
    value, _ = singular_series(SingularSeriesQuery(2, 2, 10_000.0))
    assert value == pytest.approx(2 * 0.6601618158468696, rel=2e-4)
    # independent evaluation of the truncated product
    from goldbachkit import primes_up_to

    product = 2.0  # p = 2 divides n
    for p in primes_up_to(10_000)[1:]:
        product *= 1.0 - 1.0 / (int(p) - 1) ** 2
    assert value == pytest.approx(product, rel=1e-12)


def test_singular_series_truncation_within_tail():
    for p_cut in (1000.0, 10_000.0):
        v1, tail = singular_series(SingularSeriesQuery(2, 2, p_cut))
        v2, _ = singular_series(SingularSeriesQuery(2, 2, 2 * p_cut))
        assert abs(v1 - v2) <= tail


def test_singular_series_k3():
    value, _ = singular_series(SingularSeriesQuery(3, 1, 10_000.0))
    assert value > 0.0
    # with k = 3 even n has a vanishing local factor at p = 2
    value_even, _ = singular_series(SingularSeriesQuery(3, 8, 1000.0))
    assert value_even == 0.0


def test_singular_series_large_prime_divisor_included():
    # n carries a prime divisor above the cutoff; its factor must be applied
    n = 2 * 104729  # 104729 prime and > cutoff
    with_factor, _ = singular_series(SingularSeriesQuery(2, n, 100.0))
    without, _ = singular_series(SingularSeriesQuery(2, 2, 100.0))
    u = -1.0 / (104729 - 1)
    assert with_factor == pytest.approx(without * (1.0 - u), rel=1e-12)


def test_csv_dump(sieve_10k):
    table = gk_direct(sieve_10k, 2, 8)
    out = io.StringIO()
    write_goldbach_csv(table, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "# k=2 N=8 method=direct"
    assert lines[1] == "n,value"
    assert lines[2].startswith("2,0")

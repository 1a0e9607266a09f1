import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldbachkit import accum
from goldbachkit.accum import (
    BoundExceeded,
    check_bound,
    riesz_integral,
    running_prefix,
    weighted_power_sum,
)


def neumaier_loop(values):
    """Sequential Neumaier running sums, one scalar step per entry."""
    hi = np.empty(len(values))
    lo = np.empty(len(values))
    s = 0.0
    c = 0.0
    for i, v in enumerate(values.tolist()):
        t = s + v
        if abs(s) >= abs(v):
            c += (s - t) + v
        else:
            c += (v - t) + s
        s = t
        hi[i] = s
        lo[i] = c
    return hi, lo


# bounded by 1e300, so no running sum of 2000 terms can overflow
_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats(min_value=-1e300, max_value=1e300),
)


@st.composite
def _summands(draw):
    head = draw(st.lists(_entries, max_size=1000))
    if draw(st.booleans()):
        head += [-x for x in reversed(head)]  # cancels back to zero
    return np.array(head, dtype=np.float64)


def _assert_matches_loop(values):
    hi, lo = running_prefix(values)
    ref_hi, ref_lo = neumaier_loop(values)
    assert hi.tobytes() == ref_hi.tobytes()
    assert lo.tobytes() == ref_lo.tobytes()


@settings(max_examples=300, deadline=None)
@given(_summands())
def test_running_prefix_matches_loop_bytes(values):
    _assert_matches_loop(values)


# block sizes that put many block boundaries inside the drawn inputs
@pytest.mark.parametrize("block", [1, 2, 3, 7])
@settings(max_examples=60, deadline=None)
@given(values=_summands())
def test_running_prefix_matches_loop_bytes_in_small_blocks(block, values):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(accum, "_PREFIX_BLOCK", block)
        _assert_matches_loop(values)


def test_running_prefix_across_real_blocks():
    # 3 blocks + 1 entry at the module's block size, led by a -0.0 run longer than a block
    block = accum._PREFIX_BLOCK
    rng = np.random.default_rng(21)
    values = rng.standard_normal(3 * block + 1) * 10.0 ** rng.integers(-8, 9, 3 * block + 1)
    values[: block + 5] = -0.0
    hi, lo = running_prefix(values)
    ref_hi, ref_lo = neumaier_loop(values)
    assert not np.signbit(hi[: block + 5]).any()
    assert hi.tobytes() == ref_hi.tobytes()
    assert lo.tobytes() == ref_lo.tobytes()
    assert np.count_nonzero(lo) > block  # the rounding errors are carried across blocks


def test_running_prefix_leading_negative_zero():
    for values in ([-0.0], [-0.0, 2.5], [-0.0, -0.0, -0.0, 1.0]):
        hi, lo = running_prefix(np.array(values))
        ref_hi, ref_lo = neumaier_loop(np.array(values))
        assert not np.signbit(hi[0]) and hi[0] == 0.0
        assert hi.tobytes() == ref_hi.tobytes()
        assert lo.tobytes() == ref_lo.tobytes()


def test_running_prefix_peak_is_two_inputs_and_a_block():
    # hi, lo and one block of scratch: a rewrite that brings back a full-size temporary fails here
    values = np.random.default_rng(16).random(1 << 20)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        running_prefix(values)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2 * values.nbytes + 8 * accum._PREFIX_BLOCK + 64 * 1024


@pytest.mark.parametrize("j", [0, 1, 2, 3])
@pytest.mark.parametrize("x", [1.5, 2.0, 7.0, 7.25, 100.0, 100.0 + 1e-9, 999.5, 1000.0,
                               1000.0 + 2**-30])
def test_riesz_integral_matches_direct_sum(sieve_10k, j, x):
    # summation by parts over the prefix sums against the per-n sum
    # sum_n Lambda(n) (x - n)^(j+1) / (j+1)!: the same value, other grouping
    integral = riesz_integral(sieve_10k.values, j, x)
    direct = weighted_power_sum(sieve_10k.values, x, j + 1) / math.factorial(j + 1)
    assert integral == pytest.approx(direct, rel=1e-13, abs=1e-300)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(min_value=1, max_value=10_000).map(float),
                 st.floats(min_value=1.0, max_value=10_000.0)),
       st.integers(min_value=0, max_value=3))
def test_riesz_integral_within_derived_bound(sieve_10k, x, j):
    # the bound of riesz_integral's docstring, for coefficients >= 0
    p, m, unit = j + 1, math.floor(x), 2.0**-53
    integral = riesz_integral(sieve_10k.values, j, x)
    direct = weighted_power_sum(sieve_10k.values, x, p) / math.factorial(p)
    assert abs(integral - direct) <= ((3 * p + 8) * unit + 2 * (m * unit) ** 2) * direct


@pytest.mark.parametrize("j", [0, 1, 2])
@pytest.mark.parametrize("x", [100.0, 1000.0, 1000.5])
def test_riesz_integral_keeps_prefix_low_parts(j, x):
    # prefix sums 1e16 + k are not floats for odd k: hi drops them and only
    # the lo terms carry them, so the sum without lo is off by 22U to 450U here
    coeffs = np.ones(1002)
    coeffs[0], coeffs[1] = 0.0, 1e16
    p, m, unit = j + 1, math.floor(x), 2.0**-53
    exact = sum(Fraction(coeffs[n]) * (Fraction(x) - n) ** p
                for n in range(1, m + 1)) / math.factorial(p)
    direct = weighted_power_sum(coeffs, x, p) / math.factorial(p)
    bound = ((3 * p + 8) * unit + 2 * (m * unit) ** 2) * direct
    assert abs(Fraction(riesz_integral(coeffs, j, x)) - exact) <= bound


def test_riesz_integral_signed_coefficients():
    coeffs = np.array([0.0, 1.0, -2.0, 0.5, 3.0, -1.0])
    for j in (0, 1, 2):
        for x in (1.0, 3.0, 3.5, 5.0, 5.75):
            direct = math.fsum(coeffs[n] * (x - n) ** (j + 1) for n in range(1, math.floor(x) + 1))
            assert riesz_integral(coeffs, j, x) == pytest.approx(
                direct / math.factorial(j + 1), rel=1e-14, abs=1e-14)


def test_bound_exceeded_carries_value_and_bound():
    check_bound("ratio", 1.0 + 1e-10, 1.0)  # within the rounding slack
    with pytest.raises(AssertionError) as info:
        check_bound("ratio", 1.5, 1.0)
    assert isinstance(info.value, BoundExceeded)
    assert (info.value.value, info.value.bound) == (1.5, 1.0)
    assert str(info.value) == "ratio = 1.5 exceeds its bound 1.0"

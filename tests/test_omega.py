import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldbachkit import (
    chain_check,
    default_cutoff,
    gk_direct,
    gk_fft,
    max_gk_scan,
    mertens_ratio,
    primorial,
    progression_bound_check,
    sk_prefix,
)
from goldbachkit.omega import EULER_GAMMA, unit_sumsets

LOG2 = math.log(2)
U = 2.0**-53  # unit roundoff of float64


def test_progression_q2(sieve_10k):
    report = progression_bound_check(sieve_10k, 50.0, 2)
    assert not report.vacuous
    (row,) = report.rows
    assert row.residue == 1
    # odd part of psi(100): subtract the six powers of two <= 100
    from goldbachkit import chebyshev_psi

    expected = chebyshev_psi(sieve_10k, 100.0) - 6 * LOG2
    assert row.psi_value == pytest.approx(expected, rel=1e-12)
    assert row.bound == 25.0
    assert row.psi_value >= row.bound


def test_progression_q6(sieve_10k):
    report = progression_bound_check(sieve_10k, 1000.0, 6)
    residues = sorted(r.residue for r in report.rows)
    assert residues == [1, 5]
    assert all(r.bound == 250.0 <= r.psi_value for r in report.rows)


def test_progression_q1(sieve_10k):
    report = progression_bound_check(sieve_10k, 50.0, 1)
    (row,) = report.rows
    from goldbachkit import chebyshev_psi

    assert row.psi_value == chebyshev_psi(sieve_10k, 100.0)
    assert row.psi_value >= 25.0


def test_progression_vacuous_flagged(sieve_10k):
    report = progression_bound_check(sieve_10k, 10.0, 30)
    assert report.vacuous


def _class_fsums(table, top, q):
    """sum_{n <= top, n = b (q)} of the table's values for b = 0..q-1, one fsum each."""
    return [math.fsum(table.values[b or q : top + 1 : q]) for b in range(q)]


def _mids(psi, prev, q, residues):
    """mid_L(b) = sum_{(a,q)=1} psi(2x; q, a) lhs_{L-1}(b - a) for each b, one fsum each.

    mid_L(b) sums the pairs Lambda(m) G_{L-1}(n) with m <= 2x coprime to q,
    n <= 2(L-1)x and m + n = b (q): a subset of the nonnegative pairs that
    lhs_L(b) sums, so lhs_L(b) >= mid_L(b) for every b.
    """
    units = [a for a in range(q) if math.gcd(a, q) == 1]
    return {b: math.fsum(psi[a] * prev[(b - a) % q] for a in units) for b in residues}


def test_chain_k2_q6(sieve_10k):
    x, q = 500.0, 6
    g2 = gk_fft(sieve_10k, 2, 2000)
    report = chain_check(sieve_10k, {2: g2}, x, q)
    assert report.phi_q == 2
    (level,) = report.levels
    assert level.level == 2
    assert level.margin > 0.0
    residues = unit_sumsets(q, 2)[1]
    assert residues == (0, 2, 4)
    psi = _class_fsums(sieve_10k, int(2 * x), q)
    cls = _class_fsums(g2, int(4 * x), q)
    assert level.min_lhs == min(cls[b] for b in residues)
    mids = _mids(psi, psi, q, residues)
    assert all(cls[b] >= mids[b] for b in residues)
    assert min(mids.values()) >= level.rhs  # the aggregated middle bound too
    assert report.final_lhs == cls[0] > report.final_rhs
    assert level.consistency_error <= 5 * U  # the bound chain_check derives


def test_chain_k3_q2(sieve_10k):
    g2 = gk_fft(sieve_10k, 2, 800)
    g3 = gk_fft(sieve_10k, 3, 1200)
    report = chain_check(sieve_10k, {2: g2, 3: g3}, 200.0, 2)
    assert [lvl.level for lvl in report.levels] == [2, 3]
    for lvl in report.levels:
        assert lvl.margin > 0.0
        assert lvl.consistency_error <= 5 * U
    assert report.final_lhs > report.final_rhs
    scan = max_gk_scan(g3, 200.0, primorial(3))
    assert not scan.fallback_applied and scan.q == report.q
    assert report.max_g == scan.max_g >= scan.primorial_bound


@pytest.mark.parametrize("k, y, x", [(3, 11, 512.0), (2, 13, 2048.0)])
def test_chain_populated_classes(sieve_10k, k, y, x):
    # q = 210 and 2310 are below 2x, so every class of every level holds entries
    prim = primorial(y)
    q = prim.value
    gtables = {level: gk_fft(sieve_10k, level, int(2 * level * x)) for level in range(2, k + 1)}
    report = chain_check(sieve_10k, gtables, x, q)
    assert report.phi_q == prim.phi
    psi = _class_fsums(sieve_10k, int(2 * x), q)
    prev = psi
    for level, lvl in zip(range(2, k + 1), report.levels):
        residues = unit_sumsets(q, k)[level - 1]
        cls = _class_fsums(gtables[level], int(2 * level * x), q)
        assert all(cls[b] > 0.0 for b in residues)
        assert lvl.min_lhs == min(cls[b] for b in residues)
        # mid_L(b) counts a subset of the compositions lhs_L(b) counts
        mids = _mids(psi, prev, q, residues)
        assert all(cls[b] >= mids[b] for b in residues)
        assert lvl.consistency_error <= 5 * U
        prev = cls
    assert report.final_lhs == prev[0]


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([2, 3]), x=st.floats(8.0, 1500.0),
       y=st.sampled_from([3, 5, 7, 11, 13]))
def test_chain_consistency_within_derived_bound(sieve_10k, k, x, y):
    # the fold of the prime powers and psi's class sums agree to the 5u
    # that chain_check derives
    q = primorial(y).value
    gtables = {level: gk_fft(sieve_10k, level, int(2 * level * x)) for level in range(2, k + 1)}
    report = chain_check(sieve_10k, gtables, x, q)
    for lvl in report.levels:
        assert lvl.consistency_error <= 5 * U


def test_chain_phi1(sieve_10k):
    g2 = gk_fft(sieve_10k, 2, 800)
    report = chain_check(sieve_10k, {2: g2}, 200.0, 2)
    assert report.phi_q == 1
    assert report.levels[0].rhs == pytest.approx(200.0**2 / 4.0)
    assert report.levels[0].margin > 0.0


def test_chain_validation(sieve_10k):
    g3 = gk_fft(sieve_10k, 3, 1200)
    with pytest.raises(ValueError):
        chain_check(sieve_10k, {3: g3}, 200.0, 2)  # missing level 2
    g2_short = gk_fft(sieve_10k, 2, 100)
    with pytest.raises(ValueError):
        chain_check(sieve_10k, {2: g2_short}, 200.0, 2)  # table too short
    # x <= 0 would turn the class slices' bound negative
    with pytest.raises(ValueError, match="need 0 < 2x"):
        chain_check(sieve_10k, {2: g2_short}, -1.0, 2)
    with pytest.raises(ValueError, match="need 0 < 2x"):
        progression_bound_check(sieve_10k, -1.0, 6)


def test_partition_identity(sieve_10k):
    g2 = gk_fft(sieve_10k, 2, 2000)
    prefix = sk_prefix(g2)
    for q in (2, 6, 30):
        per_class = []
        for b in range(q):
            start = b if b != 0 else q
            per_class.append(math.fsum(g2.values[start : 2001 : q].tolist()))
        assert math.fsum(per_class) == pytest.approx(prefix.sums[2000], rel=1e-9)


def test_max_gk_scan_fallback(sieve_10k):
    g2 = gk_fft(sieve_10k, 2, 8192)
    # primorial(y) is the product of the primes p < y, so a cutoff of 17
    # gives 2*3*5*7*11*13 = 30030 >= 2x = 4096
    requested = primorial(17.0)
    assert requested.value == 30030
    scan = max_gk_scan(g2, 2048.0, requested)
    assert scan.fallback_applied  # replaced by the default cutoff
    assert scan.q == 210  # primes below log(2048) ~ 7.6
    assert scan.max_g > 0 and scan.primorial_bound > 0 and scan.loglog_reference > 0


def test_max_gk_scan_small(sieve_10k):
    g2 = gk_direct(sieve_10k, 2, 64)
    scan = max_gk_scan(g2, 16.0, primorial(default_cutoff(16.0)))
    assert scan.max_g > 0.0
    assert scan.primorial_bound > 0.0
    assert scan.loglog_reference > 0.0
    assert not scan.fallback_applied


def test_max_g2_trend(sieve_262144, calibration):
    g2 = gk_fft(sieve_262144, 2, 1 << 18)
    stored = calibration["max_g2_over_n"]
    previous = 0.0
    for exponent in range(12, 19):
        n_top = 1 << exponent
        values = g2.values[: n_top + 1]
        ratio = float(np.max(values[1:] / np.arange(1, n_top + 1)))
        assert ratio >= previous  # max over a growing prefix cannot shrink
        previous = ratio
        fixture = stored[str(n_top)]
        assert ratio == pytest.approx(fixture, rel=0.05)


def test_mertens_values():
    product, reference = mertens_ratio(3.0)
    assert product == 2.0
    assert reference == pytest.approx(math.exp(EULER_GAMMA) * math.log(3), rel=1e-12)
    product, reference = mertens_ratio(100.0)
    assert 0.95 <= product / reference <= 1.1
    product, reference = mertens_ratio(10_000.0)
    assert 0.99 <= product / reference <= 1.02


def test_mertens_refuses_nan():
    with pytest.raises(ValueError, match="need y >= 3"):
        mertens_ratio(math.nan)


def test_mertens_product_monotone():
    products = [mertens_ratio(float(y))[0] for y in (3, 10, 100, 1000, 10_000)]
    assert all(b >= a for a, b in zip(products, products[1:]))


def test_omega_config():
    assert primorial(default_cutoff(100.0)).value == 6  # primes below log(100) ~ 4.6


def test_phi_int_consistency(sieve_10k):
    # phi(q) is the number of units mod q, which the chain reports
    for q in range(1, 200):
        brute = sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)
        assert len(unit_sumsets(q, 1)[0]) == brute
        assert progression_bound_check(sieve_10k, 50.0, q).phi_q == brute
    for y in (2, 3, 11, 17):
        assert len(unit_sumsets(primorial(y).value, 1)[0]) == primorial(y).phi


def _sumsets_by_set_sums(q, k):
    """Reference: the level sets built by brute-force set sums of units."""
    units = [a for a in range(q) if math.gcd(a, q) == 1]
    sets = [tuple(units)]
    current = set(units)
    for _ in range(k - 1):
        current = {(b + a) % q for b in current for a in units}
        sets.append(tuple(sorted(current)))
    return sets


def test_unit_sumsets_closed_form():
    for q in range(1, 211):
        reference = _sumsets_by_set_sums(q, 4)
        for k in range(1, 5):
            assert unit_sumsets(q, k) == reference[:k], (q, k)

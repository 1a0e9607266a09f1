"""Acceptance suite: one test and one printed pass/fail line per criterion.

Tolerances are pinned here, not deferred.  Criterion 3's node-doubling
sub-check holds the quadrature error at 8N, 16N and 32N nodes to a rounding
bound: the uniform trapezoid rule is exact for the band-limited integrand
once M >= 4N, so more nodes cannot reduce the error, only keep it at the
rounding floor set by the phases of the kernel K (see that test).
"""

import math
import sys
import time

import numpy as np
import pytest

from goldbachkit import (
    SingularSeriesQuery,
    bracket_zero,
    cauchy_psi_recovery,
    chebyshev_psi,
    chain_check,
    fz_powerseries_identity,
    gk_direct,
    gk_fft,
    max_discrepancy,
    mertens_ratio,
    psi1_explicit,
    psi_integral_check,
    residual_report,
    rk_hk_consistency,
    run_identity_suite,
    singular_series,
    sk_prefix,
)


def report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def g2_131072(sieve_131072):
    return gk_fft(sieve_131072, 2, 1 << 17)


def test_criterion_1_oracle_equivalence(sieve_10k):
    started = time.perf_counter()
    worst = 0.0
    for k in (2, 3, 4):
        for n in (256, 1024, 4096):
            direct = gk_direct(sieve_10k, k, n)
            fft = gk_fft(sieve_10k, k, n)
            scale = float(np.max(direct.values))
            worst = max(worst, max_discrepancy(direct.values, fft.values, scale=scale))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 60.0
    report(1, ok, f"fft vs direct max discrepancy {worst:.3e} in {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_criterion_2_exact_identities():
    started = time.perf_counter()
    rows = run_identity_suite(25)
    elapsed = time.perf_counter() - started
    ok = all(passed for _, passed in rows) and elapsed < 5.0
    report(2, ok, f"{len(rows)} identity groups exact for k <= 25 in {elapsed:.2f}s")
    assert all(passed for _, passed in rows)
    assert elapsed < 5.0


def test_criterion_3_cauchy_recovery(sieve_10k):
    # coefficient route: exact equality with the compensated psi sum
    exact_ok = True
    for n in (1, 2, 10, 137, 500, 1000, 2000):
        _, coeff = cauchy_psi_recovery(sieve_10k, n, 8 * n)
        exact_ok = exact_ok and coeff == chebyshev_psi(sieve_10k, float(n))

    # quadrature route at M = 8N
    quad_ok = True
    for n in (10, 100, 500, 2000):
        quad, coeff = cauchy_psi_recovery(sieve_10k, n, 8 * n)
        rel = abs(quad - coeff) / coeff
        quad_ok = quad_ok and rel <= 1e-6

    # node doubling: the integrand's exponents lie in (-N, 2N), so the
    # trapezoid rule is exact once M >= 4N and doubling the nodes cannot
    # shrink the error further.  What remains is rounding.  F and K z each
    # come from one inverse FFT of their coefficients (Lambda(n) R^n and
    # R^(-m)), with no rounded phases, so the rounding is the two FFTs' and
    # the node mean's: cauchy_psi_recovery's docstring bounds it by 7e-14
    # to 8e-14 relative at N = 500, and it measures a few ulp.  2N eps
    # (2.2e-13) is looser than that bound and stays the tolerance for the
    # errors at 8N, 16N and 32N.  An aliased or otherwise wrong quadrature
    # lands far above it.
    n = 500
    rounding_bound = 2 * n * sys.float_info.epsilon
    errors = []
    for mult in (8, 16, 32):
        quad, coeff = cauchy_psi_recovery(sieve_10k, n, mult * n)
        errors.append(abs(quad - coeff) / coeff)
    doubling_ok = all(err <= rounding_bound for err in errors)

    ok = exact_ok and quad_ok and doubling_ok
    report(
        3,
        ok,
        f"coefficient route exact: {exact_ok}; quadrature <= 1e-6 at 8N: {quad_ok}; "
        f"errors at 8N, 16N, 32N {['%.2g' % e for e in errors]} "
        f"<= 2N eps = {rounding_bound:.2g}: {doubling_ok}",
    )
    assert exact_ok
    assert quad_ok
    assert doubling_ok, f"quadrature errors {errors} exceed 2N eps = {rounding_bound}"


def test_criterion_4_coefficient_identity(sieve_10k):
    worst = 0.0
    for k in (2, 3, 4):
        worst = max(worst, fz_powerseries_identity(sieve_10k, k, 512))
    ok = worst <= 1e-9
    report(4, ok, f"power-series identity max discrepancy {worst:.3e} (k <= 4, N = 512)")
    assert ok


def test_criterion_5_residual_regression(sieve_131072, g2_131072, zeros100, calibration):
    started = time.perf_counter()
    prefix2 = sk_prefix(g2_131072)
    report2 = residual_report(prefix2, zeros100, [1 << e for e in range(10, 18)])
    worst2 = max(row.normalized for row in report2.rows)

    g3 = gk_fft(sieve_131072, 3, 1 << 13)
    prefix3 = sk_prefix(g3)
    report3 = residual_report(prefix3, zeros100, [1 << e for e in range(10, 14)])
    worst3 = max(row.normalized for row in report3.rows)
    elapsed = time.perf_counter() - started

    limit2 = calibration["residual_cstar"]["k2"] * 1.05
    limit3 = calibration["residual_cstar"]["k3"] * 1.05
    mean_ratio = prefix2.sums[100_000] / (100_000.0**2 / 2.0)
    ok = worst2 <= limit2 and worst3 <= limit3 and elapsed < 600.0 and 0.9 <= mean_ratio <= 1.1
    report(
        5,
        ok,
        f"normalized residual k2 {worst2:.4f} <= {limit2:.4f}, "
        f"k3 {worst3:.4f} <= {limit3:.4f}, S_2 mean ratio {mean_ratio:.4f}, {elapsed:.0f}s",
    )
    assert worst2 <= limit2
    assert worst3 <= limit3
    assert 0.9 <= mean_ratio <= 1.1
    assert elapsed < 600.0


def test_criterion_6_explicit_formulas(sieve_10k, zeros100, calibration):
    psi1_ok = True
    for x in (100.0, 1000.0, 10_000.0):
        formula, direct = psi1_explicit(zeros100, sieve_10k, x)
        threshold = calibration["psi1_explicit"][str(int(x))] * 1.05
        psi1_ok = psi1_ok and abs(formula - direct) / x <= threshold

    integral_ok = True
    for j in (1, 2, 3, 4):
        for x in (10.0, 100.0, 537.25, 1000.0):
            direct, integral = psi_integral_check(sieve_10k, j, x)
            scale = max(abs(direct), abs(integral), 1e-12)
            integral_ok = integral_ok and abs(direct - integral) / scale <= 1e-9

    ok = psi1_ok and integral_ok
    report(6, ok, f"psi_1 formula within fixtures: {psi1_ok}; "
                  f"Riesz integral identity <= 1e-9: {integral_ok}")
    assert psi1_ok
    assert integral_ok


def test_criterion_7_singular_series():
    odd_ok = all(
        singular_series(SingularSeriesQuery(2, n, 1000.0))[0] == 0.0
        for n in (1, 3, 5, 77, 999)
    )
    trunc_ok = True
    for p_cut in (1000.0, 10_000.0):
        for n in (2, 4, 12, 90):
            v1, tail = singular_series(SingularSeriesQuery(2, n, p_cut))
            v2, _ = singular_series(SingularSeriesQuery(2, n, 2 * p_cut))
            trunc_ok = trunc_ok and abs(v1 - v2) <= tail
    ok = odd_ok and trunc_ok
    report(7, ok, f"odd vanishing exact: {odd_ok}; truncation within tail: {trunc_ok}")
    assert odd_ok
    assert trunc_ok


def test_criterion_8_omega(sieve_10k, g2_131072):
    # residue partition identity on the k = 2 table
    prefix = sk_prefix(g2_131072)
    partition_ok = True
    for q in (2, 6, 30):
        per_class = [
            math.fsum(g2_131072.values[(b if b else q) : 2001 : q].tolist())
            for b in range(q)
        ]
        total = math.fsum(per_class)
        partition_ok = partition_ok and abs(total - prefix.sums[2000]) <= 1e-9 * prefix.sums[2000]

    g2 = gk_fft(sieve_10k, 2, 2000)
    chain2 = chain_check(sieve_10k, {2: g2}, 500.0, 6)
    g2b = gk_fft(sieve_10k, 2, 800)
    g3b = gk_fft(sieve_10k, 3, 1200)
    chain3 = chain_check(sieve_10k, {2: g2b, 3: g3b}, 200.0, 2)
    chains_ok = (
        all(level.margin > 0 for level in chain2.levels)
        and chain2.final_lhs > chain2.final_rhs
        and all(level.margin > 0 for level in chain3.levels)
        and chain3.final_lhs > chain3.final_rhs
    )

    product, reference = mertens_ratio(10_000.0)
    mertens_ok = 0.99 <= product / reference <= 1.02

    ok = partition_ok and chains_ok and mertens_ok
    report(8, ok, f"partition: {partition_ok}; chain margins positive: {chains_ok}; "
                  f"mertens ratio {product / reference:.4f}")
    assert partition_ok
    assert chains_ok
    assert mertens_ok


def test_criterion_9_per_zero_identity(zeros100):
    worst = 0.0
    for k in range(2, 9):
        for gamma in zeros100.ordinates:
            for x in (50.0, 1000.0):
                lhs, rhs = rk_hk_consistency(k, float(gamma), x)
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok = worst <= 1e-12
    report(9, ok, f"per-zero algebraic identity worst relative gap {worst:.3e}")
    assert ok


def test_criterion_10_zero_data_integrity(zeros100):
    gamma1 = bracket_zero(14.0, 14.3)
    gamma2 = bracket_zero(20.9, 21.1)
    err1 = abs(gamma1 - float(zeros100.ordinates[0]))
    err2 = abs(gamma2 - float(zeros100.ordinates[1]))
    ok = err1 < 1e-6 and err2 < 1e-6
    report(10, ok, f"independent bracketing errors {err1:.2e}, {err2:.2e}")
    assert ok

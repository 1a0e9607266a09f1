import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldbachkit import (
    BoundExceeded,
    ZeroFormatError,
    ZeroTable,
    gk_fft,
    granville_rk,
    hk_zero_sum,
    load_zeros,
    psi1_explicit,
    psij_explicit,
    residual_report,
    rk_hk_consistency,
    sk_prefix,
    write_residual_csv,
)
from goldbachkit import zeros
from goldbachkit.zeros import (
    ZETA_LOGDERIV_0,
    ZETA_LOGDERIV_M1,
    _denominator,
    _power_term,
    _zero_sums,
)

GAMMA1 = 14.134725141734694
GAMMA2 = 21.022039638771555


def _zero_file(tmp_path, text, name="zeros.txt"):
    path = tmp_path / name
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    return path


def test_load_two_zeros(tmp_path):
    table = load_zeros(_zero_file(tmp_path, "14.134725141\n21.022039639\n"))
    assert len(table) == 2
    assert table.ordinates[0] == 14.134725141


def test_load_skips_comments_and_blanks(tmp_path):
    table = load_zeros(_zero_file(tmp_path, "# comment\n\n14.134725141\n"))
    assert len(table) == 1


def test_load_refuses_a_non_ascii_file(tmp_path):
    with pytest.raises(UnicodeDecodeError):
        load_zeros(_zero_file(tmp_path, "14.1\n21.0 \u03b3\n"))
    with pytest.raises(UnicodeDecodeError):
        load_zeros(_zero_file(tmp_path, b"14.1\n\xff\n"))


def test_load_takes_a_path_only():
    # the CLI passes a path, and bundled_zeros parses its resource itself
    for stream in (io.StringIO("14.1\n"), io.BytesIO(b"14.1\n")):
        with pytest.raises(TypeError):
            load_zeros(stream)


def test_load_monotonicity_error_carries_line(tmp_path):
    with pytest.raises(ZeroFormatError) as exc:
        load_zeros(_zero_file(tmp_path, "21.0\n14.1\n"))
    assert exc.value.line == 2


def test_format_error_names_the_file(tmp_path):
    path = _zero_file(tmp_path, "14.1\nabc\n", "bad.txt")
    with pytest.raises(ZeroFormatError) as exc:
        load_zeros(path)
    assert exc.value.line == 2
    assert str(exc.value) == f"{path}: line 2: not a decimal ordinate: 'abc'"
    path = _zero_file(tmp_path, "-3.0\n", "negative.txt")
    with pytest.raises(ZeroFormatError, match=f"^{re.escape(str(path))}: line 1: ordinate must be positive"):
        load_zeros(path)


def test_load_rejects_nonpositive(tmp_path):
    with pytest.raises(ZeroFormatError):
        load_zeros(_zero_file(tmp_path, "-3.0\n"))
    with pytest.raises(ZeroFormatError):
        load_zeros(_zero_file(tmp_path, "abc\n"))


def test_load_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        load_zeros(_zero_file(tmp_path, "# nothing here\n"))


def test_bundled_table(zeros100):
    assert len(zeros100) == 100
    assert zeros100.ordinates[0] == pytest.approx(GAMMA1, abs=1e-9)
    assert zeros100.ordinates[1] == pytest.approx(GAMMA2, abs=1e-9)
    assert np.all(np.diff(zeros100.ordinates) > 0)
    assert np.all(zeros100.ordinates > 14)


def test_hk_single_zero_matches_complex_arithmetic():
    table = ZeroTable(ordinates=np.array([GAMMA1]), source="test")
    x = 100.0
    rho = complex(0.5, GAMMA1)
    expected = -2.0 * 2.0 * (x ** (rho + 1) / (rho * (rho + 1))).real
    value, _ = hk_zero_sum(table, 2, x)
    assert value == pytest.approx(expected, rel=1e-12)


def test_hk_bound_is_tight_for_one_zero(monkeypatch):
    # with gamma_1 alone at k = 2, |H_2(X)| / bound is gamma^2 / |rho (rho + 1)|
    # = 0.9938 times |cos(gamma log X - arg rho (rho + 1))|, whose phase sweeps
    # past 0 below X = 5000; a bound loosened tenfold would read at most 0.0994
    ratios = []
    check_bound = zeros.check_bound

    def spy(what, value, bound):
        ratios.append(value / bound)
        check_bound(what, value, bound)

    monkeypatch.setattr(zeros, "check_bound", spy)
    table = ZeroTable(ordinates=np.array([14.134725141734693]), source="gamma_1")
    for x in range(2, 5000):
        hk_zero_sum(table, 2, float(x))
    assert len(ratios) == 4998
    assert 0.99 <= max(ratios) <= 1.0


def test_hk_empty_table_errors():
    table = ZeroTable(ordinates=np.array([]), source="empty")
    with pytest.raises(ValueError):
        hk_zero_sum(table, 2, 100.0)


def test_hk_size_bound_example(zeros100):
    x = 1e4
    value, _ = hk_zero_sum(zeros100, 2, x)
    inv_sq = zeros100.inverse_square_sum()  # over the table's 100 zeros
    assert inv_sq == pytest.approx(math.fsum(g**-2.0 for g in zeros100.ordinates), rel=1e-15)
    # sum gamma^-2 over all zeros is ~0.0231: complete the table sum with the
    # zero-counting density log(gamma/2pi)/2pi integrated beyond gamma_100
    t = zeros100.gamma_max
    completed = inv_sq + (math.log(t / (2 * math.pi)) + 1.0) / (2 * math.pi * t)
    assert completed == pytest.approx(0.0231, abs=5e-4)
    assert abs(value) <= 2.0 * x**1.5 * inv_sq


def test_hk_order_reversal_is_bit_identical(zeros100):
    # compensated accumulation is correctly rounded, hence order-free:
    # rebuild the per-zero terms here and sum them both ways
    x = 512.0
    terms = []
    for g in zeros100.ordinates:
        rho = complex(0.5, g)
        phase = complex(math.cos(g * math.log(x)), math.sin(g * math.log(x)))
        terms.append(2.0 * (x**2.5 * phase / (rho * (rho + 1) * (rho + 2))).real)
    forward = -3 * math.fsum(terms)
    backward = -3 * math.fsum(reversed(terms))
    assert forward == backward
    value, _ = hk_zero_sum(zeros100, 3, x)
    assert value == forward


def test_hk_validation(zeros100):
    with pytest.raises(ValueError):
        hk_zero_sum(zeros100, 1, 100.0)
    with pytest.raises(ValueError):
        hk_zero_sum(zeros100, 3, 2.0)


def test_hk_refuses_nan_x(zeros100):
    # NaN fails every comparison, so the guard is written to refuse it
    with pytest.raises(ValueError, match="need x >= k"):
        hk_zero_sum(zeros100, 2, math.nan)


@pytest.mark.parametrize("k,x", [(2, 1e4), (3, 5e5), (5, 2.0**20)])
def test_hk_tail_is_the_density_integral(zeros100, k, x):
    # the tail estimate is 2k X^(k-1/2) times the integral of gamma^-k
    # against the zero density log(gamma/2pi)/2pi beyond the last ordinate
    quad = pytest.importorskip("scipy.integrate").quad
    t = zeros100.gamma_max
    integral, _ = quad(lambda g: g**-k * math.log(g / (2 * math.pi)) / (2 * math.pi),
                       t, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    _, tail = hk_zero_sum(zeros100, k, x)
    assert tail == pytest.approx(2 * k * x ** (k - 0.5) * integral, rel=1e-9)


def test_granville_rk():
    rho = complex(0.5, GAMMA1)
    assert granville_rk(2, GAMMA1) == pytest.approx(-2.0 / rho, rel=1e-15)
    assert granville_rk(3, GAMMA1) == pytest.approx(-3.0 / (rho * (rho + 1)), rel=1e-15)


@pytest.mark.parametrize(
    "k,gamma,x",
    [(2, GAMMA1, 50.0), (5, GAMMA2, 1e3), (3, 25.010857580145688, 7.0)],
)
def test_rk_hk_consistency_spots(k, gamma, x):
    lhs, rhs = rk_hk_consistency(k, gamma, x)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_psi1_explicit(zeros100, sieve_10k):
    for x in (100.0, 1000.0, 10_000.0):
        formula, direct = psi1_explicit(zeros100, sieve_10k, x)
        assert abs(formula - direct) / x < 0.05


def test_psi1_zero_sum_reduces_residual(sieve_10k, zeros100):
    x = 100.0
    empty = ZeroTable(ordinates=np.array([]), source="empty")
    formula_empty, direct = psi1_explicit(empty, sieve_10k, x)
    assert formula_empty == x * x / 2 - ZETA_LOGDERIV_0 * x + ZETA_LOGDERIV_M1
    formula_full, _ = psi1_explicit(zeros100, sieve_10k, x)
    assert abs(formula_full - direct) < abs(formula_empty - direct)


def test_psij_consistent_with_psi1(zeros100, sieve_10k):
    x = 500.0
    formula_j, direct_j = psij_explicit(zeros100, sieve_10k, 1, x)
    formula_1, direct_1 = psi1_explicit(zeros100, sieve_10k, x)
    assert direct_j == direct_1
    assert formula_j - ZETA_LOGDERIV_0 * x + ZETA_LOGDERIV_M1 == formula_1


@pytest.mark.parametrize("j", [2, 3])
def test_psij_explicit_bounded(zeros100, sieve_10k, j):
    x = 1000.0
    formula, direct = psij_explicit(zeros100, sieve_10k, j, x)
    # the formula omits the s = 0 residue -log(2 pi) x^j / j!, the leading
    # O(x^j) term; with it restored the truncated zero sum leaves a residual
    # of order x^j with a small constant
    formula -= ZETA_LOGDERIV_0 * x**j / math.factorial(j)
    assert abs(formula - direct) / x**j < 0.05


def test_residual_report_boundary(sieve_10k, zeros100):
    g2 = gk_fft(sieve_10k, 2, 64)
    prefix = sk_prefix(g2)
    report = residual_report(prefix, zeros100, [2, 16, 64])
    row = report.rows[0]
    assert row.x == 2
    assert row.s_value == 0.0  # only composition of 2 is (1,1) and Lambda(1)=0
    h2, _ = hk_zero_sum(zeros100, 2, 2.0)
    assert row.residual == -(2.0**2 / 2.0) - h2
    for r in report.rows:
        assert r.residual == r.s_value - r.main - r.h_value  # bookkeeping identity
    assert report.zeros_used == 100


def test_residual_report_rejects_bad_grid(sieve_10k, zeros100):
    g2 = gk_fft(sieve_10k, 2, 64)
    prefix = sk_prefix(g2)
    with pytest.raises(ValueError):
        residual_report(prefix, zeros100, [1])
    with pytest.raises(ValueError):
        residual_report(prefix, zeros100, [128])


def _zero_sum_per_term(ordinates, k, x):
    """The zero sum term by term over numpy scalars, each term from scratch."""
    def term(gamma):
        rho = complex(0.5, gamma)
        den = rho
        for j in range(1, k):
            den *= rho + j
        phase = gamma * math.log(x)
        power = x ** (k - 0.5) * complex(math.cos(phase), math.sin(phase))
        return 2.0 * (power / den).real

    return math.fsum(term(gamma) for gamma in ordinates)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1, max_size=40, unique=True),
    st.sampled_from([2, 3, 4]),
    st.lists(st.floats(min_value=4.0, max_value=1e12), min_size=1, max_size=5),
)
def test_zero_sum_kernel_matches_per_term_bits(gammas, k, xs):
    table = ZeroTable(ordinates=np.array(sorted(gammas)))
    sums = _zero_sums(table, k, xs)
    assert len(sums) == len(xs)
    for x, value in zip(xs, sums):
        assert value.hex() == _zero_sum_per_term(table.ordinates, k, x).hex()


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("x", [4.0, 100.5, 1e6, 2.0**40])
@pytest.mark.parametrize("gamma", [GAMMA1, GAMMA2, 100000.3])
def test_zero_sum_term_is_the_named_helpers_quotient(k, x, gamma):
    # the kernel's docstring: each term is _power_term / _denominator, same operations
    quotient = _power_term(x, k, gamma) / _denominator(gamma, k)
    table = ZeroTable(ordinates=np.array([gamma]))
    assert _zero_sums(table, k, [x])[0].hex() == (2.0 * quotient.real).hex()
    # criterion 9's right-hand side is -k times that quotient: bit for bit where
    # scaling by k is exact (k a power of two); at k = 3 the product -k X^(rho+k-1)
    # is rounded before the division, which moves the result by a few ulps only
    _, rhs = rk_hk_consistency(k, gamma, x)
    if k in (2, 4):
        assert rhs == -k * quotient
    else:
        assert abs(rhs - (-k * quotient)) <= 8 * 2.0**-53 * k * abs(quotient)


@pytest.mark.parametrize("k", [2, 3])
def test_residual_report_rows_are_hk_zero_sum_bits(sieve_10k, zeros100, k):
    limit = 3000
    grid = [k, 5, 64, 100, 999, 1024, 2047, limit]
    report = residual_report(sk_prefix(gk_fft(sieve_10k, k, limit)), zeros100, grid)
    assert [row.x for row in report.rows] == sorted(grid)
    for row in report.rows:
        value, tail = hk_zero_sum(zeros100, k, float(row.x))
        assert row.h_value.hex() == value.hex()
    assert report.truncation_estimate.hex() == tail.hex()


def test_bound_is_checked_per_call_and_per_row(sieve_10k, zeros100, monkeypatch):
    monkeypatch.setattr(ZeroTable, "inverse_square_sum", lambda self: 1e-30)
    with pytest.raises(BoundExceeded):
        hk_zero_sum(zeros100, 2, 100.0)
    with pytest.raises(BoundExceeded):
        residual_report(sk_prefix(gk_fft(sieve_10k, 2, 64)), zeros100, [16, 64])


def test_residual_csv_format(sieve_10k, zeros100):
    g2 = gk_fft(sieve_10k, 2, 64)
    report = residual_report(sk_prefix(g2), zeros100, [32, 64])
    out = io.StringIO()
    write_residual_csv(report, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "X,S_k,main,H_k,residual,normalized"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "32"


def test_zero_table_immutable(zeros100):
    with pytest.raises(ValueError):
        zeros100.ordinates[0] = 1.0

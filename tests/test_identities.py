import math
import random

import pytest

from goldbachkit import identities
from goldbachkit import (
    alternating_sums,
    derivative_alternating_sum,
    f_ki,
    run_identity_suite,
    solve_ak,
    verify_fki_recurrence,
)


def test_fki_examples():
    assert f_ki(2, 2) == 2
    assert f_ki(3, 1) == 0
    assert f_ki(3, 3) == 6


def test_fki_vanishing_and_factorial():
    for k in range(1, 26):
        for i in range(1, k):
            assert f_ki(k, i) == 0
        assert f_ki(k, k) == math.factorial(k)


def test_fki_rows_match_closed_form(monkeypatch):
    # fresh rows; k = 7 cached to i = 5 first, then every (k, i) in shuffled order
    monkeypatch.setattr(identities, "_ROWS", {})
    f_ki.cache_clear()
    assert f_ki(7, 5) == 0
    pairs = [(k, i) for k in range(1, 41) for i in range(1, 41)]
    random.Random(24).shuffle(pairs)
    for k, i in pairs:
        assert f_ki(k, i) == sum((-1) ** j * math.comb(k, j) * (k - j) ** i for j in range(k))
    f_ki.cache_clear()


def test_fki_recurrence_examples():
    assert f_ki(3, 3) == 3 * (f_ki(3, 2) + f_ki(2, 2))
    assert verify_fki_recurrence(5, 4)
    assert f_ki(2, 2) == 2 * (f_ki(2, 1) + f_ki(1, 1))


def test_fki_recurrence_grid():
    assert all(
        verify_fki_recurrence(k, i) for k in range(2, 26) for i in range(2, 26)
    )


@pytest.mark.parametrize("wrong", [(1, 1), (2, 2), (4, 3), (5, 7), (9, 9)])
def test_fki_recurrence_sees_one_wrong_entry(monkeypatch, wrong):
    # f_{k,i} = k (f_{k,i-1} + f_{k-1,i-1}) reads (k, i), (k, i-1) and (k-1, i-1)
    closed_form = f_ki

    def one_wrong(k, i):
        return closed_form(k, i) + ((k, i) == wrong)

    monkeypatch.setattr(identities, "f_ki", one_wrong)
    k0, i0 = wrong
    readers = {(k0, i0), (k0, i0 + 1), (k0 + 1, i0 + 1)}
    for k in range(2, 12):
        for i in range(2, 12):
            assert verify_fki_recurrence(k, i) == ((k, i) not in readers), (k, i)


def test_solve_ak_small():
    assert solve_ak(1) == [-1, 1]
    assert solve_ak(2)[2] == 2
    assert solve_ak(12)[12] == 479001600


def test_solve_ak_leading_and_extension():
    for k in range(1, 26):
        coeffs = solve_ak(k)
        assert coeffs[k] == math.factorial(k)
        # the defining relation extends beyond the construction points
        for n in range(k + 6):
            assert sum(math.comb(n + j, j) * coeffs[j] for j in range(k + 1)) == n**k


def test_alternating_sums():
    for k in (2, 7, 30):
        assert alternating_sums(k) == (0, 0)
    for k in range(2, 26):
        assert derivative_alternating_sum(k) == 0


def test_hockey_stick_examples():
    assert identities._hockey_row(2, 1)[1] == (6, 6)
    # boundary: the run C(i-1,i-1) ... C(i+m,i-1) has m+2 terms
    assert identities._hockey_row(1, 0)[0] == (2, 2)
    lhs, rhs = identities._hockey_row(5, 20)[20]
    assert lhs == rhs == math.comb(26, 5)


def test_hockey_stick_grid():
    for i in range(1, 26):
        for m in range(0, 26):
            lhs, rhs = identities._hockey_row(i, m)[m]
            assert lhs == rhs == sum(math.comb(t, i - 1) for t in range(i - 1, i + m + 1))


def test_validation_errors():
    with pytest.raises(ValueError):
        f_ki(0, 1)
    with pytest.raises(ValueError):
        verify_fki_recurrence(1, 2)
    with pytest.raises(ValueError):
        solve_ak(0)
    with pytest.raises(ValueError):
        identities._hockey_row(0, 0)
    for kmax in (0, 1):
        with pytest.raises(ValueError):
            run_identity_suite(kmax)


def test_suite_all_green():
    rows = run_identity_suite(25)
    assert rows and all(ok for _, ok in rows)


def test_suite_reads_each_fki_once():
    f_ki.cache_clear()
    rows = run_identity_suite(25)
    assert all(ok for _, ok in rows)
    # one closed form per distinct (k, i), 1 <= k, i <= 25
    assert f_ki.cache_info().misses == 625


def _failing_rows():
    return [name for name, ok in run_identity_suite(25) if not ok]


@pytest.mark.parametrize("i,m", [(1, 0), (1, 25), (25, 0), (25, 25)])
def test_suite_hockey_row_reaches_each_corner(monkeypatch, i, m):
    # every checked identity holds, so a row cut to a subset of its range
    # would still pass; one false pair planted at a corner of the row's
    # (i, m) range must show
    real = identities._hockey_row

    def planted(row_i, m_max):
        row = real(row_i, m_max)
        if row_i == i and m_max >= m:
            lhs, rhs = row[m]
            row[m] = (lhs + 1, rhs)
        return row

    monkeypatch.setattr(identities, "_hockey_row", planted)
    assert _failing_rows() == ["hockey stick"]


class _OneWrongComb:
    """The math module with one binomial coefficient off by one."""

    def __init__(self, wrong):
        self.wrong = wrong

    def __getattr__(self, name):
        return getattr(math, name)

    def comb(self, n, k):
        return math.comb(n, k) + ((n, k) == self.wrong)


def test_suite_ak_extension_reaches_its_last_n(monkeypatch):
    # the extension checks sum_j C(n+j, j) a_j = n^k up to n = k + 5; C(55, 25)
    # enters only at its far corner, k = 25, n = 30, j = 25, so that term
    # alone is made false
    monkeypatch.setattr(identities, "math", _OneWrongComb((55, 25)))
    assert _failing_rows() == ["a_k = k! with extension"]

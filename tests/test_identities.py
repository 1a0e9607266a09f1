import math

import pytest

from goldbachkit import identities
from goldbachkit import (
    alternating_sums,
    derivative_alternating_sum,
    f_ki,
    hockey_stick,
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
    assert hockey_stick(2, 1) == (6, 6)
    # boundary: the run C(i-1,i-1) ... C(i+m,i-1) has m+2 terms
    assert hockey_stick(1, 0) == (2, 2)
    lhs, rhs = hockey_stick(5, 20)
    assert lhs == rhs


def test_hockey_stick_grid():
    for i in range(1, 26):
        for m in range(0, 26):
            lhs, rhs = hockey_stick(i, m)
            assert lhs == rhs


def test_validation_errors():
    with pytest.raises(ValueError):
        f_ki(0, 1)
    with pytest.raises(ValueError):
        verify_fki_recurrence(1, 2)
    with pytest.raises(ValueError):
        solve_ak(0)
    with pytest.raises(ValueError):
        hockey_stick(0, 0)
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

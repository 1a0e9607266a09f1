import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldbachkit import bracket_zero, hardy_theta, hardy_z, zeta, zeta_euler_maclaurin


def test_zeta_at_known_points():
    # zeta(2) = pi^2/6, zeta(4) = pi^4/90, zeta(1/2) known constant
    assert zeta_euler_maclaurin(2.0).real == pytest.approx(math.pi**2 / 6, rel=1e-13)
    assert zeta_euler_maclaurin(4.0).real == pytest.approx(math.pi**4 / 90, rel=1e-13)
    assert zeta_euler_maclaurin(0.5).real == pytest.approx(-1.4603545088095868, rel=1e-10)
    assert abs(zeta_euler_maclaurin(2.0).imag) < 1e-14


def test_zeta_pole_rejected():
    with pytest.raises(ValueError):
        zeta_euler_maclaurin(1.0)


def test_hardy_z_is_real_scale():
    # |Z(t)| = |zeta(1/2+it)| by construction
    for t in (14.0, 20.0, 30.0):
        assert abs(hardy_z(t)) == pytest.approx(
            abs(zeta_euler_maclaurin(complex(0.5, t))), rel=1e-9
        )


def test_hardy_z_signs_bracket_first_zero():
    assert hardy_z(14.0) < 0 < hardy_z(14.3)


def test_bracket_first_two_zeros(zeros100):
    gamma1 = bracket_zero(14.0, 14.3)
    gamma2 = bracket_zero(20.9, 21.1)
    assert abs(gamma1 - zeros100.ordinates[0]) < 1e-6
    assert abs(gamma2 - zeros100.ordinates[1]) < 1e-6


def test_bracket_requires_sign_change():
    with pytest.raises(ValueError):
        bracket_zero(16.0, 17.0)  # Z > 0 throughout


def test_theta_validation():
    for t in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            hardy_theta(t)


@pytest.mark.parametrize("lo,hi", [
    (14.0, math.nan), (math.nan, 14.3), (14.0, math.inf), (-math.inf, 14.3),
])
def test_bracket_rejects_non_finite_ends(lo, hi, monkeypatch):
    calls = []
    monkeypatch.setattr(zeta, "hardy_z", lambda t: calls.append(t) or hardy_z(t))
    with pytest.raises(ValueError, match="finite"):
        bracket_zero(lo, hi)
    assert calls == []


@pytest.mark.parametrize("lo,hi", [(14.0, 14.3), (14.3, 14.0)])
def test_bracket_evaluation_count(lo, hi, monkeypatch):
    # plain bisection takes 49 evaluations of Z on this bracket
    calls = []
    monkeypatch.setattr(zeta, "hardy_z", lambda t: calls.append(t) or hardy_z(t))
    gamma = bracket_zero(lo, hi)
    assert len(calls) <= 20
    assert all(14.0 <= t <= 14.3 for t in calls)
    assert gamma == bracket_zero(14.0, 14.3)


def test_bracket_evaluations_over_table_zeros(zeros100, monkeypatch):
    # about 200 evaluations; regula falsi without the Illinois halving of
    # either end takes 265-333, plain bisection about 960
    calls = []
    monkeypatch.setattr(zeta, "hardy_z", lambda t: calls.append(t) or hardy_z(t))
    for gamma in zeros100.ordinates[:20]:
        bracket_zero(gamma - 0.3, gamma + 0.3)
    assert len(calls) <= 240


@settings(max_examples=60, deadline=None)
@given(
    index=st.integers(0, 19),
    below=st.floats(0.05, 0.3),
    above=st.floats(0.05, 0.3),
)
def test_bracket_finds_table_zeros(zeros100, index, below, above):
    gamma = zeros100.ordinates[index]
    lo, hi = gamma - below, gamma + above
    found = bracket_zero(lo, hi)
    assert lo <= found <= hi
    assert abs(found - gamma) < 1e-6


def _bisection_count(f, lo, hi):
    """Evaluations plain bisection spends on [lo, hi] down to adjacent doubles."""
    f_lo, count = f(lo), 2
    f(hi)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        count += 1
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return count


def flat_root(x):
    """(x - 1/3)^9 in exact arithmetic: 1/3 lies between two doubles, so never 0."""
    return float((Fraction(x) - Fraction(1, 3)) ** 9)


def step(x):
    return -1.0 if x < math.pi / 4 else 1.0


@pytest.mark.parametrize("f,lo,hi", [
    (flat_root, 0.0, 1.0),
    (flat_root, -3.0, 2.0),
    (flat_root, 1e-3, 1e3),
    (step, 0.0, 1.0),
    (step, 1e-3, 1e3),
])
def test_illinois_worst_case_count(f, lo, hi):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    a, b = zeta._illinois(counted, lo, hi)
    assert b == math.nextafter(a, math.inf)
    assert (f(a) < 0) != (f(b) < 0)
    assert len(calls) <= 2 * _bisection_count(f, lo, hi) + 2
    assert len(calls) <= 2 * math.log2((hi - lo) / (b - a)) + 5

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from goldbachkit import (
    CircleGrid,
    arc_classify,
    arc_sweep,
    build_mangoldt,
    cauchy_psi_recovery,
    chebyshev_psi,
    expected_value_E,
    f_partial,
    gy_lemma_diagnostic,
    kernel_K,
    lemma1_check,
    minor_arc_l2,
    primes_up_to,
    s0_sum,
)
from goldbachkit import circle
from goldbachkit.circle import (
    _f_on_grid,
    _kernel_on_grid,
    _mirror,
    _modulus,
    _nodes,
    _prefix_s0,
)

LOG2 = math.log(2)
LOG3 = math.log(3)
U = 2.0**-53
# a rounded grid node z = grid.z[j] is within NU R of R e(j/M)
NU = (6 * math.pi + 3) * U


def test_s0_at_zero_is_real(sieve_10k):
    x = 100.0
    value = s0_sum(sieve_10k, 0.0, x)
    assert value.imag == 0.0
    assert value.real == pytest.approx(
        chebyshev_psi(sieve_10k, x) - math.floor(x), rel=1e-12
    )


def test_s0_half_hand_value(sieve_10k):
    value = s0_sum(sieve_10k, 0.5, 4.0)
    assert value.real == pytest.approx(2 * LOG2 - LOG3, rel=1e-12)
    assert abs(value.imag) < 1e-12


def test_s0_single_term(sieve_10k):
    for alpha in (0.1, 0.37, 0.9):
        value = s0_sum(sieve_10k, alpha, 1.0)
        assert value == pytest.approx(-cmath.exp(2j * math.pi * alpha), rel=1e-14)


def test_s0_conjugate_symmetry(sieve_10k):
    rng = np.random.default_rng(7)
    for alpha in rng.uniform(-0.5, 0.5, size=20):
        a = s0_sum(sieve_10k, float(alpha), 500.0)
        b = s0_sum(sieve_10k, float(-alpha), 500.0)
        assert abs(b - a.conjugate()) <= 1e-15 * max(1.0, abs(a))


def test_s0_trivial_bound(sieve_10k):
    rng = np.random.default_rng(11)
    for _ in range(50):
        alpha = float(rng.uniform(-0.5, 0.5))
        x = float(rng.uniform(10, 2000))
        bound = chebyshev_psi(sieve_10k, x) + math.floor(x)
        assert abs(s0_sum(sieve_10k, alpha, x)) <= bound * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10_000),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
@example(10_000, 0.0)
@example(1, 0.25)
def test_s0_sum_matches_prefix_within_bound(sieve_10k, m, alpha):
    """s0_sum against _prefix_s0(...)[m - 1] within the bound _prefix_s0 states:
    the terms are bit-identical, so only the two summations differ."""
    value = s0_sum(sieve_10k, alpha, float(m))
    prefix = _prefix_s0(sieve_10k, alpha, m)[m - 1]
    mass = math.fsum(np.abs(sieve_10k.values[1 : m + 1] - 1.0).tolist())
    gamma = (m - 1) * U / (1 - (m - 1) * U)
    bound = (gamma + U) * mass
    assert abs(value.real - prefix.real) <= bound
    assert abs(value.imag - prefix.imag) <= bound


def test_expected_value_unit_interval(sieve_10k):
    for alpha in (0.0, 0.25, 0.77):
        assert expected_value_E(sieve_10k, alpha, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_expected_value_alpha_zero(sieve_10k):
    x = 8
    direct = math.fsum(
        (chebyshev_psi(sieve_10k, float(m)) - m) ** 2 for m in range(x, 2 * x)
    ) / x
    assert expected_value_E(sieve_10k, 0.0, float(x)) == pytest.approx(direct, rel=1e-12)


def _riemann_refinement(table, alpha, x, per_unit=1000):
    # left-endpoint Riemann sum anchored at the integers: every subcell sees
    # a constant integrand, so this reproduces the exact step integral;
    # S_0 is re-evaluated from scratch at each sample point.  Sample points
    # are x + i*width by index: accumulating t += width drifts far enough to
    # add a step or to land a point in the wrong unit cell.
    total = 0.0
    width = 1.0 / per_unit
    for i in range(round(x * per_unit)):
        t = x + i * width
        m = math.floor(t + 1e-12)
        n = np.arange(1, int(m) + 1)
        coeff = table.values[1 : int(m) + 1] - 1.0
        s0 = np.sum(coeff * np.exp(2j * np.pi * alpha * n))
        total += abs(s0) ** 2 * width
    return total / x


def test_expected_value_matches_riemann_refinement(sieve_10k):
    rng = np.random.default_rng(5)
    for _ in range(8):
        alpha = float(rng.uniform(-0.5, 0.5))
        x = float(rng.integers(2, 17))
        exact = expected_value_E(sieve_10k, alpha, x)
        refined = _riemann_refinement(sieve_10k, alpha, x)
        assert exact == pytest.approx(refined, rel=1e-6, abs=1e-9)


def test_expected_value_fractional_boundaries(sieve_10k):
    exact = expected_value_E(sieve_10k, 0.25, 8.5)
    refined = _riemann_refinement(sieve_10k, 0.25, 8.5)
    assert exact == pytest.approx(refined, rel=1e-6)


def test_gy_diagnostic_bands(sieve_10k, calibration):
    for key, h in (("X256_h1", 1.0), ("X256_h16", 16.0)):
        integral, reference = gy_lemma_diagnostic(sieve_10k, 256.0, h)
        ratio = integral / reference
        assert ratio <= calibration["gy_ratio"][key] * 1.05


def test_gy_width_sanity(sieve_10k):
    x = 64.0
    integral, _ = gy_lemma_diagnostic(sieve_10k, x, x)
    max_e = max(
        expected_value_E(sieve_10k, a, x)
        for a in np.linspace(-0.5 / x, 0.5 / x, 65)
    )
    assert integral <= (1.0 / x) * max_e * (1 + 1e-9)


def _gy_double_sum(table, x, h):
    """The GY integral as the O(x^2) double sum (1/x) sum c_i c_l K(i-l) W,
    with W the width of [x, 2x] lying in cells m >= max(i, l)."""
    top = math.ceil(2 * x) - 1
    c = [table.values[n] - 1.0 for n in range(top + 1)]

    def width(m):
        return max(0.0, min(m + 1.0, 2 * x) - max(float(m), x))

    tail = [math.fsum(width(m) for m in range(n, top + 1)) for n in range(top + 2)]

    def kernel(d):
        return 1.0 / h if d == 0 else math.sin(math.pi * d / h) / (math.pi * d)

    terms = [c[i] * c[l] * kernel(i - l) * tail[max(i, l)]
             for i in range(1, top + 1) for l in range(1, top + 1)]
    return math.fsum(terms) / x, math.fsum(abs(t) for t in terms) / x


@pytest.mark.parametrize("x,h", [(16.0, 1.0), (16.0, 3.0), (16.0, 16.0), (17.5, 2.5),
                                 (23.25, 23.25), (40.0, 7.0), (1.0, 1.0)])
def test_gy_closed_form_matches_double_sum(sieve_10k, x, h):
    integral, reference = gy_lemma_diagnostic(sieve_10k, x, h)
    expected, mass = _gy_double_sum(sieve_10k, x, h)
    assert abs(integral - expected) <= 1e-13 * mass
    assert reference == x * math.log(x) ** 2 / h


def _gauss_error_bound(cell_mass, top_frequency, h, nodes):
    """Trefethen, ATAP, Thm 19.3 for the alpha-integral of E_x over [-1/2h, 1/2h].

    With alpha = t/2h the integral is (1/2h) times that of g(t) = E_x(t/2h)
    over [-1, 1].  E_x is a trigonometric polynomial: (1/x) sum_m w_m
    sum_{i,l <= m} c_i c_l e((i - l) alpha), of top frequency D = m_max - 1
    < 2x.  On the Bernstein ellipse E_rho, |Im t| <= b = (rho - 1/rho)/2
    and |e(d alpha)| <= exp(pi |d| b / h), so |g| <= M = cell_mass
    exp(pi D b / h), cell_mass = (1/x) sum_m w_m A_m^2, A_m = sum_{n <= m}
    |c_n|.  The theorem bounds the (n+1)-point Gauss rule's error by
    (64/15) M rho^(-2n) / (rho^2 - 1); the best rho on a grid is taken.
    """
    n = nodes - 1
    rhos = np.linspace(1.01, 64.0, 8192)
    logs = (math.log(64 / 15) + math.log(cell_mass) - math.log(2 * h)
            + math.pi * top_frequency * (rhos - 1 / rhos) / (2 * h)
            - 2 * n * np.log(rhos) - np.log(rhos**2 - 1))
    return math.exp(float(logs.min()))


@pytest.mark.parametrize("x, h, nodes", [(256.0, 1.0, 1200), (256.0, 16.0, 120),
                                         (200.5, 4.0, 400)])
def test_expected_value_integrates_to_the_gy_closed_form(sieve_10k, x, h, nodes):
    """expected_value_E, integrated over alpha in [-1/2h, 1/2h] by Gauss-Legendre,
    is the oracle of gy_lemma_diagnostic's closed form.

    Tolerance, to first order in U, with c = Lambda - 1 (the same doubles on
    both sides), A_m = sum_{n <= m} |c_n|, cell widths w_m and tails W_m:
      - the rule's error (_gauss_error_bound), made negligible by the node
        count: it is asserted below 1e-30 of the integral;
      - each E at a node: every prefix P_m is within
            delta_m = (6 pi |alpha| m + 5) U A_m + sqrt(2) gamma_(m-1) A_m
                      + 2 pi m U A_m / 2h
        of the exact one.  The middle term is _prefix_s0's docstring bound
        (its cumsum), the first its terms' own rounding (the phase
        2 pi alpha n within 2.4U relative, np.exp and the product by c_n
        within 3U), the last the node, within U of the true one (numpy's
        nodes measured within 0.54U; 2h is a power of two, so alpha = t/2h
        is exact).  So E is within (1/x) sum_m w_m (2|P_m| + delta_m)
        delta_m + 8U E (hypot, square, fsum, division);
      - the weights: numpy's leggauss weights at up to 1,300 nodes have
        sum_j |w~_j - w_j| <= 4,961U, measured against weights from
        Newton-refined nodes in 64-bit-mantissa long double; 2^14 U times
        max E is taken;
      - the closed form: the kernel np.sinc(d/h)/h is within 7U/h of
        K(d) (the sine's argument within 1.4U, the quotient 4.4U), the
        convolution within gamma_top of sum |c_i K(m - i)|, the increments
        and the fsum within 7U, so within (top + 7)U (1/x) sum_m W_m
        (c_m^2 K(0) + 2|c_m| sum_{i<m} |c_i K(m - i)|)
        + (14U/h) (1/x) sum_m W_m |c_m| A_(m-1).
    """
    m, width = circle._cells(x)
    top = int(m[-1])
    c = sieve_10k.values[1 : top + 1] - 1.0
    mass = np.cumsum(np.abs(c))  # A_m at index m - 1
    tails = np.cumsum(width[::-1])[::-1]
    t, weights = np.polynomial.legendre.leggauss(nodes)
    values, errors = [], []
    for alpha in (t / (2 * h)).tolist():
        values.append(expected_value_E(sieve_10k, alpha, x))
        prefix = np.abs(_prefix_s0(sieve_10k, alpha, top))[m - 1]
        gamma = (m - 1) * U / (1 - (m - 1) * U)
        delta = mass[m - 1] * ((6 * math.pi * abs(alpha) * m + 5) * U
                               + math.sqrt(2) * gamma + 2 * math.pi * m * U / (2 * h))
        errors.append(math.fsum(((2 * prefix + delta) * delta * width).tolist()) / x
                      + 8 * U * values[-1])
    quadrature = math.fsum((weights * values).tolist()) / (2 * h)
    closed, _ = gy_lemma_diagnostic(sieve_10k, x, h)

    rule = _gauss_error_bound(math.fsum((mass[m - 1] ** 2 * width).tolist()) / x,
                              top - 1, h, nodes)
    assert rule <= 1e-30 * closed
    node_rounding = (math.fsum((weights * errors).tolist()) / (2 * h)
                     + 2**14 * U * max(values) / (2 * h) + U * quadrature)
    kernel = np.abs(np.sinc(np.arange(top + 1) / h) / h)
    cross = np.zeros(top)
    cross[1:] = np.convolve(np.abs(c), kernel[1:])[: top - 1]
    tail = np.full(top, tails[0])
    tail[m[0] - 1 :] = tails
    below = np.concatenate(([0.0], mass[:-1]))  # A_(m-1)
    closed_rounding = (
        (top + 7) * U * math.fsum(((c * c * kernel[0] + 2 * np.abs(c) * cross) * tail).tolist()) / x
        + 14 * U / h * math.fsum((tail * np.abs(c) * below).tolist()) / x
    )
    assert abs(quadrature - closed) <= rule + node_rounding + closed_rounding


def test_f_on_grid_matches_f_partial(sieve_10k):
    # (N, M): M = 4N, M = 8N, a prime M (4001, numpy's Bluestein path);
    # terms = 2N as the callers truncate, and terms = M - 1, the most
    # the grid takes without aliasing
    rng = np.random.default_rng(21)
    eps = np.finfo(float).eps
    for n, nodes, terms in [(100, 400, 200), (100, 800, 200), (1000, 4001, 2000),
                            (100, 400, 399), (300, 1201, 1200)]:
        grid = CircleGrid(n=n, nodes=nodes)
        values = _mirror(_f_on_grid(sieve_10k, grid, terms), nodes)
        f_r = f_partial(sieve_10k, grid.radius, terms).value.real
        # f_partial evaluates at the rounded node z, whose phase is off by
        # a few ulp; z^n multiplies that by n <= terms
        tol = 8 * terms * eps * f_r
        for j in [0, nodes - 1, *rng.integers(1, nodes - 1, 10).tolist()]:
            oracle = f_partial(sieve_10k, complex(grid.z[j]), terms).value
            assert abs(values[j] - oracle) <= tol, (n, nodes, terms, j)


def test_f_on_grid_refuses_aliasing(sieve_10k):
    grid = CircleGrid(n=100, nodes=400)
    with pytest.raises(ValueError, match="alias"):
        _f_on_grid(sieve_10k, grid, 400)


def test_kernel_on_grid_matches_kernel_K():
    # (N, M): M = 4N, M = 8N, a prime M (numpy's Bluestein path); nodes 0,
    # 1 and M - 1 are the ones next to z = 1, where K's closed form cancels
    rng = np.random.default_rng(34)
    eps = np.finfo(float).eps
    for n, nodes in [(100, 400), (100, 800), (1000, 4001)]:
        grid = CircleGrid(n=n, nodes=nodes)
        values = _mirror(_kernel_on_grid(grid), nodes)
        # |K(z) z| <= sum_m R^(-m), its value at z = R; kernel_K evaluates at
        # the rounded node z, whose phase is off by a few ulp, and z^(-N-1)
        # multiplies that by N + 1
        scale = float(np.sum(np.power(grid.radius, -np.arange(1, n + 1.0))))
        tol = 8 * n * eps * scale
        for j in [0, 1, nodes - 1, *rng.integers(2, nodes - 1, 10).tolist()]:
            z = complex(grid.z[j])
            assert abs(values[j] - kernel_K(z, n) * z) <= tol, (n, nodes, j)


def _fft_rounding(nodes, coeffs):
    """Higham's 2-norm bound for one inverse FFT, per node: log2(M) eta
    sqrt(M) ||coeffs||_2 with eta = 8U."""
    return math.log2(nodes) * 8 * U * math.sqrt(nodes) * float(np.linalg.norm(coeffs))


@st.composite
def _grid_and_nodes(draw, max_n):
    """A grid with M in {4N, 8N, a prime in [4N, 8N)}, and the node indices
    to check: 0, 1 and M - 1 (the ones next to z = 1) and up to 10 more."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    rule = draw(st.sampled_from(["4N", "8N", "prime"]))
    if rule == "prime":  # a prime lies in [4N, 8N) (Bertrand)
        primes = primes_up_to(8 * n - 1)
        nodes = draw(st.sampled_from(primes[primes >= 4 * n].tolist()))
    else:
        nodes = int(rule[0]) * n
    picks = draw(st.lists(st.integers(min_value=0, max_value=nodes - 1), max_size=10))
    return CircleGrid(n=n, nodes=nodes), sorted({0, 1, nodes - 1, *picks})


@settings(max_examples=40, deadline=None)
@given(_grid_and_nodes(max_n=1250), st.sampled_from(["2N", "M - 1"]))
@example((CircleGrid(n=1000, nodes=4001), [0, 1, 2000, 4000]), "2N")
def test_f_on_grid_within_derived_bound(sieve_10k, drawn, terms_rule):
    # _f_on_grid's per-node bound: log2(M) eta sqrt(M) ||a||_2
    # + ((9 pi + 5) F_1 + 11 F_0) U, with a_n = Lambda(n) R^n
    grid, nodes = drawn
    terms = 2 * grid.n if terms_rule == "2N" else grid.nodes - 1
    values = _mirror(_f_on_grid(sieve_10k, grid, terms), grid.nodes)
    index = np.arange(terms + 1)
    a = sieve_10k.values[: terms + 1] * np.power(grid.radius, index)
    f_0, f_1 = float(np.sum(a)), float(np.sum(index * a))
    bound = _fft_rounding(grid.nodes, a) + ((9 * math.pi + 5) * f_1 + 11 * f_0) * U
    z = grid.z
    for j in nodes:
        oracle = f_partial(sieve_10k, complex(z[j]), terms).value
        assert abs(values[j] - oracle) <= bound, (grid, terms, j)


@settings(max_examples=40, deadline=None)
@given(_grid_and_nodes(max_n=20000))
@example((CircleGrid(n=6000, nodes=48000), [0, 1, 24000, 47999]))  # the circle workload's
def test_kernel_on_grid_within_derived_bound(drawn):
    # _kernel_on_grid's per-node bound: log2(M) eta sqrt(M) ||c||_2 + nu C_1
    # + ((6 pi + 4)(N + 1) + 22) U C_0, with c_m = R^(-m)
    grid, nodes = drawn
    n = grid.n
    m = np.arange(1, n + 1)
    c = np.power(grid.radius, -m.astype(float))
    c_0, c_1 = float(np.sum(c)), float(np.sum(m * c))
    bound = (_fft_rounding(grid.nodes, c) + NU * c_1
             + ((6 * math.pi + 4) * (n + 1) + 22) * U * c_0)
    values = _mirror(_kernel_on_grid(grid), grid.nodes)
    z = grid.z
    for j in nodes:
        node = complex(z[j])
        assert abs(values[j] - kernel_K(node, n) * node) <= bound, (grid, j)


# M = 4N and 8N (even: nodes 0 and M/2 are real), and a prime M (odd: only node 0)
REAL_NODE_GRIDS = [(100, 400), (100, 800), (1000, 4001), (300, 1201), (600, 2400)]


@pytest.mark.parametrize("n, nodes", REAL_NODE_GRIDS)
def test_f_is_plus_zero_imaginary_on_the_real_axis(sieve_10k, n, nodes):
    # F has real coefficients, so it is real at z = R and, for even M, at
    # z = -R; the conjugate keeps those Im at +0.0 (a naive one gives -0.0)
    half = _f_on_grid(sieve_10k, CircleGrid(n=n, nodes=nodes), 2 * n)
    assert len(half) == nodes // 2 + 1
    for j in [0, nodes // 2] if nodes % 2 == 0 else [0]:
        assert half.imag[j] == 0.0 and not np.signbit(half.imag[j]), j


@pytest.mark.parametrize("n, nodes", REAL_NODE_GRIDS)
def test_mirror_is_the_conjugate_bit_for_bit(sieve_10k, n, nodes):
    grid = CircleGrid(n=n, nodes=nodes)
    j = np.arange(1, nodes)
    for half in (_f_on_grid(sieve_10k, grid, 2 * n), _kernel_on_grid(grid)):
        values = _mirror(half, nodes)
        assert np.array_equal(values[: len(half)], half)
        assert np.array_equal(values.real[nodes - j].view(np.uint64),
                              values.real[j].view(np.uint64))
        assert np.array_equal(values.imag[nodes - j], -values.imag[j])
        # and no Im that is exactly 0 reads -0.0 on either half
        assert not np.any(np.signbit(values.imag) & (values.imag == 0.0))


def test_f_partial_values(sieve_10k):
    assert f_partial(sieve_10k, 0.0, 10).value == 0.0
    expected = (
        LOG2 * (1 / 4 + 1 / 16 + 1 / 256)
        + LOG3 * (1 / 8 + 1 / 512)
        + math.log(5) / 32
        + math.log(7) / 128
    )
    value = f_partial(sieve_10k, 0.5, 10).value
    assert value.real == pytest.approx(expected, rel=1e-14)
    assert value.imag == 0.0  # real point, real coefficients


def test_f_partial_domain_and_tail(sieve_10k):
    with pytest.raises(ValueError):
        f_partial(sieve_10k, 1.0 + 0j, 10)
    # a negative count would wrap the slice and sum up to limit - 3
    with pytest.raises(ValueError, match="need 0 <= terms"):
        f_partial(sieve_10k, 0.5, -3)
    assert f_partial(sieve_10k, 0.5, 0).value == 0.0
    t100 = f_partial(sieve_10k, 0.9, 100).tail_bound
    t1000 = f_partial(sieve_10k, 0.9, 1000).tail_bound
    assert 0 < t1000 < t100


NON_FINITE = [complex(math.nan), complex(0.5, math.nan), complex(math.nan, math.nan),
              complex(math.inf), complex(0.0, -math.inf), complex(math.inf, math.nan)]


@pytest.mark.parametrize("z", NON_FINITE, ids=repr)
def test_f_partial_refuses_a_non_finite_z(sieve_10k, z):
    # abs(nan) >= 1 is False, so only a guard written as "not < 1" refuses NaN
    with pytest.raises(ValueError, match="need [|]z[|] < 1"):
        f_partial(sieve_10k, z, 10)


@pytest.mark.parametrize("z", NON_FINITE, ids=repr)
def test_kernel_refuses_a_non_finite_z(z):
    with pytest.raises(ValueError, match="need a finite z"):
        kernel_K(z, 5)


def test_kernel_removable_singularity():
    assert kernel_K(1.0 + 0j, 7) == pytest.approx(7.0, rel=1e-12)


def test_kernel_examples():
    assert abs(kernel_K(-1.0 + 0j, 2)) < 1e-14
    closed = kernel_K(1j, 3)
    geometric = (1j) ** (-4) * sum(1j**j for j in range(3))
    assert closed == pytest.approx(geometric, rel=1e-14)
    with pytest.raises(ValueError):
        kernel_K(0j, 3)


def test_kernel_dual_forms_agree():
    rng = np.random.default_rng(13)
    for _ in range(200):
        r = float(rng.uniform(0.3, 0.99))
        theta = float(rng.uniform(0.01, 0.99))
        z = r * cmath.exp(2j * math.pi * theta)
        n = int(rng.integers(2, 30))
        closed = kernel_K(z, n)
        geometric = z ** (-n - 1) * sum(z**j for j in range(n))
        assert abs(closed - geometric) <= 1e-12 * max(1.0, abs(closed))


def test_cauchy_recovery_small(sieve_10k):
    quad, coeff = cauchy_psi_recovery(sieve_10k, 10, 80)
    assert coeff == chebyshev_psi(sieve_10k, 10.0)
    assert quad == pytest.approx(coeff, rel=1e-9)


def test_cauchy_recovery_degenerate(sieve_10k):
    quad, coeff = cauchy_psi_recovery(sieve_10k, 1, 8)
    assert quad == 0.0 and coeff == 0.0


def test_cauchy_recovery_medium(sieve_10k):
    quad, coeff = cauchy_psi_recovery(sieve_10k, 500, 4096)
    assert abs(quad - coeff) / coeff < 1e-6


def _cauchy_rounding_bound(table, n, nodes):
    """cauchy_psi_recovery's stated rounding bound on |quadrature - psi(N)|:
    (2 log2(M) eta + (ceil(log2 M) + 18) U) ||a||_2 ||c||_2 + 5U psi(N),
    eta = 8U, a_n = Lambda(n) R^n (n <= 2N), c_m = R^(-m) (m <= N)."""
    r = 1.0 - 1.0 / n
    a = table.values[: 2 * n + 1] * np.power(r, np.arange(2 * n + 1))
    c = np.power(r, -np.arange(1, n + 1.0))
    log_m = math.log2(nodes)
    per_norm = 2 * log_m * 8 * U + (math.ceil(log_m) + 18) * U
    return per_norm * float(np.linalg.norm(a) * np.linalg.norm(c)) \
        + 5 * U * chebyshev_psi(table, float(n))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=20000), st.sampled_from(["4N", "8N", "prime"]))
@example(6000, "8N")  # the circle workload's (N, M)
@example(2, "prime")
def test_cauchy_quadrature_within_rounding_bound(n, nodes_rule):
    table = build_mangoldt(2 * n)
    if nodes_rule == "prime":  # a prime lies in [4N, 8N) (Bertrand)
        primes = primes_up_to(8 * n)
        nodes = int(primes[primes >= 4 * n][0])
    else:
        nodes = int(nodes_rule[0]) * n
    quad, coeff = cauchy_psi_recovery(table, n, nodes)
    assert abs(quad - coeff) <= _cauchy_rounding_bound(table, n, nodes), (n, nodes)


def test_cauchy_refuses_aliasing(sieve_10k):
    with pytest.raises(ValueError):
        cauchy_psi_recovery(sieve_10k, 100, 399)


def test_lemma1_worked_example():
    result = lemma1_check(2, 2, 0.0)  # z = 1/2
    assert result.difference == pytest.approx(10.0, rel=1e-13)
    assert result.comparator == pytest.approx(4.0, rel=1e-13)
    assert result.ratio == pytest.approx(2.5, rel=1e-13)
    assert result.budget == 4.0  # |a_0| + |a_1| = 1 + 3


@pytest.mark.parametrize("k,n,theta", [(2, 100, 0.0), (3, 50, 0.25), (4, 33, 0.4)])
def test_lemma1_budget_holds(k, n, theta):
    result = lemma1_check(k, n, theta)
    z = (1 - 1 / n) * cmath.exp(2j * math.pi * theta)
    allowance = result.budget * max(1.0, abs(1 - z) ** (k - 1))
    assert result.ratio <= allowance * (1 + 1e-9)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_lemma1_refuses_a_non_finite_theta(theta):
    with pytest.raises(ValueError, match="finite theta"):
        lemma1_check(2, 100, theta)


def test_lemma1_inner_circle_budget():
    # where |1-z| <= 1 the coefficient budget alone bounds the ratio
    result = lemma1_check(3, 100, 0.05)
    assert result.ratio <= result.budget


def test_arc_classification(sieve_10k):
    cls = arc_classify(200, 2, 0.5)
    assert cls.is_major[0]  # theta = 0 is always major
    assert not cls.is_major[cls.grid.nodes // 2]  # z near -R
    flags = cls.is_major
    for m in range(1, cls.grid.nodes):
        assert flags[m] == flags[cls.grid.nodes - m]  # symmetry about theta=0


def test_arc_measure_matches_node_fraction():
    cls = arc_classify(10_000, 2, 0.5)
    assert cls.threshold == pytest.approx(10_000 ** (-5.0 / 6.0), rel=1e-12)
    grid_resolution = 2.0 / cls.grid.nodes
    assert abs(cls.major_fraction - cls.analytic_measure) <= (
        grid_resolution + 0.2 * cls.analytic_measure
    )


def test_arc_sweep_rows(sieve_10k):
    rows = arc_sweep(sieve_10k, 64, 2, 0.5)
    assert len(rows) == 256
    theta, re_v, im_v, abs_v, label = rows[0]
    assert theta == 0.0
    assert im_v == pytest.approx(0.0, abs=1e-12)
    assert abs_v == pytest.approx(math.hypot(re_v, im_v), rel=1e-12)
    assert label == "major"
    # each |F| is rounded as abs() of one complex (numpy's array abs can be 2 ulp off)
    assert all(r[3] == abs(complex(r[1], r[2])) for r in rows)
    assert {r[4] for r in rows} == {"major", "minor"}


@pytest.mark.parametrize("n,k,delta", [(600, 2, 0.5), (300, 3, 0.3), (64, 2, 0.5)])
def test_arc_rows_from_classification(sieve_10k, n, k, delta):
    # the rows depend only on the classification and the table
    assert arc_classify(n, k, delta).rows(sieve_10k) == arc_sweep(sieve_10k, n, k, delta)


def _full_grid_flags(cls):
    """The major-arc test evaluated at every node of the 4N grid."""
    return _modulus(1.0 - cls.grid.z) < cls.threshold


def _assert_full_grid(cls):
    flags = _full_grid_flags(cls)
    assert np.array_equal(cls.is_major, flags)
    assert cls.major_fraction == np.count_nonzero(flags) / cls.grid.nodes


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=2**14), st.integers(min_value=2, max_value=8),
       st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
def test_arc_window_matches_the_full_grid(n, k, delta):
    # only the nodes inside the analytic window are evaluated; the rest must
    # read minor on the full grid too
    _assert_full_grid(arc_classify(n, k, delta))


def _delta_steps(n, k, level, ulps):
    """The deltas within ``ulps`` ulps of where arc_classify's threshold
    crosses ``level``: the last delta with threshold <= level comes first."""
    delta = (k + 1) * (1.0 + math.log(level) / math.log(n))
    while arc_classify(n, k, delta).threshold > level:
        delta = math.nextafter(delta, 0.0)
    while arc_classify(n, k, math.nextafter(delta, 1.0)).threshold <= level:
        delta = math.nextafter(delta, 1.0)
    steps = [delta]
    for direction in (0.0, 1.0):
        step = delta
        for _ in range(ulps):
            step = math.nextafter(step, direction)
            steps.append(step)
    return [step for step in steps if 0.0 < step < 1.0]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=8, max_value=2**14), st.integers(min_value=2, max_value=8),
       st.floats(min_value=0.0, max_value=1.0, exclude_max=True), st.booleans())
@example(25, 2, 0.0, False)  # a window without the band misses node 1 here
def test_arc_window_at_a_threshold_on_a_node(n, k, where, mirrored):
    # the threshold sits on node j's own float |1 - z_j|, then moves a few
    # ulps either side: node j flips, and every flag still equals the full grid
    grid = CircleGrid(n=n, nodes=4 * n)
    lowest, highest = 1.0 / n, float(n) ** (1.0 / (k + 1) - 1.0)
    reach = 0
    while abs(1.0 - grid.radius * cmath.exp(2j * math.pi * (reach + 1) / grid.nodes)) < highest:
        reach += 1
    assume(reach >= 1)
    j = 1 + int(where * reach)
    j = grid.nodes - j if mirrored else j
    level = float(_modulus(1.0 - _nodes(grid.radius, np.array([j]), grid.nodes))[0])
    assume(lowest < level < highest)
    seen = set()
    for delta in _delta_steps(n, k, level, 4):
        cls = arc_classify(n, k, delta)
        _assert_full_grid(cls)
        seen.add(bool(cls.is_major[j]))
    assert seen == {False, True}


@pytest.mark.parametrize("n", [2**18, 2**20])
def test_arc_window_matches_the_full_grid_at_large_n(n):
    for k, delta in [(2, 0.5), (2, 0.99), (5, 0.1)]:
        _assert_full_grid(arc_classify(n, k, delta))


@pytest.mark.parametrize("n,k,delta", [(6000, 2, 0.5), (6000, 2, 0.99), (2**18, 2, 0.5),
                                       (997, 8, 0.3)])
def test_window_nodes_are_the_grid_nodes_bit_for_bit(n, k, delta):
    cls = arc_classify(n, k, delta)
    grid = cls.grid
    z = grid.z
    major = np.flatnonzero(cls.is_major)
    reach = int(np.max(np.minimum(major, grid.nodes - major)))
    rng = np.random.default_rng(n)
    for indices in (np.concatenate((np.arange(reach + 2), np.arange(grid.nodes - reach - 1,
                                                                       grid.nodes))),
                    major, np.array([grid.nodes - 1]), rng.integers(0, grid.nodes, 37)):
        assert _nodes(grid.radius, indices, grid.nodes).tobytes() == z[indices].tobytes()


def test_arc_measure_at_the_edges_of_delta():
    # N = 2 with delta near 1: the widest arc any input gives, far below the circle
    cls = arc_classify(2, 2, math.nextafter(1.0, 0.0))
    gap = 1.0 - cls.grid.radius
    s2 = (cls.threshold**2 - gap**2) / (4.0 * cls.grid.radius)
    assert s2 < 0.2
    assert cls.analytic_measure == 2.0 * math.asin(math.sqrt(s2)) / math.pi
    assert 0.17 < cls.analytic_measure < 0.18
    _assert_full_grid(cls)
    # a tiny delta: at N = 2, 4, 9 rounding puts the threshold on or below
    # 1 - R (no arc, no major node), at N = 3 and 6000 just above it, where
    # only node 0, at distance 1 - R, is major
    for n, below in [(2, True), (4, True), (9, True), (3, False), (6000, False)]:
        cls = arc_classify(n, 2, 5e-324)
        assert (cls.threshold <= 1.0 - cls.grid.radius) == below
        assert (cls.analytic_measure == 0.0) == below
        assert cls.analytic_measure < 1e-8
        assert np.flatnonzero(cls.is_major).tolist() == ([] if below else [0])
        _assert_full_grid(cls)


def test_minor_arc_l2_band(sieve_10k, calibration):
    for key, n in (("N128", 128), ("N1024", 1024)):
        power_sum, reference = minor_arc_l2(sieve_10k, n)
        ratio = power_sum / reference
        stored = calibration["minor_arc_ratio"][key]
        assert stored / 1.05 <= ratio <= stored * 1.05


def test_minor_arc_small_radius_dominated_by_first_term(sieve_10k):
    power_sum, _ = minor_arc_l2(sieve_10k, 2)
    r = 0.5
    assert power_sum == pytest.approx(r**2, rel=0.05)


def test_minor_arc_requires_margin(sieve_10k):
    with pytest.raises(ValueError):
        minor_arc_l2(sieve_10k, 2000)
    # a degenerate radius 1 - 1/N <= 0 is refused by name, not summed
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match=f"N = {n}$"):
            minor_arc_l2(sieve_10k, n)


def test_grid_validation():
    with pytest.raises(ValueError):
        CircleGrid(n=100, nodes=100)
    grid = CircleGrid(n=100, nodes=400)
    assert np.allclose(np.abs(grid.z), grid.radius, atol=1e-15)


def test_grid_is_a_value():
    assert [f.name for f in dataclasses.fields(CircleGrid)] == ["n", "nodes"]
    grid = CircleGrid(n=100, nodes=400)
    assert grid == CircleGrid(n=100, nodes=400)
    assert grid != CircleGrid(n=100, nodes=800)
    grids = {grid, CircleGrid(n=100, nodes=400), CircleGrid(n=100, nodes=800)}
    assert len(grids) == 2


def test_grid_allocates_no_nodes():
    # the nodes are built by the routes that read them, not by the grid
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        CircleGrid(n=6000, nodes=48000)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("n,nodes", [(6000, 48000), (1000, 4001), (100, 400)])
def test_grid_arrays_bit_identical(n, nodes):
    # the expressions the grid has always used, so every route sees the same bits
    radius = 1.0 - 1.0 / n
    thetas = np.arange(nodes) / nodes
    z = radius * np.exp(2j * np.pi * thetas)
    grid = CircleGrid(n=n, nodes=nodes)
    assert grid.radius == radius
    assert grid.thetas.tobytes() == thetas.tobytes()
    assert grid.z.tobytes() == z.tobytes()


@pytest.mark.parametrize("build", [
    lambda: CircleGrid(n=100, nodes=10**10),
    lambda: arc_classify(2**25 + 1, 2, 0.5),  # 4N = 2^27 + 4 nodes
], ids=["grid", "arc_classify"])
def test_grid_size_refused_before_allocating(monkeypatch, build):
    def refuse(*args, **kwargs):
        raise MemoryError("allocated before checking the node count")

    monkeypatch.setattr(circle.np, "arange", refuse)
    with pytest.raises(ValueError, match="exceeds supported size"):
        build()

"""Circle-method numerics on |z| = R = 1 - 1/N.

Exponential sums with coefficients Lambda - 1, mean-square expected values
and their alpha-integral near 0 in closed form, the power series
F(z) = sum Lambda(n) z^n, the coefficient-extraction kernel
K(z) = z^(-N-1)(1 - z^N)/(1 - z) and the contour recovery of psi(N),
closed-form checks of sum n^k z^n, major/minor arc classification, and the
Parseval mass of F - 1/(1-z).

F and the kernel are each evaluated two ways: at one point by the oracles
f_partial (compensated) and kernel_K, and on a circle grid of M nodes at
once by _f_on_grid and _kernel_on_grid.  Both have real coefficients, so
the value at node M - j is the conjugate of the value at node j, and both
grid evaluators are one real FFT (rfft) of their coefficients, zero-padded
to M, which gives the half spectrum S_j = sum_m c_m e(-mj/M) at the nodes
j = 0..floor(M/2): K(z) z = sum_{m <= N} z^(-m) is S with c_m = R^(-m) at
index m, and F is the conjugate of S with c_n = Lambda(n) R^n.  A caller
that needs every node mirrors the half once (_mirror).

The arc rows (theta, F and its class per node) are read from an
ArcClassification by its rows method, so a caller that already holds the
classification of the 4N grid does not build it again; arc_sweep is
arc_classify followed by rows.
"""

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .accum import check_bound, exact_sum
from .identities import solve_ak
from .mangoldt import MAX_TABLE_LEN, ArrayResult, MangoldtTable, chebyshev_psi

# Below this distance from z = 1 the closed form of the kernel cancels
# catastrophically; switch to the explicit geometric sum.
_KERNEL_GUARD = 1e-6

# Largest change the truncation of minor_arc_l2's series at the sieve limit
# may make to its ratio against N log N (see that function).
MINOR_ARC_TAIL_BUDGET = 1e-5


@dataclass(frozen=True)
class CircleGrid:
    """M equally spaced nodes z = R e(m/M) on the circle of radius 1 - 1/N.

    Only N and M are stored, so grids compare and hash by (n, nodes).  Each
    read of ``thetas`` or ``z`` builds a fresh array of M values: read it
    once and keep the array.
    """

    n: int
    nodes: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need N >= 2 for a nondegenerate radius, got {self.n}")
        if self.nodes < 4 * self.n:
            raise ValueError(
                f"need at least 4N = {4 * self.n} nodes to avoid aliasing, "
                f"got {self.nodes}"
            )
        if self.nodes > MAX_TABLE_LEN:
            raise ValueError(
                f"circle grid of {self.nodes} nodes exceeds supported size {MAX_TABLE_LEN}"
            )

    @property
    def radius(self) -> float:
        return 1.0 - 1.0 / self.n

    @property
    def thetas(self) -> np.ndarray:
        return np.arange(self.nodes) / self.nodes

    @property
    def z(self) -> np.ndarray:
        return _nodes(self.radius, np.arange(self.nodes), self.nodes)


def _nodes(radius: float, indices: np.ndarray, nodes: int) -> np.ndarray:
    """R e(j/M) at the integer indices j: the one node formula, so the nodes
    of any index set have the bits of CircleGrid.z at the same indices."""
    return radius * np.exp(2j * np.pi * (indices / nodes))


@dataclass(frozen=True, eq=False)
class ArcClassification(ArrayResult):
    """Per-node major/minor flags: major iff |1 - z| < threshold = N^(delta/(k+1) - 1)."""

    grid: CircleGrid
    threshold: float
    is_major: np.ndarray = field(repr=False)
    major_fraction: float
    analytic_measure: float

    def rows(self, table: MangoldtTable) -> list[tuple]:
        """Rows (theta, Re F, Im F, |F|, arc class) over the grid's 4N nodes.

        F is truncated at min(2N, sieve limit), matching the contour-recovery
        truncation, evaluated on half the nodes by _f_on_grid's real FFT and
        mirrored once onto the rest.
        """
        terms = min(2 * self.grid.n, table.limit)
        f_values = _mirror(_f_on_grid(table, self.grid, terms), self.grid.nodes)
        labels = ["minor"] * self.grid.nodes
        for index in np.flatnonzero(self.is_major).tolist():
            labels[index] = "major"
        columns = (self.grid.thetas, f_values.real, f_values.imag, _modulus(f_values))
        return list(zip(*(column.tolist() for column in columns), labels))


def s0_sum(table: MangoldtTable, alpha: float, x: float) -> complex:
    """S_0(alpha, x) = sum_{n <= x} (Lambda(n) - 1) e(n alpha)."""
    if x > table.limit:
        raise ValueError(f"{x} exceeds sieve limit {table.limit}")
    m = int(math.floor(x))
    if m < 1:
        return 0j
    n = np.arange(1, m + 1, dtype=np.float64)
    coeff = table.values[1 : m + 1] - 1.0
    phases = np.exp(2j * np.pi * alpha * n)
    return complex(exact_sum(coeff * phases.real), exact_sum(coeff * phases.imag))


def _prefix_s0(table: MangoldtTable, alpha: float, up_to: int) -> np.ndarray:
    """S_0(alpha, m) for m = 1..up_to, as one sequential complex cumsum.

    Its terms are bit-identical to s0_sum's: (Lambda(n) - 1) times the same
    np.exp phases (the zero imaginary part of the coefficient adds only
    signed zeros).  So only the summation differs, and entry m - 1 is within
        gamma_(m-1) sum_{n <= m} |Lambda(n) - 1| + U sum_{n <= m} |Lambda(n) - 1|
    of s0_sum(table, alpha, m) in each of its real and imaginary parts,
    gamma_j = jU/(1 - jU) and U = 2^-53: the first term is the cumsum's
    error over m terms each at most |Lambda(n) - 1| in size, the second the
    rounding of s0_sum's correctly rounded fsum.
    """
    n = np.arange(1, up_to + 1, dtype=np.float64)
    coeff = (table.values[1 : up_to + 1] - 1.0).astype(complex)
    return np.cumsum(coeff * np.exp(2j * np.pi * alpha * n))


def _modulus(values: np.ndarray) -> np.ndarray:
    """|values| by hypot, within 1 ulp like abs() of one complex; numpy's
    vectorised complex abs is off by up to 2 ulp."""
    return np.hypot(values.real, values.imag)


def _cells(x: float) -> tuple[np.ndarray, np.ndarray]:
    """Unit cells [m, m+1] that meet [x, 2x]: their m and overlap widths."""
    hi = 2.0 * x
    m = np.arange(math.floor(x), math.ceil(hi))
    width = np.minimum(m + 1, hi) - np.maximum(m, x)
    return m[width > 0], width[width > 0]


def expected_value_E(table: MangoldtTable, alpha: float, x: float) -> float:
    """E_x(|S_0(alpha)|^2) = (1/x) integral_x^{2x} |S_0(alpha, t)|^2 dt, exact.

    S_0 is piecewise constant in t with jumps at the integers, so the
    integral is the sum of |prefix|^2 over unit cells, with the first and
    last cells weighted by their fractional overlap with [x, 2x].
    """
    if x <= 0:
        raise ValueError(f"need x > 0, got {x}")
    if 2 * x > table.limit:
        raise ValueError(f"need 2x <= sieve limit, got 2x = {2 * x}")
    m, width = _cells(x)
    width, m = width[m >= 1], m[m >= 1]  # S_0(t) = 0 for t < 1
    prefix = _prefix_s0(table, alpha, int(m[-1]) if m.size else 0)
    return exact_sum(_modulus(prefix[m - 1]) ** 2 * width) / x


def gy_lemma_diagnostic(table: MangoldtTable, x: float, h: float) -> tuple[float, float]:
    """Mean-square mass of S_0 near alpha = 0 against x log^2 x / h.

    The integral of E_x(|S_0|^2) over alpha in [-1/2h, 1/2h], in closed
    form.  With c = Lambda - 1, P_m(alpha) = sum_{n <= m} c_n e(n alpha)
    and the kernel K(d) = integral e(d alpha) dalpha = sin(pi d/h)/(pi d)
    (K(0) = 1/h), each cell of E_x contributes
        Q(m) = integral |P_m|^2 = sum_{i,l <= m} c_i c_l K(i - l),
    and Q(m) - Q(m-1) = c_m^2 K(0) + 2 c_m sum_{i < m} c_i K(m - i), one
    convolution for all m.  The integral is (1/x) sum_m w_m Q(m) with the
    cell widths w_m of expected_value_E, summed as (1/x) sum_m
    (Q(m) - Q(m-1)) W_m with W_m = sum_{m' >= m} w_m'.  The ratio of the
    two return values is a monitored diagnostic; the implied constant is
    unknown, so nothing is asserted here.
    """
    if not 1 <= h <= x:
        raise ValueError(f"need 1 <= h <= x, got h = {h}")
    if 2 * x > table.limit:
        raise ValueError(f"need 2x <= sieve limit, got 2x = {2 * x}")
    m, width = _cells(x)
    top = int(m[-1])
    c = table.values[1 : top + 1] - 1.0
    kernel = np.sinc(np.arange(top + 1) / h) / h  # K(0), ..., K(top)
    cross = np.zeros(top)
    cross[1:] = np.convolve(c, kernel[1:])[: top - 1]
    increments = c * c * kernel[0] + 2.0 * c * cross
    cell_tail = np.cumsum(width[::-1])[::-1]
    tail = np.full(top, cell_tail[0])
    tail[m[0] - 1 :] = cell_tail
    integral = exact_sum(increments * tail) / x
    reference = x * math.log(x) ** 2 / h
    return integral, reference


class PartialSeries(NamedTuple):
    value: complex
    tail_bound: float


def f_partial(table: MangoldtTable, z: complex, terms: int) -> PartialSeries:
    """F(z) truncated: sum_{n <= terms} Lambda(n) z^n for |z| < 1.

    Powers are taken per-term (no running-product drift) and the real and
    imaginary parts are accumulated with compensated summation.  The tail
    estimate log(M) |z|^(M+1) / (1 - |z|) accounts for the omitted
    coefficients, whose logs grow slower than the geometric decay.
    """
    z = complex(z)
    if not abs(z) < 1.0:  # NaN fails this too
        raise ValueError(f"need |z| < 1, got |z| = {abs(z)}")
    if not 0 <= terms <= table.limit:
        raise ValueError(f"need 0 <= terms <= sieve limit {table.limit}, got {terms}")
    support = np.nonzero(table.values[: terms + 1])[0]
    real_parts: list[float] = []
    imag_parts: list[float] = []
    for n in support:
        term = table.values[n] * z ** int(n)
        real_parts.append(term.real)
        imag_parts.append(term.imag)
    value = complex(math.fsum(real_parts), math.fsum(imag_parts))
    m = max(int(terms), 2)
    tail = math.log(m) * abs(z) ** (m + 1) / (1.0 - abs(z))
    return PartialSeries(value=value, tail_bound=tail)


def _geometric_sum(z: complex, count: int) -> complex:
    total = 0j
    power = 1.0 + 0j
    for _ in range(count):
        total += power
        power *= z
    return total


def kernel_K(z: complex, n: int) -> complex:
    """K(z) = z^(-N-1) (1 - z^N) / (1 - z), guarded near the removable z = 1.

    Within 1e-6 of z = 1 the quotient is evaluated as the geometric sum
    1 + z + ... + z^(N-1) instead of the cancelling closed form; K(1) = N.
    A non-finite z is refused, as is the pole z = 0.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"need a finite z, got {z}")
    if z == 0:
        raise ValueError("kernel has a pole of order N+1 at z = 0")
    if abs(1.0 - z) < _KERNEL_GUARD:
        body = _geometric_sum(z, n)
    else:
        body = (1.0 - z**n) / (1.0 - z)
    return z ** (-n - 1) * body


def _kernel_on_grid(grid: CircleGrid) -> np.ndarray:
    """K(z) z = sum_{m=1}^{N} z^(-m) at nodes j = 0..floor(M/2), by one real FFT.

    z^(-m) at node j is R^(-m) e(-mj/M), the forward DFT's term at index m,
    so with c_m = R^(-m) at indices 1..N (c_0 = 0), zero-padded to M > N,
    the value at node j is rfft(c)_j.  Node M - j holds its conjugate
    (_mirror).  kernel_K is the pointwise oracle, as f_partial is for
    _f_on_grid.

    Rounding per node, to first order in U = 2^-53, counting each libm call
    (pow, exp, cos, sin, atan2, hypot) as within one ulp, 2U, against the
    oracle kernel_K(z) z at the rounded node z = grid.z[j], with
    C_0 = sum c_m and C_1 = sum m c_m:
      - the FFT: log2(M) eta sqrt(M) ||c||_2, eta = 8U as in
        cauchy_psi_recovery (Higham's 2-norm bound for the complex DFT of
        length M, per node); rfft gives the first floor(M/2) + 1 entries
        of that DFT by real radix passes, and is held to the same form by
        test, as the mixed-radix and Bluestein transforms are;
      - the coefficient powers: 2U C_0;
      - the rounded node: the phase 2 pi j/M is formed within 3U relative
        (pi, j/M and their product), at most 6 pi U, and exp and the
        product by R add 3U, so |z - R e(j/M)| <= nu R with
        nu = (6 pi + 3) U; z^(-m) moves by at most m nu c_m, nu C_1 in all;
      - the oracle's own error, ((6 pi + 4)(N + 1) + 20) U C_0, on its
        closed form (its 1e-6 guard, which node 0 meets once N > 10^6,
        is not counted here): CPython
        takes z^e for |e| > 100 in polar form, within ((3 pi + 2)|e| + 5) U
        (the phase e atan2(z) within 3 pi |e| U), and by repeated squaring
        below that, within less; z^N's error reaches 1 - z^N scaled by
        R^N / |1 - z^N| <= 1/(e - 1) < 1; the subtractions, the division
        and two products (one by z) add under 20U.
    In all, log2(M) eta sqrt(M) ||c||_2 + nu C_1
    + ((6 pi + 4)(N + 1) + 22) U C_0, at every node of the mirror too: its
    conjugate is exact, and nu bounds each rounded node on its own.
    """
    coeffs = np.power(grid.radius, -np.arange(grid.n + 1))
    coeffs[0] = 0.0  # the sum starts at m = 1
    return np.fft.rfft(coeffs, n=grid.nodes)


def _f_on_grid(table: MangoldtTable, grid: CircleGrid, terms: int) -> np.ndarray:
    """F truncated at ``terms`` at nodes j = 0..floor(M/2), by one real FFT.

    With a_n = Lambda(n) R^n (each power taken on its own, no running
    product), F(R e(j/M)) = sum_{n <= terms} a_n e(nj/M), the conjugate of
    rfft(a)_j with a zero-padded to M; node M - j holds the conjugate of
    node j (_mirror).  It is exact, with no aliasing, because terms < M;
    callers truncate at 2N < 4N <= M.  The conjugate negates Im as
    0.0 - Im, so an Im that the transform makes exactly 0 (node 0, and
    node M/2 for even M) stays +0.0 instead of turning to -0.0.  The
    rounding is an FFT's, about U log2(M) times the 2-norm of a, which is
    at most F(R) = sum a_n: a few ulp of F(R), where a running product of
    powers drifts by about ``terms`` ulp.

    Rounding per node, to first order and counted as in _kernel_on_grid
    (the real FFT held to the complex DFT's form, the mirror exact),
    against the oracle f_partial at the rounded node z = grid.z[j], with
    F_0 = sum a_n and F_1 = sum n a_n:
      - the FFT: log2(M) eta sqrt(M) ||a||_2, eta = 8U;
      - the coefficient powers: each a_n within 3U (pow, then the product
        by Lambda(n)), 3U F_0;
      - the rounded node, |z - R e(j/M)| <= nu R with nu = (6 pi + 3) U:
        z^n moves by at most n nu a_n, nu F_1;
      - the oracle's own error, ((3 pi + 2) F_1 + 8 F_0) U: each term
        Lambda(n) z^n within ((3 pi + 2) n + 7) U (polar power, see
        _kernel_on_grid, and the product by Lambda(n)), then fsum, U F_0.
    In all, log2(M) eta sqrt(M) ||a||_2 + ((9 pi + 5) F_1 + 11 F_0) U.
    """
    if terms >= grid.nodes:
        raise ValueError(f"{terms} terms alias on {grid.nodes} nodes; need terms < nodes")
    coeffs = table.values[: terms + 1] * np.power(grid.radius, np.arange(terms + 1))
    values = np.fft.rfft(coeffs, n=grid.nodes)
    np.subtract(0.0, values.imag, out=values.imag)
    return values


def _mirror(half: np.ndarray, nodes: int) -> np.ndarray:
    """All M node values of a series with real coefficients from its nodes
    j = 0..floor(M/2): node M - j is the conjugate of node j.  Node 0 and,
    for even M, node M/2, where Im is 0 by symmetry, are not mirrored."""
    return np.concatenate((half, half[nodes - len(half) : 0 : -1].conj()))


def cauchy_psi_recovery(table: MangoldtTable, n: int,
                        m_nodes: int) -> tuple[float, float]:
    """psi(N) two ways: contour quadrature and direct coefficient extraction.

    The contour route integrates F(z) K(z) z dtheta over the uniform grid
    (trapezoid; dz = 2 pi i z dtheta cancels the 1/(2 pi i)).  F is
    truncated at 2N, which the kernel's exponent window makes exact; F and
    K z both come from one real FFT each (_f_on_grid, _kernel_on_grid) on
    the nodes j = 0..floor(M/2).  Both have real coefficients, so F K z at
    node M - j is the conjugate of its value at node j, and the mean of
    Re(F K z) over all M nodes is (1/M) sum_j w_j t_j over the half, with
    t_j = Re(F_j K_j z_j), w_0 = 1, w_j = 2 for 0 < j < M/2 (the pair j,
    M - j) and, for even M, w_(M/2) = 1; no full-grid array is built.
    The integrand's exponents lie in (-N, 2N), so the trapezoid rule is
    exact once M >= 4N: the quadrature is sum_{m <= N} a_m c_m with
    a_n = Lambda(n) R^n (n <= 2N) and c_m = R^(-m) (m <= N), and only
    rounding remains.  The coefficient route is sum_{n <= N} Lambda(n), the
    same compensated path as chebyshev_psi.  Node counts below 4N alias the
    z^(-N-1) factor and are refused.

    Rounding, to first order in the unit roundoff U = 2^-53, with each
    power R^(+-m) within U:
      - a_m c_m is Lambda(m) within 3U (two powers, one product); the
        compensated psi, and the mean's division by M, add U each: 5U psi(N).
      - Each FFT is within log2(M) eta of its 2-norm, eta = 8U (Higham,
        Accuracy and Stability of Numerical Algorithms, Thm 24.2: eta =
        mu + gamma_4 (sqrt 2 + mu), about 6.7U for twiddles within mu = U),
        taken over the mirrored grid, where the weights w_j count each of
        the M nodes once.  By Parseval ||F|| = sqrt(M) ||a||_2 and
        ||K z|| = sqrt(M) ||c||_2, so by Cauchy-Schwarz the mean moves by
        at most 2 log2(M) eta ||a||_2 ||c||_2.
      - The real part of each product is within 2U |F| |K z|, doubling a
        pair is exact, and numpy's pairwise sum over the floor(M/2) + 1
        terms passes each through at most ceil(log2 M) + 16 additions (the
        halving levels, then base blocks of at most 64 terms in four
        sequential lanes); sum_j w_j |F_j| |K_j z_j| <= M ||a||_2 ||c||_2.
    So |quadrature - psi(N)| is at most about
        (2 log2(M) eta + (ceil(log2 M) + 18) U) ||a||_2 ||c||_2 + 5U psi(N),
    1.1e-13 relative at (N, M) = (6000, 48000) and 1.5e-13 at (2^17, 2^19),
    where the measured gaps are a few U.  Thm 24.2 is for a complex radix-2
    transform; the real mixed-radix and, for a prime M, Bluestein
    transforms are held to the same form by test.
    """
    if table.limit < 2 * n:
        raise ValueError(f"need sieve limit >= 2N = {2 * n}, have {table.limit}")
    if m_nodes < 4 * n:
        raise ValueError(f"{m_nodes} nodes would alias; need at least 4N = {4 * n}")
    if n == 1:
        # radius 1 - 1/N degenerates to 0; the only candidate coefficient
        # is Lambda(1) = 0, so both routes are identically zero
        return 0.0, chebyshev_psi(table, 1.0)
    grid = CircleGrid(n=n, nodes=m_nodes)
    f_values, kernel = _f_on_grid(table, grid, 2 * n), _kernel_on_grid(grid)
    terms = f_values.real * kernel.real - f_values.imag * kernel.imag
    terms[1 : (m_nodes + 1) // 2] *= 2.0  # the pairs j, M - j
    quadrature = float(np.sum(terms) / m_nodes)
    coefficient = chebyshev_psi(table, float(n))
    return quadrature, coefficient


class Lemma1Result(NamedTuple):
    difference: float
    comparator: float
    ratio: float
    budget: float


def lemma1_check(k: int, n: int, theta: float) -> Lemma1Result:
    """|sum_{m>=1} m^k z^m - k!/(1-z)^(k+1)| against |1-z|^(-k).

    z = (1 - 1/N) e(theta).  The series is evaluated exactly through its
    rational closed form sum_j a_j (1-z)^(-j-1) (a_j integral, a_k = k!),
    so the difference is exactly the contribution of the lower-order
    coefficients and satisfies
        ratio <= (sum_{j<k} |a_j|) * max(1, |1-z|^(k-1)),
    which is checked (BoundExceeded); on the inner part of the circle
    (|1-z| <= 1) the budget alone bounds the ratio.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if n < 2:
        raise ValueError(f"need N >= 2, got {n}")
    if not math.isfinite(theta):
        raise ValueError(f"need a finite theta, got {theta}")
    z = (1.0 - 1.0 / n) * cmath.exp(2j * math.pi * theta)
    one_minus = 1.0 - z
    coeffs = solve_ak(k)
    series = sum(coeffs[j] / one_minus ** (j + 1) for j in range(k + 1))
    main = math.factorial(k) / one_minus ** (k + 1)
    difference = abs(series - main)
    comparator = abs(one_minus) ** (-k)
    ratio = difference / comparator
    budget = float(sum(abs(c) for c in coeffs[:k]))
    limit = budget * max(1.0, abs(one_minus) ** (k - 1))
    check_bound("lemma ratio", ratio, limit)
    return Lemma1Result(difference=difference, comparator=comparator,
                        ratio=ratio, budget=budget)


def _half_width(level: float, radius: float) -> float:
    """theta* in [0, 1/2) with |1 - R e(theta*)| = level, or 0 when
    level <= 1 - R, from |1-z|^2 = (1-R)^2 + 4R sin^2(pi theta)."""
    gap = 1.0 - radius
    if level <= gap:
        return 0.0
    s2 = (level**2 - gap**2) / (4.0 * radius)
    return math.asin(math.sqrt(s2)) / math.pi


def arc_classify(n: int, k: int, delta: float) -> ArcClassification:
    """Classify the 4N grid nodes as major (near z = 1) or minor.

    A node z is major iff the float test _modulus(1 - z) < threshold holds,
    threshold = N^(delta/(k+1) - 1).  The analytic measure is the exact
    angular fraction 2 theta* with |1 - z| < threshold: sin^2(pi theta*) =
    s2 = (threshold^2 - (1-R)^2)/(4R), and the measure is 0 when threshold
    <= 1 - R, which rounding reaches for a tiny delta.  N >= 2 and
    0 < delta < 1 give threshold < N^(-2/3) < 1, so s2 < 1/(4R) <= 1/2
    (in fact s2 < 0.2): the major arc never covers the circle.

    The test is evaluated only in the window of nodes j with
    min(j, M - j) <= J = floor(M theta_b), theta_b = _half_width(threshold
    + band), at nodes from CircleGrid.z's node formula; every other flag is
    False without evaluation.  The band is nu + 16U threshold, with
    U = 2^-53 and nu = (6 pi + 3) U the rounded-node bound of
    _kernel_on_grid; to first order, counting each libm call within one
    ulp (2U) and with e = |1 - R e(j/M)| the exact distance of node j:
      - the test: the float node lies within nu R of R e(j/M); 1 - z rounds
        its real part only (U) and hypot adds 2U, so the test reads at
        least e - nu - 3U e, and a node with e >= threshold + nu
        + 4U threshold reads minor;
      - the window: level = threshold + band rounds once (U); level^2,
        (1-R)^2, their difference and the quotient by 4R move 4R s2 by at
        most 3U level^2; sqrt, asin (condition number under 1.08 for
        s2 < 0.2) and the division by pi move theta_b by at most 6U
        relative, so sin^2 by 12U (sin(x(1 - eps)) >= (1 - eps) sin x on
        [0, pi/2]).  So every theta >= theta_b has e^2 >= level^2 (1 - 15U),
        e >= (threshold + band)(1 - 9U) >= threshold + nu + 7U threshold;
      - the floor loses nothing: M theta_b >= i for an integer i rounds to
        a product >= i, so every i > J has i/M > theta_b.
    So every node outside the window reads minor, and the flags,
    major_fraction and the arc labels are those of the test on all 4N
    nodes, bit for bit.  The cost is 2J + 1 exponentials and hypots (5 of
    24,000 nodes at N = 6000, delta = 0.5) where the full grid takes 4N.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"need 0 < delta < 1, got {delta}")
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    grid = CircleGrid(n=n, nodes=4 * n)
    r, m = grid.radius, grid.nodes
    threshold = float(n) ** (delta / (k + 1) - 1.0)
    band = (6.0 * math.pi + 3.0 + 16.0 * threshold) * 2.0**-53  # nu + 16U threshold
    reach = math.floor(_half_width(threshold + band, r) * m)
    window = np.concatenate((np.arange(reach + 1), np.arange(m - reach, m)))
    flags = _modulus(1.0 - _nodes(r, window, m)) < threshold
    is_major = np.zeros(m, dtype=bool)
    is_major[window] = flags
    return ArcClassification(
        grid=grid,
        threshold=threshold,
        is_major=is_major,
        major_fraction=float(np.count_nonzero(flags)) / m,
        analytic_measure=2.0 * _half_width(threshold, r),
    )


def arc_sweep(table: MangoldtTable, n: int, k: int, delta: float):
    """Rows (theta, Re F, Im F, |F|, arc class) over arc_classify's 4N nodes."""
    return arc_classify(n, k, delta).rows(table)


def minor_arc_l2(table: MangoldtTable, n: int) -> tuple[float, float]:
    """Parseval mass of F - 1/(1-z) on the circle against N log N.

    The angular mean square of sum_{m>=1} (Lambda(m)-1) z^m equals
    sum (Lambda(m)-1)^2 R^(2m); the sum is truncated at the sieve limit L.
    The ratio against N log N is a monitored diagnostic, so the tail budget
    is set on that ratio: truncation may move it by at most
    MINOR_ARC_TAIL_BUDGET = 1e-5, i.e. the tail must be at most
    1e-5 N log N.  N < 2 (radius <= 0, N log N <= 0) and a sieve too short
    for that budget raise ValueError before anything is summed.

    The tail bound: 0 <= Lambda(m) <= log m gives (Lambda(m)-1)^2 <=
    (log m + 1)^2, and log(L + j) <= log L + j/L, so the terms beyond L are
    at most (log L + 1)^2 R^(2L) rho^j with rho = R^2 e^(2/L), summing to

      tail <= (log L + 1)^2 R^(2L) rho / (1 - rho)      (rho < 1 once L >= N).

    Why L = 8N always meets the budget: R^(16N) = (1 - 1/N)^(16N) <= e^-16
    and 1/(1 - rho) <= (4N + 7)/7, so tail / (N log N) <=
    e^-16 (log 8N + 1)^2 (4 + 7/N) / (7 log N).  That is under 1e-5 for
    every N from 2 to beyond 10^60 (it grows only like log N); the exact
    bound at 8N is 9e-10 at N = 2 and 0.2-1.5e-6 for N = 8 ... 10^7.
    Shorter sieves pass down to about 6.8N (N >= 128); N = 2000 on a 10^4
    sieve (L = 5N) is refused at 3.9e-4.
    """
    if n < 2:
        raise ValueError(f"need N >= 2 for a nondegenerate radius, got N = {n}")
    r = 1.0 - 1.0 / n
    limit = table.limit
    rho = r * r * math.exp(2.0 / limit)
    tail = math.inf
    if rho < 1.0:
        tail = (math.log(limit) + 1.0) ** 2 * r ** (2.0 * limit) * rho / (1.0 - rho)
    reference = n * math.log(n)
    if tail > MINOR_ARC_TAIL_BUDGET * reference:
        raise ValueError(
            f"sieve limit {limit} too short for N = {n}: truncation tail bound "
            f"{tail:.3g} exceeds {MINOR_ARC_TAIL_BUDGET:g} N log N "
            f"(a limit of 8N = {8 * n} always suffices)"
        )
    m = np.arange(1, limit + 1, dtype=np.float64)
    weights = r ** (2.0 * m)
    power_sum = exact_sum((table.values[1:] - 1.0) ** 2 * weights)
    return power_sum, reference


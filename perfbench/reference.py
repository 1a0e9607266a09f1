"""Independent reference values for the benchmark's output checks.

Nothing here imports goldbachkit.  Every routine recomputes a quantity by
a route of its own (a different sieve, direct fsum convolutions, a polar
form of the zero sum, exact rationals, closed forms) and, where the
program's result can only be compared up to rounding, returns the
tolerance together with the bound it follows from.  U is the unit
roundoff of IEEE double precision.
"""

import math
from fractions import Fraction

import numpy as np

U = 2.0**-53

# Higham, Accuracy and Stability of Numerical Algorithms (2nd ed.), Thm 24.2:
# a radix-2 FFT computed with twiddle factors of relative error mu has
# ||fl(FFT x) - FFT x||_2 <= log2(L) eta ||FFT x||_2, eta = mu + gamma_4 (sqrt2 + mu).
# With mu <= U this is below 6.7 U; 8 U is used.
FFT_ETA = 8.0 * U

# zeta'/zeta at 0 and at -1, derived here rather than copied:
# (zeta'/zeta)(0) = log(2 pi); zeta'(-1) = 1/12 - log A (Glaisher's A) and
# zeta(-1) = -1/12 give (zeta'/zeta)(-1) = 12 log A - 1.
LOG_GLAISHER = 0.24875447703378426
LOGDERIV_0 = math.log(2.0 * math.pi)
LOGDERIV_M1 = 12.0 * LOG_GLAISHER - 1.0


def primes(limit: int) -> np.ndarray:
    """Primes <= limit by a bytearray Eratosthenes sieve."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return np.flatnonzero(np.frombuffer(bytes(flags), dtype=np.uint8)).astype(np.int64)


def mangoldt(limit: int) -> np.ndarray:
    """Lambda(n) for 0 <= n <= limit: log p at every prime power p^m, else 0."""
    lam = np.zeros(limit + 1)
    ps = primes(limit)
    lam[ps] = [math.log(p) for p in ps.tolist()]
    for p in ps[ps <= math.isqrt(limit)].tolist():
        power = p * p
        while power <= limit:
            lam[power] = math.log(p)
            power *= p
    return lam


def psi(lam: np.ndarray, x: int) -> float:
    """psi(x), correctly rounded by fsum."""
    return math.fsum(lam[1 : x + 1].tolist())


def riesz_psi(lam: np.ndarray, j: int, x: float) -> float:
    """(1/j!) sum_{n <= x} Lambda(n) (x - n)^j, each term rounded once per
    multiplication and the sum correctly rounded."""
    top = int(math.floor(x))
    n = np.flatnonzero(lam[: top + 1])
    terms = [lam[m] * (x - m) ** j for m in n.tolist()]
    return math.fsum(terms) / math.factorial(j)


def _composition_terms(lam, support, k, n, weight, out):
    if k == 1:
        if 1 <= n < len(lam) and lam[n] != 0.0:
            out.append(weight * lam[n])
        return
    if k == 2:
        a = support[(support >= 1) & (support < n)]
        a = a[lam[n - a] != 0.0]
        out.extend((weight * lam[a] * lam[n - a]).tolist())
        return
    for a in support[support < n].tolist():
        _composition_terms(lam, support, k - 1, n - a, weight * lam[a], out)


def goldbach_at(lam: np.ndarray, k: int, n: int) -> float:
    """G_k(n) as one fsum over the products Lambda(n_1)...Lambda(n_k) of all
    compositions of n, enumerated over the prime-power support.

    Each product carries at most k - 1 roundings and fsum adds one, so the
    result is within k U |G_k(n)| of the exact value.
    """
    support = np.flatnonzero(lam[: n + 1])
    terms: list[float] = []
    _composition_terms(lam, support, k, n, 1.0, terms)
    return math.fsum(terms)


def fft_power_tolerance(lam: np.ndarray, k: int, limit: int, pad: int) -> float:
    """Absolute bound on every entry of the FFT route to the k-fold convolution.

    With x = Lambda on [0, limit] padded to length L, Thm 24.2 bounds the
    forward transform error by log2(L) eta sqrt(L) ||x||_2; raising to the
    k-th power multiplies it by k ||X||_inf^(k-1) <= k ||x||_1^(k-1) and adds
    (k - 1) U per entry; the inverse transform adds log2(L) eta ||y||_2 with
    ||y||_2 <= ||x||_1^(k-1) ||x||_2.  To first order the max-norm error is
    ((k + 1) log2(L) eta + k U) ||x||_1^(k-1) ||x||_2.
    """
    x = lam[: limit + 1]
    l1 = math.fsum(np.abs(x).tolist())
    l2 = math.sqrt(math.fsum((x * x).tolist()))
    factor = (k + 1) * math.log2(pad) * FFT_ETA + k * U
    return factor * l1 ** (k - 1) * l2


def zero_sum(gammas: np.ndarray, order: int, x: float) -> tuple[float, float]:
    """sum_rho 2 Re[x^(rho+order-1) / (rho (rho+1) ... (rho+order-1))] and a bound
    on the rounding error of evaluating it in double precision.

    Evaluated in polar form: modulus x^(order-1/2) / prod |rho + i| and
    phase gamma log x - sum arg(rho + i).  The phase is the ill-conditioned
    part: gamma log x is known to about 2 U |gamma log x| and each of the
    order arguments to U pi, so a term of modulus m is off by at most
    m (4 U (|gamma log x| + order pi + order + 6)), which also covers the
    program's Cartesian route.
    """
    logx = math.log(x)
    terms: list[float] = []
    budget: list[float] = []
    for g in gammas.tolist():
        modulus = x ** (order - 0.5)
        phase = g * logx
        for i in range(order):
            modulus /= math.hypot(0.5 + i, g)
            phase -= math.atan2(g, 0.5 + i)
        terms.append(2.0 * modulus * math.cos(phase))
        budget.append(2.0 * modulus * 4.0 * U * (abs(g * logx) + order * math.pi + order + 6))
    return math.fsum(terms), math.fsum(budget)


def hk_tail(gamma_max: float, k: int, x: float) -> float:
    """Density tail estimate of H_k beyond the last ordinate (as documented)."""
    t = gamma_max
    density = t ** (1 - k) * (math.log(t / (2 * math.pi)) / (k - 1) + 1.0 / (k - 1) ** 2)
    return (2.0 * k / (2 * math.pi)) * x ** (k - 0.5) * density


def power_table(coeffs: np.ndarray, k: int, top: int) -> np.ndarray:
    """k-fold convolution of coeffs (index 0 ignored) on [0, top], each entry
    an fsum of products of the previous level's entries with coeffs."""
    base = np.array(coeffs[: top + 1], dtype=float)
    base[0] = 0.0
    level = base.copy()
    for _ in range(k - 1):
        nxt = np.zeros(top + 1)
        for n in range(2, top + 1):
            nxt[n] = math.fsum((base[1:n] * level[n - 1 : 0 : -1]).tolist())
        level = nxt
    return level


def bk_reference(lam: np.ndarray, k: int, n: int) -> dict:
    """B_k(n) for coefficients Lambda - 1 (cap x = n) by fsum tables, and the
    rounding budgets of the program's two routes.

    The direct route convolves with numpy in plain floating point: k - 1
    stages of dot products of length <= n, each within gamma_n of the sum of
    absolute terms, so its error is below (k n + 8) U A_k(n), A_k the same
    sum over |Lambda - 1|.  The expansion route sums
    C(k,i) W_i with W_i built from the same kind of convolutions and is
    within (k n + 8) U sum_i C(k,i) |W_i|.
    """
    c = np.zeros(n + 1)
    c[1:] = lam[1 : n + 1] - 1.0
    value = power_table(c, k, n)[n]
    magnitude = power_table(np.abs(c), k, n)[n]
    tables = {level: power_table(lam, level, n) for level in range(1, k + 1)}
    weights = [tables[k][n]]
    for i in range(1, k):
        g = tables[k - i]
        weights.append(math.fsum(
            math.comb(n - m - 1, i - 1) * g[m] for m in range(max(1, k - i), n - i + 1)
        ))
    weights.append(math.comb(n - 1, k - 1))
    spread = math.fsum(math.comb(k, i) * abs(w) for i, w in enumerate(weights))
    return {
        "value": value,
        "tol_direct": (k * n + 8) * U * magnitude + 2 * k * U * abs(value),
        "tol_expansion": (k * n + 8) * U * spread + 2 * k * U * abs(value),
    }


def stirling2(k: int, j: int) -> int:
    return sum((-1) ** (j - i) * math.comb(j, i) * i**k for i in range(j + 1)) // math.factorial(j)


def lemma_coefficients(k: int) -> list[int]:
    """a_0..a_k with sum_{m>=0} m^k z^m = sum_j a_j (1-z)^-(j+1).

    From sum m^k z^m = sum_j j! S(k,j) z^j (1-z)^-(j+1) and
    z^j = (1 - (1-z))^j expanded binomially.
    """
    return [
        sum(math.factorial(j) * stirling2(k, j) * math.comb(j, j - l) * (-1) ** (j - l)
            for j in range(l, k + 1))
        for l in range(k + 1)
    ]


def lemma_reference(k: int, n: int) -> dict:
    """Exact Lemma 1 quantities at theta = 0 for the double z = 1 - 1/N.

    The rational value of the double the program uses is taken as exact, so
    the comparison isolates the program's arithmetic.  Each term
    a_j (1-z)^-(j+1) is formed with at most j + 3 roundings, and the
    series and main term are subtracted, so the difference is within
    2 (k + 3) U sum_j |a_j| |1-z|^-(j+1) absolutely.
    """
    a = lemma_coefficients(k)
    t = 1 - Fraction(1.0 - 1.0 / n)
    lower = sum(Fraction(a[j]) / t ** (j + 1) for j in range(k))
    difference = abs(lower)
    ratio = difference * t**k
    scale = sum(abs(Fraction(a[j])) / t ** (j + 1) for j in range(k + 1))
    abs_tol = 2 * (k + 3) * U * float(scale)
    return {
        "ratio": float(ratio),
        "ratio_tol": abs_tol * float(t**k) + 4 * U * float(ratio),
        "budget": float(sum(abs(v) for v in a[:k])),
        "leading": a[k],
    }


def arc_measure(n: int, k: int, delta: float) -> tuple[float, float, float]:
    """(threshold, angular measure of |1 - z| < threshold, tolerance).

    The measure is acos(c)/pi with c = (1 + R^2 - T^2)/(2R) from
    |1 - R e(theta)|^2 = 1 - 2R cos(2 pi theta) + R^2, a different route
    from the program's arcsine.  c carries about 4 U of error and
    d acos/dc = -1/sqrt(1 - c^2), so the tolerance is
    8 U / (pi sqrt(1 - c^2)) plus 8 U of the measure.
    """
    threshold = float(n) ** (delta / (k + 1) - 1.0)
    r = 1.0 - 1.0 / n
    c = (1.0 + r * r - threshold * threshold) / (2.0 * r)
    if c >= 1.0:
        return threshold, 0.0, 8 * U
    if c <= -1.0:
        return threshold, 1.0, 8 * U
    measure = math.acos(c) / math.pi
    tol = 8 * U / (math.pi * math.sqrt(1.0 - c * c)) + 8 * U * measure
    return threshold, measure, tol


def f_at_node(lam: np.ndarray, n: int, nodes: int, index: int, terms: int) -> tuple[float, float]:
    """Re and Im of sum_{m <= terms} Lambda(m) R^m e(m index / nodes), R = 1 - 1/n.

    The phase is reduced exactly, (m * index) mod nodes, before scaling, so
    each term is within 4 U of its modulus.
    """
    m = np.flatnonzero(lam[: terms + 1])
    r = 1.0 - 1.0 / n
    modulus = lam[m] * np.power(r, m.astype(float))
    phase = 2.0 * np.pi * ((m * index) % nodes) / nodes
    return math.fsum((modulus * np.cos(phase)).tolist()), math.fsum((modulus * np.sin(phase)).tolist())


def f_radial(lam: np.ndarray, n: int, terms: int) -> float:
    """F(R) = sum_{m <= terms} Lambda(m) R^m, which bounds |F| on the circle."""
    r = 1.0 - 1.0 / n
    m = np.flatnonzero(lam[: terms + 1])
    return math.fsum((lam[m] * np.power(r, m.astype(float))).tolist())


def cauchy_tolerance(f_r: float, n: int, nodes: int) -> float:
    """Absolute bound on the program's contour quadrature for psi(N).

    The integrand F K z is sampled at `nodes` points: F by 2N running
    complex products (at most 10 (2N) U relative, see f_on_grid_tolerance),
    K = z^(-N-1)(1 - z^N)/(1 - z) with |K| <= N R^(-N-1), whose phase
    2 pi (N+1) theta and quotient by |1 - z| >= 1/N cost at most
    (2 pi N + 4 N + 10) U relative; the mean over the nodes adds
    log2(nodes) U.  Each sample is at most F(R) N R^(-N-1) in modulus.
    """
    r = 1.0 - 1.0 / n
    peak = f_r * n * r ** (-n - 1)
    return peak * U * (20 * n + 2 * math.pi * n + 4 * n + 10 + 2 * math.log2(nodes))


def f_on_grid_tolerance(f_r: float, terms: int) -> float:
    """Absolute bound on F evaluated by `terms` running products z^m.

    A complex product is within sqrt(2) gamma_2 < 3 U relative; the node z
    itself is within 4 U; so z^m is within 7 m U and the running total adds
    terms U of the sum of moduli: below 10 terms U F(R).
    """
    return 10.0 * terms * U * f_r


def gy_reference(lam: np.ndarray, x: int, h: float, nodes: int) -> dict:
    """Closed-form alpha-integral of E_x(|S_0|^2) over [-1/2h, 1/2h] and the
    bound on the program's trapezoid approximation of it.

    With c_n = Lambda(n) - 1 and P_m(alpha) = sum_{n <= m} c_n e(n alpha),
    E_x = (1/x) sum_{m=x}^{2x-1} |P_m|^2 for integer x, so the integral is
    (1/x) sum_{n,n'} c_n c_n' W(n,n') D(n - n') with W the number of cells
    m >= max(n, n') and D(d) = sin(pi d/h)/(pi d), D(0) = 1/h.
    The composite trapezoid rule with spacing H on an interval of length
    1/h errs by at most (1/h) H^2 / 12 max|E''| (Euler-Maclaurin), and
    |E''| <= (2 pi)^2 (1/x) sum W |c_n c_n'| (n - n')^2.  Rounding: each
    prefix P_m is a running sum of m terms whose phases 2 pi alpha n carry
    3 U |2 pi alpha n| <= 3 pi m U of error, so |P_m| is off by at most
    e_m = (11 m + 4) U A_m with A_m = sum_{n<=m} |c_n|, and E by
    (1/x) sum_m (2 A_m e_m + e_m^2); the trapezoid sum adds nodes U of
    (1/h) max E.
    """
    top = 2 * x - 1
    c = lam[1 : top + 1] - 1.0
    idx = np.arange(1, top + 1)
    weight = 2 * x - np.maximum(np.maximum.outer(idx, idx), x)
    diff = np.subtract.outer(idx, idx).astype(float)
    kernel = np.sinc(diff / h) / h
    cc = np.outer(c, c)
    exact = math.fsum((cc * weight * kernel).ravel().tolist()) / x
    curvature = (2 * math.pi) ** 2 * math.fsum((np.abs(cc) * weight * diff**2).ravel().tolist()) / x
    spacing = (1.0 / h) / nodes
    quad_err = (1.0 / h) * spacing**2 / 12.0 * curvature
    a = np.cumsum(np.abs(c))
    m = np.arange(x, 2 * x)
    e = (11 * m + 4) * U * a[m - 1]
    e_round = math.fsum((2 * a[m - 1] * e + e * e).tolist()) / x
    e_max = math.fsum((a[m - 1] ** 2).tolist()) / x
    tol = quad_err + (1.0 / h) * e_round + nodes * U * (1.0 / h) * e_max + 4 * U * abs(exact)
    return {"exact": exact, "tol": tol, "reference": x * math.log(x) ** 2 / h}


def riesz_integral_tolerance(lam: np.ndarray, j: int, x: float) -> float:
    """Bound on the cell-by-cell integral of psi_{j-1} over [0, x] against psi_j(x).

    Cell [a, a+1] contributes Lambda(n)((b-n)^j - (a-n)^j) per n <= a; the two
    powers are within U of themselves, the difference and product add
    2 U of the term, so summing over the cells a >= n gives at most
    4 U Lambda(n) sum_{i <= x-n+2} i^j <= 4 U Lambda(n) (x-n+2)^(j+1)/(j+1),
    all divided by j!; the reference psi_j adds (j + 2) U psi_j.
    """
    top = int(math.floor(x))
    n = np.flatnonzero(lam[: top + 1])
    mass = math.fsum((lam[n] * (x - n + 2.0) ** (j + 1)).tolist())
    return 4 * U * mass / ((j + 1) * math.factorial(j))


def singular_series(k: int, n: int, cutoff: float) -> tuple[float, float, float]:
    """(value, tail, tolerance) of the truncated local-density product.

    Computed as exp of an fsum of log-factors, a different route from the
    program's running product; a product of m factors is within
    gamma_m of the exact value, so the tolerance is 2 (m + 8) U |value|.
    """
    divisors = set()
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            divisors.add(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        divisors.add(m)
    logs = []
    for p in primes(int(math.floor(cutoff))).tolist():
        u = -1.0 / (p - 1)
        logs.append(math.log1p(-(u ** (k - 1) if p in divisors else u**k)))
    for p in sorted(divisors):
        if p > cutoff:
            logs.append(math.log1p(-((-1.0 / (p - 1)) ** (k - 1))))
    value = math.exp(math.fsum(logs))
    tail = abs(value) * math.expm1(2.0 * (cutoff - 1.0) ** (1 - k) / (k - 1))
    return value, tail, 2 * (len(logs) + 8) * U * abs(value)


def units(q: int) -> list[int]:
    return [a for a in range(q) if q == 1 or math.gcd(a, q) == 1]


def prime_product(y: float) -> tuple[int, int, list[int]]:
    """(q, phi(q), primes) for q the product of the primes p < y."""
    ps = [p for p in primes(int(math.ceil(y))).tolist() if p < y]
    q = math.prod(ps)
    return q, math.prod(p - 1 for p in ps), ps

"""Exact integer verification of the combinatorial identities.

Everything here runs in arbitrary-precision integer arithmetic:
alternating binomial sums, the f_{k,i} family and its recurrence, the
partial-fraction coefficients a_j in closed form through f_{i,k} (the top
one is k!), and the hockey-stick identity.  No floats anywhere.
"""

import functools
import math


# k -> (row, terms): row[i-1] = f_{k,i} for 1 <= i <= len(row), and
# terms[j] = (-1)^j C(k,j) (k-j)^len(row).  An entry is replaced whole.
_ROWS: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}


@functools.cache
def f_ki(k: int, i: int) -> int:
    """Alternating sum k^i - C(k,1)(k-1)^i + ... + (-1)^(k-1) C(k,k-1) 1^i.

    Vanishes for 1 <= i <= k-1 and equals k! at i = k.  Each value is read
    from one closed-form row per k, kept for the process: a step of i
    multiplies each signed term (-1)^j C(k,j) (k-j)^i by k-j once, so a
    row of i entries costs k i products.  The cache holds one int per
    distinct (k, i) asked for (625 after run_identity_suite(25)), so the
    identity suite and solve_ak read each f_{k,i} once.
    """
    if k < 1 or i < 1:
        raise ValueError("f_ki requires k >= 1 and i >= 1")
    row, terms = _ROWS.get(k) or ((), tuple((-1) ** j * math.comb(k, j) for j in range(k)))
    while len(row) < i:
        terms = tuple(term * (k - j) for j, term in enumerate(terms))
        row += (sum(terms),)
    _ROWS[k] = row, terms
    return row[i - 1]


def verify_fki_recurrence(k: int, i: int) -> bool:
    """Exact check of f_{k,i} = k (f_{k,i-1} + f_{k-1,i-1})."""
    if k < 2 or i < 2:
        raise ValueError("recurrence check requires k >= 2 and i >= 2")
    return f_ki(k, i) == k * (f_ki(k, i - 1) + f_ki(k - 1, i - 1))


def solve_ak(k: int) -> list[int]:
    """Coefficients a_0..a_k with sum_j C(n+j, j) a_j = n^k for all n >= 0.

    Closed form a_j = sum_{i=max(j,1)}^{k} (-1)^(i-j) C(i,j) f_{i,k}.  It
    follows from n^k = sum_i f_{i,k} C(n,i) (f_{i,k} = i! S(k,i), S the
    Stirling numbers of the second kind) and C(n,i) = sum_j (-1)^(i-j)
    C(i,j) C(n+j,j).  The a_j are the coefficients in sum_m m^k z^m =
    sum_j a_j (1-z)^(-j-1); the leading one is a_k = f_{k,k} = k!.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    g = [0] + [(-1) ** i * f_ki(i, k) for i in range(1, k + 1)]  # g[i] = (-1)^i f_{i,k}
    return [
        (-1) ** j * sum(math.comb(i, j) * g[i] for i in range(max(j, 1), k + 1))
        for j in range(k + 1)
    ]


def alternating_sums(k: int) -> tuple[int, int]:
    """(sum (-1)^i C(k,i), sum (-1)^i C(k,i)(k-i)); both are 0 for k >= 2."""
    if k < 2:
        raise ValueError("need k >= 2")
    first = sum((-1) ** i * math.comb(k, i) for i in range(k + 1))
    second = sum((-1) ** i * math.comb(k, i) * (k - i) for i in range(k + 1))
    return first, second


def derivative_alternating_sum(k: int) -> int:
    """sum_j (-1)^j j C(k,j); vanishes for k >= 2 (derivative of (1-x)^k at 1)."""
    if k < 2:
        raise ValueError("need k >= 2")
    return sum((-1) ** j * j * math.comb(k, j) for j in range(k + 1))


def _hockey_row(i: int, m_max: int) -> list[tuple[int, int]]:
    """(C(i-1,i-1) + C(i,i-1) + ... + C(i+m,i-1), C(i+m+1,i)) for m = 0..m_max.

    Entry m is the hockey-stick identity's run of m+2 terms, ending at top
    index i+m, beside its closed form; the two components are equal for
    every i >= 1, m >= 0.  One running sum over the run gives the row.
    """
    if i < 1 or m_max < 0:
        raise ValueError("need i >= 1 and m >= 0")
    lhs = 1  # C(i-1, i-1)
    row = []
    for m in range(m_max + 1):
        lhs += math.comb(i + m, i - 1)
        row.append((lhs, math.comb(i + m + 1, i)))
    return row


def run_identity_suite(kmax: int = 25) -> list[tuple[str, bool]]:
    """Run every exact identity up to kmax; returns (name, passed) rows.

    Raises ValueError for kmax < 2, where most rows would hold vacuously.
    """
    if kmax < 2:
        raise ValueError(f"need kmax >= 2, got {kmax}")
    results: list[tuple[str, bool]] = []
    results.append((
        "f_ki vanishes for 1<=i<k",
        all(f_ki(k, i) == 0 for k in range(2, kmax + 1) for i in range(1, k)),
    ))
    results.append((
        "f_kk equals k!",
        all(f_ki(k, k) == math.factorial(k) for k in range(1, kmax + 1)),
    ))
    results.append((
        "f_ki recurrence",
        all(
            verify_fki_recurrence(k, i)
            for k in range(2, kmax + 1)
            for i in range(2, kmax + 1)
        ),
    ))
    def _ak_ok(k):
        coeffs = solve_ak(k)
        if coeffs[k] != math.factorial(k):
            return False
        # the defining relation must extend past the construction range
        return all(
            sum(math.comb(n + j, j) * coeffs[j] for j in range(k + 1)) == n**k
            for n in range(k + 6)
        )
    results.append(("a_k = k! with extension", all(_ak_ok(k) for k in range(1, kmax + 1))))
    results.append((
        "alternating binomial sums vanish",
        all(alternating_sums(k) == (0, 0) for k in range(2, kmax + 1)),
    ))
    results.append((
        "derivative alternating sum vanishes",
        all(derivative_alternating_sum(k) == 0 for k in range(2, kmax + 1)),
    ))
    results.append((
        "hockey stick",
        all(
            lhs == rhs
            for i in range(1, kmax + 1)
            for lhs, rhs in _hockey_row(i, 25)
        ),
    ))
    return results

"""Lower-bound construction for the extremal size of G_k.

Instantiates, at desk scale, the chain that forces integers divisible by a
primorial modulus q to carry large Goldbach mass:

  psi(2x; q, a) >= x / (2 phi(q))            for (a, q) = 1,
  sum_{n <= 2Lx, n = b (q)} G_L(n) >= x^L / (2^L phi(q)),
  sum_{n <= 2kx, q | n} G_k(n) >= x^k / (2^k phi(q)),
  max_{n <= 2kx} G_k(n) >= (x^(k-1) / 2^(k+1)) q/phi(q),

with q/phi(q) growing like e^gamma log y (Mertens).  The bounds hold
asymptotically with unspecified constants, so every inequality here is
evaluated and reported with its margin; only the residue-partition
identities are hard invariants.

The literal cutoff q = product of primes below x makes q astronomically
larger than 2x at any computable scale (the progressions would be mostly
empty), so the prime cutoff y is decoupled from x and defaults to
max(3, log x); configurations with q >= 2x are flagged, not hidden.  The
caller builds q = primorial(y) itself (default_cutoff(x) when y is unset).
No exceptional (Siegel) zero exists in any computable range, so no prime is
excluded from q.
"""

import math
from dataclasses import dataclass

import numpy as np

from .accum import exact_sum
from .goldbach import GoldbachTable
from .mangoldt import MangoldtTable, Primorial, primorial, psi_progression

EULER_GAMMA = 0.5772156649015329


def default_cutoff(x: float) -> float:
    """Default prime cutoff y for the modulus: max(3, log x)."""
    return max(3.0, math.log(x))


@dataclass(frozen=True)
class ProgressionRow:
    residue: int
    psi_value: float
    bound: float


@dataclass(frozen=True)
class ProgressionReport:
    x: float
    q: int
    phi_q: int
    rows: tuple[ProgressionRow, ...]
    vacuous: bool  # q >= 2x: classes mostly empty, bound not meaningful


def progression_bound_check(table: MangoldtTable, x: float, q: int) -> ProgressionReport:
    """psi(2x; q, a) against x / (2 phi(q)) for every residue a coprime to q."""
    if not 0 < 2 * x <= table.limit:
        raise ValueError(f"need 0 < 2x <= sieve limit, got 2x = {2 * x}")
    if q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    units = unit_sumsets(q, 1)[0]
    phi_q = len(units)
    bound = x / (2.0 * phi_q)
    rows = tuple(ProgressionRow(residue=a, psi_value=psi_progression(table, 2 * x, q, a),
                                bound=bound) for a in units)
    return ProgressionReport(x=x, q=q, phi_q=phi_q, rows=rows, vacuous=q >= 2 * x)


@dataclass(frozen=True)
class ChainLevel:
    level: int
    rhs: float
    min_lhs: float
    margin: float
    consistency_error: float


@dataclass(frozen=True)
class ChainReport:
    x: float
    q: int
    phi_q: int
    levels: tuple[ChainLevel, ...]
    final_lhs: float  # sum over n <= 2kx with q | n of G_k(n)
    final_rhs: float
    max_g: float


def unit_sumsets(q: int, k: int) -> list[tuple[int, ...]]:
    """Residues reachable as sums of exactly L units mod q; entry [L-1] is level L.

    Level L of the chain concerns integers that are sums of L terms each
    coprime to q; only these classes can carry the stacked progression
    mass.  Level 1 is the units (0 when q = 1); level L >= 2 is every
    residue = L (mod 2) when q is even, every residue when q is odd.

    Proof, for any q >= 1, by the Chinese remainder theorem (sums of L units
    modulo each p^e || q recombine into L units mod q): mod 2^e, L odd terms
    reach exactly the residues of parity L; mod p^e with p odd, b = 1 +
    (b - 1), or b = 2 + (b - 2) when p | b - 1.  Adding 1s covers L >= 2.
    """
    step = 2 if q % 2 == 0 else 1
    units = tuple(a for a in range(q) if math.gcd(a, q) == 1)
    return [units] + [tuple(range(level % step, q, step)) for level in range(2, k + 1)]


def chain_check(table: MangoldtTable, gtables: dict[int, GoldbachTable],
                x: float, q: int) -> ChainReport:
    """Evaluate every level of the chain inequality and its aggregation.

    gtables maps level L (2..k) to a G_L table with limit >= 2Lx.  At each
    level, over the admissible residues b (sums of L units mod q; other
    classes cannot carry L-fold progression mass), min_lhs is the least of

      lhs_L(b) = sum_{n <= 2Lx, n = b (q)} G_L(n),

    compared with rhs = x^L / (2^L phi(q)); phi(q) is the number of units
    mod q.  The final level's class 0 is the sum over the multiples of q.

    consistency_error checks the one class-sum routine that every lhs_L
    goes through.  The prime powers m <= 2x coprime to q, found apart from
    the class sums, are summed into their classes mod q by one fsum per
    class, and compared with psi(2x; q, a) from the class sums on the units
    a.  It is the largest relative gap between the two, found once in
    O(phi(q)) and the same at every level.  A right fold is the correctly
    rounded sum of the Lambda(m) that psi's class sum adds, so it reads
    exactly 0; a wrong fold or class sum shows as a gap, which the tests
    hold under 5u (u = 2^-53).

    Every class sum is one psi_progression call, made only for the
    classes read: psi on the units, each level's admissible residues and
    the final class 0.  Past the one O(pi*(2x)) fold, each level costs one
    fsum per admissible class over the G_L table up to 2Lx.
    """
    if q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    levels = sorted(gtables)
    if not levels or levels[0] != 2 or levels != list(range(2, levels[-1] + 1)):
        raise ValueError(f"need contiguous levels 2..k, got {levels}")
    k = levels[-1]
    for level in levels:
        need = int(2 * level * x)
        if gtables[level].limit < need:
            raise ValueError(
                f"G_{level} table limit {gtables[level].limit} < 2*{level}*x = {need}"
            )
        if gtables[level].k != level:
            raise ValueError(f"table at level {level} was built with k = {gtables[level].k}")
    if not 0 < 2 * x <= table.limit:
        raise ValueError(f"need 0 < 2x <= sieve limit, got 2x = {2 * x}")

    coprime, *sumsets = unit_sumsets(q, k)
    phi_q = len(coprime)
    units = np.array(coprime)
    # psi(2x; q, a) on the units, against Lambda(m) over the prime powers
    # m <= 2x coprime to q, folded into their classes mod q by one fsum per
    # class; both are sums of Lambda >= 0
    m_top = int(math.floor(2 * x))
    psi_units = np.array([psi_progression(table, m_top, q, a) for a in coprime])
    powers = np.flatnonzero(table.values[: m_top + 1])
    powers = powers[np.gcd(powers, q) == 1]
    powers = powers[np.argsort(powers % q)]
    ends = np.searchsorted(powers % q, units, side="right")
    fold = np.array(list(map(exact_sum, np.split(table.values[powers], ends[:-1]))))
    consistency = float(np.max(np.abs(fold - psi_units) / np.fmax(fold, psi_units).clip(1e-300)))

    report_levels = []
    for level, residues in zip(range(2, k + 1), sumsets):
        rhs = x**level / (2.0**level * phi_q)
        top = int(math.floor(2 * level * x))
        min_lhs = min(psi_progression(gtables[level], top, q, b) for b in residues)
        report_levels.append(ChainLevel(
            level=level,
            rhs=rhs,
            min_lhs=min_lhs,
            margin=min_lhs - rhs,
            consistency_error=consistency,
        ))

    # the last level's class 0: the multiples of q up to top = 2kx
    final_lhs = psi_progression(gtables[k], top, q, 0)
    final_rhs = x**k / (2.0**k * phi_q)
    max_g = float(np.max(gtables[k].values[: top + 1]))
    return ChainReport(
        x=x, q=q, phi_q=phi_q, levels=tuple(report_levels),
        final_lhs=final_lhs, final_rhs=final_rhs, max_g=max_g,
    )


@dataclass(frozen=True)
class MaxGkScan:
    max_g: float
    argmax: int
    primorial_bound: float
    loglog_reference: float
    q: int
    phi_q: int
    fallback_applied: bool


def max_gk_scan(gtable: GoldbachTable, x: float, q: Primorial) -> MaxGkScan:
    """max G_k(n) over n <= 2kx, its primorial lower bound, and x^(k-1) loglog x.

    The bound is (x^(k-1) / 2^(k+1)) q/phi(q).  A q >= 2x, where the
    construction is vacuous, is replaced by the default-cutoff primorial
    and flagged.
    """
    k = gtable.k
    scan_top = int(math.floor(2 * k * x))
    if gtable.limit < scan_top:
        raise ValueError(f"table limit {gtable.limit} < 2kx = {scan_top}")
    fallback = q.value >= 2 * x
    if fallback:
        q = primorial(default_cutoff(x))
    values = gtable.values[: scan_top + 1]
    argmax = int(np.argmax(values))
    bound = x ** (k - 1) / 2.0 ** (k + 1) * (q.value / q.phi)
    reference = x ** (k - 1) * math.log(math.log(x))
    return MaxGkScan(
        max_g=float(values[argmax]),
        argmax=argmax,
        primorial_bound=bound,
        loglog_reference=reference,
        q=q.value,
        phi_q=q.phi,
        fallback_applied=fallback,
    )


def mertens_ratio(y: float) -> tuple[float, float]:
    """(prod_{p < y} (1 - 1/p)^-1, e^gamma log y).

    The product equals q/phi(q) for the primorial with cutoff y; its ratio
    to the reference tends to 1.  The product itself is nondecreasing in
    y; the ratio is not monotone (the reference grows between primes).
    """
    if not y >= 3:
        raise ValueError(f"need y >= 3, got {y}")
    q = primorial(y)
    product = 1.0
    for p in q.primes:
        product *= p / (p - 1.0)
    return product, math.exp(EULER_GAMMA) * math.log(y)

"""Zeta-zero ingestion and the oscillatory term in the average order.

A ZeroTable holds ascending positive ordinates gamma of nontrivial zeros
rho = 1/2 + i gamma (conjugates are folded into each term as 2 Re).  On
top of it: the oscillatory sum

    H_k(X) = -k sum_rho X^(rho+k-1) / (rho (rho+1) ... (rho+k-1)),

per-zero coefficients r_k(rho) = -k / (rho ... (rho+k-2)) and their
algebraic consistency with H_k, truncated explicit formulas for the Riesz
means psi_j, and residual reports for S_k(X) - X^k/k! - H_k(X).

Every zero sum here (hk_zero_sum, residual_report, psi1_explicit,
psij_explicit) goes through one kernel, _zero_sums, which takes a list of
X, so a residual report makes one pass over the table for its whole grid.
"""

import math
import os
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .accum import check_bound, exact_sum
from .goldbach import PrefixSums
from .mangoldt import ArrayResult, MangoldtTable, riesz_psi_j

# Logarithmic derivative of zeta at 0 and -1; the constant terms of the
# explicit formula for psi_1.
ZETA_LOGDERIV_0 = 1.8378770664093455  # log(2 pi)
ZETA_LOGDERIV_M1 = 1.9850537244054112

_BUNDLED_RESOURCE = "zeros100.txt"

# Exponent slack eps of the power normalization X^(k-1/2+eps) in residual reports.
RESIDUAL_EPS = 0.05


class ZeroFormatError(ValueError):
    """Malformed zero file; names the file and carries the 1-based offending line."""

    def __init__(self, message: str, line: int, source: str):
        super().__init__(f"{source}: line {line}: {message}")
        self.line = line


@dataclass(frozen=True, eq=False)
class ZeroTable(ArrayResult):
    """Strictly increasing positive ordinates, with a provenance note."""

    ordinates: np.ndarray = field(repr=False)
    source: str = "unspecified"

    def __len__(self) -> int:
        return len(self.ordinates)

    @property
    def gamma_max(self) -> float:
        return float(self.ordinates[-1])

    def inverse_square_sum(self) -> float:
        """sum over the table of gamma^-2 (enters the size bound on H_k)."""
        return exact_sum(1.0 / self.ordinates**2)


def _parse_zero_lines(lines, source: str) -> ZeroTable:
    values: list[float] = []
    previous = None
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            gamma = float(text)
        except ValueError:
            raise ZeroFormatError(f"not a decimal ordinate: {text!r}", lineno, source) from None
        if not math.isfinite(gamma) or gamma <= 0:
            raise ZeroFormatError(f"ordinate must be positive, got {text}", lineno, source)
        if previous is not None and gamma <= previous:
            raise ZeroFormatError(
                f"ordinates must be strictly increasing ({gamma} after {previous})",
                lineno,
                source,
            )
        values.append(gamma)
        previous = gamma
    if not values:
        raise ValueError(f"no ordinates found in {source}")
    return ZeroTable(ordinates=np.array(values), source=source)


def load_zeros(source) -> ZeroTable:
    """Parse a zero-ordinate file: one decimal per line, '#' comments.

    ``source`` may be a path or an open text/binary stream.  Raises
    ZeroFormatError (with line number) on malformed, non-positive, or
    non-monotone input, and ValueError on an empty table.
    """
    if hasattr(source, "read"):
        payload = source.read()
        if isinstance(payload, bytes):
            payload = payload.decode("ascii")
        name = getattr(source, "name", "<stream>")
        return _parse_zero_lines(payload.splitlines(), str(name))
    path = os.fspath(source)
    with open(path, "r", encoding="ascii") as handle:
        return _parse_zero_lines(handle.read().splitlines(), path)


def bundled_zeros() -> ZeroTable:
    """The packaged table of the first 100 ordinates."""
    payload = resources.files("goldbachkit.data").joinpath(_BUNDLED_RESOURCE).read_text()
    return _parse_zero_lines(payload.splitlines(), f"bundled:{_BUNDLED_RESOURCE}")


def _denominator(gamma: float, k: int) -> complex:
    rho = complex(0.5, gamma)
    den = rho
    for j in range(1, k):
        den *= rho + j
    return den


def _power_term(x: float, k: int, gamma: float) -> complex:
    # X^(rho+k-1) written as X^(k-1/2) e^(i gamma log X): one explicit
    # branch instead of library complex powers.
    phase = gamma * math.log(x)
    return x ** (k - 0.5) * complex(math.cos(phase), math.sin(phase))


def _zero_sums(zeros: ZeroTable, k: int, xs) -> list[float]:
    """sum over the table of 2 Re[X^(rho+k-1) / (rho (rho+1) ... (rho+k-1))], at each X in xs.

    The one kernel of every zero sum here.  It reads the ordinates once,
    as Python floats, and forms rho (rho+1) ... (rho+k-1) once per
    ordinate and log X and X^(k-1/2) once per X; each term is then
    _power_term(X, k, gamma) / _denominator(gamma, k) with the same
    operations, so the bits do not depend on how many X share a call.
    Each sum is correctly rounded (fsum), so independent of the term
    order; an empty table gives 0.0.
    """
    terms = [(gamma, _denominator(gamma, k)) for gamma in zeros.ordinates.tolist()]
    sums = []
    for x in xs:
        log_x = math.log(x)
        scale = x ** (k - 0.5)
        total = []
        for gamma, den in terms:
            phase = gamma * log_x
            total.append(2.0 * (scale * complex(math.cos(phase), math.sin(phase)) / den).real)
        sums.append(math.fsum(total))
    return sums


def _hk_values(zeros: ZeroTable, k: int, xs) -> list[tuple[float, float]]:
    """hk_zero_sum at each X in xs, from one kernel pass and one inverse-square sum."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    for x in xs:
        if x < k:
            raise ValueError(f"need x >= k, got x = {x}")
    if len(zeros) == 0:
        raise ValueError("empty zero table")
    inverse_squares = zeros.inverse_square_sum()
    t = zeros.gamma_max
    density_tail = t ** (1 - k) * (
        math.log(t / (2 * math.pi)) / (k - 1) + 1.0 / (k - 1) ** 2
    )
    rows = []
    for x, zero_sum in zip(xs, _zero_sums(zeros, k, xs)):
        value = -k * zero_sum
        bound = (2.0 * k / math.factorial(k - 1)) * x ** (k - 0.5) * inverse_squares
        check_bound(f"|H_{k}({x})|", abs(value), bound)
        tail = (2.0 * k / (2 * math.pi)) * x ** (k - 0.5) * density_tail
        rows.append((value, tail))
    return rows


def hk_zero_sum(zeros: ZeroTable, k: int, x: float) -> tuple[float, float]:
    """(truncated H_k(x), tail estimate for the ordinates beyond the table).

    Each table entry contributes 2 Re[X^(rho+k-1) / (rho ... (rho+k-1))];
    terms are accumulated in ascending-gamma compensated order and scaled
    by -k.  The absolute bound
        |H_k| <= (2k/(k-1)!) X^(k-1/2) sum gamma^-2
    (from |rho| >= gamma, |rho+1| >= gamma, |rho+j| >= j) is checked on
    every call (BoundExceeded).  The tail estimate integrates gamma^-k
    against the standard zero-counting density log(gamma/2pi)/2pi from the
    last table entry; it is an estimate of the omitted mass, not a rigorous bound.
    """
    return _hk_values(zeros, k, [x])[0]


def granville_rk(k: int, gamma: float) -> complex:
    """r_k(rho) = -k / (rho (rho+1) ... (rho+k-2)) at rho = 1/2 + i gamma."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    return -k / _denominator(gamma, k - 1)


def rk_hk_consistency(k: int, gamma: float, x: float) -> tuple[complex, complex]:
    """Per-zero identity r_k(rho) X^(rho+k-1)/(rho+k-1) = -k X^(rho+k-1)/(rho...(rho+k-1)).

    Both sides are returned, computed through different groupings; they are
    algebraically identical and agree to a couple of ulps.
    """
    rho = complex(0.5, gamma)
    power = _power_term(x, k, gamma)
    lhs = granville_rk(k, gamma) * power / (rho + k - 1)
    rhs = -k * power / _denominator(gamma, k)
    return lhs, rhs


def psi1_explicit(zeros: ZeroTable, table: MangoldtTable, x: float) -> tuple[float, float]:
    """(explicit-formula value of psi_1(x), direct Riesz sum).

    psij_explicit at j = 1 plus its constants -log(2pi) x and c, the
    logarithmic derivative of zeta at -1: x^2/2 - sum_rho x^(rho+1)/(rho(rho+1))
    - log(2pi) x + c.  The zero sum is truncated to the table, so the
    difference from the direct value shrinks as the table grows.
    """
    if x < 2:
        raise ValueError(f"need x >= 2, got {x}")
    formula, direct = psij_explicit(zeros, table, 1, x)
    return formula - ZETA_LOGDERIV_0 * x + ZETA_LOGDERIV_M1, direct


def psij_explicit(zeros: ZeroTable, table: MangoldtTable, j: int, x: float) -> tuple[float, float]:
    """(truncated explicit formula for psi_j(x), direct Riesz sum), j >= 1.

    Formula: x^(j+1)/(j+1)! - sum_rho x^(rho+j)/(rho ... (rho+j)); the
    residual is of order x^j, so callers normalize by x^j.  Its leading
    term is the s = 0 residue -log(2pi) x^j / j! (ZETA_LOGDERIV_0), which
    the formula omits; psi1_explicit adds it at j = 1 together with the
    constant from s = -1.
    """
    if j < 1:
        raise ValueError(f"need j >= 1, got {j}")
    formula = x ** (j + 1) / math.factorial(j + 1) - _zero_sums(zeros, j + 1, [x])[0]
    direct = riesz_psi_j(table, j, x)
    return formula, direct


@dataclass(frozen=True)
class ResidualRow:
    x: int
    s_value: float
    main: float
    h_value: float
    residual: float
    normalized: float
    power_normalized: float


@dataclass(frozen=True)
class ResidualReport:
    """Per-X bookkeeping of S_k(X) - X^k/k! - H_k(X).

    normalized divides |residual| by X^(k-1) log^3 X; power_normalized by
    X^(k-1/2+eps) with eps = RESIDUAL_EPS.  The residual column is the exact
    float difference of the other three (identity by construction), and
    truncation_estimate is the zero-sum tail estimate at the largest grid
    point.
    """

    k: int
    eps: float
    rows: tuple[ResidualRow, ...]
    zeros_used: int
    truncation_estimate: float


def residual_report(prefix: PrefixSums, zeros: ZeroTable, x_grid) -> ResidualReport:
    """Evaluate the average-order residual on a grid of integer X (eps = RESIDUAL_EPS).

    Every grid point is range-checked first; then H_k comes from one
    zero-sum pass over the whole grid, each row exactly hk_zero_sum's
    value with its bound checked.
    """
    k = prefix.k
    xs = sorted(int(v) for v in x_grid)
    for x in xs:
        if not k <= x <= prefix.limit:
            raise ValueError(f"grid point {x} outside [{k}, {prefix.limit}]")
    hk = _hk_values(zeros, k, [float(x) for x in xs]) if xs else []
    rows = []
    tail_last = 0.0
    for x, (h_val, tail_last) in zip(xs, hk):
        s_val = float(prefix.sums[x])
        main = float(x) ** k / math.factorial(k)
        residual = s_val - main - h_val
        rows.append(ResidualRow(
            x=x,
            s_value=s_val,
            main=main,
            h_value=h_val,
            residual=residual,
            normalized=abs(residual) / (float(x) ** (k - 1) * math.log(x) ** 3),
            power_normalized=abs(residual) / float(x) ** (k - 0.5 + RESIDUAL_EPS),
        ))
    return ResidualReport(k=k, eps=RESIDUAL_EPS, rows=tuple(rows),
                          zeros_used=len(zeros), truncation_estimate=tail_last)


def write_residual_csv(report: ResidualReport, stream) -> None:
    """CSV rows X,S_k,main,H_k,residual,normalized (17 significant digits)."""
    stream.write("X,S_k,main,H_k,residual,normalized\n")
    for row in report.rows:
        stream.write(
            f"{row.x},{row.s_value:.17g},{row.main:.17g},{row.h_value:.17g},"
            f"{row.residual:.17g},{row.normalized:.17g}\n"
        )

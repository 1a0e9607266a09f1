"""Command-line front door: deterministic CSV/JSON emission for the toolkit.

Every run is seed-free and single-threaded, so identical configurations
produce byte-identical output.  Floats are printed with 17 significant
digits (round-trip exact for doubles).  Structured log lines go to stderr
as ``level=... op=... msg=...``.

``-`` is stdout for every output flag; ``gk --method both`` prints both
tables there.  An empty path is a flag error for every path flag, and so is
an output path that is a directory or lies in a missing one, and so are two
path flags that name one file, all refused before any work; so is an output
file that still cannot be opened.

A rule that reads one flag is that flag's argparse ``type`` in
``build_parser``, so the parser refuses the value before any work; the
command bodies keep only the rules that relate two flags or hold a flag to
a library size cap.

Exit codes: 0 success, 1 validation error (bad flags, a zero file that cannot
be read or parsed, grid out of range), 2 computation error.
"""

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext

from . import circle, goldbach, identities, mangoldt, omega, zeros
from .accum import max_discrepancy

ZEROS_ENV_VAR = "GOLDBACHKIT_ZEROS"


class CliError(Exception):
    """Configuration problem detected before or during validation."""


def _log(level: str, op: str, msg: str) -> None:
    print(f"level={level} op={op} msg={msg}", file=sys.stderr)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        _log("error", "cli", message)
        raise SystemExit(1)


def _flag(convert, rule: str, holds):
    """An argparse ``type``: ``convert`` the text, refused unless ``holds`` (NaN never does)."""
    def parse(text):
        value = convert(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"need {rule}, got {value}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value: 'x'" names it
    return parse


def _check_path_flags(args) -> None:
    """Path flags that cannot name a usable file are flag errors, before any work.

    An empty path names no file.  An output path may not be a directory
    (``gk --method both`` takes it as a prefix, so only its directory is
    checked there) and its directory must exist.  No two paths may resolve
    to one file, counting the zero table that GOLDBACHKIT_ZEROS names: the
    later write would destroy the earlier output, or the input.  ``-`` on
    an output flag is stdout, not a file.
    """
    named = {}  # realpath -> the flag that named it
    if "zeros" in vars(args) and args.zeros is None and (env := os.environ.get(ZEROS_ENV_VAR)):
        named[os.path.realpath(env)] = ZEROS_ENV_VAR
    for flag in ("zeros", "output", "maxg_output", "arc_csv"):
        path = getattr(args, flag, None)
        name = f"--{flag.replace('_', '-')}"
        if path == "":
            raise CliError(f"{name} needs a file name, got an empty string")
        if path is None or (path == "-" and flag != "zeros"):
            continue
        real = os.path.realpath(path)
        if real in named:
            raise CliError(f"{named[real]} and {name} name one file, {path!r}")
        named[real] = name
        if flag == "zeros":
            continue
        if os.path.isdir(path) and getattr(args, "method", None) != "both":
            raise CliError(f"{name} {path!r} is a directory")
        folder = os.path.dirname(path)
        if folder and not os.path.isdir(folder):
            raise CliError(f"{name} {path!r}: no directory {folder!r}")


def _open_output(path):
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="ascii")
    except OSError as exc:
        raise CliError(f"cannot write {path!r}: {exc.strerror}") from None


def _write_table(path, header: str, lines) -> None:
    """Write ``header`` and the newline-terminated ``lines`` to ``path`` (stdout for None or -)."""
    with _open_output(path) as out:
        out.write(header + "\n")
        out.writelines(lines)


def _parse_grid(spec: str, check=None) -> list[int]:
    """The distinct integers round(start ratio^i) <= stop, ascending.

    The loop takes one step per power below stop + 1/2, about
    s = ln((stop + 1/2) / start) / ln(ratio) of them, yet only the
    stop - start + 1 integers of [start, stop] can be points.  A grid with
    ceil(s) > stop - start + 1 must repeat points, and a ratio just above 1
    makes s huge (2:100:1.0000000001 would take 4e10 steps); such a grid is
    a flag error, refused before the loop.  So is any bound the caller
    passes as ``check(start, stop)``: the first point is start and no
    point exceeds stop, so the bounds on the points hold for the grid
    before a point is built.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise CliError(f"grid must be start:stop:ratio, got {spec!r}")
    try:
        start, stop, ratio = int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError as exc:
        raise CliError(f"bad grid component in {spec!r}: {exc}") from None
    if start < 1 or stop < start:
        raise CliError(f"grid needs 1 <= start <= stop, got {spec!r}")
    if not ratio > 1.0:
        raise CliError(f"geometric grid ratio must exceed 1, got {ratio}")
    steps = math.ceil(math.log((stop + 0.5) / start) / math.log(ratio))
    if steps > stop - start + 1:
        raise CliError(f"grid {spec!r} takes {steps} steps, but [{start}, {stop}] holds only "
                       f"{stop - start + 1} integers; raise the ratio")
    if check is not None:
        check(start, stop)
    values: list[int] = []
    current = float(start)
    while current <= stop + 0.5:
        point = int(round(current))
        if point <= stop and (not values or point != values[-1]):
            values.append(point)
        current *= ratio
    return values


def _resolve_zero_table(path_arg):
    path = path_arg if path_arg is not None else os.environ.get(ZEROS_ENV_VAR)
    if not path:
        table = zeros.bundled_zeros()
        _log("info", "zeros", f"using bundled table ({len(table)} ordinates)")
        return table
    try:
        return zeros.load_zeros(path)
    except FileNotFoundError:
        raise CliError(f"zero file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"zero file {path} is not ASCII: {exc}") from None
    except (OSError, ValueError) as exc:  # a directory, no ordinates, ZeroFormatError
        raise CliError(str(exc)) from None


def _cmd_sieve(args) -> int:
    table = mangoldt.build_mangoldt(args.limit)
    _write_table(args.output, "n,lambda",
                 (f"{n},{_fmt(table.values[n])}\n" for n in range(1, args.limit + 1)))
    _log("info", "sieve", f"limit={args.limit} psi={_fmt(mangoldt.chebyshev_psi(table, args.limit))}")
    return 0


def _build_tables(sieve_limit: int, wanted):
    """Sieve once, then build one G_k table per (method, k, limit) in ``wanted``.

    Each request is checked, in order, before anything is sieved: a direct
    one against the oracle's cap (a flag error), an FFT one by
    gk_fft_length, so an oversized request allocates nothing.
    """
    for method, k, limit in wanted:
        if method == "fft":
            goldbach.gk_fft_length(k, limit)
        elif limit > goldbach.DIRECT_ORACLE_CAP:
            raise CliError(
                f"direct method capped at {goldbach.DIRECT_ORACLE_CAP}; use --method fft"
            )
    sieve = mangoldt.build_mangoldt(sieve_limit)
    build = {"direct": goldbach.gk_direct, "fft": goldbach.gk_fft}
    return sieve, [build[method](sieve, k, limit) for method, k, limit in wanted]


def _cmd_gk(args) -> int:
    both = args.method == "both"
    methods = ("direct", "fft") if both else (args.method,)
    _, tables = _build_tables(args.limit, [(m, args.k, args.limit) for m in methods])
    for tab in tables:
        path = args.output
        if both and path not in (None, "-"):  # one file per method, else both on stdout
            path = f"{path}.{tab.method}.csv"
        _write_table(path, f"# k={tab.k} N={tab.limit} method={tab.method}\nn,value",
                     (f"{n},{_fmt(tab.values[n])}\n" for n in range(tab.k, tab.limit + 1)))
    if both:
        direct, fft = tables
        scale = float(abs(direct.values).max())
        print(f"max_discrepancy,{_fmt(max_discrepancy(direct.values, fft.values, scale=scale))}")
    return 0


def _cmd_sk(args) -> int:
    _, (table,) = _build_tables(args.limit, [(args.method, args.k, args.limit)])
    prefix = goldbach.sk_prefix(table)
    _write_table(args.output, "X,S_k",
                 (f"{x},{_fmt(prefix.sums[x])}\n" for x in range(table.k, table.limit + 1)))
    return 0


def _cmd_residual(args) -> int:
    def check(start, stop):
        if start < args.k:
            raise CliError(f"grid point {start} below k = {args.k}")
        if stop > args.limit:
            raise CliError(f"grid stop {stop} exceeds sieve limit {args.limit}")
        goldbach.gk_fft_length(args.k, args.limit)

    grid = _parse_grid(args.grid, check)
    zero_table = _resolve_zero_table(args.zeros)
    _, (gtable,) = _build_tables(args.limit, [("fft", args.k, args.limit)])
    prefix = goldbach.sk_prefix(gtable)
    report = zeros.residual_report(prefix, zero_table, grid)
    with _open_output(args.output) as out:
        zeros.write_residual_csv(report, out)
    _log("info", "residual",
         f"k={args.k} zeros={report.zeros_used} tail={_fmt(report.truncation_estimate)}")
    return 0


def _cmd_zeros_info(args) -> int:
    table = _resolve_zero_table(args.zeros)
    print(f"count,{len(table)}")
    print(f"first,{_fmt(table.ordinates[0])}")
    print(f"last,{_fmt(table.gamma_max)}")
    print(f"inverse_square_sum,{_fmt(table.inverse_square_sum())}")
    print(f"source,{table.source}")
    return 0


def _cmd_circle_check(args) -> int:
    n = args.n
    nodes = args.nodes if args.nodes is not None else 8 * n
    if nodes < 4 * n:
        raise CliError(f"{nodes} nodes would alias; need at least 4N = {4 * n}")
    circle.CircleGrid(n=n, nodes=nodes)  # refuses too many nodes; allocates nothing
    sieve = mangoldt.build_mangoldt(8 * n)
    quad, coeff = circle.cauchy_psi_recovery(sieve, n, nodes)
    power_sum, reference = circle.minor_arc_l2(sieve, n)
    lemma = circle.lemma1_check(args.k, n, 0.0)
    classification = circle.arc_classify(n, args.k, args.delta)
    diagnostics = {
        "n": n,
        "nodes": nodes,
        "cauchy_quadrature": quad,
        "cauchy_coefficient": coeff,
        "cauchy_rel_gap": abs(quad - coeff) / coeff if coeff else 0.0,
        "minor_arc_power_sum": power_sum,
        "minor_arc_reference": reference,
        "minor_arc_ratio": power_sum / reference,
        "lemma_sum_nk_ratio": lemma.ratio,
        "lemma_sum_nk_budget": lemma.budget,
        "major_arc_fraction": classification.major_fraction,
        "major_arc_measure": classification.analytic_measure,
        "fz_identity_max_error": goldbach.fz_powerseries_identity(sieve, args.k, min(n, 512)),
    }
    with _open_output(args.output) as out:
        json.dump(diagnostics, out, indent=2, sort_keys=True)
        out.write("\n")
    if args.arc_csv is not None:
        _write_table(args.arc_csv, "theta,re,im,abs,arc_class",
                     (f"{_fmt(theta)},{_fmt(re_v)},{_fmt(im_v)},{_fmt(abs_v)},{label}\n"
                      for theta, re_v, im_v, abs_v, label
                      in classification.rows(sieve)))
    return 0


def _primorial_exceeds(y: float, bound: int) -> bool:
    """Whether the primes p < y, i.e. p <= ceil(y) - 1, multiply past ``bound``.

    Sieving stops at c = max(41, bound.bit_length()): theta(c) > c(1 - 1/log c)
    > c log 2 for c >= 41 (Rosser and Schoenfeld 1962), so the primes <= c
    already multiply past 2^c > bound.  y meets c before ceil, which raises on inf.
    """
    cap = max(41, bound.bit_length())
    top = cap if y > cap else math.ceil(y) - 1
    return math.prod(mangoldt.primes_up_to(top).tolist()) > bound


def _cmd_omega_scan(args) -> int:
    k = args.k

    def check(start, stop):
        if start < 2:
            raise CliError(f"x-grid needs x >= 2, got {start}")
        try:  # the largest of the G tables
            goldbach.gk_fft_length(k, 2 * k * stop)
        except ValueError as exc:
            raise ValueError(f"x-grid stop {stop}: {exc}") from None

    grid = _parse_grid(args.x_grid, check)
    x_max = grid[-1]
    # a q beyond the largest G table splits it into classes of at most one entry
    if args.y is not None and _primorial_exceeds(args.y, 2 * k * x_max):
        raise CliError(f"q = product of the primes below y = {args.y:g} exceeds "
                       f"2k*x_max = {2 * k * x_max}, the largest G table's limit; lower --y")
    sieve, tables = _build_tables(
        2 * k * x_max, [("fft", level, 2 * level * x_max) for level in range(2, k + 1)]
    )
    gtables = {table.k: table for table in tables}
    chain_lines = []
    maxg_lines = []
    for x in grid:
        y = args.y if args.y is not None else omega.default_cutoff(x)
        q = mangoldt.primorial(y)
        if q.value >= 2 * x:
            _log("warning", "omega-scan",
                 f"q={q.value} >= 2x={2 * x}: progression classes mostly empty")
        if k % 2 and q.value % 2 == 0:  # an odd number of units sums to an odd class
            _log("warning", "omega-scan", f"k={k} is odd and q={q.value} even: the final "
                                          f"row's class 0 is not a sum of k units mod q")
        report = omega.chain_check(sieve, gtables, float(x), q.value)
        head = f"{x},{report.q},{report.phi_q}"
        for level in report.levels:
            chain_lines.append(f"{head},{level.level},{_fmt(level.min_lhs)},"
                               f"{_fmt(level.rhs)},{_fmt(level.margin)}\n")
        chain_lines.append(f"{head},final,{_fmt(report.final_lhs)},{_fmt(report.final_rhs)},"
                           f"{_fmt(report.final_lhs - report.final_rhs)}\n")
        scan = omega.max_gk_scan(gtables[k], float(x), q)
        if scan.fallback_applied:
            _log("warning", "omega-scan",
                 f"maxG bound at x={x} uses the default q={scan.q}, not q={q.value}")
        maxg_lines.append(f"{x},{scan.q},{_fmt(scan.max_g)},{_fmt(scan.primorial_bound)},"
                          f"{_fmt(scan.loglog_reference)}\n")
    _write_table(args.output, "x,q,phi_q,level,min_lhs,rhs,margin", chain_lines)
    _write_table(args.maxg_output, "x,q,maxG,bound,loglog_ref", maxg_lines)
    return 0


def _cmd_identities(args) -> int:
    rows = identities.run_identity_suite(args.kmax)
    failures = 0
    for name, ok in rows:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    if failures:
        _log("error", "identities", f"{failures} identity group(s) failed")
        return 2
    return 0


def _cmd_singular_series(args) -> int:
    try:
        query = goldbach.SingularSeriesQuery(k=args.k, n=args.n, prime_cutoff=args.cutoff)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    value, tail = goldbach.singular_series(query)
    _write_table(args.output, "k,n,P,value,tail_bound",
                 [f"{args.k},{args.n},{_fmt(args.cutoff)},{_fmt(value)},{_fmt(tail)}\n"])
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="goldbachkit",
                     description="Weighted Goldbach sums, zero-term oscillation, "
                                 "and circle-method diagnostics")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    k_flag = _flag(int, "k >= 2", lambda k: k >= 2)
    limit_flag = _flag(int, "limit >= 2", lambda limit: limit >= 2)

    p = sub.add_parser("sieve", help="dump Lambda(n) up to a limit")
    p.add_argument("--limit", type=limit_flag, required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("gk", help="build G_k tables")
    p.add_argument("--k", type=k_flag, required=True)
    p.add_argument("--limit", type=limit_flag, required=True)
    p.add_argument("--method", choices=("direct", "fft", "both"), default="fft")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_gk)

    p = sub.add_parser("sk", help="prefix sums S_k(X)")
    p.add_argument("--k", type=k_flag, required=True)
    p.add_argument("--limit", type=limit_flag, required=True)
    p.add_argument("--method", choices=("direct", "fft"), default="fft")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_sk)

    p = sub.add_parser("residual", help="S_k(X) - X^k/k! - H_k(X) report")
    p.add_argument("--k", type=k_flag, required=True)
    p.add_argument("--limit", type=limit_flag, required=True)
    p.add_argument("--grid", required=True, help="geometric grid start:stop:ratio")
    p.add_argument("--zeros", default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_residual)

    p = sub.add_parser("zeros-info", help="describe a zero-ordinate table")
    p.add_argument("--zeros", default=None)
    p.set_defaults(func=_cmd_zeros_info)

    p = sub.add_parser("circle-check", help="contour recovery and arc diagnostics")
    p.add_argument("--n", type=_flag(int, "n >= 2", lambda n: n >= 2), required=True)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--k", type=k_flag, default=2)
    p.add_argument("--delta", type=_flag(float, "0 < delta < 1", lambda delta: 0 < delta < 1),
                   default=0.5)
    p.add_argument("--arc-csv", default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_circle_check)

    p = sub.add_parser("omega-scan", help="chain inequality and max-G scan")
    p.add_argument("--k", type=k_flag, default=2)
    p.add_argument("--x-grid", required=True, help="geometric grid start:stop:ratio")
    p.add_argument("--y", type=_flag(float, "y >= 2", lambda y: y >= 2), default=None,
                   help="prime cutoff for q")
    p.add_argument("--output", default=None)
    p.add_argument("--maxg-output", default=None)
    p.set_defaults(func=_cmd_omega_scan)

    p = sub.add_parser("identities", help="exact combinatorial identity suite")
    p.add_argument("--kmax", type=_flag(int, "kmax >= 2", lambda kmax: kmax >= 2), default=25)
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("singular-series", help="local-density Euler product")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cutoff", type=float, default=goldbach.DEFAULT_PRIME_CUTOFF)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_singular_series)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_path_flags(args)
        return args.func(args)
    except CliError as exc:
        _log("error", args.command, str(exc))
        return 1
    except Exception as exc:  # computation failure
        _log("error", args.command, f"{type(exc).__name__}: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Output checks: each public call's result against the benchmark's references.

A check returns (ok, reason, accuracy).  ``accuracy`` holds the counts the
traced run reports (mismatches, scaled errors, structural nonzeros, gaps).
Tolerances come from reference.py, where each is derived; the few stated
here carry their reason beside them.  A check never changes what it is
given and never re-runs the program.
"""

import csv
import io
import math

import numpy as np

from reference import U, units

OK = (True, "", {})


def _close(value, target, tol) -> bool:
    return math.isfinite(value) and abs(value - target) <= tol


def _fail(reason, acc=None):
    return False, reason, acc or {}


def check_build_mangoldt(op, ctx):
    (limit,) = op.args
    values = op.out.values
    ref = ctx["lam"][: limit + 1]
    if values.shape != ref.shape:
        return _fail(f"shape {values.shape} != {ref.shape}", {"mismatches": limit + 1})
    mismatches = int(np.count_nonzero(values != ref))
    acc = {"mismatches": mismatches}
    if mismatches:
        return _fail(f"{mismatches} Lambda entries differ from the reference sieve", acc)
    return True, "", acc


def check_gk_fft(op, ctx):
    """Sampled G_k(n) within the FFT round-off bound plus k U of the reference,
    and exact zeros below n = k, as the GoldbachTable docstring promises.

    The sampled n include k <= n < 2k, where G_k is 0 only in exact
    arithmetic (Lambda(1) = 0): those are held to the FFT bound like any
    other entry.  A value off the reference and a nonzero below n = k are
    told apart by their reasons, so that only the second can be the
    failure the seed commit already had (baseline.json).
    """
    sieve, k, limit = op.args
    ref = ctx["refs"]["gk"][f"{k}:{limit}"]
    values = op.out.values
    scale = float(np.max(np.abs(values)))
    worst = 0.0
    bad = []
    for n, target in zip(ref["points"], ref["values"]):
        err = abs(float(values[n]) - target)
        worst = max(worst, err)
        if not err <= ref["tol"] + k * U * abs(target):
            bad.append(n)
    nonzeros = int(np.count_nonzero(values[:k]))
    acc = {"max_abs_err": worst / scale, "structural_nonzeros": nonzeros}
    if bad:
        return _fail(f"G_{k} off the reference beyond the FFT bound at n = {bad}", acc)
    if nonzeros:
        return _fail(f"structural zeros of G_{k}: {nonzeros} of n < {k} are not exactly 0", acc)
    return True, "", acc


def check_sk_prefix(op, ctx):
    """S_k(X) against fsum of the table, and increment(x) against G_k(x).

    Neumaier summation leaves |(hi+lo) - S| <= 2U|S| + 4 n U^2 sum|G|
    (Higham 2002, sec. 4.3); the fsum reference adds U/2 |S|.  increment()
    is (hi[x]-hi[x-1]) + (lo[x]-lo[x-1]); the first difference is exact
    (Fast2Sum), the compensation lo carries at most x U^2 sum|G| of
    accumulated rounding, and the final additions 2U |G(x)|.
    """
    (table,) = op.args
    prefix = op.out
    values = table.values
    run = next(r for r in ctx["inputs"]["runs"] if r["k"] == table.k)
    for x in run["prefix_points"]:
        head = values[: x + 1]
        exact = math.fsum(head.tolist())
        magnitude = math.fsum(np.abs(head).tolist())
        tol = 3 * U * abs(exact) + 4 * x * U * U * magnitude
        if not _close(float(prefix.sums[x]), exact, tol):
            return _fail(f"S_{table.k}({x}) = {prefix.sums[x]!r} differs from fsum {exact!r}")
    scale = float(np.max(np.abs(values)))
    total = float(np.sum(np.abs(values)))
    worst = 0.0
    ok = True
    for x in sorted(set(run["g_points"]) | set(run["grid"])):
        err = abs(prefix.increment(x) - float(values[x]))
        worst = max(worst, err)
        ok &= err <= 2 * U * abs(float(values[x])) + 2 * x * U * U * total
    acc = {"max_increment_err": worst / scale}
    if not ok:
        return _fail("increment(x) differs from G_k(x) beyond the compensation bound", acc)
    return True, "", acc


def check_residual_report(op, ctx):
    """Each row: S_k taken from the prefix, the main term X^k/k!, H_k against
    the polar-form reference, and the residual the exact float difference
    of the other three; normalizations to 8U; the tail estimate to 16U."""
    prefix, zeros_table, grid = op.args
    report = op.out
    k = prefix.k
    ref = ctx["refs"]["hk"][str(k)]
    if [row.x for row in report.rows] != sorted(grid):
        return _fail("rows do not follow the requested grid")
    if report.zeros_used != len(zeros_table):
        return _fail(f"zeros_used {report.zeros_used} != {len(zeros_table)}")
    for row, (h_ref, h_tol) in zip(report.rows, ref["rows"]):
        x = row.x
        main = x**k / math.factorial(k)
        if row.s_value != float(prefix.sums[x]):
            return _fail(f"S_k({x}) is not the prefix value")
        if not _close(row.main, main, 2 * U * main):
            return _fail(f"main term at X={x}: {row.main!r} != {main!r}")
        if not _close(row.h_value, h_ref, h_tol):
            return _fail(f"H_{k}({x}) = {row.h_value!r}, reference {h_ref!r} +- {h_tol:.3g}")
        if row.residual != row.s_value - row.main - row.h_value:
            return _fail(f"residual at X={x} is not S - main - H")
        norm = abs(row.residual) / (float(x) ** (k - 1) * math.log(x) ** 3)
        power = abs(row.residual) / float(x) ** (k - 0.5 + report.eps)
        if not (_close(row.normalized, norm, 8 * U * norm)
                and _close(row.power_normalized, power, 8 * U * power)):
            return _fail(f"normalized residuals at X={x} disagree")
    if not _close(report.truncation_estimate, ref["tail"], 16 * U * ref["tail"]):
        return _fail("truncation estimate differs from the density tail")
    return OK


def check_write_residual_csv(op, ctx):
    """The CSV reads back to the report's values bit for bit (17 digits)."""
    report, stream = op.args
    rows = list(csv.reader(io.StringIO(stream.getvalue())))
    if rows[0] != ["X", "S_k", "main", "H_k", "residual", "normalized"]:
        return _fail(f"header {rows[0]}")
    if len(rows) - 1 != len(report.rows):
        return _fail(f"{len(rows) - 1} data rows for {len(report.rows)} report rows")
    for line, row in zip(rows[1:], report.rows):
        expect = [row.s_value, row.main, row.h_value, row.residual, row.normalized]
        if int(line[0]) != row.x or [float(v) for v in line[1:]] != expect:
            return _fail(f"row X={row.x} does not round-trip")
    return OK


def check_cauchy_psi_recovery(op, ctx):
    quad, coeff = op.out
    refs = ctx["refs"]
    psi_n = refs["psi_n"]
    gap = abs(quad - coeff) / coeff
    acc = {"rel_gap": gap}
    if not _close(coeff, psi_n, U * psi_n):
        return _fail(f"coefficient {coeff!r} != fsum psi(N) {psi_n!r}", acc)
    if not _close(quad, psi_n, refs["cauchy_tol"] + U * psi_n):
        return _fail(f"quadrature off psi(N) by {abs(quad - psi_n):.3g} > {refs['cauchy_tol']:.3g}", acc)
    return True, "", acc


def check_minor_arc_l2(op, ctx):
    """Parseval mass against an fsum of (Lambda-1)^2 R^(2m) (4U: each term
    is a power within 1 ulp and two products)."""
    sieve, n = op.args
    power_sum, reference = op.out
    target = ctx["refs"]["minor_power_sum"]
    if not _close(power_sum, target, 4 * U * target):
        return _fail(f"power sum {power_sum!r} != {target!r}")
    if not _close(reference, n * math.log(n), 2 * U * n * math.log(n)):
        return _fail("reference N log N wrong")
    return OK


def check_lemma1_check(op, ctx):
    ref = ctx["refs"]["lemma"]
    res = op.out
    if res.budget != ref["budget"]:
        return _fail(f"budget {res.budget} != sum |a_j| = {ref['budget']}")
    if not _close(res.ratio, ref["ratio"], ref["ratio_tol"]):
        return _fail(f"ratio {res.ratio!r} != exact {ref['ratio']!r}")
    if not _close(res.ratio, res.difference / res.comparator, 4 * U * res.ratio):
        return _fail("ratio is not difference / comparator")
    return OK


def check_arc_classify(op, ctx):
    """Threshold and analytic measure against the arccosine route; the node
    fraction within 2/M of the measure (an arc covers its length times M
    nodes, give or take one at each end)."""
    refs = ctx["refs"]
    cls = op.out
    nodes = cls.grid.nodes
    if not _close(cls.threshold, refs["threshold"], 2 * U * refs["threshold"]):
        return _fail("threshold differs")
    if not _close(cls.analytic_measure, refs["measure"], refs["measure_tol"]):
        return _fail(f"measure {cls.analytic_measure!r} != {refs['measure']!r}")
    if cls.major_fraction != np.count_nonzero(cls.is_major) / nodes:
        return _fail("major fraction is not the flagged node count")
    if abs(cls.major_fraction - refs["measure"]) > 2.0 / nodes:
        return _fail("node fraction disagrees with the arc measure")
    return OK


def check_fz_powerseries_identity(op, ctx):
    """The returned worst discrepancy is the program's own max_discrepancy at
    rel = 1e-9, which is <= 1e-9 exactly when every coefficient agrees
    within tolerance (accum.max_discrepancy docstring)."""
    value = op.out
    if not (math.isfinite(value) and 0.0 <= value <= 1e-9):
        return _fail(f"coefficient identity discrepancy {value!r} > 1e-9")
    return OK


def check_arc_sweep(op, ctx):
    sieve, n, k, delta = op.args
    rows = op.out
    refs = ctx["refs"]
    nodes = 4 * n
    if len(rows) != nodes:
        return _fail(f"{len(rows)} rows for {nodes} nodes")
    threshold = refs["threshold"]
    r = 1.0 - 1.0 / n
    for idx, (re_ref, im_ref) in zip(ctx["inputs"]["node_points"], refs["f_nodes"]):
        theta, re_v, im_v, abs_v, label = rows[idx]
        if theta != idx / nodes:
            return _fail(f"node {idx} has theta {theta!r}")
        if not (_close(re_v, re_ref, refs["f_tol"]) and _close(im_v, im_ref, refs["f_tol"])):
            return _fail(f"F at node {idx} = {re_v!r}+{im_v!r}i, reference {re_ref!r}+{im_ref!r}i")
        if not _close(abs_v, math.hypot(re_v, im_v), 2 * U * abs_v):
            return _fail(f"|F| at node {idx} inconsistent")
        dist = abs(1.0 - r * complex(math.cos(2 * math.pi * theta), math.sin(2 * math.pi * theta)))
        # labels are only compared away from the boundary, where 8U of
        # rounding in |1 - z| cannot flip them
        if abs(dist - threshold) > 8 * U and label != ("major" if dist < threshold else "minor"):
            return _fail(f"node {idx} labelled {label}")
    return OK


def check_gy_lemma_diagnostic(op, ctx):
    sieve, x, h = op.args
    integral, reference = op.out
    ref = ctx["refs"]["gy"][str(h)]
    if not _close(integral, ref["exact"], ref["tol"]):
        return _fail(f"h={h}: trapezoid {integral!r} vs closed form {ref['exact']!r} +- {ref['tol']:.3g}")
    if not _close(reference, ref["reference"], 4 * U * ref["reference"]):
        return _fail(f"h={h}: reference x log^2 x / h wrong")
    return OK


def check_psi_integral_check(op, ctx):
    direct, integral = op.out
    target, tol_direct, tol_integral = ctx["refs"]["psi_integral"]
    if not _close(direct, target, tol_direct):
        return _fail(f"psi_j direct {direct!r} != fsum reference {target!r}")
    if not _close(integral, target, tol_integral):
        return _fail(f"integral {integral!r} != psi_j {target!r} +- {tol_integral:.3g}")
    return OK


def _check_explicit(op, ctx, j, x):
    formula, direct = op.out
    ref_formula, tol, ref_direct = ctx["refs"]["explicit"][f"{j}:{x}"]
    if not _close(formula, ref_formula, tol):
        return _fail(f"j={j} x={x}: formula {formula!r} != {ref_formula!r} +- {tol:.3g}")
    # direct Riesz sum: terms are positive, each within (j + 1) U, fsum exact
    if not _close(direct, ref_direct, 2 * (j + 2) * U * ref_direct):
        return _fail(f"j={j} x={x}: direct {direct!r} != {ref_direct!r}")
    return OK


def check_psi1_explicit(op, ctx):
    zeros_table, sieve, x = op.args
    return _check_explicit(op, ctx, 1, x)


def check_psij_explicit(op, ctx):
    zeros_table, sieve, j, x = op.args
    return _check_explicit(op, ctx, j, x)


def check_bk_decomposition_check(op, ctx):
    lhs, rhs = op.out
    ref = ctx["refs"]["bk"]
    if not _close(lhs, ref["value"], ref["tol_direct"]):
        return _fail(f"direct B_k {lhs!r} != {ref['value']!r} +- {ref['tol_direct']:.3g}")
    if not _close(rhs, ref["value"], ref["tol_expansion"]):
        return _fail(f"expansion {rhs!r} != {ref['value']!r} +- {ref['tol_expansion']:.3g}")
    return OK


def check_singular_series(op, ctx):
    value, tail = op.out
    ref_value, ref_tail, tol = ctx["refs"]["singular"]
    if not _close(value, ref_value, tol):
        return _fail(f"product {value!r} != {ref_value!r} +- {tol:.3g}")
    if not _close(tail, ref_tail, 8 * U * ref_tail + tol):
        return _fail(f"tail {tail!r} != {ref_tail!r}")
    return OK


def check_run_identity_suite(op, ctx):
    rows = op.out
    failed = [name for name, ok in rows if ok is not True]
    if len(rows) != 7 or failed:
        return _fail(f"{len(rows)} rows, failing: {failed}")
    return OK


def check_default_cutoff(op, ctx):
    (x,) = op.args
    if op.out != ctx["refs"]["omega"][str(x)]["cutoff"]:
        return _fail(f"cutoff {op.out!r} at x={x}")
    return OK


def check_primorial(op, ctx):
    (y,) = op.args
    ref = next(v for v in ctx["refs"]["omega"].values() if v["cutoff"] == y)
    if list(op.out.primes) != ref["primes"] or op.out.value != ref["q"] or op.out.phi != ref["phi_q"]:
        return _fail(f"primorial({y!r}) = {op.out.primes}")
    return OK


def check_chain_check(op, ctx):
    """Final aggregate against fsum over multiples of q, right-hand sides
    from their formulas, and the two groupings of every level within 16U
    (both are fsums of positive products, each within 2U)."""
    sieve, gtables, x, q = op.args
    report = op.out
    k = max(gtables)
    values = gtables[k].values
    top = int(math.floor(2 * k * x))
    ref = ctx["refs"]["omega"][str(int(x))]
    final = math.fsum(values[q : top + 1 : q].tolist())
    if report.q != q or report.phi_q != ref["phi_q"] or len(report.levels) != k - 1:
        return _fail("modulus or level count wrong")
    if not _close(report.final_lhs, final, 2 * U * abs(final)):
        return _fail("final sum over multiples of q differs")
    if not _close(report.final_rhs, x**k / (2.0**k * ref["phi_q"]), 4 * U * report.final_rhs):
        return _fail("final right-hand side differs")
    if report.max_g != float(np.max(values[: top + 1])):
        return _fail("max G differs")
    for level in report.levels:
        if not (0.0 <= level.consistency_error <= 16 * U):
            return _fail(f"level {level.level} groupings differ by {level.consistency_error!r}")
    return OK


def check_max_gk_scan(op, ctx):
    gtable, x, q = op.args
    scan = op.out
    k = gtable.k
    top = int(math.floor(2 * k * x))
    values = gtable.values[: top + 1]
    ref = ctx["refs"]["omega"][str(int(x))]
    bound = x ** (k - 1) / 2.0 ** (k + 1) * (ref["q"] / ref["phi_q"])
    loglog = x ** (k - 1) * math.log(math.log(x))
    if scan.argmax != int(np.argmax(values)) or scan.max_g != float(values[scan.argmax]):
        return _fail("max / argmax differ")
    if (scan.q, scan.phi_q, scan.fallback_applied) != (ref["q"], ref["phi_q"], False):
        return _fail("modulus differs or fell back")
    if not (_close(scan.primorial_bound, bound, 4 * U * bound)
            and _close(scan.loglog_reference, loglog, 4 * U * loglog)):
        return _fail("bound or loglog reference differs")
    return OK


def check_progression_bound_check(op, ctx):
    sieve, x, q = op.args
    report = op.out
    ref = ctx["refs"]["omega"][str(int(x))]
    if [row.residue for row in report.rows] != units(q):
        return _fail("residues are not the units mod q")
    if report.phi_q != ref["phi_q"] or report.vacuous != (q >= 2 * x):
        return _fail("phi(q) or vacuity flag wrong")
    for row in report.rows:
        target = ref["psi"][str(row.residue)]
        if not _close(row.psi_value, target, U * abs(target)):
            return _fail(f"psi(2x; {q}, {row.residue}) = {row.psi_value!r} != {target!r}")
        if row.bound != x / (2.0 * ref["phi_q"]):
            return _fail("bound differs")
    return OK


def check_bracket_zero(op, ctx):
    """Within 1e-6 of the table: the tolerance the zeta module states for
    its cross-check of the bundled ordinates (its own accuracy is ~1e-12)."""
    lo, hi = op.args
    gamma = next(g for g in ctx["refs"]["gammas"] if lo < g < hi)
    if not abs(op.out - gamma) <= 1e-6:
        return _fail(f"zero in [{lo:.4f}, {hi:.4f}] at {op.out!r}, table {gamma!r}")
    return OK


CHECKS = {
    name[len("check_"):]: fn for name, fn in list(globals().items()) if name.startswith("check_")
}


def check(op, ctx):
    """Run the check for one op; a check that itself raises is a failed check.

    Op names are `<module>.<function>[.k<k>]`, so the function is the
    second component.
    """
    try:
        return CHECKS[op.name.split(".")[1]](op, ctx)
    except Exception as exc:  # a malformed output must not stop the other checks
        return _fail(f"check raised {type(exc).__name__}: {exc}")

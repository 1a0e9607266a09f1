"""The three benchmark workloads: their fixed sizes, the inputs drawn from
the seed, the references computed for them, and the pass itself.

A pass makes the same public calls, in the same order, as the CLI command
it reproduces, and builds every table from scratch.  The seed only picks
the residual X grid and the sampled check points; it never changes how
much work a pass does.  Why each workload is there: its `why` in
BENCHMARK.json.
"""

import io
import math
import random

import numpy as np

import reference as ref

NAMES = ("residual", "circle", "exact")

# residual: (k, N) per sub-pipeline, as `residual --k K --limit N`.
RESIDUAL_RUNS = ((2, 1 << 21), (3, 1 << 19))
RESIDUAL_GRID_POINTS = 32
RESIDUAL_GRID_LOW = 1024
# G_k(n) is checked at this many sampled n per table.  The k = 3 reference
# enumerates pairs of prime powers, O(P^2) per point (about 1 s at 2^16),
# so its points are drawn below G3_SAMPLE_CAP, plus G3_LARGE_POINTS up to
# G3_LARGE_CAP: the FFT bound is absolute (about 52 at N = 2^19), so a
# relative error shows at large G_3(n) long before it does at small.  These
# are odd, where G_3(n) ~ n^2/2; at even n one part is a power of 2 and
# G_3(n) is small.
G_SAMPLE_POINTS = 16
G3_SAMPLE_CAP = 1 << 13
G3_LARGE_POINTS = 2
G3_LARGE_CAP = 1 << 16
# S_k(X) is compared with an fsum of the whole prefix at this many grid X.
PREFIX_SAMPLE_POINTS = 4

# circle: `circle-check --n 6000 --k 2 --delta 0.5 --nodes 48000 --arc-csv`.
CIRCLE_N = 6000
CIRCLE_K = 2
CIRCLE_DELTA = 0.5
CIRCLE_NODES = 8 * CIRCLE_N
CIRCLE_FZ_N = 512
NODE_SAMPLE_POINTS = 16

# exact: the arguments of each call in run_pass; the omega scan is
# `omega-scan --k 2 --x-grid 64:1024:2`.
EXACT_SIEVE = 1 << 15
IDENTITY_KMAX = 25
GY_X = 256.0
GY_H = (1.0, 16.0)
PSI_INTEGRAL = (2, 4000.0)
PSI1_X = (100.0, 1000.0, 10_000.0)
PSIJ = ((2, 1000.0), (3, 1000.0))
BK = (3, 2000)
SINGULAR = (2, 10**6)
SINGULAR_CUTOFF = 1e5  # goldbach.DEFAULT_PRIME_CUTOFF, which the call leaves in place
OMEGA_K = 2
OMEGA_GRID = (64, 128, 256, 512, 1024)  # `omega-scan --x-grid 64:1024:2`
BRACKETED_ZEROS = 20


def _log_uniform(rng: random.Random, low: int, high: int, count: int) -> list[int]:
    """`count` distinct integers, log-uniform in [low, high], ascending."""
    chosen: set[int] = set()
    while len(chosen) < count:
        chosen.add(min(high, max(low, round(math.exp(rng.uniform(math.log(low), math.log(high)))))))
    return sorted(chosen)


def make_inputs(workload: str, seed: int, gammas: list[float]) -> dict:
    """Everything a pass and its checks need, drawn from the seed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "residual":
        runs = []
        for k, limit in RESIDUAL_RUNS:
            grid = _log_uniform(rng, RESIDUAL_GRID_LOW, limit, RESIDUAL_GRID_POINTS)
            top = limit if k == 2 else min(limit, G3_SAMPLE_CAP)
            g_points = _log_uniform(rng, 2 * k, top, G_SAMPLE_POINTS)
            if k == 3:
                large = _log_uniform(rng, top + 1, G3_LARGE_CAP // 2, G3_LARGE_POINTS)
                g_points += [2 * n + 1 for n in large]
            runs.append({
                "k": k,
                "limit": limit,
                "grid": grid,
                "g_points": g_points,
                "prefix_points": sorted(rng.sample(grid, PREFIX_SAMPLE_POINTS)),
            })
        return {"runs": runs}
    if workload == "circle":
        sweep_nodes = 4 * CIRCLE_N
        points = {0} | set(rng.sample(range(sweep_nodes), NODE_SAMPLE_POINTS - 1))
        return {"node_points": sorted(points)}
    if workload == "exact":
        omega_limit = 2 * OMEGA_K * OMEGA_GRID[-1]
        brackets = [
            [g - rng.uniform(0.05, 0.3), g + rng.uniform(0.05, 0.3)]
            for g in gammas[:BRACKETED_ZEROS]
        ]
        return {
            "brackets": brackets,
            "g_points": _log_uniform(rng, 2 * OMEGA_K, omega_limit, G_SAMPLE_POINTS),
        }
    raise ValueError(f"unknown workload {workload!r}")


def reference_limit(workload: str) -> int:
    """Largest sieve limit a pass uses; the reference Lambda covers it."""
    return {
        "residual": max(limit for _, limit in RESIDUAL_RUNS),
        "circle": CIRCLE_NODES,
        "exact": max(EXACT_SIEVE, 2 * OMEGA_K * OMEGA_GRID[-1]),
    }[workload]


def _gk_refs(lam, k, limit, sampled):
    pad = 1 << (k * limit + 1).bit_length()  # as gk_fft pads
    # k <= n < 2k: zero in exact arithmetic, round-off allowed
    points = sorted(set(range(k, 2 * k)) | set(sampled))
    return {
        "points": points,
        "values": [ref.goldbach_at(lam, k, n) for n in points],
        "tol": ref.fft_power_tolerance(lam, k, limit, pad),
    }


def make_refs(workload: str, inputs: dict, lam: np.ndarray, gammas: np.ndarray) -> dict:
    """Reference values and tolerances for every checked output of a pass."""
    if workload == "residual":
        refs = {"gk": {}, "hk": {}}
        for run in inputs["runs"]:
            k, limit = run["k"], run["limit"]
            refs["gk"][f"{k}:{limit}"] = _gk_refs(lam, k, limit, run["g_points"])
            sums = [ref.zero_sum(gammas, k, float(x)) for x in run["grid"]]
            refs["hk"][str(k)] = {
                "rows": [[-k * s, k * b] for s, b in sums],
                "tail": ref.hk_tail(float(gammas[-1]), k, float(max(run["grid"]))),
            }
        return refs
    if workload == "circle":
        n, terms = CIRCLE_N, 2 * CIRCLE_N
        f_r = ref.f_radial(lam, n, terms)
        threshold, measure, measure_tol = ref.arc_measure(n, CIRCLE_K, CIRCLE_DELTA)
        r = 1.0 - 1.0 / n
        weights = np.power(r, 2.0 * np.arange(1, len(lam)))  # over the whole 8N sieve
        sweep_nodes = 4 * n
        return {
            "psi_n": ref.psi(lam, n),
            "cauchy_tol": ref.cauchy_tolerance(f_r, n, CIRCLE_NODES),
            "minor_power_sum": math.fsum(((lam[1:] - 1.0) ** 2 * weights).tolist()),
            "lemma": ref.lemma_reference(CIRCLE_K, n),
            "threshold": threshold,
            "measure": measure,
            "measure_tol": measure_tol,
            "f_nodes": [ref.f_at_node(lam, n, sweep_nodes, i, terms) for i in inputs["node_points"]],
            # the program's bound plus 4 U per term of the reference's own
            "f_tol": ref.f_on_grid_tolerance(f_r, terms) + 8 * ref.U * f_r,
        }
    if workload == "exact":
        omega_limit = 2 * OMEGA_K * OMEGA_GRID[-1]
        j, x = PSI_INTEGRAL
        psi_j = ref.riesz_psi(lam, j, x)
        # zero-sum budget plus 8 U of the non-oscillating terms
        explicit = {}
        for xx in PSI1_X:
            s, b = ref.zero_sum(gammas, 2, xx)
            formula = xx * xx / 2.0 - s - ref.LOGDERIV_0 * xx + ref.LOGDERIV_M1
            scale = xx * xx / 2.0 + ref.LOGDERIV_0 * xx + ref.LOGDERIV_M1
            explicit[f"1:{xx}"] = [formula, b + 8 * ref.U * scale, ref.riesz_psi(lam, 1, xx)]
        for jj, xx in PSIJ:
            s, b = ref.zero_sum(gammas, jj + 1, xx)
            main = xx ** (jj + 1) / math.factorial(jj + 1)
            explicit[f"{jj}:{xx}"] = [main - s, b + 8 * ref.U * main, ref.riesz_psi(lam, jj, xx)]
        omega = {}
        for xv in OMEGA_GRID:
            y = max(3.0, math.log(xv))
            q, phi_q, ps = ref.prime_product(y)
            omega[str(xv)] = {
                "cutoff": y,
                "q": q,
                "phi_q": phi_q,
                "primes": ps,
                "psi": {str(a): math.fsum(lam[a if a else q : 2 * xv + 1 : q].tolist())
                        for a in ref.units(q)},
            }
        value, tail, tol = ref.singular_series(SINGULAR[0], SINGULAR[1], SINGULAR_CUTOFF)
        return {
            "gk": {f"{OMEGA_K}:{omega_limit}": _gk_refs(lam, OMEGA_K, omega_limit, inputs["g_points"])},
            # node count as gy_lemma_diagnostic chooses it
            "gy": {str(h): ref.gy_reference(lam, int(GY_X), h, max(int(math.ceil(64 * h)), 16 * int(GY_X)))
                   for h in GY_H},
            "psi_integral": [psi_j, 2 * (j + 2) * ref.U * psi_j,
                             ref.riesz_integral_tolerance(lam, j, x) + 2 * (j + 2) * ref.U * psi_j],
            "explicit": explicit,
            "bk": ref.bk_reference(lam, BK[0], BK[1]),
            "singular": [value, tail, tol],
            "omega": omega,
            "gammas": [float(g) for g in gammas[:BRACKETED_ZEROS]],
        }
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(workload: str, inputs: dict, rec, gk, zeros_table) -> None:
    """One pass of the workload through goldbachkit's public functions.

    ``rec`` records each call (see worker.Recorder); ``gk`` is the imported
    package and ``zeros_table`` its bundled zero table, loaded at set-up.
    """
    if workload == "residual":
        for run in inputs["runs"]:
            k, limit = run["k"], run["limit"]
            with rec.span(f"residual_k{k}"):
                sieve = rec.call("mangoldt.build_mangoldt", gk.build_mangoldt, limit)
                table = rec.call(f"goldbach.gk_fft.k{k}", gk.gk_fft, sieve, k, limit)
                prefix = rec.call(f"goldbach.sk_prefix.k{k}", gk.sk_prefix, table)
                report = rec.call("zeros.residual_report", gk.residual_report,
                                  prefix, zeros_table, run["grid"])
                rec.call("zeros.write_residual_csv", gk.write_residual_csv, report, io.StringIO())
    elif workload == "circle":
        n, k, delta = CIRCLE_N, CIRCLE_K, CIRCLE_DELTA
        with rec.span("circle_check"):
            sieve = rec.call("mangoldt.build_mangoldt", gk.build_mangoldt, 8 * n)
            rec.call("circle.cauchy_psi_recovery", gk.cauchy_psi_recovery, sieve, n, CIRCLE_NODES)
            rec.call("circle.minor_arc_l2", gk.minor_arc_l2, sieve, n)
            rec.call("circle.lemma1_check", gk.lemma1_check, k, n, 0.0)
            rec.call("circle.arc_classify", gk.arc_classify, n, k, delta)
            rec.call("circle.fz_powerseries_identity", gk.fz_powerseries_identity,
                     sieve, k, min(n, CIRCLE_FZ_N))
            rec.call("circle.arc_sweep", gk.arc_sweep, sieve, n, k, delta)
    elif workload == "exact":
        with rec.span("exact_calls"):
            sieve = rec.call("mangoldt.build_mangoldt", gk.build_mangoldt, EXACT_SIEVE)
            rec.call("identities.run_identity_suite", gk.run_identity_suite, IDENTITY_KMAX)
            for h in GY_H:
                rec.call("circle.gy_lemma_diagnostic", gk.gy_lemma_diagnostic, sieve, GY_X, h)
            rec.call("mangoldt.psi_integral_check", gk.psi_integral_check, sieve, *PSI_INTEGRAL)
            for x in PSI1_X:
                rec.call("zeros.psi1_explicit", gk.psi1_explicit, zeros_table, sieve, x)
            for j, x in PSIJ:
                rec.call("zeros.psij_explicit", gk.psij_explicit, zeros_table, sieve, j, x)
            rec.call("goldbach.bk_decomposition_check", gk.bk_decomposition_check, sieve, *BK)
            rec.call("goldbach.singular_series", gk.singular_series,
                     gk.SingularSeriesQuery(k=SINGULAR[0], n=SINGULAR[1]))
        with rec.span("omega_scan"):
            k, x_max = OMEGA_K, OMEGA_GRID[-1]
            omega_sieve = rec.call("mangoldt.build_mangoldt", gk.build_mangoldt, 2 * k * x_max)
            gtables = {
                level: rec.call(f"goldbach.gk_fft.k{level}", gk.gk_fft,
                                omega_sieve, level, 2 * level * x_max)
                for level in range(2, k + 1)
            }
            for x in OMEGA_GRID:
                y = rec.call("omega.default_cutoff", gk.default_cutoff, x)
                q = rec.call("mangoldt.primorial", gk.primorial, y)
                q_value = getattr(q, "value", q)  # a failed primorial passes its failure on
                rec.call("omega.chain_check", gk.chain_check, omega_sieve, gtables, float(x), q_value)
                rec.call("omega.max_gk_scan", gk.max_gk_scan, gtables[k], float(x), q)
                rec.call("omega.progression_bound_check", gk.progression_bound_check,
                         omega_sieve, float(x), q_value)
        with rec.span("bracket_zeros"):
            for lo, hi in inputs["brackets"]:
                rec.call("zeta.bracket_zero", gk.bracket_zero, lo, hi)
    else:
        raise ValueError(f"unknown workload {workload!r}")

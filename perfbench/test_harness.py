"""Tests of the benchmark harness itself (not of goldbachkit).

    python3 -m pytest -q perfbench/test_harness.py
"""

import io
import json
import math
import pathlib
import re
import statistics
import types

import numpy as np
import pytest

import checks
import reference
import run
import worker
import workloads


def test_mangoldt_reference_known_values():
    lam = reference.mangoldt(10_000)
    assert lam[1] == 0.0 and lam[6] == 0.0 and lam[12] == 0.0
    assert lam[2] == lam[4] == lam[1024] == math.log(2)
    assert lam[9973] == math.log(9973) and lam[3**8] == math.log(3)
    # psi(10^4) = 10013.3966932...
    assert abs(reference.psi(lam, 10_000) - 10013.396693263) < 1e-8


def test_goldbach_reference_by_hand():
    lam = reference.mangoldt(64)
    l2, l3, l5 = math.log(2), math.log(3), math.log(5)
    assert reference.goldbach_at(lam, 2, 3) == 0.0
    assert reference.goldbach_at(lam, 2, 4) == l2 * l2
    assert reference.goldbach_at(lam, 2, 6) == pytest.approx(l3 * l3 + 2 * l2 * l2, rel=1e-15)
    assert reference.goldbach_at(lam, 2, 7) == pytest.approx(2 * l2 * l5 + 2 * l3 * l2, rel=1e-15)
    assert reference.goldbach_at(lam, 3, 6) == pytest.approx(l2**3, rel=1e-15)
    assert reference.goldbach_at(lam, 3, 5) == 0.0
    full = np.convolve(lam, lam)[:65]
    for n in range(65):
        assert reference.goldbach_at(lam, 2, n) == pytest.approx(full[n], rel=1e-14, abs=1e-14)


def test_power_table_matches_sparse_enumeration():
    lam = reference.mangoldt(300)
    table = reference.power_table(lam, 3, 300)
    for n in (6, 7, 50, 299, 300):
        assert table[n] == pytest.approx(reference.goldbach_at(lam, 3, n), rel=1e-14)


def test_lemma_coefficients_satisfy_their_definition():
    for k in range(1, 7):
        a = reference.lemma_coefficients(k)
        assert a[k] == math.factorial(k)
        for n in range(12):
            assert sum(math.comb(n + j, j) * a[j] for j in range(k + 1)) == n**k


def test_zero_sum_polar_form_matches_cartesian():
    gammas = np.array([14.134725141734693, 21.022039638771555])
    for order, x in ((2, 1000.0), (3, 12345.0)):
        value, budget = reference.zero_sum(gammas, order, x)
        direct = 0.0
        for g in gammas:
            rho = complex(0.5, g)
            den = 1
            for i in range(order):
                den *= rho + i
            direct += 2 * (x ** (rho + order - 1) / den).real
        assert abs(value - direct) <= budget


def test_gy_closed_form_against_fine_trapezoid():
    lam = reference.mangoldt(64)
    x, h, nodes = 16, 2.0, 4096
    ref = reference.gy_reference(lam, x, h, nodes)
    c = lam[1:2 * x] - 1.0
    n = np.arange(1, 2 * x)
    alphas = np.linspace(-0.5 / h, 0.5 / h, nodes + 1)
    values = [
        sum(abs(np.sum(c[:m] * np.exp(2j * np.pi * a * n[:m]))) ** 2 for m in range(x, 2 * x)) / x
        for a in alphas
    ]
    assert abs(float(np.trapezoid(values, alphas)) - ref["exact"]) <= ref["tol"]


def test_self_times_account_for_the_root_span():
    spans = [
        ["pass", 0, 1000, -1],
        ["group", 10, 990, 0],
        ["mangoldt.build_mangoldt", 20, 400, 1],
        ["goldbach.gk_fft.k2", 400, 900, 1],
    ]
    own = run.self_times(spans)
    assert own == pytest.approx([20e-9, 100e-9, 380e-9, 500e-9])
    assert sum(own) == pytest.approx(1000e-9)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 10) is None
    tail = run.tail_percentile([float(i) for i in range(40)])
    assert tail == {"percentile": 75.0, "value": 29.0, "samples": 40}


def _sieve_op(values, limit):
    table = types.SimpleNamespace(values=values)
    return worker.Op("mangoldt.build_mangoldt", (limit,), table, None)


def test_perturbed_output_counts_as_failed():
    lam = reference.mangoldt(1000)
    ctx = {"lam": lam, "refs": {}, "inputs": {}}
    good = _sieve_op(lam.copy(), 1000)
    bad_values = lam.copy()
    bad_values[997] = np.nextafter(bad_values[997], 10.0)
    bad = _sieve_op(bad_values, 1000)
    raised = worker.Op("mangoldt.build_mangoldt", (1000,), worker.FAILED, "ValueError: boom")
    outcomes, accuracy = worker.check_ops([good, bad, raised], ctx)
    assert [failed for _, failed, _ in outcomes] == [False, True, True]
    assert accuracy["mangoldt.build_mangoldt.mismatches"] == 1


def _gk_op(values, k, limit):
    return worker.Op(f"goldbach.gk_fft.k{k}", (None, k, limit), types.SimpleNamespace(values=values), None)


def test_gk_check_tells_structural_zeros_from_wrong_values():
    lam = reference.mangoldt(64)
    ctx = {"refs": {"gk": {"2:64": workloads._gk_refs(lam, 2, 64, [10, 20, 40])}}}
    assert {2, 3, 10} <= set(ctx["refs"]["gk"]["2:64"]["points"])
    exact = np.array([reference.goldbach_at(lam, 2, n) for n in range(65)])
    assert checks.check(_gk_op(exact, 2, 64), ctx)[0]
    # n = 3 is zero only in exact arithmetic: round-off there is allowed
    rounded = exact.copy()
    rounded[3] = 1e-15
    assert checks.check(_gk_op(rounded, 2, 64), ctx)[0]
    below_k = exact.copy()
    below_k[1] = 1e-15
    ok, reason, acc = checks.check(_gk_op(below_k, 2, 64), ctx)
    assert not ok and reason.startswith("structural zeros") and acc["structural_nonzeros"] == 1
    wrong = below_k.copy()
    wrong[20] += 1.0
    ok, reason, _ = checks.check(_gk_op(wrong, 2, 64), ctx)
    assert not ok and not reason.startswith("structural zeros")


KNOWN = json.loads((pathlib.Path(__file__).resolve().parent / "baseline.json").read_text())["known_failures"]


def test_known_failure_for_a_new_reason_is_unexpected():
    known = KNOWN["exact"]
    seed_like = {"ops": [
        ["goldbach.gk_fft.k2", True, "structural zeros of G_2: 2 of n < 2 are not exactly 0"],
        ["omega.chain_check", True, "TypeError: ChainLevel.__init__() missing 1 required positional argument"],
        ["omega.max_gk_scan", False, ""],
    ]}
    failed, unexpected, failures = run.tally([seed_like, seed_like], known)
    assert failed == 4 and unexpected == [] and set(failures) == {"goldbach.gk_fft.k2", "omega.chain_check"}
    new_reason = {"ops": [["goldbach.gk_fft.k2", True, "G_2 off the reference beyond the FFT bound at n = [7]"]]}
    failed, unexpected, _ = run.tally([seed_like, new_reason], known)
    assert failed == 3 and len(unexpected) == 1 and "off the reference" in unexpected[0]
    twice = {"ops": seed_like["ops"][:1] * 2}
    assert run.tally([twice], known)[1] == ["goldbach.gk_fft.k2: 2 failures in one pass"]
    assert run.tally([{"ops": [["omega.max_gk_scan", True, "max / argmax differ"]]}], known)[1]


def test_csv_round_trip_detects_a_changed_digit():
    row = types.SimpleNamespace(x=1024, s_value=1.0 / 3.0, main=524288.0, h_value=-2.5,
                                residual=0.1, normalized=1e-7)
    report = types.SimpleNamespace(rows=(row,))
    stream = io.StringIO()
    stream.write("X,S_k,main,H_k,residual,normalized\n")
    stream.write(f"{row.x},{row.s_value:.17g},{row.main:.17g},{row.h_value:.17g},"
                 f"{row.residual:.17g},{row.normalized:.17g}\n")
    op = worker.Op("zeros.write_residual_csv", (report, stream), None, None)
    assert checks.check(op, {})[0]
    changed = io.StringIO(stream.getvalue().replace("0.33333333333333331", "0.33333333333333337"))
    op = worker.Op("zeros.write_residual_csv", (report, changed), None, None)
    assert not checks.check(op, {})[0]


def test_scaled_times_do_not_move_with_machine_speed():
    cpu, kernel = [2.0, 2.4, 2.2], [0.1, 0.12, 0.11]
    quick = statistics.fmean(cpu) * run.speed_factor(kernel)
    slow = statistics.fmean(1.7 * c for c in cpu) * run.speed_factor([1.7 * k for k in kernel])
    assert slow == pytest.approx(quick, rel=1e-12)


def test_recorder_skips_ops_downstream_of_a_failure():
    rec = worker.Recorder(traced=True)

    def boom(_):
        raise ArithmeticError("boom")

    with rec.span("pass"):
        first = rec.call("mangoldt.build_mangoldt", boom, 10)
        rec.call("goldbach.gk_fft.k2", lambda *a: 1, first, 2, 10)
    assert [op.error is not None for op in rec.ops] == [True, True]
    assert [span[0] for span in rec.spans] == ["pass", "mangoldt.build_mangoldt"]


class _SpyPackage:
    """Stands in for goldbachkit: every call returns a new object and
    records which earlier results it was given."""

    def __init__(self):
        self.calls = []
        self.produced = set()

    def __getattr__(self, name):
        def fn(*args, **kwargs):
            seen = [id(a) for a in args if id(a) in self.produced]
            seen += [id(v) for a in args if isinstance(a, dict) for v in a.values()
                     if id(v) in self.produced]
            out = types.SimpleNamespace(value=6, values=None)
            self.produced.add(id(out))
            self.calls.append((name, seen))
            return out
        return fn


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_passes_rebuild_every_table(workload):
    gammas = [14.134725141734693 + 7 * i for i in range(30)]
    inputs = workloads.make_inputs(workload, 7, gammas)
    spy = _SpyPackage()
    recorders = [worker.Recorder(traced=False) for _ in range(2)]  # keep outputs alive
    workloads.run_pass(workload, inputs, recorders[0], spy, object())
    second_start, first_pass_objects = len(spy.calls), set(spy.produced)
    workloads.run_pass(workload, inputs, recorders[1], spy, object())
    names = [name for name, _ in spy.calls]
    assert names[:second_start] == names[second_start:]
    for name, seen in spy.calls[second_start:]:
        assert not set(seen) & first_pass_objects, f"{name} reused an output of the first pass"


def test_inputs_depend_only_on_the_seed():
    gammas = [14.134725141734693 + 7 * i for i in range(30)]
    for name in workloads.NAMES:
        assert workloads.make_inputs(name, 3, gammas) == workloads.make_inputs(name, 3, gammas)
        assert workloads.make_inputs(name, 3, gammas) != workloads.make_inputs(name, 4, gammas)
    grid = workloads.make_inputs("residual", 5, gammas)["runs"][0]["grid"]
    assert len(set(grid)) == 32 and min(grid) >= 1024 and max(grid) <= 1 << 21


BENCHMARK = json.loads((pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics] + list(workloads.NAMES)
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert len(BENCHMARK["per_layer"]) <= 128


def test_per_layer_metrics_name_real_calls():
    """Every op a workload makes has its three metrics, and every per-layer
    name is one the traced run computes."""
    gammas = [14.134725141734693 + 7 * i for i in range(30)]
    ops = set()
    for workload in workloads.NAMES:
        rec = worker.Recorder(traced=False)
        workloads.run_pass(workload, workloads.make_inputs(workload, 1, gammas), rec, _SpyPackage(), object())
        ops |= {op.name for op in rec.ops}
    modules = {name.split(".")[0] for name in ops}
    computed = {f"{key}.{kind}" for key in ops | modules for kind in ("self_s", "calls", "failed")}
    computed |= {
        "mangoldt.build_mangoldt.mismatches", "goldbach.gk_fft.max_abs_err",
        "goldbach.gk_fft.structural_nonzeros", "goldbach.sk_prefix.max_increment_err",
        "circle.cauchy_psi_recovery.rel_gap", "bench.harness.self_s", "bench.wall_s", "bench.cpu_s",
        "bench.calibration_s", "trace.wall_s",
        "trace.overhead_s",
    }
    assert {m["name"] for m in BENCHMARK["per_layer"]} == computed

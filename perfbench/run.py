"""goldbachkit benchmark: three workloads through the package's public calls.

    python3 perfbench/run.py --workload residual|circle|exact --seed N \
        --seconds S --trace 0|1

Run from anywhere; the package is taken from src/ beside this directory,
as source, with nothing installed.  The seed draws the residual X grid and
the sampled check points (workloads.make_inputs); the sizes are fixed.

Each pass runs in a fresh interpreter (worker.py), so the sieve and every
table are rebuilt on every pass, as on every CLI invocation.  Passes, and
between them the set-up samples, repeat while another fits in --seconds
(at least MIN_PASSES passes).  The last line of
stdout is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics:
  scaled_cpu_s mean CPU time (user + system) of one pass, tracing off,
               scaled to the reference speed (below);
  setup_s      mean over SETUP_SAMPLES fresh interpreters of the CPU time
               `import goldbachkit; bundled_zeros()` takes, timed inside
               the interpreter, scaled the same way;
  peak_rss_mb  median peak resident set of the process running one pass;
  fail_ratio   failed ops / attempted ops.  An op is one public call; it
               fails if it raises or its output fails its check (checks.py).
--trace 1 alternates traced and untraced passes and reports the per-layer
metrics named in BENCHMARK.json: per public call self time, calls and
failures per pass, per-module self time, the accuracy counts from the
checks, the median wall time, CPU time and calibration time of an
untraced pass, and the tracing overhead (traced minus untraced median wall).

The gated times are scaled CPU times.  On a shared host the wall time of
the same pass moves by up to 2x with the load of other guests.  CPU time
leaves out the time the virtual CPU was taken away (steal time) but not
the time the core ran slower.  So every pass and set-up process also times
a fixed kernel (calibrate.py), and the mean pass and set-up times are
multiplied by calibrate.REFERENCE_S / the run's mean kernel time: they
read in seconds of a machine on which the kernel takes REFERENCE_S.

`attempted` and `failed` count ops over all passes.  `correct` is true when
no op failed beyond the failures the seed commit already had, which
baseline.json lists by op, reason and count per pass (see tally); those
still count in `failed` and fail_ratio.

A result file with provenance, the raw and scaled pass times with their
tail percentiles, each failing op and its reason goes to perfbench/out/; a
traced run also writes its spans there.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import calibrate
import reference
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ZERO_FILE = SRC / "goldbachkit" / "data" / "zeros100.txt"
OUT = HERE / "out"

MIN_PASSES = 2
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # numpy's FFT is single-threaded; keep any BLAS pool from adding threads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def read_gammas(text: str) -> np.ndarray:
    rows = (line.strip() for line in text.splitlines())
    return np.array([float(row) for row in rows if row and not row.startswith("#")])


SETUP_CODE = (
    "import time; start = time.process_time(); import goldbachkit; "
    "goldbachkit.bundled_zeros(); setup = time.process_time() - start; "
    "import calibrate; print(repr(setup), repr(calibrate.kernel_cpu_s()))"
)


def setup_sample(env: dict) -> tuple[float, float]:
    """(set-up CPU time, kernel CPU time) of one fresh interpreter, without
    its start and exit; the kernel runs after the timed set-up."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                          timeout=CHILD_TIMEOUT_S, capture_output=True, text=True)
    setup, kernel = proc.stdout.strip().splitlines()[-1].split()
    return float(setup), float(kernel)


def run_worker(workload: str, run_dir: pathlib.Path, traced: bool, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--run-dir", str(run_dir), "--trace", str(int(traced))],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass of {workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def speed_factor(kernel_s: list[float]) -> float:
    """calibrate.REFERENCE_S / the mean kernel time of a run: turns the
    run's mean CPU times into seconds of the reference machine.

    Means, not medians: a pass lasts seconds and a kernel a fraction of
    one, so when the machine's speed changes within a run the median pass
    and the median kernel see different mixes of fast and slow moments.
    A mean weighs every moment by its length in both.
    """
    return calibrate.REFERENCE_S / statistics.fmean(kernel_s)


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11], "samples": n}


def tally(results: list[dict], known: dict) -> tuple[int, list[str], dict]:
    """(failed ops, unexpected failures, first reason per failing op).

    ``known`` maps an op name to the failure the seed commit already had:
    the start of its reason and how many times per pass it fails.  A
    failure is unexpected if its reason starts otherwise, or if an op fails
    for its known reason more often in a pass than that.
    """
    failed = 0
    unexpected: set[str] = set()
    failures: dict[str, str] = {}
    for r in results:
        counts: dict[str, int] = {}
        for name, op_failed, reason in r["ops"]:
            if not op_failed:
                continue
            failed += 1
            failures.setdefault(name, reason)
            allowed = known.get(name)
            if allowed is None or not reason.startswith(allowed["reason"]):
                unexpected.add(f"{name}: {reason}")
                continue
            counts[name] = counts.get(name, 0) + 1
            if counts[name] > allowed["count"]:
                unexpected.add(f"{name}: {counts[name]} failures in one pass")
    return failed, sorted(unexpected), failures


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Children of one span run one after another, so their durations add.
    """
    own = [(end - start) / 1e9 for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= (end - start) / 1e9
    return own


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics: medians over the traced passes of per-pass values.

    Spans named after an op are the public calls; the pass and its groups
    are the harness, whose self time is what the benchmark spends between
    calls.
    """
    per_pass = []
    for result in traced:
        values: dict[str, float] = {}

        def add(key, amount):
            values[key] = values.get(key, 0) + amount

        op_names = {name for name, _, _ in result["ops"]}
        spans = result["spans"]
        for (name, *_), own in zip(spans, self_times(spans)):
            if name in op_names:
                add(f"{name}.self_s", own)
                add(f"{name.split('.')[0]}.self_s", own)
            else:
                add("bench.harness.self_s", own)
        for name, failed, _ in result["ops"]:
            for key in (name, name.split(".")[0]):
                add(f"{key}.calls", 1)
                add(f"{key}.failed", int(failed))
        values.update(result["accuracy"])
        values["trace.wall_s"] = result["wall_s"]
        per_pass.append(values)
    names = set().union(*per_pass)
    out = {name: statistics.median(p.get(name, 0) for p in per_pass) for name in names}
    for key in ("wall_s", "cpu_s", "calibration_s"):
        out[f"bench.{key}"] = statistics.median(r[key] for r in untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["bench.wall_s"]
    return out


def provenance(seed: int, versions: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "goldbachkit": versions.get("goldbachkit"),
        "git_commit": commit,
        "seed": seed,
        "zeros_sha256": hashlib.sha256(ZERO_FILE.read_bytes()).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "goldbachkit" / "__init__.py").is_file() or not ZERO_FILE.is_file():
        print(f"goldbachkit sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = json.loads((HERE / "baseline.json").read_text())["known_failures"][args.workload]
    env = child_env()
    traced_run = bool(args.trace)

    gammas = read_gammas(ZERO_FILE.read_text(encoding="ascii"))
    inputs = workloads.make_inputs(args.workload, args.seed, gammas.tolist())
    lam = reference.mangoldt(workloads.reference_limit(args.workload))
    refs = workloads.make_refs(args.workload, inputs, lam, gammas)

    OUT.mkdir(exist_ok=True)
    results = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        run_dir = pathlib.Path(tmp)
        (run_dir / "inputs.json").write_text(json.dumps(inputs))
        (run_dir / "refs.json").write_text(json.dumps(refs))
        np.save(run_dir / "lambda.npy", lam)
        del lam
        # Set-up samples are spread over the run, between passes, so that
        # they and the passes see the same stretch of machine time.
        setup: list[tuple[float, float]] = []
        want_setup = 0 if traced_run else SETUP_SAMPLES
        # A pass starts only if a typical pass fits in what is left of
        # --seconds, so a run takes about --seconds whatever the pass time.
        start = time.perf_counter()
        steps: list[float] = []
        while len(results) < MIN_PASSES * (1 + traced_run) or (
            time.perf_counter() - start + statistics.median(steps) <= args.seconds
        ):
            step_start = time.perf_counter()
            traced = traced_run and len(results) % 2 == 1
            result = run_worker(args.workload, run_dir, traced, env)
            result["traced"] = traced
            results.append(result)
            due = math.ceil(want_setup * (time.perf_counter() - start) / args.seconds)
            while len(setup) < min(due, want_setup):
                setup.append(setup_sample(env))
            steps.append(time.perf_counter() - step_start)
        while len(setup) < want_setup:
            setup.append(setup_sample(env))

    untraced = [r for r in results if not r["traced"]]
    walls = [r["wall_s"] for r in untraced]
    cpus = [r["cpu_s"] for r in untraced]
    speed = speed_factor([r["calibration_s"] for r in untraced] + [k for _, k in setup])
    attempted = sum(len(r["ops"]) for r in results)
    failed, unexpected, failures = tally(results, known)

    if traced_run:
        computed = layer_metrics([r for r in results if r["traced"]], untraced)
        wanted = spec["per_layer"]
    else:
        computed = {
            "scaled_cpu_s": statistics.fmean(cpus) * speed,
            "setup_s": statistics.fmean(s for s, _ in setup) * speed,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "fail_ratio": failed / attempted,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": computed.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed, results[0]["versions"]),
        "inputs": inputs,
        "passes": len(results),
        "pass_wall_s": walls,
        "pass_cpu_s": [r["cpu_s"] for r in untraced],
        "pass_calibration_s": [r["calibration_s"] for r in untraced],
        "speed": speed,
        "wall_tail": tail_percentile(walls),
        "scaled_cpu_tail": tail_percentile([c * speed for c in cpus]),
        "setup_samples_s": setup,
        "attempted": attempted,
        "failed": failed,
        "failing_ops": failures,
        "unexpected_failures": unexpected,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if traced_run:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="ascii") as handle:
            for pass_id, r in enumerate(results):
                for span_id, (name, start_ns, end_ns, parent) in enumerate(r["spans"]):
                    handle.write(json.dumps({
                        "workload": args.workload, "pass": pass_id, "id": span_id,
                        "name": name, "start_ns": start_ns, "end_ns": end_ns, "parent": parent,
                    }) + "\n")

    for name, reason in sorted(failures.items()):
        print(f"failed op {name}: {reason}", file=sys.stderr)
    for line in unexpected:
        print(f"unexpected failure {line}", file=sys.stderr)
    for name in ("wall", "scaled_cpu"):
        tail = record[f"{name}_tail"]
        if tail is None:
            print(f"{name}: {len(walls)} passes, too few for a tail percentile", file=sys.stderr)
        else:
            print(f"{name} p{tail['percentile']:.0f} = {tail['value']:.4f} s over {tail['samples']} passes",
                  file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

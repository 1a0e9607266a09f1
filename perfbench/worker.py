"""One pass of one workload in a fresh interpreter, then its output checks.

Run by run.py, once per pass, as

    python3 perfbench/worker.py --workload NAME --run-dir DIR --trace 0|1

with goldbachkit importable.  A fresh process per pass means no table,
cache or allocation survives from one pass to the next, as for a CLI user,
and its peak resident set belongs to that one pass.  The last line of
stdout is a JSON record: pass wall and CPU time, the CPU time of the
calibration kernel run right after the pass, peak RSS, every op's outcome,
the accuracy counts and, when traced, the spans.
"""

import argparse
import contextlib
import json
import pathlib
import resource
import sys
import time
from dataclasses import dataclass

import numpy as np

import calibrate
import checks
import workloads


class _Failed:
    """Stands in for the output of an op that raised or was skipped."""

    def __repr__(self):
        return "FAILED"


FAILED = _Failed()


@dataclass
class Op:
    name: str
    args: tuple
    out: object
    error: str | None


def _depends_on_failure(args) -> bool:
    return any(
        a is FAILED or (isinstance(a, dict) and any(v is FAILED for v in a.values()))
        for a in args
    )


class Recorder:
    """Calls public functions for a pass, keeping each op's inputs, output
    or error, and (when traced) a span per call.

    A span is [name, start_ns, end_ns, parent index]; span 0 is the pass.
    An op whose input came from a failed op is not called and counts as
    failed, so every pass attempts the same ops.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.ops: list[Op] = []
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.traced:
            yield
            return
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def call(self, name: str, fn, *args):
        if _depends_on_failure(args):
            self.ops.append(Op(name, args, FAILED, "skipped: an input came from a failed op"))
            return FAILED
        with self.span(name):
            try:
                out, error = fn(*args), None
            except Exception as exc:  # a failed op is counted, the pass goes on
                out, error = FAILED, f"{type(exc).__name__}: {exc}"
        self.ops.append(Op(name, args, out, error))
        return out


def run_one_pass(workload: str, inputs: dict, traced: bool, gk, zeros_table) -> tuple[Recorder, float, float, float]:
    """(recorder, wall seconds, CPU seconds, peak RSS in MB) of one pass in
    this process."""
    rec = Recorder(traced)
    cpu_start = time.process_time()
    start = time.perf_counter()
    with rec.span("pass"):
        workloads.run_pass(workload, inputs, rec, gk, zeros_table)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rec, wall, cpu, peak_mb


def check_ops(ops: list[Op], ctx: dict) -> tuple[list, dict]:
    """[(name, failed, reason)] per op, and the pass's accuracy counts.

    Integer counts add up over the calls of a function; scaled errors and
    gaps keep their worst value.
    """
    outcomes = []
    accuracy: dict[str, float] = {}
    for op in ops:
        if op.error is not None:
            outcomes.append((op.name, True, op.error))
            continue
        ok, reason, acc = checks.check(op, ctx)
        outcomes.append((op.name, not ok, reason))
        module, function = op.name.split(".")[:2]
        for key, value in acc.items():
            full = f"{module}.{function}.{key}"
            if isinstance(value, int):
                accuracy[full] = accuracy.get(full, 0) + value
            else:
                accuracy[full] = max(accuracy.get(full, 0.0), value)
    return outcomes, accuracy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_dir = pathlib.Path(args.run_dir)

    import goldbachkit as gk

    zeros_table = gk.bundled_zeros()
    inputs = json.loads((run_dir / "inputs.json").read_text())

    rec, wall, cpu, peak_mb = run_one_pass(args.workload, inputs, bool(args.trace), gk, zeros_table)
    # After the peak RSS is read: the kernel's arrays would raise it.
    kernel_s = calibrate.kernel_cpu_s()

    ctx = {
        "inputs": inputs,
        "refs": json.loads((run_dir / "refs.json").read_text()),
        "lam": np.load(run_dir / "lambda.npy"),
    }
    outcomes, accuracy = check_ops(rec.ops, ctx)
    print(json.dumps({
        "versions": {"goldbachkit": gk.__version__, "numpy": np.__version__},
        "wall_s": wall,
        "cpu_s": cpu,
        "calibration_s": kernel_s,
        "peak_rss_mb": peak_mb,
        "ops": outcomes,
        "accuracy": accuracy,
        "spans": rec.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Paired benchmark runs of two trees: the figures a performance claim needs.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload circle \
        [--pairs 10] [--seconds 8] [--seed 1]

Each pair runs ``perfbench/run.py`` of both trees once, one after the
other, with the same seed on both sides (seed + pair index).  The tree that
runs first alternates from pair to pair, so a drift of machine speed during
the runs favours neither side.  For each end-to-end metric that the
parent's BENCHMARK.json names, the script prints each pair's two values,
then the median of each side, the interquartile range (IQR) of the
parent's runs, the number of pairs in which the change is better, and one
verdict:

  gain        the change is better in at least 9 of 10 pairs (ties count
              for neither side) and its median is better by more than the
              parent's IQR;
  worse       the change's median is worse than the parent's by more than
              the metric's ``bound``, relative to the parent's median (or
              absolute, where that median is 0);
  unresolved  neither.

Standard library only.  Exits 1 if a run fails or reads "correct": false.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import NamedTuple


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run of ``tree``; its last stdout line, parsed."""
    command = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: exit {done.returncode}\n{done.stderr}")
    return json.loads(lines[-1])


class Paired(NamedTuple):
    wins: int  # pairs in which the change is better
    ties: int
    before: float  # the parent's median
    after: float  # the change's median
    iqr: float  # the parent's interquartile range


def paired(better: str, parent: list[float], change: list[float]) -> Paired:
    """The paired figures of one metric whose ``better`` is lower or higher."""
    sign = 1.0 if better == "lower" else -1.0
    q1, _, q3 = statistics.quantiles(parent, n=4)
    return Paired(wins=sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
                  ties=sum(c == p for p, c in zip(parent, change)),
                  before=statistics.median(parent), after=statistics.median(change),
                  iqr=q3 - q1)


def verdict(better: str, bound: float, parent: list[float], change: list[float]) -> str:
    """``gain``, ``worse`` or ``unresolved`` for one metric's paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    figures = paired(better, parent, change)
    gain = sign * (figures.before - figures.after)
    if 10 * figures.wins >= 9 * len(parent) and gain > figures.iqr:
        return "gain"
    if -gain > bound * (abs(figures.before) or 1.0):
        return "worse"
    return "unresolved"


def summary(metric: dict, parent: list[float], change: list[float]) -> str:
    """One metric's line: both medians, the relative change, the parent's
    IQR, the pairs in which the change is better and tied, and the verdict."""
    figures = paired(metric["better"], parent, change)
    before, after = figures.before, figures.after
    relative = f"{(after - before) / before:+.1%}" if before else "n/a"
    return (f"{metric['name']:<14} {before:<12.6g} {after:<12.6g} {relative:>8}  "
            f"gap {abs(after - before):<10.3g} IQR {figures.iqr:<10.3g} "
            f"better {figures.wins}/{len(parent)}, tied {figures.ties}  "
            f"{verdict(metric['better'], metric['bound'], parent, change)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("need at least 2 pairs for an IQR")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    runs = {"parent": [], "change": []}
    healthy = True
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run_once(trees[side], args.workload, seed, args.seconds)
            runs[side].append(result)
            healthy &= bool(result["correct"]) and result["failed"] == 0
            print(f"pair {pair + 1} seed {seed} {side}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()),
                  flush=True)
    print(f"\n{args.workload}, {args.pairs} pairs; metric, parent median, change median")
    for metric in spec["end_to_end"]:
        values = {side: [r["metrics"][metric["name"]]["value"] for r in runs[side]]
                  for side in runs}
        print(summary(metric, values["parent"], values["change"]))
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())

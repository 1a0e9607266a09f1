#!/usr/bin/env python3
"""Byte-identity gate for the command-line interface.

Runs a fixed set of ``goldbachkit`` commands in-process, each in a fresh
temporary working directory, and prints one sha256 per command for its
stdout, its stderr and every side file it writes (``--output``,
``--arc-csv``, ``--maxg-output``), together with its exit code.  A refactor
that promises byte-identical output is checked by capturing the hashes
before it and comparing after:

    python3 scripts/cli_golden.py > before.txt
    ... change the code ...
    python3 scripts/cli_golden.py --compare before.txt

The package is imported from the ``src`` directory next to this script, so
two checkouts can be compared without installing either.  The zero-table
environment variable is ignored, so every run uses the bundled table.
"""

import argparse
import contextlib
import hashlib
import io
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from goldbachkit import cli  # noqa: E402

# (name, argv, side files the command writes, relative to its directory)
COMMANDS = [
    ("sieve-stdout", ["sieve", "--limit", "300"], []),
    ("sieve-file", ["sieve", "--limit", "5000", "--output", "sieve.csv"], ["sieve.csv"]),
    ("gk-k2-fft", ["gk", "--k", "2", "--limit", "3000"], []),
    ("gk-k3-direct", ["gk", "--k", "3", "--limit", "1000", "--method", "direct"], []),
    ("gk-k4-both", ["gk", "--k", "4", "--limit", "600", "--method", "both"], []),
    ("gk-k2-both-files",
     ["gk", "--k", "2", "--limit", "700", "--method", "both", "--output", "gk"],
     ["gk.direct.csv", "gk.fft.csv"]),
    ("gk-k3-fft-file",
     ["gk", "--k", "3", "--limit", "2000", "--output", "g3.csv"], ["g3.csv"]),
    ("gk-k2-both-2048", ["gk", "--k", "2", "--limit", "2048", "--method", "both"], []),
    # odd limit: the k = 2 route's odd half of Lambda has odd length 1025
    ("gk-k2-both-2049", ["gk", "--k", "2", "--limit", "2049", "--method", "both"], []),
    ("gk-direct-cap", ["gk", "--k", "2", "--limit", "100000", "--method", "direct"], []),
    ("sk-k2-fft", ["sk", "--k", "2", "--limit", "2000"], []),
    ("sk-k3-direct", ["sk", "--k", "3", "--limit", "800", "--method", "direct"], []),
    ("sk-k4-fft", ["sk", "--k", "4", "--limit", "1000"], []),
    ("sk-k2-file", ["sk", "--k", "2", "--limit", "500", "--output", "sk.csv"], ["sk.csv"]),
    ("residual-k2", ["residual", "--k", "2", "--limit", "65536", "--grid", "1024:65536:2"], []),
    ("residual-k3-file",
     ["residual", "--k", "3", "--limit", "8192", "--grid", "64:8192:1.5",
      "--output", "res3.csv"], ["res3.csv"]),
    ("zeros-info", ["zeros-info"], []),
    ("circle-check-arc",
     ["circle-check", "--n", "600", "--arc-csv", "arc.csv"], ["arc.csv"]),
    ("circle-check-k3-file",
     ["circle-check", "--n", "300", "--k", "3", "--delta", "0.3", "--output", "circle.json"],
     ["circle.json"]),
    # k = 3 moves the major-arc threshold, so the arc labels differ from k = 2
    ("circle-check-k3-arc",
     ["circle-check", "--n", "300", "--k", "3", "--delta", "0.3", "--arc-csv", "arc.csv"],
     ["arc.csv"]),
    ("circle-check-nodes",
     ["circle-check", "--n", "500", "--nodes", "2000", "--arc-csv", "arc.csv"], ["arc.csv"]),
    # 4001 is prime: the transform length numpy cannot factor into small radices
    ("circle-check-prime-nodes",
     ["circle-check", "--n", "1000", "--nodes", "4001", "--output", "circle.json"],
     ["circle.json"]),
    # the circle benchmark workload's size: N = 6000, M = 8N
    ("circle-check-workload",
     ["circle-check", "--n", "6000", "--nodes", "48000", "--arc-csv", "arc.csv"], ["arc.csv"]),
    ("omega-scan-k2",
     ["omega-scan", "--k", "2", "--x-grid", "64:1024:2", "--output", "chain.csv",
      "--maxg-output", "maxg.csv"], ["chain.csv", "maxg.csv"]),
    # no output flag: the chain table, then the max-G table, both on stdout
    ("omega-scan-k2-stdout", ["omega-scan", "--k", "2", "--x-grid", "64:256:2"], []),
    ("omega-scan-k3",
     ["omega-scan", "--k", "3", "--x-grid", "64:512:2", "--output", "chain.csv",
      "--maxg-output", "maxg.csv"], ["chain.csv", "maxg.csv"]),
    # q = 210 >= 2x at x = 64: max_gk_scan falls back to the default q there
    ("omega-scan-y11",
     ["omega-scan", "--k", "2", "--x-grid", "64:256:2", "--y", "11", "--output", "chain.csv",
      "--maxg-output", "maxg.csv"], ["chain.csv", "maxg.csv"]),
    # q = 2310, phi(q) = 480: levels 2 and 3 over many classes, fallback below x = 1155
    ("omega-scan-k3-y13",
     ["omega-scan", "--k", "3", "--x-grid", "64:1024:2", "--y", "13", "--output", "chain.csv",
      "--maxg-output", "maxg.csv"], ["chain.csv", "maxg.csv"]),
    # q = 2310 < 2x: every class holds entries, so both groupings of the chain are populated
    ("omega-scan-k2-y13",
     ["omega-scan", "--k", "2", "--x-grid", "2048:4096:2", "--y", "13", "--output", "chain.csv",
      "--maxg-output", "maxg.csv"], ["chain.csv", "maxg.csv"]),
    ("identities", ["identities", "--kmax", "25"], []),
    ("singular-series-k2", ["singular-series", "--k", "2", "--n", "30030"], []),
    ("singular-series-k3-file",
     ["singular-series", "--k", "3", "--n", "1001", "--cutoff", "1000",
      "--output", "ss.csv"], ["ss.csv"]),
    # a prime n above the cutoff: its factor enters the product after the sieved primes
    ("singular-series-k3-prime-n",
     ["singular-series", "--k", "3", "--n", "100000000000031"], []),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(argv: list[str], side_files: list[str]) -> list[tuple[str, str]]:
    """Run one command; return (stream, hash) pairs, exit code first."""
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            rows = [("exit", str(code)),
                    ("stdout", _sha(out.getvalue().encode())),
                    ("stderr", _sha(err.getvalue().encode()))]
            for name in side_files:
                path = pathlib.Path(work) / name
                digest = _sha(path.read_bytes()) if path.exists() else "missing"
                rows.append((name, digest))
        finally:
            os.chdir(previous)
    return rows


def collect() -> list[str]:
    os.environ.pop(cli.ZEROS_ENV_VAR, None)
    lines = []
    for name, argv, side_files in COMMANDS:
        for stream, digest in run_command(argv, side_files):
            lines.append(f"{name} {stream} {digest}")
    return lines


def _by_command(lines: list[str]) -> dict[str, list[str]]:
    grouped: dict[str, list[str]] = {}
    for line in lines:
        grouped.setdefault(line.split(" ", 1)[0], []).append(line)
    return grouped


def compare(lines: list[str], reference_path: str) -> int:
    """Report each command as identical or not; nonzero exit on any change."""
    with open(reference_path, encoding="ascii") as handle:
        expected = _by_command([line.rstrip("\n") for line in handle if line.strip()])
    actual = _by_command(lines)
    names = sorted(set(expected) | set(actual))
    differing = 0
    for name in names:
        before, after = expected.get(name, []), actual.get(name, [])
        if before == after:
            print(f"identical {name}")
            continue
        differing += 1
        print(f"DIFFERS {name}")
        for line in before:
            if line not in after:
                print(f"  reference: {line}")
        for line in after:
            if line not in before:
                print(f"  current:   {line}")
    print(f"{len(names) - differing} identical, {differing} differ")
    return 1 if differing else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", metavar="FILE", default=None,
                        help="hash file from an earlier run to compare against")
    args = parser.parse_args()
    lines = collect()
    if args.compare:
        return compare(lines, args.compare)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

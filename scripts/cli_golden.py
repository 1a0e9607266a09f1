#!/usr/bin/env python3
"""Byte-identity gate for the command-line interface.

Runs a fixed set of ``goldbachkit`` commands in-process, each in a fresh
temporary working directory, and captures each command's exit code, its
stdout, its stderr and every side file it writes (``--output``,
``--arc-csv``, ``--maxg-output``).  ``--save DIR`` writes these under
``DIR/<command>/`` (files ``exit``, ``stdout``, ``stderr`` and each side
file by its name); ``--diff DIR`` reruns the set and compares every output
with the saved one, byte for byte:

    python3 scripts/cli_golden.py --save before/
    ... change the code ...
    python3 scripts/cli_golden.py --diff before/

``--diff`` exits 1 if any output differs in any byte or is missing on one
side.  For each differing command it reports, per CSV column or JSON field,
the largest relative move and where it occurs, and the entries that became
or stopped being exact zeros; text and exit-code differences are reported
as such, and an output whose bytes differ while every value is equal
(reordered JSON keys, other whitespace, a renamed log field) as exactly
that.

The package is imported from the ``src`` directory next to this script, so
two checkouts can be compared without installing either.  The zero-table
environment variable is ignored, so every run uses the bundled table.
"""

import argparse
import contextlib
import io
import json
import math
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
    # delta = 0.99 widens the major arc from the workload's 5 nodes to 23
    ("circle-check-wide-window",
     ["circle-check", "--n", "6000", "--k", "2", "--delta", "0.99", "--arc-csv", "arc.csv"],
     ["arc.csv"]),
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
    # q = 2310 < 2x: every class of the chain holds entries
    ("omega-scan-k2-y13",
     ["omega-scan", "--k", "2", "--x-grid", "2048:4096:2", "--y", "13", "--output", "chain.csv",
      "--maxg-output", "maxg.csv"], ["chain.csv", "maxg.csv"]),
    # x = 10^6: the default cutoff gives q = 30030, the largest modulus of the set
    ("omega-scan-k2-1e6", ["omega-scan", "--k", "2", "--x-grid", "1000000:1000000:2"], []),
    ("identities", ["identities", "--kmax", "25"], []),
    ("singular-series-k2", ["singular-series", "--k", "2", "--n", "30030"], []),
    ("singular-series-k3-file",
     ["singular-series", "--k", "3", "--n", "1001", "--cutoff", "1000",
      "--output", "ss.csv"], ["ss.csv"]),
    # a prime n above the cutoff: its factor enters the product after the sieved primes
    ("singular-series-k3-prime-n",
     ["singular-series", "--k", "3", "--n", "100000000000031"], []),
]


def run_command(argv: list[str], side_files: list[str]) -> dict[str, bytes | None]:
    """Run one command; return its outputs by stream name, exit code first.

    The streams are ``exit``, ``stdout``, ``stderr`` and then each side file,
    None for a side file the command did not write.
    """
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            outputs = {"exit": str(code).encode(),
                       "stdout": out.getvalue().encode(),
                       "stderr": err.getvalue().encode()}
            for name in side_files:
                path = pathlib.Path(work) / name
                outputs[name] = path.read_bytes() if path.exists() else None
        finally:
            os.chdir(previous)
    return outputs


def run_all() -> dict[str, dict[str, bytes | None]]:
    os.environ.pop(cli.ZEROS_ENV_VAR, None)
    return {name: run_command(argv, side_files) for name, argv, side_files in COMMANDS}


def save(runs: dict[str, dict[str, bytes | None]], directory: pathlib.Path) -> None:
    """Write each command's outputs under ``directory/<command>/``."""
    for name, outputs in runs.items():
        folder = directory / name
        folder.mkdir(parents=True)
        for stream, data in outputs.items():
            if data is not None:
                (folder / stream).write_bytes(data)


def load(directory: pathlib.Path) -> dict[str, dict[str, bytes]]:
    """Read a directory written by save: outputs by command, then by stream."""
    return {folder.name: {path.name: path.read_bytes() for path in sorted(folder.iterdir())}
            for folder in sorted(directory.iterdir()) if folder.is_dir()}


# at most this many rows or text differences are listed per column or stream
_LISTED = 8


def _listed(items: list) -> str:
    shown = ", ".join(str(item) for item in items[:_LISTED])
    return shown + (f" and {len(items) - _LISTED} more" if len(items) > _LISTED else "")


def _at_lines(rows: list) -> str:
    """Where zeros appeared or vanished: nothing for a JSON field, else its lines."""
    if rows == [None]:
        return ""
    return f" at line {rows[0]}" if len(rows) == 1 else f" at lines {_listed(rows)}"


def _number(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _json_cells(value, path: str, cells: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _json_cells(item, f"{path}.{key}" if path else str(key), cells)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _json_cells(item, f"{path}[{index}]", cells)
    else:
        cells[path] = (f"field {path}", None, json.dumps(value))


def _text_cells(text: str) -> dict:
    """Cells of a line-oriented output, keyed by (line, field, token).

    Lines split into fields at commas.  A line of two or more fields none
    of which is a number is a header: the fields of later lines of the same
    width are named by it.  Without one, the fields of a line whose first
    field is text are named by that field (``count,100``).  A field holding
    ``name=value`` tokens (log records) splits into its tokens, named by
    their names.
    """
    cells = {}
    header: list[str] = []
    for row, line in enumerate(text.split("\n"), 1):
        fields = line.split(",")
        if len(fields) > 1 and all(_number(field) is None for field in fields):
            header = fields
        for column, field in enumerate(fields):
            if len(fields) == len(header) > 1:
                label = f"column {header[column]}"
            elif column > 0 and _number(fields[0]) is None:
                label = f"column {fields[0]}"
            else:
                label = f"column {column + 1}"
            tokens = field.split(" ") if "=" in field else [field]
            for index, token in enumerate(tokens):
                name, equals, value = token.rpartition("=")
                if equals:
                    cells[(row, column, index)] = (f"column {name}", row, value)
                else:
                    cells[(row, column, index)] = (label, row, token)
    return cells


def _cells(data: bytes) -> dict:
    """Cells of one output: key -> (column or field label, line or None, text)."""
    text = data.decode("utf-8", errors="replace")
    if text.lstrip().startswith(("{", "[")):
        try:
            parsed = json.loads(text)
        except ValueError:
            pass
        else:
            cells: dict = {}
            _json_cells(parsed, "", cells)
            return cells
    return _text_cells(text)


def stream_moves(stream: str, before: bytes | None, after: bytes | None) -> list[str]:
    """How one output moved between a reference and a current run, one line each.

    Empty exactly when the two are equal byte for byte (both None included).
    """
    if before == after:
        return []
    if before is None or after is None:
        return [f"{stream}: {'missing in the reference' if before is None else 'missing now'}"]
    if stream == "exit":
        return [f"exit code {before.decode()} -> {after.decode()}"]
    old, new = _cells(before), _cells(after)
    report = []
    if old.keys() != new.keys():
        if any(isinstance(key, tuple) for key in (*old, *new)):
            # line-oriented: once the layout shifts, later lines no longer pair up
            lines = before.count(b"\n"), after.count(b"\n")
            return [f"{stream}: layout differs ({lines[0]} -> {lines[1]} lines); "
                    "values not compared"]
        for key in sorted(old.keys() - new.keys()):
            report.append(f"{stream} field {key}: missing now")
        for key in sorted(new.keys() - old.keys()):
            report.append(f"{stream} field {key}: missing in the reference")
    columns: dict[str, dict[str, list]] = {}
    texts = []
    for key in (key for key in old if key in new):
        label, row, was = old[key]
        now = new[key][2]
        if was == now:
            continue
        a, b = _number(was), _number(now)
        at = f" at line {row}" if row else ""
        if a is None or b is None or a == b:
            texts.append(f"{label}{at}: {was!r} -> {now!r}")
            continue
        moves = columns.setdefault(label, {"moved": [], "became": [], "stopped": []})
        if a == 0.0:
            moves["stopped"].append(row)
        else:
            moves["moved"].append((abs(b - a) / abs(a), at, was, now))
            if b == 0.0:
                moves["became"].append(row)
    for label, moves in columns.items():
        if moves["moved"]:
            rel, at, was, now = max(moves["moved"], key=lambda move: move[0])
            report.append(f"{stream} {label}: largest relative move {rel:.3g}{at} "
                          f"({was} -> {now}), {len(moves['moved'])} moved")
        if moves["became"]:
            report.append(f"{stream} {label}: became exact zero{_at_lines(moves['became'])}")
        if moves["stopped"]:
            report.append(f"{stream} {label}: stopped being exact zero"
                          f"{_at_lines(moves['stopped'])}")
    if texts:
        report.append(f"{stream} text: {_listed(texts)}")
    # the bytes differ, so a change the cells cannot show is still reported
    return report or [f"{stream}: bytes differ, every value equal"]


def diff(reference: dict, current: dict) -> int:
    """Report each command as identical or by its moves; 1 if any output differs."""
    names = sorted(set(reference) | set(current))
    differing = 0
    for name in names:
        if name not in reference or name not in current:
            differing += 1
            print(f"DIFFERS {name}: {'not run now' if name not in current else 'not in the reference'}")
            continue
        before, after = reference[name], current[name]
        fixed = ["exit", "stdout", "stderr"]
        streams = fixed + sorted((set(before) | set(after)) - set(fixed))
        report = [line for stream in streams
                  for line in stream_moves(stream, before.get(stream), after.get(stream))]
        if not report:
            print(f"identical {name}")
            continue
        differing += 1
        print(f"DIFFERS {name}")
        for line in report:
            print(f"  {line}")
    print(f"{len(names) - differing} identical, {differing} differ")
    return 1 if differing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--save", metavar="DIR", type=pathlib.Path, default=None,
                      help="write every output under DIR/<command>/")
    mode.add_argument("--diff", metavar="DIR", type=pathlib.Path, default=None,
                      help="compare every output with those saved by --save")
    args = parser.parse_args(argv)
    if args.save is not None:
        if args.save.exists() and not args.save.is_dir():
            parser.error(f"{args.save} is not a directory")
        if args.save.exists() and any(args.save.iterdir()):
            parser.error(f"{args.save} is not empty")
        save(run_all(), args.save)
        return 0
    if not args.diff.is_dir():
        parser.error(f"{args.diff} is not a directory")
    return diff(load(args.diff), run_all())


if __name__ == "__main__":
    sys.exit(main())

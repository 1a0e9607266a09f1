"""The verdicts of the paired benchmark script (scripts/bench_pairs.py)."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ten parent runs: median 1.0, quartiles 0.9775 and 1.0225, IQR 0.045
PARENT = [0.95, 0.97, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.03, 1.05]


def test_parent_figures(pairs):
    figures = pairs.paired("lower", PARENT, [v - 0.1 for v in PARENT])
    assert figures.wins == 10 and figures.ties == 0
    assert figures.before == 1.0 and figures.after == pytest.approx(0.9)
    assert figures.iqr == pytest.approx(0.045)


@pytest.mark.parametrize("change,expected", [
    # better in 10 of 10 and 9 of 10, the gap 0.1 above the IQR 0.045
    ([v - 0.1 for v in PARENT], "gain"),
    ([v - 0.1 for v in PARENT[:9]] + [2.0], "gain"),
    # better in 8 of 10: not enough pairs, whatever the gap
    ([v - 0.1 for v in PARENT[:8]] + [2.0, 2.0], "unresolved"),
    # a tie counts for neither side
    ([v - 0.1 for v in PARENT[:8]] + [PARENT[8], 2.0], "unresolved"),
    # better in every pair, but by less than the parent's IQR
    ([v - 0.01 for v in PARENT], "unresolved"),
    # worse by 20% and by 30% against a bound of 25%
    ([v * 1.2 for v in PARENT], "unresolved"),
    ([v * 1.3 for v in PARENT], "worse"),
])
def test_verdict_lower_is_better(pairs, change, expected):
    assert pairs.verdict("lower", 0.25, PARENT, change) == expected


def test_verdict_higher_is_better(pairs):
    assert pairs.verdict("higher", 0.25, PARENT, [v + 0.1 for v in PARENT]) == "gain"
    assert pairs.verdict("higher", 0.25, PARENT, [v - 0.1 for v in PARENT]) == "unresolved"
    assert pairs.verdict("higher", 0.25, PARENT, [v * 0.7 for v in PARENT]) == "worse"


def test_verdict_on_a_zero_parent_median(pairs):
    # fail_ratio reads 0 on a healthy parent: the bound applies as absolute
    zeros = [0.0] * 10
    assert pairs.verdict("lower", 0.05, zeros, zeros) == "unresolved"
    assert pairs.verdict("lower", 0.05, zeros, [0.0] * 5 + [0.04] * 5) == "unresolved"
    assert pairs.verdict("lower", 0.05, zeros, [0.1] * 10) == "worse"


def test_summary_line_ends_with_the_verdict(pairs):
    metric = {"name": "scaled_cpu_s", "better": "lower", "bound": 0.25}
    line = pairs.summary(metric, PARENT, [v - 0.1 for v in PARENT])
    assert line.startswith("scaled_cpu_s")
    assert "better 10/10, tied 0" in line and line.endswith("gain")

import json
import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goldbachkit import BoundExceeded, circle, mangoldt
from goldbachkit.cli import CliError, _parse_grid, _primorial_exceeds, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_identities_command(capsys):
    code, out, _ = run_cli(capsys, "identities", "--kmax", "12")
    assert code == 0
    lines = out.splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "level=error" in err


def test_sieve_output(tmp_path, capsys):
    target = tmp_path / "sieve.csv"
    code, _, err = run_cli(capsys, "sieve", "--limit", "10", "--output", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "n,lambda"
    assert lines[1] == "1,0"
    # 17 significant digits of the double log(2), which read back exactly
    n, value = lines[2].split(",")
    assert n == "2"
    assert value == f"{math.log(2):.17g}"
    assert float(value) == math.log(2)
    assert "psi=" in err


def test_gk_both_reports_discrepancy(capsys):
    code, out, _ = run_cli(capsys, "gk", "--k", "3", "--limit", "128",
                           "--method", "both")
    assert code == 0
    final = out.splitlines()[-1]
    label, value = final.split(",")
    assert label == "max_discrepancy"
    assert float(value) <= 1e-9


def test_gk_direct_cap(capsys):
    code, _, err = run_cli(capsys, "gk", "--k", "2", "--limit", "100000",
                           "--method", "direct")
    assert code == 1
    assert "capped" in err


@pytest.mark.parametrize("argv", [
    ("gk", "--k", "16", "--limit", "8388608"),
    ("sk", "--k", "16", "--limit", "8388608"),
    ("residual", "--k", "16", "--limit", "8388608", "--grid", "16:32:2"),
    ("omega-scan", "--k", "16", "--x-grid", "300000:300000:2"),
])
def test_fft_size_refused_before_sieving(monkeypatch, capsys, argv):
    sieved = []

    def refuse(limit):
        sieved.append(limit)
        raise MemoryError(f"sieved to {limit} before checking the FFT size")

    monkeypatch.setattr(mangoldt, "build_mangoldt", refuse)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "exceeds supported size" in err
    assert sieved == []


@pytest.mark.parametrize("x_grid, y, bound", [
    ("64:64:2", "30", 256),
    ("64:64:2", "1e12", 256),
    # y below 2k*x_max + 1: still decided without the primorial of y
    ("1000000:1000000:2", "3e6", 4000000),
])
def test_omega_modulus_refused_before_sieving(monkeypatch, capsys, x_grid, y, bound):
    built = []

    def refuse(arg):
        built.append(arg)
        raise MemoryError(f"built a table or primorial for {arg} before checking q")

    monkeypatch.setattr(mangoldt, "build_mangoldt", refuse)
    monkeypatch.setattr(mangoldt, "primorial", refuse)
    code, _, err = run_cli(capsys, "omega-scan", "--x-grid", x_grid, "--y", y)
    assert code == 1
    assert f"exceeds 2k*x_max = {bound}" in err
    assert built == []


@pytest.mark.parametrize("argv", [
    ("sieve", "--limit", "134217728"),
    ("sieve", "--limit", "1000000000000"),
    ("singular-series", "--k", "2", "--n", "30", "--cutoff", "134217728"),
    ("singular-series", "--k", "2", "--n", "30", "--cutoff", "1e12"),
])
def test_sieve_size_refused_before_allocating(monkeypatch, capsys, argv):
    allocated = []

    def refuse(shape, *args, **kwargs):
        allocated.append(shape)
        raise MemoryError(f"allocated {shape} before checking the sieve size")

    monkeypatch.setattr(mangoldt.np, "ones", refuse)
    monkeypatch.setattr(mangoldt.np, "zeros", refuse)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "exceeds supported size" in err
    assert allocated == []


def test_sk_direct_cap(capsys):
    code, _, err = run_cli(capsys, "sk", "--k", "2", "--limit", "10000",
                           "--method", "direct")
    assert code == 1
    assert "direct method capped at 8192; use --method fft" in err


def test_sk_output(tmp_path, capsys):
    target = tmp_path / "sk.csv"
    code, _, _ = run_cli(capsys, "sk", "--k", "2", "--limit", "64",
                         "--output", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "X,S_k"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_residual_run_and_determinism(tmp_path, capsys):
    args = ("residual", "--k", "2", "--limit", "2048",
            "--grid", "512:2048:2")
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    code, _, _ = run_cli(capsys, *args, "--output", str(first))
    assert code == 0
    code, _, _ = run_cli(capsys, *args, "--output", str(second))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0] == "X,S_k,main,H_k,residual,normalized"
    assert len(lines) == 4  # grid 512, 1024, 2048


def test_residual_grid_exceeds_limit(capsys):
    code, _, err = run_cli(capsys, "residual", "--k", "2", "--limit", "1024",
                           "--grid", "512:4096:2")
    assert code == 1
    assert "exceeds sieve limit" in err


def test_residual_missing_zero_file(capsys):
    code, _, err = run_cli(capsys, "residual", "--k", "2", "--limit", "1024",
                           "--grid", "512:1024:2", "--zeros", "/nonexistent.txt")
    assert code == 1
    assert "not found" in err


def test_residual_grid_below_k(capsys):
    code, _, err = run_cli(capsys, "residual", "--k", "2", "--limit", "1024",
                           "--grid", "1:50:2")
    assert code == 1
    assert "below k" in err


def test_residual_computation_error(capsys):
    # valid flags the library refuses: the k = 2 transform for N = 2^26
    # exceeds the supported size, a computation-stage failure
    code, _, err = run_cli(capsys, "residual", "--k", "2", "--limit", "67108864",
                           "--grid", "1024:2048:2")
    assert code == 2
    assert "exceeds supported size" in err


@pytest.mark.parametrize("argv, code, message", [
    (("residual", "--k", "2", "--limit", "100", "--grid", "2:1000000000000:1.00001"),
     1, "grid stop 1000000000000 exceeds sieve limit 100"),
    (("omega-scan", "--x-grid", "2:1000000000000:1.00001"),
     2, "x-grid stop 1000000000000: FFT padding"),
])
def test_grid_stop_refused_before_points_built(capsys, argv, code, message):
    # 2.7 million points lie below the stop: the bound on the stop refuses them unbuilt
    started = time.perf_counter()
    got, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert got == code
    assert out == ""
    assert message in err


def test_bad_grid_spec(capsys):
    code, _, err = run_cli(capsys, "residual", "--k", "2", "--limit", "1024",
                           "--grid", "10:5:2")
    assert code == 1


def test_grid_ratio_near_one_refused_at_once(capsys):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "residual", "--k", "2", "--limit", "100",
                             "--grid", "2:100:1.0000000001")
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert out == ""
    assert "holds only 99 integers; raise the ratio" in err


def test_grid_points_kept():
    assert _parse_grid("64:8192:1.5") == [64, 96, 144, 216, 324, 486, 729, 1094, 1640,
                                          2460, 3691, 5536]
    assert _parse_grid("1:4:2") == [1, 2, 4]
    assert _parse_grid("64:64:2") == [64]
    with pytest.raises(CliError, match="takes 4 steps"):  # 1.5 and 2.25 both round to 2
        _parse_grid("1:3:1.5")


def _grid_steps(start, stop, ratio):
    """round(current) at every step of _parse_grid's loop, repeats kept."""
    points, current = [], float(start)
    while current <= stop + 0.5:
        points.append(int(round(current)))
        current *= ratio
    return points


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=0, max_value=2000),
       st.floats(min_value=1.0001, max_value=3.0))
def test_grid_refused_only_when_points_repeat(start, width, ratio):
    spec = f"{start}:{start + width}:{ratio!r}"
    steps = _grid_steps(start, start + width, ratio)
    try:
        points = _parse_grid(spec)
    except CliError:
        assert len(set(steps)) < len(steps), spec
    else:
        assert points == sorted({p for p in steps if p <= start + width}), spec


def test_zeros_info_bundled(capsys):
    code, out, _ = run_cli(capsys, "zeros-info")
    assert code == 0
    lines = dict(line.split(",", 1) for line in out.splitlines())
    assert lines["count"] == "100"
    assert lines["first"].startswith("14.13472514")


def test_zeros_env_override(tmp_path, capsys, monkeypatch):
    custom = tmp_path / "two.txt"
    custom.write_text("14.1\n21.0\n")
    monkeypatch.setenv("GOLDBACHKIT_ZEROS", str(custom))
    code, out, _ = run_cli(capsys, "zeros-info")
    assert code == 0
    assert "count,2" in out


def test_circle_check(tmp_path, capsys):
    report = tmp_path / "circle.json"
    sweep = tmp_path / "arcs.csv"
    code, _, _ = run_cli(capsys, "circle-check", "--n", "64",
                         "--output", str(report), "--arc-csv", str(sweep))
    assert code == 0
    data = json.loads(report.read_text())
    assert data["cauchy_rel_gap"] <= 1e-9
    assert data["fz_identity_max_error"] <= 1e-9
    assert 0 < data["major_arc_fraction"] < 1
    lines = sweep.read_text().splitlines()
    assert lines[0] == "theta,re,im,abs,arc_class"
    assert lines[1].endswith("major")


@pytest.mark.parametrize("n, k", [(64, 2), (600, 2), (300, 3)])
def test_arc_csv_has_no_negative_zero(tmp_path, capsys, n, k):
    # F is real at theta = 0 and 1/2, where a naive conjugate prints -0
    sweep = tmp_path / "arcs.csv"
    code, _, _ = run_cli(capsys, "circle-check", "--n", str(n), "--k", str(k),
                         "--arc-csv", str(sweep))
    assert code == 0
    rows = [line.split(",") for line in sweep.read_text().splitlines()[1:]]
    assert len(rows) == 4 * n
    assert not any(field == "-0" for row in rows for field in row)
    assert [(rows[j][0], rows[j][2]) for j in (0, 2 * n)] == [("0", "0"), ("0.5", "0")]


def test_circle_check_classifies_the_arcs_once(monkeypatch, tmp_path, capsys):
    calls = []
    classify = circle.arc_classify

    def counted(*args):
        calls.append(args)
        return classify(*args)

    monkeypatch.setattr(circle, "arc_classify", counted)
    code, _, _ = run_cli(capsys, "circle-check", "--n", "600",
                         "--arc-csv", str(tmp_path / "arcs.csv"))
    assert code == 0
    assert calls == [(600, 2, 0.5)]
    assert len((tmp_path / "arcs.csv").read_text().splitlines()) == 1 + 4 * 600


def test_omega_scan(tmp_path, capsys):
    chain = tmp_path / "chain.csv"
    maxg = tmp_path / "maxg.csv"
    code, _, _ = run_cli(capsys, "omega-scan", "--k", "2",
                         "--x-grid", "128:256:2",
                         "--output", str(chain), "--maxg-output", str(maxg))
    assert code == 0
    chain_lines = chain.read_text().splitlines()
    assert chain_lines[0] == "x,q,phi_q,level,min_lhs,rhs,margin"
    for line in chain_lines[1:]:
        fields = line.split(",")
        assert float(fields[6]) > 0.0  # positive margins throughout
    maxg_lines = maxg.read_text().splitlines()
    assert maxg_lines[0] == "x,q,maxG,bound,loglog_ref"
    assert len(maxg_lines) == 3


def test_omega_scan_fallback_is_reported(tmp_path, capsys):
    # q = 210 (y = 11) is not below 2x = 128, so the maxG bound falls back
    # to the default modulus q = 6 while the chain rows keep q = 210
    chain = tmp_path / "chain.csv"
    maxg = tmp_path / "maxg.csv"
    code, _, err = run_cli(capsys, "omega-scan", "--k", "2", "--x-grid", "64:64:2",
                           "--y", "11", "--output", str(chain), "--maxg-output", str(maxg))
    assert code == 0
    assert chain.read_text().splitlines()[1].startswith("64,210,")
    assert "level=warning op=omega-scan msg=maxG bound at x=64 uses the default q=6" in err
    header, row = maxg.read_text().splitlines()
    assert header == "x,q,maxG,bound,loglog_ref"
    assert row.startswith("64,6,")


@pytest.mark.parametrize("argv,message", [
    (("circle-check", "--n", "500", "--nodes", "100"), "100 nodes would alias"),
    (("circle-check", "--n", "100", "--delta", "1.5"), "need 0 < delta < 1"),
    (("sieve", "--limit", "1"), "need limit >= 2"),
    (("circle-check", "--n", "50", "--nodes", "0"), "0 nodes would alias"),
    (("omega-scan", "--x-grid", "64:64:2", "--y", "0"), "need y >= 2"),
    (("omega-scan", "--x-grid", "64:64:2", "--y", "1"), "need y >= 2"),
    (("omega-scan", "--x-grid", "64:64:2", "--k", "1"), "need k >= 2"),
    (("singular-series", "--k", "1", "--n", "30"), "need k >= 2"),
    (("singular-series", "--k", "2", "--n", "0"), "need n >= 1"),
    (("singular-series", "--k", "2", "--n", "30", "--cutoff", "1"), "need prime cutoff >= 2"),
    (("identities", "--kmax", "0"), "need kmax >= 2"),
    (("residual", "--k", "2", "--limit", "64", "--grid", "8:64:2", "--eps", "0.3"),
     "unrecognized arguments: --eps 0.3"),
    (("singular-series", "--k", "2", "--n", "30", "--cutoff", "nan"), "need prime cutoff >= 2"),
    (("singular-series", "--k", "2", "--n", "30", "--cutoff", "inf"), "need prime cutoff >= 2"),
    (("residual", "--k", "2", "--limit", "64", "--grid", "8:64:nan"), "ratio must exceed 1"),
    (("singular-series", "--k", "2", "--n", "1152921504606846976"),
     "need n < 18014398509481984"),
    (("omega-scan", "--x-grid", "64:64:2", "--y", "inf"), "exceeds 2k*x_max = 256"),
])
def test_flag_errors_exit_1(capsys, argv, message):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert message in err


def test_omega_nan_cutoff_refused_before_sieving(monkeypatch, capsys):
    def refuse(arg):
        raise MemoryError(f"built a table or primorial for {arg} before checking y")

    monkeypatch.setattr(mangoldt, "build_mangoldt", refuse)
    monkeypatch.setattr(mangoldt, "primorial", refuse)
    code, _, err = run_cli(capsys, "omega-scan", "--x-grid", "64:64:2", "--y", "nan")
    assert code == 1
    assert "need y >= 2" in err


def test_circle_nodes_refused_before_allocating(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise MemoryError("allocated before checking the node count")

    monkeypatch.setattr(circle.np, "arange", refuse)
    monkeypatch.setattr(mangoldt, "build_mangoldt", refuse)
    code, _, err = run_cli(capsys, "circle-check", "--n", "100", "--nodes", str(10**10))
    assert code == 2
    assert "exceeds supported size" in err


def test_bound_exceeded_is_a_computation_error(monkeypatch, capsys):
    def broken(k, n, theta):
        raise BoundExceeded("lemma ratio", 2.0, 1.0)

    monkeypatch.setattr(circle, "lemma1_check", broken)
    code, _, err = run_cli(capsys, "circle-check", "--n", "16")
    assert code == 2
    assert "BoundExceeded: lemma ratio = 2.0 exceeds its bound 1.0" in err


def test_omega_scan_grid_below_two(capsys):
    code, _, err = run_cli(capsys, "omega-scan", "--x-grid", "1:4:2")
    assert code == 1
    assert "x >= 2" in err


def test_singular_series_command(capsys):
    code, out, _ = run_cli(capsys, "singular-series", "--k", "2", "--n", "2",
                           "--cutoff", "1000")
    assert code == 0
    header, row = out.splitlines()
    assert header == "k,n,P,value,tail_bound"
    fields = row.split(",")
    assert float(fields[3]) == pytest.approx(1.3203, abs=2e-3)


@pytest.mark.parametrize("argv", [
    ("sieve", "--limit", "10", "--output", ""),
    ("gk", "--k", "2", "--limit", "10", "--output", ""),
    ("gk", "--k", "2", "--limit", "10", "--method", "both", "--output", ""),
    ("sk", "--k", "2", "--limit", "10", "--output", ""),
    ("residual", "--k", "2", "--limit", "64", "--grid", "8:64:2", "--output", ""),
    ("circle-check", "--n", "16", "--output", ""),
    ("circle-check", "--n", "16", "--arc-csv", ""),
    ("omega-scan", "--x-grid", "64:64:2", "--output", ""),
    ("omega-scan", "--x-grid", "64:64:2", "--maxg-output", ""),
    ("singular-series", "--k", "2", "--n", "30", "--output", ""),
])
def test_empty_output_path_is_a_flag_error(monkeypatch, tmp_path, capsys, argv):
    def refuse(*args, **kwargs):
        raise MemoryError("sieved before checking the output path")

    monkeypatch.setattr(mangoldt, "build_mangoldt", refuse)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    flag = argv[-2]
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"level=error op={argv[0]} msg={flag} needs a file name, got an empty string"
    ]
    assert list(tmp_path.iterdir()) == []


OUTPUT_FLAG_COMMANDS = [
    ("sieve", "--limit", "10", "--output"),
    ("gk", "--k", "2", "--limit", "10", "--output"),
    ("sk", "--k", "2", "--limit", "10", "--output"),
    ("residual", "--k", "2", "--limit", "64", "--grid", "8:64:2", "--output"),
    ("circle-check", "--n", "16", "--output"),
    ("circle-check", "--n", "16", "--arc-csv"),
    ("omega-scan", "--x-grid", "64:128:2", "--output"),
    ("omega-scan", "--x-grid", "64:128:2", "--maxg-output"),
    ("singular-series", "--k", "2", "--n", "30", "--output"),
]

UNUSABLE_OUTPUT_PATHS = {
    "directory": ("out", "'out' is a directory"),
    "missing-directory": ("nodir/x.csv", "'nodir/x.csv': no directory 'nodir'"),
}


@pytest.mark.parametrize("argv", OUTPUT_FLAG_COMMANDS)
@pytest.mark.parametrize("kind", UNUSABLE_OUTPUT_PATHS)
def test_unusable_output_path_is_a_flag_error(monkeypatch, tmp_path, capsys, argv, kind):
    def refuse(*args, **kwargs):
        raise MemoryError("sieved before checking the output path")

    monkeypatch.setattr(mangoldt, "build_mangoldt", refuse)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    path, message = UNUSABLE_OUTPUT_PATHS[kind]
    code, out, err = run_cli(capsys, *argv, path)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"level=error op={argv[0]} msg={argv[-1]} {message}"]
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert list((tmp_path / "out").iterdir()) == []


# (argv before the second path, the flag that named the file first, the second flag)
SHARED_PATH_COMMANDS = {
    "omega-scan": (("omega-scan", "--x-grid", "64:128:2", "--output", "same.csv",
                    "--maxg-output"), "--output", "--maxg-output"),
    "circle-check": (("circle-check", "--n", "16", "--output", "same.csv", "--arc-csv"),
                     "--output", "--arc-csv"),
    "residual": (("residual", "--k", "2", "--limit", "64", "--grid", "8:64:2",
                  "--zeros", "same.csv", "--output"), "--zeros", "--output"),
    "residual-env": (("residual", "--k", "2", "--limit", "64", "--grid", "8:64:2",
                      "--output"), "GOLDBACHKIT_ZEROS", "--output"),
}


@pytest.mark.parametrize("second", ["same.csv", "./same.csv"])
@pytest.mark.parametrize("command", SHARED_PATH_COMMANDS)
def test_two_paths_that_name_one_file_are_a_flag_error(monkeypatch, tmp_path, capsys,
                                                       command, second):
    def refuse(*args, **kwargs):
        raise MemoryError("sieved before checking the paths")

    monkeypatch.setattr(mangoldt, "build_mangoldt", refuse)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GOLDBACHKIT_ZEROS", "same.csv" if command == "residual-env" else "")
    before = "14.134725141734693\n"  # a zero table, which the residual cases read
    (tmp_path / "same.csv").write_text(before)
    argv, first, flag = SHARED_PATH_COMMANDS[command]
    code, out, err = run_cli(capsys, *argv, second)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"level=error op={argv[0]} msg={first} and {flag} name one file, {second!r}"
    ]
    assert [p.name for p in tmp_path.iterdir()] == ["same.csv"]
    assert (tmp_path / "same.csv").read_text() == before


def test_paths_that_differ_or_write_stdout_may_share_a_command(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "z.txt").write_text("14.134725141734693\n")
    # two output flags on stdout
    code, out, _ = run_cli(capsys, "omega-scan", "--x-grid", "64:64:2",
                           "--output", "-", "--maxg-output", "-")
    assert code == 0
    assert out.splitlines()[0] == "x,q,phi_q,level,min_lhs,rhs,margin"
    assert "x,q,maxG,bound,loglog_ref" in out.splitlines()
    # --zeros overrides the environment, so the environment's file is not read
    monkeypatch.setenv("GOLDBACHKIT_ZEROS", "res.csv")
    code, _, _ = run_cli(capsys, "residual", "--k", "2", "--limit", "64", "--grid", "8:64:2",
                         "--zeros", "z.txt", "--output", "res.csv")
    assert code == 0
    assert (tmp_path / "res.csv").read_text().startswith("X,")
    assert (tmp_path / "z.txt").read_text() == "14.134725141734693\n"


def test_gk_both_prefix_may_name_a_directory(monkeypatch, tmp_path, capsys):
    # --method both writes <prefix>.direct.csv and <prefix>.fft.csv
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gk").mkdir()
    code, _, _ = run_cli(capsys, "gk", "--k", "2", "--limit", "10", "--method", "both",
                         "--output", "gk")
    assert code == 0
    assert (tmp_path / "gk.direct.csv").is_file() and (tmp_path / "gk.fft.csv").is_file()
    # a file that still cannot be opened is a flag error that names it
    (tmp_path / "gk.direct.csv").unlink()
    (tmp_path / "gk.direct.csv").mkdir()
    code, _, err = run_cli(capsys, "gk", "--k", "2", "--limit", "10", "--method", "both",
                           "--output", "gk")
    assert code == 1
    assert "msg=cannot write 'gk.direct.csv': Is a directory" in err


def test_arc_csv_dash_writes_stdout(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "circle-check", "--n", "50", "--arc-csv", "-")
    assert code == 0
    lines = out.splitlines()
    header = lines.index("theta,re,im,abs,arc_class")
    assert json.loads("\n".join(lines[:header]))["n"] == 50
    assert len(lines) > header + 1 and lines[header + 1].endswith("major")
    assert list(tmp_path.iterdir()) == []


def test_gk_both_dash_writes_stdout(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "gk", "--k", "2", "--limit", "10",
                           "--method", "both", "--output", "-")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# k=2 N=10 method=direct"
    assert "# k=2 N=10 method=fft" in lines
    assert lines[-1].startswith("max_discrepancy,")
    assert list(tmp_path.iterdir()) == []


ZERO_TABLE_COMMANDS = [
    ("zeros-info",),
    ("residual", "--k", "2", "--limit", "64", "--grid", "8:64:2"),
]


@pytest.mark.parametrize("argv", ZERO_TABLE_COMMANDS)
def test_empty_zeros_path_is_a_flag_error(monkeypatch, capsys, argv):
    monkeypatch.setenv("GOLDBACHKIT_ZEROS", "/nonexistent")
    code, out, err = run_cli(capsys, *argv, "--zeros", "")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"level=error op={argv[0]} msg=--zeros needs a file name, got an empty string"
    ]


@pytest.mark.parametrize("argv", ZERO_TABLE_COMMANDS)
@pytest.mark.parametrize("kind, message", [
    ("empty", "no ordinates found in"),
    ("directory", "Is a directory"),
    ("non-ascii", "is not ASCII"),
    ("malformed", "/malformed: line 2: not a decimal ordinate: 'abc'"),
])
def test_unreadable_zero_file_exits_1(tmp_path, capsys, argv, kind, message):
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes({"non-ascii": b"\xff\n", "malformed": b"14.1\nabc\n"}.get(kind, b""))
    code, out, err = run_cli(capsys, *argv, "--zeros", str(path))
    assert code == 1
    assert out == ""
    assert f"level=error op={argv[0]} msg=" in err
    assert message in err


def _primorial_exceeds_by_gcd(y, bound):
    """The product of the primes below y against bound, finding primes by gcd."""
    product, p = 1, 2
    while p < y and product <= bound:
        if math.gcd(p, product) == 1:
            product *= p
        p += 1
    return product > bound


# primes below 41 multiply to 7420738134810, below 42 to 304250263527210
@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=2.0, max_value=500.0), st.integers(min_value=8, max_value=10**40))
@example(41.0, 7420738134809)
@example(41.0, 7420738134810)
@example(42.0, 304250263527209)
@example(42.0, 304250263527210)
@example(1e12, 10**40)
@example(1e12, 10**200)
@example(math.inf, 8)
@example(math.inf, 10**200)
def test_primorial_exceeds_matches_gcd_loop(y, bound):
    assert _primorial_exceeds(y, bound) == _primorial_exceeds_by_gcd(y, bound)

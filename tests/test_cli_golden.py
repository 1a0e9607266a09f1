"""The golden gate's --save/--diff modes (scripts/cli_golden.py)."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "cli_golden.py"


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("cli_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TABLE = b"# k=2 N=6\nn,value\n4,0\n5,1.25\n6,2.5\n"
REPORT = b'{\n  "gap": 0.0,\n  "ratio": 0.5\n}\n'

# (reference, current) outputs of one command; each pair changes one thing
PAIRS = {
    "identical": ({"exit": b"0", "stdout": TABLE, "report.json": REPORT},
                  {"exit": b"0", "stdout": TABLE, "report.json": REPORT}),
    "moved-digit": ({"exit": b"0", "stdout": TABLE, "report.json": REPORT},
                    {"exit": b"0", "stdout": TABLE.replace(b"2.5", b"2.6"),
                     "report.json": REPORT}),
    "new-zero": ({"exit": b"0", "stdout": TABLE, "report.json": REPORT},
                 {"exit": b"0", "stdout": TABLE.replace(b"1.25", b"0"),
                  "report.json": REPORT}),
}


def _diff_saved(golden, tmp_path, capsys, before, after):
    for side, outputs in (("before", before), ("after", after)):
        golden.save({"gk-small": outputs}, tmp_path / side)
    code = golden.diff(golden.load(tmp_path / "before"), golden.load(tmp_path / "after"))
    return code, capsys.readouterr().out.splitlines()


def test_identical_pair(golden, tmp_path, capsys):
    code, lines = _diff_saved(golden, tmp_path, capsys, *PAIRS["identical"])
    assert code == 0
    assert lines == ["identical gk-small", "1 identical, 0 differ"]


def test_moved_digit_pair(golden, tmp_path, capsys):
    code, lines = _diff_saved(golden, tmp_path, capsys, *PAIRS["moved-digit"])
    assert code == 1
    assert lines == [
        "DIFFERS gk-small",
        "  stdout column value: largest relative move 0.04 at line 5 (2.5 -> 2.6), 1 moved",
        "0 identical, 1 differ",
    ]


def test_new_zero_pair(golden, tmp_path, capsys):
    code, lines = _diff_saved(golden, tmp_path, capsys, *PAIRS["new-zero"])
    assert code == 1
    assert lines == [
        "DIFFERS gk-small",
        "  stdout column value: largest relative move 1 at line 4 (1.25 -> 0), 1 moved",
        "  stdout column value: became exact zero at line 4",
        "0 identical, 1 differ",
    ]


def test_json_fields_and_zero_that_moved(golden):
    after = REPORT.replace(b"0.0", b"1e-16").replace(b"0.5", b"0.25")
    assert golden.stream_moves("report.json", REPORT, after) == [
        "report.json field gap: stopped being exact zero",
        "report.json field ratio: largest relative move 0.5 (0.5 -> 0.25), 1 moved",
    ]


def test_text_exit_code_and_layout_are_reported_as_such(golden):
    assert golden.stream_moves("exit", b"0", b"1") == ["exit code 0 -> 1"]
    assert golden.stream_moves("stdout", b"PASS a\n", b"FAIL a\n") == [
        "stdout text: column 1 at line 1: 'PASS a' -> 'FAIL a'"]
    assert golden.stream_moves("out.csv", b"x\n", None) == ["out.csv: missing now"]
    assert golden.stream_moves("out.csv", None, b"x\n") == ["out.csv: missing in the reference"]
    assert golden.stream_moves("stdout", TABLE, TABLE + b"7,3\n") == [
        "stdout: layout differs (5 -> 6 lines); values not compared"]
    # a log record's name=value tokens are named columns
    assert golden.stream_moves("stderr", b"level=info tail=2.0\n", b"level=info tail=3.0\n") == [
        "stderr column tail: largest relative move 0.5 at line 1 (2.0 -> 3.0), 1 moved"]


def test_save_then_diff_reruns_the_set(golden, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(golden, "COMMANDS", [("sieve-small", ["sieve", "--limit", "30"], [])])
    saved = tmp_path / "saved"
    assert golden.main(["--save", str(saved)]) == 0
    assert sorted(path.name for path in (saved / "sieve-small").iterdir()) == [
        "exit", "stderr", "stdout"]
    assert golden.main(["--diff", str(saved)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "identical sieve-small", "1 identical, 0 differ"]
    stdout = saved / "sieve-small" / "stdout"
    # Lambda(29) = log 29 = 3.3672958299864741: move one digit
    stdout.write_bytes(stdout.read_bytes().replace(b"3.3672958299864741", b"3.3672958299865741"))
    assert golden.main(["--diff", str(saved)]) == 1
    out = capsys.readouterr().out
    assert "DIFFERS sieve-small" in out
    assert "largest relative move" in out and "at line 30" in out


# byte changes that leave every cell's value equal; each must still fail the gate
EQUAL_VALUES = {
    "json-key-reorder": ("report.json", REPORT, b'{\n  "ratio": 0.5,\n  "gap": 0.0\n}\n'),
    "json-re-indent": ("report.json", REPORT, b'{"gap": 0.0, "ratio": 0.5}\n'),
    "renamed-log-token": ("stderr", b"level=info tail=2.0\n", b"level=info tails=2.0\n"),
    "invalid-utf8-byte": ("stdout", b"n,value\n4,\xff\n", b"n,value\n4,\xfe\n"),
}


@pytest.mark.parametrize("case", sorted(EQUAL_VALUES))
def test_byte_change_with_equal_values_differs(golden, tmp_path, capsys, case):
    stream, before, after = EQUAL_VALUES[case]
    assert golden.stream_moves(stream, before, after) == [
        f"{stream}: bytes differ, every value equal"]
    code, lines = _diff_saved(golden, tmp_path, capsys,
                              {"exit": b"0", stream: before}, {"exit": b"0", stream: after})
    assert code == 1
    assert lines == ["DIFFERS gk-small", f"  {stream}: bytes differ, every value equal",
                     "0 identical, 1 differ"]


def _one_byte_changed(data: bytes) -> bytes:
    """data with its last byte replaced by another, or one byte if it is empty."""
    if not data:
        return b"x"
    return data[:-1] + bytes([data[-1] ^ 1])


def test_one_byte_change_in_any_saved_stream_differs(golden, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(golden, "COMMANDS", [
        ("sieve-file", ["sieve", "--limit", "30", "--output", "s.csv"], ["s.csv"])])
    saved = tmp_path / "saved"
    assert golden.main(["--save", str(saved)]) == 0
    streams = sorted(path.name for path in (saved / "sieve-file").iterdir())
    assert streams == ["exit", "s.csv", "stderr", "stdout"]
    assert golden.main(["--diff", str(saved)]) == 0
    capsys.readouterr()
    for stream in streams:
        path = saved / "sieve-file" / stream
        original = path.read_bytes()
        path.write_bytes(_one_byte_changed(original))
        assert golden.main(["--diff", str(saved)]) == 1, stream
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3 and out[1].startswith(f"  {stream}"), out
        assert (out[0], out[2]) == ("DIFFERS sieve-file", "0 identical, 1 differ")
        path.write_bytes(original)


def test_one_mode_is_required(golden, capsys):
    with pytest.raises(SystemExit) as info:
        golden.main([])
    assert info.value.code == 2
    assert "one of the arguments --save --diff is required" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        golden.main(["--compare", "hashes.txt"])
    assert info.value.code == 2


def test_save_refuses_a_file_and_a_non_empty_directory(golden, tmp_path, capsys):
    target = tmp_path / "outputs"
    target.write_text("x")
    with pytest.raises(SystemExit) as info:
        golden.main(["--save", str(target)])
    assert info.value.code == 2
    assert f"{target} is not a directory" in capsys.readouterr().err
    full = tmp_path / "full"
    full.mkdir()
    (full / "stale").write_text("x")
    with pytest.raises(SystemExit) as info:
        golden.main(["--save", str(full)])
    assert info.value.code == 2
    assert f"{full} is not empty" in capsys.readouterr().err

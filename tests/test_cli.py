import itertools
import json
import time

import pytest

from zetasum import cli
from zetasum.cli import main
from zetasum.zeros import export_zeros


@pytest.fixture()
def base_args(cache_dir):
    return ["--precision", "96", "--cache-dir", cache_dir]


def test_exit_code_contract(base_args, capsys):
    # a = 1 is the zeta pole: configuration error
    assert main(["verify", "sumrule", "--a", "1", "--x", "0.5",
                 "--zeros", "5"] + base_args) == 2
    assert "a = 1" in capsys.readouterr().err
    # resonant a: computational error
    assert main(["verify", "sumrule", "--a", "2", "--x", "0.5",
                 "--zeros", "5"] + base_args) == 2
    assert "resonant" in capsys.readouterr().err


def test_verify_integral_passes(base_args, capsys):
    rc = main(["verify", "integral", "--a", "0.5", "--x", "0.5"] + base_args)
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out


def test_verify_sumrule_passes(base_args, store30_96, capsys):
    rc = main(["verify", "sumrule", "--a", "0.5", "--x", "0.5",
               "--zeros", "20", "--n-trivial", "24", "--n-halfint", "8"] + base_args)
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "residual" in out


def test_verify_json_numbers_are_strings(base_args, store30_96, capsys, tmp_path):
    out_path = tmp_path / "report.json"
    rc = main(["verify", "sumrule", "--a", "0.5", "--x", "0.5", "--zeros", "10",
               "--format", "json", "--out", str(out_path)] + base_args)
    assert rc == 0
    doc = json.loads(out_path.read_text())
    for key in ("a", "x", "lhs_zero_sum", "residual", "tail_bound"):
        assert isinstance(doc[key], str)
    assert isinstance(doc["zeros_used"], int)
    assert doc["wall_time_ms"] == 0  # deterministic output unless --timing


def test_verify_text_is_deterministic(base_args, store30_96, capsys):
    # the text report prints the wall time as 0 unless --timing, like JSON and CSV
    args = ["verify", "sumrule", "--a", "0.5", "--x", "0.5", "--zeros", "10"] + base_args
    outputs = []
    for _ in range(2):
        assert main(args) == 0
        outputs.append(capsys.readouterr().out.encode("utf-8"))
    assert outputs[0] == outputs[1]
    assert b"wall time (ms)   : 0\n" in outputs[0]


def test_every_zero_source_prints_the_same_bytes(tmp_path, capsys, monkeypatch):
    # no cache, a cold cache (the zeros are computed and written), a warm one
    # (they are read) and --zeros-file on the cache's export (they are
    # imported): every store holds tau and zeta' as a zeros file holds them
    monkeypatch.delenv("ZETASUM_CACHE_DIR", raising=False)
    args = ["verify", "sumrule", "--a", "0.5", "--x", "0.5", "--zeros", "30", "--precision",
            "96", "--format", "json"]
    cache, export = str(tmp_path / "cache"), str(tmp_path / "zeros.txt")
    outputs = []
    for extra in ([], ["--cache-dir", cache], ["--cache-dir", cache]):
        assert main(args + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert main(["zeros", "--count", "30", "--precision", "96", "--cache-dir", cache,
                 "--export", export]) == 0
    capsys.readouterr()
    assert main(args + ["--zeros-file", export]) == 0
    outputs.append(capsys.readouterr().out)
    assert outputs == [outputs[0]] * 4


@pytest.mark.parametrize("argv,rows", [
    (["verify", "sumrule", "--a", "0.5", "--x", "0.5"], 1),
    (["scan", "--a-list", "0.5,0.6", "--x-list", "0.5"], 2),
])
def test_timing_writes_the_cli_clock_in_its_key(argv, rows, base_args, store30_96, capsys,
                                                 monkeypatch):
    # --timing puts the milliseconds the CLI measures around the verify call,
    # or around each scan point's evaluate_sumrule, where 0 stands without it
    argv = argv + ["--zeros", "10", "--format", "json"] + base_args
    assert main(argv) == 0
    plain = json.loads(capsys.readouterr().out)
    clock = itertools.count(0, 0.25)  # each read is 250 ms after the one before
    monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
    assert main(argv + ["--timing"]) == 0
    timed = json.loads(capsys.readouterr().out)
    plain, timed = ([doc] if isinstance(doc, dict) else doc for doc in (plain, timed))
    assert len(plain) == len(timed) == rows
    for p, t in zip(plain, timed):
        assert list(t) == list(p)
        assert (p["wall_time_ms"], t["wall_time_ms"]) == (0, 250)
        assert {**t, "wall_time_ms": 0} == p


def test_zeros_roundtrip_via_cli(base_args, store30_96, tmp_path, capsys):
    export_path = tmp_path / "zeros.txt"
    rc = main(["zeros", "--count", "8", "--export", str(export_path)] + base_args)
    assert rc == 0
    assert export_path.exists()
    rc = main(["zeros", "--import", str(export_path)] + base_args)
    assert rc == 0
    out = capsys.readouterr().out
    assert "imported" in out


def test_zeros_zeros_file_imports_the_file(base_args, store30_96, ctx96, tmp_path, capsys):
    # --zeros-file is the zeros command's --import: the table is imported, and
    # --count does not make it compute zeros instead
    path = tmp_path / "zeros.txt"
    export_zeros(store30_96.prefix(3), path, ctx96)
    assert main(["zeros", "--zeros-file", str(path), "--count", "5"] + base_args) == 0
    assert capsys.readouterr().out.startswith("zeros          : 3 (imported)\n")


def test_zeros_import_corrupt_exits_2(base_args, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("14.1347251417\n14.0\n")
    rc = main(["zeros", "--import", str(bad)] + base_args)
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_scan_grid_deterministic(base_args, store30_96, tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["scan", "--a-list", "0.45,0.5,0.6", "--x-list", "0.25,0.5,0.75",
            "--zeros", "10", "--n-trivial", "16", "--n-halfint", "6",
            "--format", "csv"] + base_args
    rc1 = main(args + ["--out", str(out1)])
    rc2 = main(args + ["--out", str(out2)])
    assert rc1 == 0 and rc2 == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().strip().splitlines()
    assert len(lines) == 10  # header + 9 rows
    assert lines[0].startswith("a,x,lhs,rhs_const")
    # a-major then x ordering
    first = lines[1].split(",")
    assert first[0].startswith("0.45") and first[1].startswith("0.25")
    assert all(row.split(",")[10] == "PASS" for row in lines[1:])


def test_scan_failing_point_gets_status(base_args, store30_96, tmp_path):
    out = tmp_path / "s.csv"
    rc = main(["scan", "--a-list", "0.5,2", "--x-list", "0.5", "--zeros", "10",
               "--format", "csv", "--out", str(out)] + base_args)
    assert rc == 1  # resonant a = 2 row fails, scan continues
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 2
    assert rows[0].split(",")[10] == "PASS"
    assert "error" in rows[1].split(",")[10]


def test_config_file_and_flag_precedence(base_args, store30_96, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a=0.5\nx=0.5\nzeros_count=10\nn_trivial=16\nn_halfint=6\n")
    rc = main(["verify", "sumrule", "--config", str(cfg)] + base_args)
    assert rc == 0
    out = capsys.readouterr().out
    assert "zeros used       : 10" in out
    # flag overrides the file
    rc = main(["verify", "sumrule", "--config", str(cfg), "--zeros", "8"] + base_args)
    out = capsys.readouterr().out
    assert rc == 0
    assert "zeros used       : 8" in out


@pytest.mark.parametrize("line,key", [
    ("zeros=10", "zeros"),  # meant as zeros_count
    ("output_format=xml", "output_format"),
    ("n_trivial=16.5", "n_trivial"),
    ("zeros_count 10", "zeros_count"),  # no "="
])
def test_config_file_rejects_bad_values(base_args, tmp_path, capsys, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"a=0.5\nx=0.5\n{line}\n")
    rc = main(["verify", "sumrule", "--config", str(cfg)] + base_args)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert key in captured.err


def test_cache_dir_env_override(store30_96, cache_dir, monkeypatch):
    monkeypatch.setenv("ZETASUM_CACHE_DIR", cache_dir)
    rc = main(["verify", "sumrule", "--a", "0.5", "--x", "0.5",
               "--zeros", "10", "--precision", "96"])
    assert rc == 0


def test_scan_requires_grids(base_args):
    assert main(["scan"] + base_args) == 2


def test_verify_rh_form_cli(base_args, store30_96, capsys):
    rc = main(["verify", "rh-form", "--x", "0.5", "--zeros", "10",
               "--n-trivial", "16", "--n-halfint", "6"] + base_args)
    out = capsys.readouterr().out
    assert rc == 0
    assert "rh_k_prefactor" in out


def test_rh_form_csv_status_is_the_exit_verdict(base_args, store30_96, capsys, monkeypatch):
    # the CSV status is the verdict the exit code gives: a cross-difference
    # to the a = 1/2 sum rule above 1e-12 fails both, though the residual passes
    monkeypatch.setattr(cli, "_rh_form_ok", lambda rep, ctx: False)
    rc = main(["verify", "rh-form", "--x", "0.5", "--zeros", "10", "--n-trivial", "16",
               "--n-halfint", "6", "--format", "csv"] + base_args)
    _, row = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert row.endswith(",FAIL")


@pytest.mark.parametrize("count", ["0", "-1"])
def test_zeros_count_out_of_range_exits_2(count, base_args, store30_96, capsys):
    # --count is the zeros command's zeros_count: 0 is not "unset", and a
    # cached file never serves an empty or negative prefix
    assert main(["zeros", "--count", count] + base_args) == 2
    assert "count must be in [1, 2000]" in capsys.readouterr().err


def test_verify_guillera_cli(base_args, store30_96, capsys):
    rc = main(["verify", "guillera", "--x", "0.5", "--zeros", "10",
               "--lambda-limit", "100000"] + base_args)
    out = capsys.readouterr().out
    assert rc == 0
    assert "residual_uncorrected" in out


def test_verify_fail_exit_code(base_args, store30_96, capsys):
    # severe under-truncation of the n-series breaks the pass criterion
    rc = main(["verify", "sumrule", "--a", "0.5", "--x", "0.5", "--zeros", "10",
               "--n-trivial", "1", "--n-halfint", "6"] + base_args)
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


def test_selftest_cli(base_args, capsys):
    rc = main(["selftest"] + base_args)
    out = capsys.readouterr().out
    assert rc == 0
    assert "all checks passed" in out

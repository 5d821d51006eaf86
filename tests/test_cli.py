import itertools
import json
import time
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import SPLITS, assert_no_child, next_up, one_cpu

from zetasum import cli
from zetasum import sumrule as sr
from zetasum.cli import main
from zetasum.zeros import ZeroStore, export_zeros

DATA = Path(__file__).resolve().parent / "data"


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


def test_zeros_prints_the_certified_count(base_args, store30_96, capsys):
    assert main(["zeros", "--count", "30"] + base_args) == 0
    assert capsys.readouterr().out.splitlines()[2] == (
        "count check    : each zero in its own scan bracket; N(g_289) = 290 by Turing's method, "
        "g_289 = 529.1150317")


def test_zeros_rejects_a_cached_store_with_a_gap(store30_96, ctx96, tmp_path, capsys):
    # a cache file without zero #13, under a checksum that matches: the cache
    # load serves it, and the zeros command matches it with the scan
    cache = tmp_path / "cache"
    cache.mkdir()
    gap = store30_96.records[:12] + store30_96.records[13:]
    export_zeros(ZeroStore(gap), cache / "zeros_n29_p96.txt", ctx96,
                 include_zeta_prime=True)
    assert main(["zeros", "--count", "29", "--precision", "96", "--cache-dir", str(cache)]) == 2
    assert capsys.readouterr().err == ("error: zero #13: tau = 60.831779 is not in bracket 13 of "
                                       "the scan, [57.545165, 60.351812]\n")


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


SCAN_3X3 = ["scan", "--a-list", "0.45,0.5,0.6", "--x-list", "0.25,0.5,0.75", "--zeros", "10",
            "--n-trivial", "16", "--n-halfint", "6"]


def test_a_scan_splits_once_over_its_a_rows(base_args, store30_96, forks, maps, monkeypatch,
                                            capsys, held_tables):
    # one map over the three a-rows, one fork (the child takes a = 0.5), and
    # no fork below it: each side evaluates its rows' points in process.  The
    # bytes are the golden ones, and those of the scan on one CPU.
    argv = SCAN_3X3 + ["--format", "csv"] + base_args
    assert main(argv) == 0
    split = capsys.readouterr().out
    assert_no_child()
    assert maps == ([3] if SPLITS else []) and len(forks) == SPLITS
    assert split.encode("utf-8") == (DATA / "scan_3x3_p96.csv").read_bytes()
    held_tables.clear()
    one_cpu(monkeypatch)
    assert main(argv) == 0
    assert capsys.readouterr().out == split
    assert len(forks) == SPLITS


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_the_childs_resonant_row_is_the_error_row_in_its_place(fmt, base_args, store30_96, forks,
                                                               capsys, held_tables):
    # the child computes the a = 2 row, resonant at every x: an error row per
    # point, after the a = 0.5 rows, in the golden bytes of each format
    assert main(["scan", "--a-list", "0.5,2", "--x-list", "0.25,0.5", "--zeros", "10",
                 "--n-trivial", "16", "--n-halfint", "6", "--format", fmt] + base_args) == 1
    assert capsys.readouterr().out.encode("utf-8") == (DATA / "cli" / f"scan_{fmt}.txt").read_bytes()
    assert len(forks) == SPLITS
    assert_no_child()


def test_timing_rows_from_both_sides_carry_the_cli_clock(base_args, store30_96, forks,
                                                         monkeypatch, capsys):
    # each read of the clock is 250 ms after the one before, in this process
    # and in the child alike, so every point's row reads 250
    clock = itertools.count(0, 0.25)
    monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
    assert main(SCAN_3X3 + ["--format", "json", "--timing"] + base_args) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(float(row["a"]), row["wall_time_ms"]) for row in rows] == [
        (a, 250) for a in (0.45, 0.5, 0.6) for _ in range(3)]
    assert len(forks) == SPLITS


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


def test_rh_form_csv_status_is_the_exit_verdict(base_args, store30_96, ctx96, capsys,
                                                monkeypatch):
    # the CSV status and the text verdict are the verdict the exit code gives:
    # an a = 1/2 reference whose n-series is off by 1e-9 puts one
    # cross-difference above 1e-12, and only that fails the report
    evaluate_sumrule = sr.evaluate_sumrule

    def shifted(params, store, ctx):
        ref = evaluate_sumrule(params, store, ctx)
        return replace(ref, rhs_n_series=ref.rhs_n_series + ctx.mp.mpf("1e-9"))

    monkeypatch.setattr(sr, "evaluate_sumrule", shifted)
    argv = ["verify", "rh-form", "--x", "0.5", "--zeros", "10", "--n-trivial", "16",
            "--n-halfint", "6"] + base_args
    rc = main(argv + ["--format", "csv"])
    header, row = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert row.endswith(",FAIL")
    values = dict(zip(header.split(","), row.split(",")))
    assert abs(ctx96.mp.mpf(values["residual"])) <= 10 * ctx96.mp.mpf(values["tail_bound"])
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert out.endswith("\nFAIL\n")
    [cross_n] = [line.split(": ")[1] for line in out.splitlines()
                 if line.startswith("aux cross_n_diff")]
    assert abs(ctx96.mp.mpf(cross_n) - ctx96.mp.mpf("1e-9")) < ctx96.mp.mpf("1e-20")


# enough of each verify kind to build its report quickly
VERIFY_ARGS = {
    "integral": ["--a", "0.5", "--x", "0.5"],
    "residues": ["--a", "0.5", "--x", "0.5", "--zeros", "2", "--n-trivial", "2",
                 "--n-halfint", "1"],
    "sumrule": ["--a", "0.5", "--x", "0.5", "--zeros", "10"],
    "rh-form": ["--x", "0.5", "--zeros", "10", "--n-trivial", "16", "--n-halfint", "6"],
    "guillera": ["--x", "0.5", "--zeros", "10", "--lambda-limit", "1000"],
}


@pytest.mark.parametrize("kind", tuple(cli.VERIFY))
def test_every_verify_verdict_is_the_reports_passes(kind, base_args, store30_96, capsys,
                                                     monkeypatch):
    # the kind's report, then the same report at 10 tail bounds (and at its
    # limit) and one ulp above: the exit code, the PASS/FAIL line and the CSV
    # status follow passes() alone, under the report's own criterion line
    required, verify = cli.VERIFY[kind]
    built = []

    def stub(args, ctx):
        if not built:
            built.append(verify(args, ctx))
        return edit(built[0])

    monkeypatch.setitem(cli.VERIFY, kind, (required, stub))
    argv = ["verify", kind, *VERIFY_ARGS[kind], *base_args]
    cases = [
        (lambda rep: replace(rep, residual=10 * rep.tail_bound), "PASS"),
        (lambda rep: replace(rep, residual=-10 * rep.tail_bound), "PASS"),
        (lambda rep: replace(rep, residual=next_up(10 * rep.tail_bound)), "FAIL"),
        (lambda rep: replace(rep, residual=-next_up(10 * rep.tail_bound)), "FAIL"),
    ]
    if kind == "rh-form":
        cases += [
            (lambda rep: replace(rep, limits=((rep.limits[0][1],) * 2,)), "PASS"),
            (lambda rep: replace(rep, limits=((next_up(rep.limits[0][1]),
                                               rep.limits[0][1]),)), "FAIL"),
        ]
    for edit, status in cases:
        assert main(argv) == (0 if status == "PASS" else 1)
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == status
        assert f"criterion        : {built[0].criterion}" in lines
        assert main(argv + ["--format", "csv"]) == (0 if status == "PASS" else 1)
        assert capsys.readouterr().out.endswith(f",{status}\n")


@pytest.mark.parametrize("argv,message", [
    (["verify", "sumrule", "--a", "abc", "--x", "0.5"], "a = 'abc' is not a number"),
    (["verify", "sumrule", "--a", "0.5", "--x", "abc"], "x = 'abc' is not a number"),
    (["verify", "rh-form", "--x", "zz"], "x = 'zz' is not a number"),
    (["verify", "guillera", "--x", "zz"], "x = 'zz' is not a number"),
    (["verify", "guillera", "--x", "1.5"], "x must lie in (0, 1) exclusive, got 1.5"),
])
def test_a_bad_setting_is_named(argv, message, base_args, store30_96, capsys):
    assert main(argv + ["--zeros", "10"] + base_args) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_scan_row_with_a_bad_a_names_it(base_args, store30_96, capsys):
    assert main(["scan", "--a-list", "0.5,abc", "--x-list", "0.5", "--zeros", "10",
                 "--format", "csv"] + base_args) == 1
    _, good, bad = capsys.readouterr().out.splitlines()
    assert good.endswith(",PASS")
    assert bad.split(",")[-1] == "error: a = 'abc' is not a number"


@pytest.mark.parametrize("fmt,line", [
    ("text", "a = 0.5, x = 1.5: error: x must lie in (0, 1) exclusive, got 1.5"),
    ("csv", "0.5,1.5,,,,,,,,,error: x must lie in (0; 1) exclusive; got 1.5"),
    ("json", '    "status": "error: x must lie in (0, 1) exclusive, got 1.5"'),
])
def test_scan_error_message_with_a_comma(fmt, line, base_args, store30_96, capsys):
    # only the CSV field turns a comma of the message into ';'
    assert main(["scan", "--a-list", "0.5", "--x-list", "1.5", "--zeros", "10",
                 "--format", fmt] + base_args) == 1
    assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("count", ["0", "-1"])
def test_zeros_count_out_of_range_exits_2(count, base_args, store30_96, capsys):
    # --count is the zeros command's zeros_count: 0 is not "unset", and a
    # cached file never serves an empty or negative prefix
    assert main(["zeros", "--count", count] + base_args) == 2
    assert capsys.readouterr().err == f"error: zeros_count = {count} must be positive\n"


@pytest.mark.parametrize("argv,message", [
    (["sumrule", "--a", "0.5", "--n-trivial", "0"], "error: n_trivial = 0 must be positive"),
    (["guillera", "--lambda-limit", "1"], "error: lambda_limit = 1 must lie in [2, 10000000]"),
])
def test_a_range_error_names_its_setting(argv, message, base_args, store30_96, capsys):
    assert main(["verify", *argv, "--x", "0.5", "--zeros", "10"] + base_args) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", message + "\n")  # the message alone: no traceback


ZEROS = ("--zeros", "-1", "zeros_count = -1 must be positive")
TOO_MANY = ("--zeros", "2001", "zeros_count = 2001 must be at most 2000")
TRIVIAL = ("--n-trivial", "0", "n_trivial = 0 must be positive")
HALFINT = ("--n-halfint", "0", "n_halfint = 0 must be positive")
LAMBDA = ("--lambda-limit", "1", "lambda_limit = 1 must lie in [2, 10000000]")
# the run-wide settings each command reads; a scan's bad --a-list or --x-list
# entry is its point's error row, not covered here
READS = {
    "integral": (["verify", "integral", "--a", "0.5", "--x", "0.5"], (ZEROS, TRIVIAL, HALFINT)),
    "residues": (["verify", "residues", "--a", "0.5", "--x", "0.5"], (ZEROS, TRIVIAL, HALFINT)),
    "sumrule": (["verify", "sumrule", "--a", "0.5", "--x", "0.5"],
                (ZEROS, TOO_MANY, TRIVIAL, HALFINT)),
    "rh-form": (["verify", "rh-form", "--x", "0.5"], (ZEROS, TOO_MANY, TRIVIAL, HALFINT)),
    "guillera": (["verify", "guillera", "--x", "0.5"], (ZEROS, TOO_MANY, LAMBDA)),
    "scan": (["scan", "--a-list", "0.5", "--x-list", "0.5"],
             (ZEROS, TOO_MANY, TRIVIAL, HALFINT)),
}


@pytest.mark.parametrize("command,flag,value,message", [
    pytest.param(argv, *setting, id=f"{name}{setting[0]}={setting[1]}")
    for name, (argv, settings) in READS.items() for setting in settings])
def test_a_bad_setting_exits_before_any_zero_is_loaded_or_written(command, flag, value, message,
                                                                  tmp_path, capsys):
    # over an empty cache directory: the one-line message alone, no traceback,
    # and still no file (a bad setting used to wait for the zeros, then exit)
    cache = tmp_path / "cache"
    cache.mkdir()
    assert main(command + ["--zeros", "30", "--precision", "96", "--cache-dir", str(cache),
                           flag, value]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(cache.iterdir()) == []


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


@pytest.mark.parametrize("argv", [
    ["zeros", "--format", "json"], ["zeros", "--out", "F"], ["zeros", "--timing"],
    ["selftest", "--format", "json"], ["selftest", "--out", "F"], ["selftest", "--timing"],
    ["selftest", "--zeros-file", "F"],
])
def test_a_flag_the_command_never_reads_is_rejected(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--precision", "64"])
    assert exit_.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_selftest_cli(base_args, capsys):
    rc = main(["selftest"] + base_args)
    out = capsys.readouterr().out
    assert rc == 0
    assert "all checks passed" in out


def test_selftest_names_its_report_checks_by_their_criteria(base_args, monkeypatch, capsys):
    # a criterion a sumrule builder changes reaches the selftest's line as it is
    for name in ("evaluate_residues", "evaluate_rh_form"):
        monkeypatch.setattr(sr, name, lambda *args, _f=getattr(sr, name), _n=name, **kw:
                            replace(_f(*args, **kw), criterion=f"{_n} criterion"))
    assert main(["selftest"] + base_args) == 0
    out = capsys.readouterr().out
    assert "PASS  residue arbitration (sampled sites): evaluate_residues criterion\n" in out
    assert "PASS  rh-form at x = 0.5: evaluate_rh_form criterion\n" in out


def test_selftest_rejects_a_cached_store_with_a_gap(store30_96, ctx128, tmp_path, capsys):
    # zeros #1-#4 and #6-#11 under a checksum that matches: the selftest
    # fails as the zeros command does on the same cache
    cache = tmp_path / "cache"
    cache.mkdir()
    gap = store30_96.records[:4] + store30_96.records[5:11]
    export_zeros(ZeroStore(gap), cache / "zeros_n10_p128.txt", ctx128, include_zeta_prime=True)
    args = ["--precision", "128", "--cache-dir", str(cache)]
    assert main(["zeros", "--count", "10"] + args) == 2
    zeros_err = capsys.readouterr().err
    assert zeros_err == ("error: zero #5: tau = 37.586178 is not in bracket 5 of the scan, "
                         "[31.717980, 35.467184]\n")
    assert main(["selftest"] + args) == 2
    out, err = capsys.readouterr()
    assert err == zeros_err
    assert "all checks passed" not in out and "count check" not in out


@pytest.mark.parametrize("argv,setting", [
    (["sumrule", "--a", "abc", "--x", "0.5"], "a = 'abc'"),
    (["rh-form", "--x", "zz"], "x = 'zz'"),
    (["guillera", "--x", "1.5"], "x must lie in (0, 1)"),
])
def test_bad_a_or_x_exits_before_any_zero_is_loaded(argv, setting, tmp_path, capsys,
                                                    monkeypatch):
    def no_zeros(*args):
        raise AssertionError("a zero store was asked for")

    monkeypatch.setattr(cli, "load_or_compute", no_zeros)
    cache = tmp_path / "cache"
    argv = ["verify"] + argv + ["--zeros", "3", "--precision", "96", "--cache-dir", str(cache)]
    assert main(argv) == 2
    assert setting in capsys.readouterr().err
    assert not cache.exists()


@pytest.mark.parametrize("command", [["verify", "sumrule", "--a", "0.5", "--x", "0.5"],
                                     ["zeros"]], ids=["verify", "zeros"])
@pytest.mark.parametrize("kind,reason", [("directory", "Is a directory"),
                                         ("missing", "No such file or directory")])
def test_unreadable_zeros_file_names_the_setting(command, kind, reason, tmp_path, capsys):
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    assert main(command + ["--precision", "96", "--zeros-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --zeros-file {path}: {reason}\n"
    assert captured.out == ""


def test_zeros_file_refines_only_the_zeros_prefix(store30_96, ctx96, hardy_passes, tmp_path,
                                                  capsys):
    # a 3-zero verify against a 30-zero file refines 3 zeros, two passes each
    path = tmp_path / "zeros.txt"
    export_zeros(store30_96, path, ctx96)
    assert main(["verify", "sumrule", "--a", "0.5", "--x", "0.5", "--zeros", "3",
                 "--precision", "96", "--zeros-file", str(path)]) == 0
    assert len(hardy_passes) == 2 * 3

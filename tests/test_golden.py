"""Golden bytes: criterion 10's 3x3 scan CSV, the zeros exports of the first
8 zeros at 96 bits and of the first 16 at 192 bits (with zeta'), the sha256
of the whole 500-zero 192-bit export (with zeta'), the exact
values of zeta and zeta' at fixed points, and the stdout of every verify kind
and of scan in each format, compared byte for byte with the files under
tests/data/.  A change that alters any of them fails here,
where a determinism check (two runs of one tree) would still pass.  The
192-bit export and the zeta values on the critical line and the real axis
were recorded with separate Euler-Maclaurin passes for zeta and zeta' over
mp.power(k, -s), so they pin that the fused pass over the log k table gives
the same bits there.  Off the line a composite k^-s is a product of two
held powers, which moves the last bits: those zeta values, and the residual
of the residues report, were recorded with the products, and
test_zetafn.py::test_off_line_passes_against_mpmath holds the off-line
passes to mpmath's zeta at twice the precision.  500-zero
verify and scan calls, whose zero sums split over two CPUs, must print the
bytes they print in one process."""

import hashlib
from pathlib import Path

import pytest
from conftest import SPLITS, assert_no_child, one_cpu

from zetasum.cli import main
from zetasum.numctx import NumericContext
from zetasum.zeros import export_zeros, import_zeros
from zetasum.zetafn import engine_for

DATA = Path(__file__).resolve().parent / "data"
# sha256 of store500_192 exported with zeta'
STORE500_192_SHA256 = "7c93ee5722b2d4bb98b182da4b2616c11f61727249aad32ac65a2130ed0b33db"

# (Re s, Im s) as decimal strings, read at each context's precision; None
# marks a real point.  Four on the critical line (the last with a full
# mantissa), two right of it, two left of it (reflection) and three real.
ZETA_POINTS = (
    ("0.5", "14.25"), ("0.5", "30"), ("0.5", "400.25"), ("0.5", "811.1234567891"),
    ("2", "3"), ("0.7", "-5"),
    ("-1.2", "7.5"), ("-3.5", None),
    ("3", None), ("2.5", None), ("0.75", None),
)


def zeta_lines(bits: int):
    """One line per point and function: bits, Re s, Im s, name, repr(value).
    repr round-trips at the working precision, so equal lines mean equal bits."""
    ctx = NumericContext(bits)
    engine = engine_for(ctx)
    mp = ctx.mp
    for re, im in ZETA_POINTS:
        s = mp.mpf(re) if im is None else mp.mpc(re, im)
        for name in ("zeta", "zeta_deriv"):
            value = getattr(engine, name)(s)
            yield f"{bits} {re} {im or 'real'} {name} {value!r}"


SMALL = ["--zeros", "10", "--n-trivial", "16", "--n-halfint", "6"]
SCAN = ["scan", "--a-list", "0.5,2", "--x-list", "0.25,0.5"] + SMALL

# name -> (argv, exit code); stdout goes to tests/data/cli/<name>.txt.  The
# scan's a = 2 row is resonant, so it prints an error row and exits 1.
CLI_CASES = {
    "sumrule_text": (["verify", "sumrule", "--a", "0.5", "--x", "0.5"] + SMALL, 0),
    "sumrule_json": (["verify", "sumrule", "--a", "0.5", "--x", "0.5", "--format", "json"]
                     + SMALL, 0),
    "sumrule_csv": (["verify", "sumrule", "--a", "0.5", "--x", "0.5", "--format", "csv"]
                    + SMALL, 0),
    "rh_form": (["verify", "rh-form", "--x", "0.5"] + SMALL, 0),
    "guillera": (["verify", "guillera", "--x", "0.5", "--zeros", "10",
                  "--lambda-limit", "100000"], 0),
    "residues": (["verify", "residues", "--a", "0.5", "--x", "0.5", "--zeros", "3",
                  "--n-trivial", "3", "--n-halfint", "2"], 0),
    "integral": (["verify", "integral", "--a", "0.5", "--x", "0.5"], 0),
    "scan_text": (SCAN, 1),
    "scan_json": (SCAN + ["--format", "json"], 1),
    "scan_csv": (SCAN + ["--format", "csv"], 1),
    "config_override": (["verify", "sumrule", "--config", str(DATA / "cli" / "run.cfg"),
                         "--zeros", "8"], 0),
}


@pytest.mark.parametrize("name", CLI_CASES)
def test_cli_bytes(name, cache_dir, store30_96, capsys):
    argv, code = CLI_CASES[name]
    assert main(argv + ["--precision", "96", "--cache-dir", cache_dir]) == code
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (DATA / "cli" / f"{name}.txt").read_bytes()


def test_residue_pairs_split_over_two_cpus_print_the_golden_bytes(cache_dir, store30_96, maps,
                                                                  forks, monkeypatch, capsys):
    # 3 trivial and 3 half-integer sites, then 3 zero and conjugate pairs at
    # sites 6..11: one site to a side, each zero and its conjugate would fall
    # on two sides.  The map's 9 tasks keep each pair on one side, where the
    # conjugate's circle reads its zero's values.
    argv, code = CLI_CASES["residues"]
    golden = (DATA / "cli" / "residues.txt").read_bytes()
    for cpus in ("two", "one"):
        if cpus == "one":
            one_cpu(monkeypatch)
        assert main(argv + ["--precision", "96", "--cache-dir", cache_dir]) == code
        assert capsys.readouterr().out.encode("utf-8") == golden, cpus
        assert_no_child()
    assert maps == ([9] if SPLITS else [])
    assert len(forks) == SPLITS


# 500-zero calls, whose zero sums are long enough to split; pairs from the
# benchmark's verify-warm pools, all of which pass
SPLIT_CASES = (
    ["verify", "sumrule", "--a", "0.6", "--x", "0.4"],
    ["verify", "rh-form", "--x", "0.75"],
    ["scan", "--a-list", "0.45,0.9", "--x-list", "0.25,0.5"],
)


def test_split_zero_sums_print_the_one_process_bytes(cache_dir, store500_192, monkeypatch,
                                                     forks, capsys, held_tables):
    def run():
        outs = []
        for argv in SPLIT_CASES:
            assert main(argv + ["--zeros", "500", "--precision", "192",
                                "--cache-dir", cache_dir]) == 0
            outs.append(capsys.readouterr().out)
            assert_no_child()  # no child outlives the call
        return outs

    # where a second CPU is free: one split zero sum for sumrule and two for
    # rh-form (its own and the a = 1/2 sum rule's), each of the three new
    # tables mapping its factors first, and one split of the scan's two
    # a-rows, whose points evaluate in process on each side
    forked = 7 * SPLITS
    split = run()
    assert len(forks) == forked
    one_cpu(monkeypatch)
    assert run() == split
    assert len(forks) == forked


SCAN_3X3 = ["scan", "--a-list", "0.45,0.5,0.6", "--x-list", "0.25,0.5,0.75",
            "--zeros", "10", "--n-trivial", "16", "--n-halfint", "6",
            "--precision", "96", "--format", "csv"]


def test_scan_csv_bytes(cache_dir, store30_96, tmp_path):
    out = tmp_path / "scan.csv"
    assert main(SCAN_3X3 + ["--cache-dir", cache_dir, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "scan_3x3_p96.csv").read_bytes()


def test_scan_csv_bytes_from_held_tables(cache_dir, store30_96, tmp_path, monkeypatch,
                                         held_tables):
    # the first point of each a builds its tables and the next two read them;
    # from no table, from the last scan's tables and on one CPU alike, the
    # scan prints the bytes the program printed before it held any table
    out = tmp_path / "scan.csv"
    for step in ("no table", "last scan's tables", "one CPU"):
        if step == "one CPU":
            held_tables.clear()
            one_cpu(monkeypatch)
        assert main(SCAN_3X3 + ["--cache-dir", cache_dir, "--out", str(out)]) == 0, step
        assert out.read_bytes() == (DATA / "scan_3x3_p96.csv").read_bytes(), step
        assert held_tables


def test_zeros_export_bytes(store30_96, ctx96, tmp_path):
    path = tmp_path / "zeros.txt"
    export_zeros(store30_96.prefix(8), path, ctx96)
    assert path.read_bytes() == (DATA / "zeros8_p96.txt").read_bytes()


def test_zeta_bits():
    text = "".join(line + "\n" for bits in (96, 192) for line in zeta_lines(bits))
    assert text.encode("utf-8") == (DATA / "zeta_p96_p192.txt").read_bytes()


def test_zeros_export_192_bytes_and_import(store500_192, ctx192, tmp_path):
    golden = (DATA / "zeros16_p192_zp.txt").read_bytes()
    located = tmp_path / "located.txt"
    export_zeros(store500_192.prefix(16), located, ctx192, include_zeta_prime=True)
    assert located.read_bytes() == golden
    # the tau-only table, imported and refined again, re-exports the same bytes
    taus = tmp_path / "taus.txt"
    export_zeros(store500_192.prefix(16), taus, ctx192)
    again = tmp_path / "again.txt"
    export_zeros(import_zeros(taus, ctx192), again, ctx192, include_zeta_prime=True)
    assert again.read_bytes() == golden


def test_store500_192_bytes(store500_192, ctx192, tmp_path):
    path = tmp_path / "store500.txt"
    export_zeros(store500_192, path, ctx192, include_zeta_prime=True)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == STORE500_192_SHA256

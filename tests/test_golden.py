"""Golden bytes: criterion 10's 3x3 scan CSV, the zeros exports of the first
8 zeros at 96 bits and of the first 16 at 192 bits (with zeta'), and the
exact values of zeta and zeta' at fixed points, compared byte for byte with
the files under tests/data/.  A change that alters any of them fails here,
where a determinism check (two runs of one tree) would still pass.  The
192-bit export and the zeta values were recorded with separate
Euler-Maclaurin passes for zeta and zeta' over mp.power(k, -s), so they pin
that the fused pass over the log k table gives the same bits."""

from pathlib import Path

from zetasum.cli import main
from zetasum.numctx import NumericContext
from zetasum.zeros import export_zeros, import_zeros
from zetasum.zetafn import engine_for

DATA = Path(__file__).resolve().parent / "data"

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


def test_scan_csv_bytes(cache_dir, store30_96, tmp_path):
    out = tmp_path / "scan.csv"
    args = ["scan", "--a-list", "0.45,0.5,0.6", "--x-list", "0.25,0.5,0.75",
            "--zeros", "10", "--n-trivial", "16", "--n-halfint", "6",
            "--precision", "96", "--cache-dir", cache_dir, "--format", "csv",
            "--out", str(out)]
    assert main(args) == 0
    assert out.read_bytes() == (DATA / "scan_3x3_p96.csv").read_bytes()


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

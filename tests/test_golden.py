"""Golden bytes: criterion 10's 3x3 scan CSV and the zeros export of the
first 8 zeros at 96 bits, compared byte for byte with the files under
tests/data/.  A change that alters either output fails here, where a
determinism check (two runs of one tree) would still pass."""

from pathlib import Path

from zetasum.cli import main
from zetasum.zeros import export_zeros

DATA = Path(__file__).resolve().parent / "data"


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

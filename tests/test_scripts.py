import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SMALL = ["--precision", "96", "--zeros", "4", "--n-trivial", "4", "--n-halfint", "2"]


def test_residual_decay_two_depths(store30_96, cache_dir, tmp_path):
    decay = load_script("residual_decay")
    out = tmp_path / "decay.csv"
    assert decay.main(["--depths", "20,10", "--precision", "96", "--cache-dir", cache_dir,
                       "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [row["n_zeros"] for row in rows] == ["10", "20"]
    residuals = [float(row["abs_residual"]) for row in rows]
    assert residuals[1] < residuals[0]  # deeper truncation, smaller residual
    assert all(row["status"] == "PASS" for row in rows)


def test_closure_sweep_one_pair(store30_96, cache_dir, capsys):
    sweep = load_script("closure_sweep")
    assert sweep.main(["--pairs", "0.5:0.5", "--cache-dir", cache_dir] + SMALL) == 0
    out = capsys.readouterr().out
    assert "orientation=-1" in out and "shared orientation: -1" in out


def test_closure_sweep_mixed_orientations_fail_cleanly(store30_96, cache_dir, capsys):
    # at this truncation (5, 0.25) closes with orientation +1
    sweep = load_script("closure_sweep")
    assert sweep.main(["--pairs", "0.5:0.5,5:0.25", "--cache-dir", cache_dir] + SMALL) == 1
    out = capsys.readouterr().out
    assert "FAIL: closure orientation differs across parameter pairs" in out

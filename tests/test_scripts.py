import csv
import importlib.util
import json
import os
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


RUN_STDOUT = ('[bench] ignored\n{"correct": true, "attempted": 24, "failed": 0, "metrics": '
              '{"setup_s": {"value": 0.05, "unit": "s"}, "peak_rss_mb": {"value": 36.5, '
              '"unit": "MB"}, "round_s": {"value": 1.8, "unit": "s"}}}\n')
RUN_STDERR = ("[bench] verify-warm breakdown: verify_sumrule_s=0.1\n"
              "[bench] verify-warm: 3 rounds in 10.4 s; operations took 6.300 s raw, "
              "5.400 s normalised (host speed 0.857 of the reference)\n")


TRACE_STDOUT = ('summary workload=closure attempted=6 failed=0 overhead=4.10%\n{"correct": true, '
                '"attempted": 6, "failed": 0, "metrics": {"zetafn.zeta.calls": {"value": 9000, '
                '"unit": "count"}, "trace.spans": {"value": 120, "unit": "count"}, '
                '"trace.overhead": {"value": 4.1, "unit": "%"}}}\n')


def test_bench_pairs_parses_a_run():
    pairs = load_script("bench_pairs")
    run = pairs.parse_run(RUN_STDOUT, RUN_STDERR)
    assert run == {"metrics": {"setup_s": 0.05, "peak_rss_mb": 36.5, "round_s": 1.8},
                   "correct": True, "attempted": 24, "failed": 0, "raw_s": 2.1}
    assert pairs.parse_result(TRACE_STDOUT) == {
        "metrics": {"zetafn.zeta.calls": 9000, "trace.spans": 120, "trace.overhead": 4.1},
        "correct": True, "attempted": 6, "failed": 0}


def test_bench_pairs_statistics_and_order():
    pairs = load_script("bench_pairs")
    assert pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert pairs.wins([2, 2, 2], [1, 3, 1]) == 2
    assert pairs.wins([2, 2, 2], [1, 3, 1], better="higher") == 1
    assert [pairs.first_in_pair(i) for i in (1, 2, 3)] == ["parent", "change", "parent"]

    def run(round_s, failed=0):
        return {"metrics": {"round_s": round_s}, "correct": True, "attempted": 8,
                "failed": failed, "raw_s": round_s * 2}

    lines = pairs.report([run(2.0), run(2.2, failed=2)], [run(1.0), run(2.4)],
                         {"round_s": "lower"})
    # statistics.quantiles' default (exclusive) method, as benchmark/README.md uses
    assert lines[0] == ("round_s: parent 1.95/2.1/2.25  change 0.65/1.7/2.75  (-19.0%, change "
                        "lower in 1/2 pairs, parent spread 0.3)")
    assert lines[1].startswith("raw_s: parent 3.9/4.2/4.5")
    assert lines[2:] == ["parent: failed/attempted 2/16, correct True",
                         "change: failed/attempted 0/16, correct True"]


def test_bench_pairs_writes_the_bench_file(tmp_path):
    # the file holds the numbers report prints, every run as parsed, and a
    # second workload under the same commits joins the first
    pairs = load_script("bench_pairs")
    run = pairs.parse_run(RUN_STDOUT, RUN_STDERR)
    slower = {**run, "metrics": {**run["metrics"], "round_s": 2.0}, "raw_s": 2.5}
    runs = {"parent": [run, run], "change": [slower, run]}
    better = {"setup_s": "lower", "peak_rss_mb": "lower", "round_s": "lower"}
    path, commits = tmp_path / "BENCH_x.json", {"parent": "aaa", "change": "bbb"}
    settings = {"pairs": 2, "seconds": 10, "seeds": [1, 2]}
    traced = {"seed": 1, "cpu": 0, "parent": pairs.parse_result(TRACE_STDOUT),
              "change": pairs.parse_result(TRACE_STDOUT)}
    lines = {"parent": {"zeros.py": 3, "total": 3}, "change": {"zeros.py": 2, "total": 2}}
    code = {"parent": {"zeros.py": 2, "total": 2}, "change": {"zeros.py": 1, "total": 1}}
    pairs.write_bench(path, commits, lines, code, "verify-warm", settings, runs, better, traced)
    doc = pairs.write_bench(path, commits, lines, code, "closure", settings, runs, better, traced)
    assert doc == json.loads(path.read_text())
    assert doc["commits"] == commits and sorted(doc["workloads"]) == ["closure", "verify-warm"]
    assert doc["src_lines"] == lines
    assert doc["code_lines"] == code
    warm = doc["workloads"]["verify-warm"]
    assert warm["runs"] == runs and warm["seeds"] == [1, 2] and warm["pairs"] == 2
    assert warm["traced"] == traced
    assert warm["traced"]["change"]["metrics"]["zetafn.zeta.calls"] == 9000
    assert warm["metrics"]["round_s"] == {
        "better": "lower", "change_won": 0, "pairs": 2,
        "parent": {"q1": 1.8, "median": 1.8, "q3": 1.8},
        "change": {"q1": 1.75, "median": 1.9, "q3": 2.05}}
    assert warm["metrics"]["raw_s"]["change"]["median"] == 2.3
    assert warm["parent"] == {"failed": 0, "attempted": 48, "correct": True}
    assert doc["host"]["cpus"] >= 1
    # other commits start a new file
    other = pairs.write_bench(path, {"parent": "ccc", "change": "bbb"}, lines, code, "closure",
                              settings, runs, better, traced)
    assert list(other["workloads"]) == ["closure"]


def test_bench_pairs_counts_the_src_lines_of_each_tree(tmp_path):
    # two canned trees: a module each tree lacks counts 0 there, and a file
    # that is not a module is not counted
    pairs = load_script("bench_pairs")
    for side, modules in (("parent", {"a.py": 3, "b.py": 2}), ("change", {"a.py": 1, "c.py": 4})):
        src = tmp_path / side / "src" / "zetasum"
        src.mkdir(parents=True)
        for name, n in modules.items():
            (src / name).write_text("x = 1\n" * n)
        (src / "notes.txt").write_text("not a module\n")
    lines = {side: pairs.src_lines(tmp_path / side) for side in ("parent", "change")}
    assert lines == {"parent": {"a.py": 3, "b.py": 2, "total": 5},
                     "change": {"a.py": 1, "c.py": 4, "total": 5}}
    assert pairs.src_report(lines) == [
        "src lines a.py: 3 -> 1 (-2)", "src lines b.py: 2 -> 0 (-2)",
        "src lines c.py: 0 -> 4 (+4)", "src lines total: 5 -> 5 (+0)"]


# a module of 15 lines, 5 of them code: the docstrings (one line and three),
# the comment-only lines and the blank lines are not code, a string that is
# part of a statement is
MODULE = '''"""A module docstring."""

import os  # a comment after code

# a comment alone
TEXT = """two lines
of a value"""


def f(x):
    """A docstring
    of three
    lines."""
    # a comment alone, indented
    return os.sep + x
'''


def test_bench_pairs_counts_the_code_lines_of_each_tree(tmp_path):
    pairs = load_script("bench_pairs")
    assert len(MODULE.splitlines()) == 15 and pairs.code_lines(MODULE) == 5
    for side, text in (("parent", MODULE), ("change", MODULE.replace("    # a comment alone, "
                                                                      "indented\n", ""))):
        src = tmp_path / side / "src" / "zetasum"
        src.mkdir(parents=True)
        (src / "m.py").write_text(text)
        (src / "blank.py").write_text("\n")
    lines = {side: pairs.src_lines(tmp_path / side) for side in ("parent", "change")}
    code = {side: pairs.src_lines(tmp_path / side, code=True) for side in ("parent", "change")}
    assert lines == {"parent": {"blank.py": 1, "m.py": 15, "total": 16},
                     "change": {"blank.py": 1, "m.py": 14, "total": 15}}
    assert code == {"parent": {"blank.py": 0, "m.py": 5, "total": 5},
                    "change": {"blank.py": 0, "m.py": 5, "total": 5}}
    # a comment went: one line less, and no line of code less
    assert pairs.src_report(code, "code lines")[-1] == "code lines total: 5 -> 5 (+0)"


def test_bench_pairs_reports_the_traced_counts():
    pairs = load_script("bench_pairs")
    run = pairs.parse_result(TRACE_STDOUT)
    more = {**run, "metrics": {**run["metrics"], "trace.spans": 121, "trace.overhead": 9.0}}
    counts = ["zetafn.zeta.calls", "trace.spans"]
    same = {"seed": 1, "cpu": 0, "parent": run, "change": run}
    assert pairs.count_report(same, counts) == ["per-layer counts on CPU 0: equal"]
    # trace.overhead is not a count, so only trace.spans differs
    assert pairs.count_report({**same, "change": more}, counts) == [
        "trace.spans: parent 120  change 121"]


# a benchmark/run.py that reports its trace flag and how many CPUs it may use
FAKE_RUN = """import json, os, sys
trace = int(sys.argv[sys.argv.index("--trace") + 1])
print("[bench] w: 2 rounds in 1.0 s; operations took 1.000 s raw", file=sys.stderr)
metrics = {"cpus": len(os.sched_getaffinity(0)), "trace": trace}
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {k: {"value": v} for k, v in metrics.items()}}))
"""


def test_bench_pairs_pins_the_traced_run_to_one_cpu(tmp_path):
    pairs = load_script("bench_pairs")
    (tmp_path / "benchmark").mkdir()
    (tmp_path / "benchmark" / "run.py").write_text(FAKE_RUN)
    cpus = os.sched_getaffinity(0)
    traced = pairs.run_tree(tmp_path, "closure", 1, 10, cpu=min(cpus))
    assert traced["metrics"] == {"cpus": 1, "trace": 1} and "raw_s" not in traced
    untraced = pairs.run_tree(tmp_path, "closure", 1, 10)
    assert untraced["metrics"] == {"cpus": len(cpus), "trace": 0} and untraced["raw_s"] == 0.5

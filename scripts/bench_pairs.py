#!/usr/bin/env python3
"""Alternating benchmark pairs: run benchmark/run.py in two source trees, one
pair at a time, and compare their end-to-end metrics.

  python scripts/bench_pairs.py PARENT CHANGE --workload verify-warm \
      --pairs 10 --seconds 10 --seed0 1

Pair i (1..N) runs both trees with seed seed0 + i - 1, PARENT first in odd
pairs and CHANGE first in even ones, so that a slow phase of the host falls
on both sides alike.  Each run is `python3 benchmark/run.py --workload W
--seed K --seconds S --trace 0` from the tree's root.  For each side the
script prints each end-to-end metric's q1/median/q3 (statistics.quantiles,
n=4), the pairs the change won (its value better, in the direction
BENCHMARK.json gives), failed/attempted operations, whether every run was
correct, and the raw operation seconds per round, read from the run's
"[bench] ... s raw" line.

After the pairs it runs each tree once more with --trace 1 and seed seed0,
pinned to the lowest CPU of the script's affinity mask
(os.sched_setaffinity in the child), so every split evaluates in process
and the per-layer counts cover all the work.  It prints each per-layer
count (unit "count" in BENCHMARK.json) that the two traced runs read
differently, or that they all agree.

It also prints the lines of each module of the two trees' src/zetasum and
their total, parent -> change, and then their code lines alone: no blank
line, no comment-only line and no line of a docstring (a statement that is
a string alone).  So a fall in lines shows whether it is code or prose.

With --label L it also writes BENCH_L.json in the current directory: both
trees' commits (git rev-parse HEAD, or null outside a git checkout), the
host's CPU count and Python version, both trees' line counts under
src_lines and their code lines under code_lines, and per workload the
settings, each metric's q1/median/q3 per side with the pairs the change
won, failed/attempted and whether every run was correct per side, and every
run's metrics and raw seconds per round, and the two traced runs with their
seed and CPU.  A file that holds the same two commits keeps its other
workloads, so one label can collect the three workloads.
"""

import argparse
import ast
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tokenize
from pathlib import Path

RAW_LINE = re.compile(r"(\d+) rounds in [\d.]+ s; operations took ([\d.]+) s raw")


def parse_result(stdout: str) -> dict:
    """The run's metrics, correct, attempted and failed: its last stdout line
    is one JSON object."""
    result = json.loads(stdout.strip().splitlines()[-1])
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"]}


def parse_run(stdout: str, stderr: str) -> dict:
    """parse_result of an untraced run, with raw_s, the raw operation seconds
    per round."""
    match = RAW_LINE.search(stderr)
    if match is None:
        raise ValueError("no '[bench] ... s raw' line on stderr")
    rounds, raw = int(match[1]), float(match[2])
    return {**parse_result(stdout), "raw_s": raw / rounds}


def quartiles(values) -> tuple:
    """(q1, median, q3) of values, one value standing for all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def wins(parent, change, better: str = "lower") -> int:
    """Pairs in which change's value is better than parent's."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (c - p) < 0 for p, c in zip(parent, change))


def first_in_pair(i: int) -> str:
    """Which side runs first in pair i (from 1): the parent in odd pairs."""
    return "parent" if i % 2 == 1 else "change"


def summary(parent: list, change: list, better: dict) -> dict:
    """Per metric (and raw_s) and side, the q1/median/q3 of two lists of
    parse_run results, the pairs the change won, and per side failed/attempted
    and whether every run was correct: the numbers report prints."""
    out = {"metrics": {}}
    for name in list(parent[0]["metrics"]) + ["raw_s"]:
        def values(runs, name=name):
            return [r["raw_s"] if name == "raw_s" else r["metrics"][name] for r in runs]

        direction = better.get(name, "lower")
        out["metrics"][name] = {"better": direction, "change_won": wins(
            values(parent), values(change), direction), "pairs": len(parent)}
        for side, runs in (("parent", parent), ("change", change)):
            out["metrics"][name][side] = dict(zip(("q1", "median", "q3"), quartiles(values(runs))))
    for side, runs in (("parent", parent), ("change", change)):
        out[side] = {"failed": sum(r["failed"] for r in runs),
                     "attempted": sum(r["attempted"] for r in runs),
                     "correct": all(r["correct"] for r in runs)}
    return out


def report(parent: list, change: list, better: dict) -> list:
    """The summary lines for two lists of parse_run results, pair by pair."""
    numbers = summary(parent, change, better)
    lines = []
    for name, m in numbers["metrics"].items():
        (p1, pm, p3), (c1, cm, c3) = m["parent"].values(), m["change"].values()
        lines.append(f"{name}: parent {p1:.4g}/{pm:.4g}/{p3:.4g}  change {c1:.4g}/{cm:.4g}/"
                     f"{c3:.4g}  ({100 * (cm / pm - 1):+.1f}%, change {m['better']} in "
                     f"{m['change_won']}/{m['pairs']} pairs, parent spread {p3 - p1:.4g})")
    for side in ("parent", "change"):
        lines.append(f"{side}: failed/attempted {numbers[side]['failed']}/"
                     f"{numbers[side]['attempted']}, correct {numbers[side]['correct']}")
    return lines


def count_report(traced: dict, counts) -> list:
    """Lines naming each of the per-layer counts that the two traced runs
    read differently, or one line saying they agree."""
    parent, change = traced["parent"]["metrics"], traced["change"]["metrics"]
    differ = [f"{name}: parent {parent.get(name)}  change {change.get(name)}"
              for name in counts if parent.get(name) != change.get(name)]
    return differ or [f"per-layer counts on CPU {traced['cpu']}: equal"]


# tokens that hold no code: a line with none but these is blank or a comment
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The lines of the module text that hold a token of code and are not part
    of a docstring (an expression statement that is a string alone)."""
    prose = {n for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
             and isinstance(node.value.value, str)
             for n in range(node.lineno, node.end_lineno + 1)}
    code = {n for token in tokenize.generate_tokens(io.StringIO(text).readline)
            if token.type not in NOT_CODE for n in range(token.start[0], token.end[0] + 1)}
    return len(code - prose)


def src_lines(root: Path, code: bool = False) -> dict:
    """The lines (with code, the code_lines) of each module of root's
    src/zetasum, and their total."""
    count = code_lines if code else (lambda text: len(text.splitlines()))
    counts = {path.name: count(path.read_text(encoding="utf-8"))
              for path in sorted((root / "src" / "zetasum").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def src_report(lines: dict, what: str = "src lines") -> list:
    """One line per module, then the total, of src_lines parent -> change; a
    module one tree lacks counts 0 there."""
    parent, change = lines["parent"], lines["change"]
    names = sorted((set(parent) | set(change)) - {"total"}) + ["total"]
    return [f"{what} {name}: {parent.get(name, 0)} -> {change.get(name, 0)} "
            f"({change.get(name, 0) - parent.get(name, 0):+d})" for name in names]


def commit(root: Path):
    """The tree's git HEAD, or None where root is not a git checkout."""
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def write_bench(path: Path, commits: dict, lines: dict, code: dict, workload: str,
                settings: dict, runs: dict, better: dict, traced: dict) -> dict:
    """Write (or update) the BENCH file at path with the trees' src_lines, their
    code_lines and one workload's pairs and traced runs, and return its
    contents.  An existing file with other commits is replaced."""
    doc = {}
    if path.exists():
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc.get("commits") != commits:
            doc = {}
    doc.setdefault("commits", commits)
    doc["src_lines"], doc["code_lines"] = lines, code
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    doc["host"] = {"cpus": cpus, "python": platform.python_version()}
    doc.setdefault("workloads", {})[workload] = {
        **settings, **summary(runs["parent"], runs["change"], better), "runs": runs,
        "traced": traced}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return doc


def run_tree(root: Path, workload: str, seed: int, seconds: float, cpu=None) -> dict:
    """One untraced run in root; with cpu, one --trace 1 run pinned to it."""
    pin = None if cpu is None else lambda: os.sched_setaffinity(0, {cpu})
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "0" if cpu is None else "1"],
                          cwd=root, capture_output=True, text=True, check=True, preexec_fn=pin)
    return parse_run(proc.stdout, proc.stderr) if cpu is None else parse_result(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--label", default=None, help="also write BENCH_<label>.json")
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    runs = {"parent": [], "change": []}
    for i in range(1, args.pairs + 1):
        seed = args.seed0 + i - 1
        first = first_in_pair(i)
        for side in (first, "change" if first == "parent" else "parent"):
            runs[side].append(run_tree(getattr(args, side), args.workload, seed, args.seconds))
            print(f"pair {i} seed {seed} {side}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[side][-1]["metrics"].items())
                  + f" raw_s={runs[side][-1]['raw_s']:.4g}", file=sys.stderr, flush=True)
    print(f"{args.workload}, {args.pairs} pairs, seeds {args.seed0}-{args.seed0 + args.pairs - 1}"
          " (q1/median/q3)")
    print("\n".join(report(runs["parent"], runs["change"], better)))
    cpu = min(os.sched_getaffinity(0))
    traced = {"seed": args.seed0, "cpu": cpu}
    for side in ("parent", "change"):
        traced[side] = run_tree(getattr(args, side), args.workload, args.seed0, args.seconds, cpu)
    print("\n".join(count_report(traced, counts)))
    lines = {side: src_lines(getattr(args, side)) for side in ("parent", "change")}
    code = {side: src_lines(getattr(args, side), code=True) for side in ("parent", "change")}
    print("\n".join(src_report(lines) + src_report(code, "code lines")))
    if args.label:
        settings = {"pairs": args.pairs, "seconds": args.seconds,
                    "seeds": [args.seed0, args.seed0 + args.pairs - 1]}
        write_bench(Path(f"BENCH_{args.label}.json"),
                    {"parent": commit(args.parent), "change": commit(args.change)}, lines,
                    code, args.workload, settings, runs, better, traced)
    return 0


if __name__ == "__main__":
    sys.exit(main())

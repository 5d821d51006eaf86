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
"[bench] ... s raw" line.  It writes no file.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

RAW_LINE = re.compile(r"(\d+) rounds in [\d.]+ s; operations took ([\d.]+) s raw")


def parse_run(stdout: str, stderr: str) -> dict:
    """The run's metrics, correct, attempted and failed (its last stdout line
    is one JSON object) and raw_s, the raw operation seconds per round."""
    result = json.loads(stdout.strip().splitlines()[-1])
    match = RAW_LINE.search(stderr)
    if match is None:
        raise ValueError("no '[bench] ... s raw' line on stderr")
    rounds, raw = int(match[1]), float(match[2])
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "raw_s": raw / rounds}


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


def report(parent: list, change: list, better: dict) -> list:
    """The summary lines for two lists of parse_run results, pair by pair."""
    lines = []
    names = list(parent[0]["metrics"]) + ["raw_s"]
    for name in names:
        def values(runs, name=name):
            return [r["raw_s"] if name == "raw_s" else r["metrics"][name] for r in runs]

        p, c = values(parent), values(change)
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        direction = better.get(name, "lower")
        lines.append(f"{name}: parent {p1:.4g}/{pm:.4g}/{p3:.4g}  change {c1:.4g}/{cm:.4g}/"
                     f"{c3:.4g}  ({100 * (cm / pm - 1):+.1f}%, change {direction} in "
                     f"{wins(p, c, direction)}/{len(p)} pairs, parent spread {p3 - p1:.4g})")
    for side, runs in (("parent", parent), ("change", change)):
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        lines.append(f"{side}: failed/attempted {failed}/{attempted}, "
                     f"correct {all(r['correct'] for r in runs)}")
    return lines


def run_tree(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True, check=True)
    return parse_run(proc.stdout, proc.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
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
    return 0


if __name__ == "__main__":
    sys.exit(main())

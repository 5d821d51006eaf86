#!/usr/bin/env python3
"""Check that BENCHMARK.json and the benchmark's output name the same
workloads and metrics, with the same units.

    python3 benchmark/check_spec.py          # BENCHMARK.json against the code
    python3 benchmark/check_spec.py --run    # ... and against one real run of every
                                             # workload, untraced and traced (~3 min)

Every untraced run must print every end-to-end metric of BENCHMARK.json,
and every traced run every per-layer metric, whatever the workload.
Exits 1 and lists each mismatch when anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

def expected_metrics(trace: int) -> dict:
    return dict(spans.UNITS if trace else run.END_TO_END_UNITS)


def _compare(label: str, declared: dict, code: dict) -> list:
    """Mismatches between {name: unit} maps from BENCHMARK.json and the code."""
    problems = []
    for name in sorted(set(declared) | set(code)):
        if name not in code:
            problems.append(f"{label}: {name} is in BENCHMARK.json only")
        elif name not in declared:
            problems.append(f"{label}: {name} is in the code only")
        elif declared[name] != code[name]:
            problems.append(f"{label}: {name} has unit {declared[name]!r} in BENCHMARK.json "
                            f"and {code[name]!r} in the code")
    return problems


def check_spec(spec: dict) -> list:
    problems = []
    declared = sorted(w["name"] for w in spec["workloads"])
    if declared != sorted(workloads.WORKLOADS):
        problems.append(f"workloads: BENCHMARK.json {declared} vs code "
                        f"{sorted(workloads.WORKLOADS)}")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    problems += _compare("end_to_end", e2e, run.END_TO_END_UNITS)
    problems += _compare("per_layer", {m["name"]: m["unit"] for m in spec["per_layer"]},
                         spans.UNITS)
    if spec["command"] != ["python3", "benchmark/run.py"] or spec["paths"] != ["benchmark"]:
        problems.append("command or paths no longer point at benchmark/run.py")
    return problems


def check_output(workload: str, trace: int, stdout: str) -> list:
    lines = stdout.strip().splitlines()
    if not lines:
        return [f"{workload} trace={trace}: no output"]
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{workload} trace={trace}: result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        problems.append(f"{workload} trace={trace}: printed {sorted(got.items())}, "
                        f"expected {sorted(want.items())}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--run", action="store_true", help="run every workload once, both modes")
    args = ap.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        problems = check_spec(json.load(f))
    if args.run:
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                     "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, check=False)
                if proc.returncode != 0:
                    problems.append(f"{workload} trace={trace}: exit {proc.returncode}")
                problems += check_output(workload, trace, proc.stdout)
    for p in problems:
        print(f"MISMATCH {p}")
    print("spec check:", "ok" if not problems else f"{len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

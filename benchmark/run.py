#!/usr/bin/env python3
"""zetasum benchmark: one run of one workload.

    python3 benchmark/run.py --workload zeros-cold --seed 1 --seconds 15 --trace 0

Run from the root of a source tree; zetasum is imported from its src/.  The
first run in a tree builds the prepared zero stores with the code under
measurement (the 500-zero 192-bit store takes about six minutes) into
benchmark/work/<source digest>/, outside every timed region.

--trace 0 repeats whole rounds of the workload for --seconds and reports
the end-to-end metrics (setup_s, peak_rss_mb, round_s), with every time
normalised for the host's speed (speed.py).  --trace 1 runs one untraced round, then one round
with every layer wrapped, writes the spans to benchmark/work/traces/ and
reports the per-layer metrics and the tracing overhead.  Progress goes to
stderr; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import spans
import speed
import workloads
from oracle import Oracle

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 15

# Every untraced run prints all three, whatever its workload: the workloads
# run different operations, so a per-operation figure would have no value on
# two of them.  Per-operation figures go to stderr (Workload.breakdown).
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "round_s": "s",
}


def log(message: str) -> None:
    print(f"[bench] {message}", file=sys.stderr, flush=True)


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "zetasum").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def prepare(stores: str) -> None:
    """Build each prepared zero store that this source tree lacks."""
    env = workloads.import_zetasum()
    for count, bits in workloads.STORES:
        if os.path.exists(os.path.join(stores, f"zeros_n{count}_p{bits}.txt")):
            continue
        log(f"building the {count}-zero {bits}-bit store (once per source tree)")
        t0 = time.perf_counter()
        env.zeros.load_or_compute(count, env.numctx.NumericContext(bits), stores)
        log(f"built the {count}-zero {bits}-bit store in {time.perf_counter() - t0:.1f} s")


def timed_setup(workload, work, clock):
    gc.collect()  # drop the last round's modules, so peak RSS does not grow with rounds
    env, _, seconds, error = clock.call(workload.setup, work)
    if error is not None:
        raise error
    return env, seconds


def run(workload, seed: int, seconds: float, trace: bool, work) -> dict:
    inp = workload.inputs(random.Random(seed))
    clock = speed.Clock(sample_during=not trace)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        env, dt = timed_setup(workload, work, clock)
        setup_times.append(dt)
    ops = workloads.Ops(clock)
    rounds = []
    if trace:
        rounds.append(workload.round(env, inp, ops))
        untraced = ops.seconds
        gc.collect()
        traced_env = workload.setup(work)
        rec = spans.Recorder()
        spans.install(rec, traced_env.package, workloads.layer_modules(traced_env))
        ops.recorder = rec
        rounds.append(workload.round(traced_env, inp, ops))
        traced = ops.seconds - untraced
        ops.recorder = None
        overhead = 100.0 * (traced / untraced - 1.0)
        metrics = spans.layer_metrics(rec, overhead)
        units = spans.UNITS
        summary = {"workload": workload.name, "seed": seed, "rounds": 2, "traced_rounds": 1,
                   "attempted": ops.attempted, "failed": ops.failed,
                   "untraced_round_s": untraced, "traced_round_s": traced,
                   "overhead_pct": overhead}
        trace_dir = os.path.join(work.root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{workload.name}-seed{seed}.json")
        rec.write(trace_path, summary)
        per_kind = " ".join(f"{k}={ops.attempted[k]}/{ops.failed[k]}" for k in ops.attempted)
        print(f"summary workload={workload.name} attempted={sum(ops.attempted.values())} "
              f"failed={sum(ops.failed.values())} ops(attempted/failed): {per_kind} "
              f"overhead={overhead:.2f}% spans={len(rec.spans)} file={trace_path}")
    else:
        t0 = time.perf_counter()
        peak_mb = None
        round_times = []
        while True:
            before = ops.seconds
            rounds.append(workload.round(env, inp, ops))
            round_times.append(ops.seconds - before)
            if peak_mb is None:
                # after the first round: later rounds would make it depend on their number
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if time.perf_counter() - t0 >= seconds:
                break
            env, dt = timed_setup(workload, work, clock)
            setup_times.append(dt)
        metrics = {"setup_s": statistics.median(setup_times), "peak_rss_mb": peak_mb,
                   "round_s": statistics.median(round_times)}
        units = END_TO_END_UNITS
        log(f"{workload.name} breakdown: " + " ".join(
            f"{name}={value:.6g}" for name, value in workload.breakdown(rounds).items()))
        log(f"{workload.name}: {len(rounds)} rounds in {time.perf_counter() - t0:.1f} s; "
            f"operations took {ops.raw_seconds:.3f} s raw, {ops.seconds:.3f} s normalised "
            f"(host speed {ops.seconds / ops.raw_seconds:.3f} of the reference)")
    correct = workload.check(rounds, inp, Oracle(workload.bits), env, work)
    return {
        "correct": bool(correct),
        "attempted": sum(ops.attempted.values()),
        "failed": sum(ops.failed.values()),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "zetasum" / "__init__.py").is_file():
        print(f"benchmark: no zetasum sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    root = BENCH / "work"
    stores = root / source_digest(src)
    stores.mkdir(parents=True, exist_ok=True)
    prepare(str(stores))
    scratch = tempfile.mkdtemp(prefix="run-", dir=root)
    work = SimpleNamespace(root=str(root), stores=str(stores), scratch=scratch)
    try:
        result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), work)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

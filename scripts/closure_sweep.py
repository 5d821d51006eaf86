#!/usr/bin/env python3
"""Contour-closure sweep: check integral = -(sum of residues) over a grid of
(a, x) pairs and report one line per pair plus the shared orientation sign.

  python scripts/closure_sweep.py --pairs 0.3:0.5,0.5:0.5,0.9:0.75,5:0.25 \
      --precision 96 --zeros 24 --cache-dir ~/.zetasum-cache
"""

import argparse
import sys

from zetasum import (InternalConsistencyError, NumericContext, SumRuleParams,
                     consistent_orientation, load_or_compute, verify_residue_theorem)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", default="0.3:0.5,0.5:0.5,0.9:0.75,5:0.25,5:0.75")
    ap.add_argument("--precision", type=int, default=96)
    ap.add_argument("--zeros", type=int, default=24)
    ap.add_argument("--n-trivial", type=int, default=16)
    ap.add_argument("--n-halfint", type=int, default=8)
    ap.add_argument("--cache-dir", default=None)
    args = ap.parse_args(argv)

    ctx = NumericContext(args.precision)
    store = load_or_compute(args.zeros, ctx, args.cache_dir)
    reports = []
    failures = 0
    for pair in args.pairs.split(","):
        a, x = pair.split(":")
        params = SumRuleParams(a=a, x=x, n_zeros=args.zeros,
                               n_trivial=args.n_trivial, n_halfint=args.n_halfint)
        rep = verify_residue_theorem(params, store, ctx)
        reports.append(rep)
        flag = "PASS" if rep.passes() else "FAIL"
        if flag == "FAIL":
            failures += 1
        print(f"a={a:>6} x={x:>5}  orientation={rep.orientation:+d}  "
              f"residual={float(rep.residual):.3e}  tail={float(rep.tail_bound):.3e}  "
              f"sites={rep.sites}  {flag}")
    try:
        sign = consistent_orientation(reports)
    except InternalConsistencyError as exc:
        print(f"FAIL: {exc}")
        return 1
    print(f"shared orientation: {sign:+d} "
          f"(integral equals {sign:+d} times the residue sum)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Re-measure the single-operation reference figures of the ROADMAP baseline.

    python3 benchmark/reference.py

Prints one line per figure: zeta(1/2+it) at 192 bits for t = 14, 100, 400
and 800; the cost of Z+Z' against Z; locate_zeros(40) at 192 bits; one
192-bit contour integral; one 96-bit residue and one 96-bit closure at the
criterion-06 truncation; the Mangoldt sum against a float fsum; and
evaluate_sumrule at 40 zeros.  Takes about a minute and a half.  The
500-zero build time is printed by the first benchmark run in a tree, and
the tier-1 wall time comes from the test suite itself.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from oracle import prime_powers  # noqa: E402
from run import source_digest  # noqa: E402
from zetasum import arith, sumrule as sr, zeros  # noqa: E402
from zetasum.numctx import NumericContext  # noqa: E402
from zetasum.zetafn import ZetaEngine  # noqa: E402


def timed(fn, *args, repeat=1):
    """(median seconds over `repeat` calls, last result)."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def main() -> int:
    ctx192, ctx96 = NumericContext(192), NumericContext(96)
    eng = ZetaEngine(ctx192)
    mp = ctx192.mp
    for t in (14, 100, 400, 800):
        dt, _ = timed(eng.zeta, mp.mpc(0.5, t), repeat=5)
        print(f"zeta(1/2+{t}i) at 192 bits: {1000 * dt:.1f} ms")
    t = mp.mpf(100)
    z_s, _ = timed(eng.hardy_z, t, repeat=5)
    zz_s, _ = timed(eng.hardy_z_with_deriv, t, repeat=5)
    print(f"hardy_z_with_deriv / hardy_z at t = 100, 192 bits: {zz_s / z_s:.2f} "
          f"({1000 * zz_s:.1f} ms / {1000 * z_s:.1f} ms)")
    dt, store40 = timed(zeros.locate_zeros, 40, ctx192)
    print(f"locate_zeros(40) at 192 bits: {dt:.2f} s")
    dt, _ = timed(sr.contour_integral, sr.SumRuleParams(a="0.5", x="0.5"), ctx192)
    print(f"contour_integral at (0.5, 0.5), 192 bits: {dt:.2f} s")
    store30 = zeros.load_or_compute(30, ctx96, str(BENCH / "work" / source_digest(ROOT / "src")))
    params = sr.SumRuleParams(a="0.5", x="0.5", n_zeros=24, n_trivial=16, n_halfint=8)
    eng96 = ZetaEngine(ctx96)
    catalog = sr.pole_catalog(params, store30, ctx96, eng96)
    site = next(s for s in catalog if s.family == "critical_zero")
    dt, _ = timed(sr.numeric_residue, site, params, ctx96, catalog, eng96, store30)
    print(f"numeric_residue at critical zero #1, (0.5, 0.5), 96 bits: {dt:.3f} s")
    dt, rep = timed(sr.verify_residue_theorem, params, store30, ctx96)
    print(f"verify_residue_theorem at (0.5, 0.5), 96 bits, {rep.sites} sites: {dt:.2f} s")
    table = arith.mangoldt_sieve(10**6)
    dt, _ = timed(sr.evaluate_guillera, "0.5", store40, table, ctx192)
    terms = [math.sqrt(n) * lp / ((n + 0.5) * (1 + 0.5 * n)) for n, lp in prime_powers(10**6)]
    fsum_s, _ = timed(math.fsum, terms, repeat=5)
    print(f"evaluate_guillera at x = 0.5 (Mangoldt sum over {len(terms)} prime powers), "
          f"192 bits: {dt:.2f} s; float fsum of the same terms: {fsum_s:.3f} s")
    dt, _ = timed(sr.evaluate_sumrule, sr.SumRuleParams(a="0.5", x="0.5", n_zeros=40),
                  store40, ctx192, repeat=3)
    print(f"evaluate_sumrule at (0.5, 0.5), 40 zeros, 192 bits: {dt:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

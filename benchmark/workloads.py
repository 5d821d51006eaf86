"""The three workloads: their seeded inputs, one round of operations, the
per-operation breakdown of a run (logged, not reported) and the output checks.

A run repeats whole rounds of the same operations, so every run attempts
the same operations in the same proportions.  Every round starts from a
fresh import of zetasum, as a new process would: module-level caches (the
Bernoulli table, the per-prime logarithms of the Mangoldt sum) are cold in
every round alike.  Checks run after the timed loop, on the outputs each
round kept.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import statistics
import sys
from types import SimpleNamespace

from oracle import mangoldt_series_float, parse_report

MODULES = ("numctx", "zetafn", "zeros", "arith", "sumrule", "cli")

# zeros-cold: a cold 192-bit location, its export, the import of that table
# and the import of the same table without zero #MISSING_ZERO.
COLD_COUNT = 16
COLD_BITS = 192
MISSING_ZERO = 1
ZETA_PRIME_SAMPLE = 4

# closure: the criterion-04 integrals at 192 bits and two criterion-06 pairs
# that differ in a, closed at 96 bits over the 30-zero store.  The truncation
# is smaller than criterion 06's but keeps the closure real: the residual
# stays below 1% of the integral, so the orientation sign is decided.
CONTOUR_BITS = 192
CONTOUR_PAIRS = (("0.5", "0.5"), ("2", "0.25"), ("0.9", "0.75"))
CLOSURE_BITS = 96
CLOSURE_PAIRS = (("0.5", "0.5"), ("0.9", "0.75"))
CLOSURE_TRUNCATION = {"n_zeros": 6, "n_trivial": 16, "n_halfint": 4}
CLOSURE_STORE = (30, 96)
# The benchmark's own closure bound, independent of ClosureReport.passes():
# today's residuals are 4e-5 and 6e-3 of the integral.
CLOSURE_MAX_RESIDUAL = 1e-2

# verify-warm: CLI calls over the 500-zero 192-bit cache.  Every (a, x) in
# the pools is non-resonant and passes `verify sumrule --zeros 500`.
WARM_STORE = (500, 192)
WARM_REPEATS = 6
A_POOL = ("0.3", "0.45", "0.6", "0.7", "0.9", "1.5")
X_POOL = ("0.25", "0.4", "0.5", "0.6", "0.75")
GRID_SIDE = 3
GUILLERA_X = "0.5"
LAMBDA_LIMIT = 10**6
STORE_SAMPLE = 3

STORES = (WARM_STORE, CLOSURE_STORE)


def enclosure(bits: int):
    """The zero enclosure half-width e = 2^(10 - bits), as in zetasum.zeros."""
    return 2.0 ** (10 - bits)


class Ops:
    """Counts attempted and failed operations; times each one with a
    speed.Clock, in host-normalised seconds."""

    def __init__(self, clock):
        self.clock = clock
        self.attempted = {}
        self.failed = {}
        self.seconds = 0.0
        self.raw_seconds = 0.0
        self.recorder = None

    def run(self, kind: str, fn, *args):
        """(value, seconds); value is None when the operation raised."""
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        self.failed.setdefault(kind, 0)
        if self.recorder is not None:
            self.recorder.begin_op(kind)
        value, raw, seconds, error = self.clock.call(fn, *args)
        self.seconds += seconds
        self.raw_seconds += raw
        if error is not None:  # counted and reported; the run goes on
            self.failed[kind] += 1
            print(f"operation {kind} failed: {type(error).__name__}: {error}", file=sys.stderr)
        return value, seconds

    def skip(self, kind: str) -> None:
        """An operation that could not start because an earlier one failed."""
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        self.failed[kind] = self.failed.get(kind, 0) + 1


def import_zetasum() -> SimpleNamespace:
    """Drop every zetasum module and import the package afresh."""
    for name in [n for n in sys.modules if n == "zetasum" or n.startswith("zetasum.")]:
        del sys.modules[name]
    env = SimpleNamespace(package=importlib.import_module("zetasum"))
    for name in MODULES:
        setattr(env, name, importlib.import_module(f"zetasum.{name}"))
    return env


def layer_modules(env) -> dict:
    return {name: getattr(env, name) for name in MODULES}


def cli_call(cli, argv):
    """zetasum.cli.main in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _median(values):
    return statistics.median(values) if values else 0.0


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


# -- zeros-cold ----------------------------------------------------------------


class MissingZeroAccepted(RuntimeError):
    """import_zeros returned a table that lacks a zero."""


def _import_expecting_rejection(zeros, path, ctx):
    try:
        store = zeros.import_zeros(path, ctx)
    except zeros.MissedZeroError:
        return "rejected"
    raise MissingZeroAccepted(f"import_zeros accepted a table without zero "
                              f"#{MISSING_ZERO} and returned {len(store)} records")


def _drop_zero(text: str, index: int) -> str:
    """The zeros-format text without its index-th tau line (1-based)."""
    lines = text.splitlines()
    tau_lines = [i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")]
    del lines[tau_lines[index - 1]]
    return "\n".join(lines) + "\n"


class ZerosCold:
    name = "zeros-cold"
    bits = COLD_BITS

    def inputs(self, rng):
        return SimpleNamespace(
            zeta_prime_sample=sorted(rng.sample(range(1, COLD_COUNT + 1), ZETA_PRIME_SAMPLE)))

    def setup(self, work):
        env = import_zetasum()
        env.ctx = env.numctx.NumericContext(COLD_BITS)
        env.zetafn.ZetaEngine(env.ctx)
        env.scratch = work.scratch
        return env

    def round(self, env, inp, ops):
        ctx, zeros = env.ctx, env.zeros
        path = os.path.join(env.scratch, "zeros.txt")
        missing = os.path.join(env.scratch, "zeros-missing.txt")
        out = {}
        store, out["locate_s"] = ops.run("locate", zeros.locate_zeros, COLD_COUNT, ctx)
        if store is None:
            for kind in ("export", "import", "import_missing"):
                ops.skip(kind)
            return out
        out["located"] = [(r.tau, r.zeta_prime) for r in store]
        _, out["export_s"] = ops.run("export", zeros.export_zeros, store, path, ctx)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        with open(missing, "w", encoding="utf-8") as f:
            f.write(_drop_zero(text, MISSING_ZERO))
        imported, out["import_s"] = ops.run("import", zeros.import_zeros, path, ctx)
        if imported is not None:
            out["imported"] = [r.tau for r in imported]
        _, out["missing_s"] = ops.run("import_missing", _import_expecting_rejection,
                                      zeros, missing, ctx)
        return out

    def breakdown(self, rounds):
        located = [r for r in rounds if "located" in r]
        imported = [r for r in rounds if "imported" in r]
        return {
            "zeros_per_s": _rate(sum(len(r["located"]) for r in located),
                                 sum(r["locate_s"] for r in located)),
            "import_zeros_per_s": _rate(sum(len(r["imported"]) for r in imported),
                                        sum(r["import_s"] for r in imported)),
        }

    def check(self, rounds, inp, oracle, env, work):
        e = enclosure(COLD_BITS)
        ok = True
        for r in rounds:
            located = r.get("located", [])
            if located and len(located) != COLD_COUNT:
                ok = _fail(f"located {len(located)} zeros, expected {COLD_COUNT}")
            for n, (tau, _) in enumerate(located, start=1):
                if not oracle.tau_matches(n, tau, e):
                    ok = _fail(f"zero #{n} differs from mpmath.zetazero by more than 2^(10-p)")
                if not oracle.z_changes_sign(tau, e):
                    ok = _fail(f"mpmath.siegelz keeps its sign across zero #{n} +- e")
            for n in inp.zeta_prime_sample:
                if n <= len(located) and not oracle.zeta_prime_matches(*located[n - 1], e):
                    ok = _fail(f"zeta'(rho_{n}) differs from mpmath.zeta(rho, derivative=1)")
            imported = r.get("imported")
            if imported is not None:
                if len(imported) != len(located) or not all(
                        oracle.within(a, b, e) for (a, _), b in zip(located, imported)):
                    ok = _fail("imported taus differ from the located ones by more than e")
        return ok


# -- closure -----------------------------------------------------------------


class Closure:
    name = "closure"
    bits = CONTOUR_BITS

    def inputs(self, rng):
        contour = list(CONTOUR_PAIRS)
        closure = list(CLOSURE_PAIRS)
        rng.shuffle(contour)
        rng.shuffle(closure)
        return SimpleNamespace(contour_pairs=contour, closure_pairs=closure)

    def setup(self, work):
        env = import_zetasum()
        env.ctx192 = env.numctx.NumericContext(CONTOUR_BITS)
        env.ctx96 = env.numctx.NumericContext(CLOSURE_BITS)
        env.zetafn.ZetaEngine(env.ctx192)
        env.zetafn.ZetaEngine(env.ctx96)
        count, _ = CLOSURE_STORE
        env.store = env.zeros.load_or_compute(count, env.ctx96, work.stores)
        return env

    def round(self, env, inp, ops):
        sr = env.sumrule
        out = {"contour": [], "closure": []}
        for a, x in inp.contour_pairs:
            value, dt = ops.run("contour", sr.contour_integral,
                                sr.SumRuleParams(a=a, x=x), env.ctx192)
            out["contour"].append((a, x, value, dt))
        for a, x in inp.closure_pairs:
            params = sr.SumRuleParams(a=a, x=x, **CLOSURE_TRUNCATION)
            rep, dt = ops.run("closure", sr.verify_residue_theorem, params, env.store, env.ctx96)
            out["closure"].append((a, x, rep, dt))
        return out

    def breakdown(self, rounds):
        return {
            "contour_s": _median([sum(c[3] for c in r["contour"]) for r in rounds]),
            "closure_s": _median([sum(c[3] for c in r["closure"]) for r in rounds]),
        }

    def check(self, rounds, inp, oracle, env, work):
        ok = True
        for r in rounds:
            for a, x, value, _ in r["contour"]:
                if value is not None and not oracle.closed_form_matches(a, x, value, 1e-20):
                    ok = _fail(f"contour integral at ({a}, {x}) misses x^(1/4)/(2 pi zeta(a))")
            reports = [rep for _, _, rep, _ in r["closure"] if rep is not None]
            for a, x, rep, _ in r["closure"]:
                if rep is None:
                    continue
                if not rep.passes():
                    ok = _fail(f"closure at ({a}, {x}) misses its tail bound")
                if not rep.residual < CLOSURE_MAX_RESIDUAL * abs(rep.integral):
                    ok = _fail(f"closure residual at ({a}, {x}) exceeds "
                               f"{CLOSURE_MAX_RESIDUAL} of the integral")
                if not oracle.closed_form_matches(a, x, rep.integral, 1e-20):
                    ok = _fail(f"closure integral at ({a}, {x}) misses the closed form")
            if reports:
                try:
                    orientation = env.sumrule.consistent_orientation(reports)
                except env.sumrule.InternalConsistencyError as exc:
                    orientation = None
                    print(f"consistent_orientation: {exc}", file=sys.stderr)
                if orientation != -1:
                    ok = _fail("closure orientation is not -1")
        return ok


# -- verify-warm -----------------------------------------------------------------


class VerifyWarm:
    name = "verify-warm"
    bits = WARM_STORE[1]

    def inputs(self, rng):
        count, _ = WARM_STORE
        return SimpleNamespace(
            sumrule=(rng.choice(A_POOL), rng.choice(X_POOL)),
            rh_x=rng.choice(X_POOL),
            grid_a=sorted(rng.sample(A_POOL, GRID_SIDE), key=float),
            grid_x=sorted(rng.sample(X_POOL, GRID_SIDE), key=float),
            store_sample=sorted(rng.sample(range(1, count + 1), STORE_SAMPLE)))

    def setup(self, work):
        env = import_zetasum()
        count, bits = WARM_STORE
        env.ctx = env.numctx.NumericContext(bits)
        env.zetafn.ZetaEngine(env.ctx)
        env.zeros.load_or_compute(count, env.ctx, work.stores)
        env.common = ["--zeros", str(count), "--cache-dir", work.stores]
        return env

    def _argv(self, env, inp):
        a, x = inp.sumrule
        return {
            "verify_sumrule": ["verify", "sumrule", "--a", a, "--x", x] + env.common,
            "verify_rh_form": ["verify", "rh-form", "--x", inp.rh_x] + env.common,
            "verify_guillera": ["verify", "guillera", "--x", GUILLERA_X] + env.common,
            "scan": ["scan", "--a-list", ",".join(inp.grid_a), "--x-list", ",".join(inp.grid_x),
                     "--format", "csv"] + env.common,
        }

    def round(self, env, inp, ops):
        argv = self._argv(env, inp)
        out = {kind: [] for kind in argv}
        plan = ["verify_sumrule", "verify_rh_form"] * WARM_REPEATS
        plan += ["verify_guillera", "scan"]
        for kind in plan:
            result, dt = ops.run(kind, cli_call, env.cli, argv[kind])
            out[kind].append((result, dt))
        return out

    def breakdown(self, rounds):
        def times(kind):
            return [dt for r in rounds for res, dt in r[kind] if res is not None]
        points = GRID_SIDE * GRID_SIDE
        scans = times("scan")
        return {
            "verify_sumrule_s": _median(times("verify_sumrule")),
            "verify_rh_form_s": _median(times("verify_rh_form")),
            "guillera_s": _median(times("verify_guillera")),
            "scan_points_per_s": _rate(points * len(scans), sum(scans)),
        }

    def check(self, rounds, inp, oracle, env, work):
        ok = True
        count, bits = WARM_STORE
        results = {kind: [res for r in rounds for res, _ in r[kind] if res is not None]
                   for kind in rounds[0]}
        for kind, outs in results.items():
            for rc, _, err in outs:
                if rc != 0:
                    ok = _fail(f"{kind} exited {rc}: {err.strip()}")
            results[kind] = [res for res in outs if res[0] == 0]
        a, _ = inp.sumrule
        for _, text, _ in results["verify_sumrule"]:
            if not oracle.sumrule_constant_matches(a, parse_report(text)["rhs constant"], 1e-50):
                ok = _fail("sum-rule constant differs from sqrt(a)/(pi zeta(a))")
        for _, text, _ in results["verify_rh_form"]:
            factor = parse_report(text)["aux rh_k_prefactor"]
            if not oracle.quarter_power_matches(inp.rh_x, factor, 1e-20):
                ok = _fail("rh-form k-series prefactor differs from x^(1/4)")
        if results["verify_guillera"]:
            reference = mangoldt_series_float(float(GUILLERA_X), LAMBDA_LIMIT)
            for _, text, _ in results["verify_guillera"]:
                fields = parse_report(text)
                series = oracle.difference(fields["rhs n-series"], fields["aux tail_correction"])
                if abs(series - reference) > 1e-12:
                    ok = _fail(f"Mangoldt series {series!r} differs from the float sum "
                               f"{reference!r} by more than 1e-12")
        again = cli_call(env.cli, self._argv(env, inp)["scan"])
        for _, csv, _ in results["scan"]:
            if csv != again[1]:
                ok = _fail("scan CSV differs between two calls with the same arguments")
        taus = _store_taus(os.path.join(work.stores, f"zeros_n{count}_p{bits}.txt"))
        if len(taus) != count:
            ok = _fail(f"store holds {len(taus)} zeros, expected {count}")
        for n in inp.store_sample:
            if n <= len(taus) and not oracle.tau_matches(n, taus[n - 1], enclosure(bits)):
                ok = _fail(f"store zero #{n} differs from mpmath.zetazero")
        return ok


def _store_taus(path):
    """Tau strings of a zeros-format file, read without zetasum's parser."""
    with open(path, encoding="utf-8") as f:
        return [line.strip() for line in f if line.strip() and not line.startswith("#")]


def _fail(message: str) -> bool:
    print(f"check failed: {message}", file=sys.stderr)
    return False


WORKLOADS = {w.name: w for w in (ZerosCold(), Closure(), VerifyWarm())}

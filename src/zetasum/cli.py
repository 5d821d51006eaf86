"""Command-line front end.

Subcommands
  zeros     compute/refresh/import/export the zero store
  verify    one identity at one parameter point (integral | residues |
            sumrule | rh-form | guillera)
  scan      Cartesian (a, x) grid, one report row per point (csv/json/text)
  selftest  reduced-scale invariant suite

Exit codes: 0 all criteria met, 1 a mathematical criterion failed,
2 computational or configuration error.

Config precedence: flags > ZETASUM_CACHE_DIR (cache dir only) > config file
(flat key=value lines) > defaults.  Reports and scans are byte-deterministic
for a given RunConfig in every format; the wall time is emitted as 0 unless
--timing is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

from .arith import mangoldt_sieve
from .numctx import DomainError, NumericContext
from .zetafn import InternalConsistencyError, PrecisionError, ZetaPoleError, engine_for
from .zeros import (MissedZeroError, MultipleZeroError, ZeroImportError, _expected_count,
                    export_zeros, import_zeros, load_or_compute)
from . import sumrule as sr

__all__ = ["main", "RunConfig"]

ENV_CACHE_DIR = "ZETASUM_CACHE_DIR"

COMPUTATIONAL_ERRORS = (
    ValueError, DomainError, ZetaPoleError, PrecisionError, InternalConsistencyError,
    MissedZeroError, MultipleZeroError, ZeroImportError, sr.ResonantParameterError,
    sr.SingularityError, sr.OverlappingPoleError, OSError,
)

SCAN_COLUMNS = ("a", "x", "lhs", "rhs_const", "rhs_n_series", "rhs_k_series",
                "residual", "tail_bound", "zeros_used", "wall_time_ms", "status")


@dataclass
class RunConfig:
    precision_bits: int = 192
    cache_dir: str | None = None
    zeros_count: int = 100
    a: str | None = None
    x: str | None = None
    a_list: tuple = ()
    x_list: tuple = ()
    n_trivial: int = 40
    n_halfint: int = 12
    output_format: str = "text"
    zeros_file: str | None = None
    out: str | None = None
    timing: bool = False
    lambda_limit: int = 10**6


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            k, v = line.split("=", 1)
            values[k.strip()] = v.strip()
    return values


def _build_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        file_vals = _read_config_file(args.config)
        for key in ("precision_bits", "zeros_count", "n_trivial", "n_halfint",
                    "lambda_limit"):
            if key in file_vals:
                setattr(cfg, key, int(file_vals[key]))
        for key in ("cache_dir", "a", "x", "output_format", "zeros_file", "out"):
            if key in file_vals:
                setattr(cfg, key, file_vals[key])
        if "a_list" in file_vals:
            cfg.a_list = tuple(file_vals["a_list"].split(","))
        if "x_list" in file_vals:
            cfg.x_list = tuple(file_vals["x_list"].split(","))
    if os.environ.get(ENV_CACHE_DIR):
        cfg.cache_dir = os.environ[ENV_CACHE_DIR]
    for key in ("precision_bits", "cache_dir", "zeros_count", "a", "x",
                "n_trivial", "n_halfint", "output_format", "zeros_file",
                "out", "timing", "lambda_limit"):
        v = getattr(args, key, None)
        if v is not None:
            setattr(cfg, key, v)
    if getattr(args, "a_list", None):
        cfg.a_list = tuple(s for s in args.a_list.split(",") if s)
    if getattr(args, "x_list", None):
        cfg.x_list = tuple(s for s in args.x_list.split(",") if s)
    return cfg


def _store_for(cfg: RunConfig, ctx: NumericContext, count: int):
    if cfg.zeros_file:
        store = import_zeros(cfg.zeros_file, ctx)
        if len(store) < count:
            raise ValueError(f"zeros file holds {len(store)} zeros, {count} needed")
        return store.prefix(count)
    return load_or_compute(count, ctx, cfg.cache_dir).prefix(count)


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _csv_row(d: dict, status: str) -> list:
    """One SCAN_COLUMNS row from EvaluationReport.to_dict output."""
    return [d["a"], d["x"], d["lhs_zero_sum"], d["rhs_const"], d["rhs_n_series"],
            d["rhs_k_series"], d["residual"], d["tail_bound"],
            str(d["zeros_used"]), str(d["wall_time_ms"]), status]


def _print_report(rep, ctx, cfg: RunConfig, criterion: str) -> None:
    if cfg.output_format == "json":
        _emit(json.dumps(rep.to_dict(ctx, timing=cfg.timing), indent=2) + "\n", cfg)
        return
    if cfg.output_format == "csv":
        row = _csv_row(rep.to_dict(ctx, timing=cfg.timing), "PASS" if rep.passes() else "FAIL")
        _emit(",".join(SCAN_COLUMNS) + "\n" + ",".join(row) + "\n", cfg)
        return
    lines = [
        f"a                : {ctx.nstr(rep.a)}",
        f"x                : {ctx.nstr(rep.x)}",
        f"lhs zero sum     : {ctx.nstr(rep.lhs_zero_sum)}",
        f"rhs constant     : {ctx.nstr(rep.rhs_const)}",
        f"rhs n-series     : {ctx.nstr(rep.rhs_n_series)}",
        f"rhs k-series     : {ctx.nstr(rep.rhs_k_series)}",
        f"residual         : {ctx.nstr(rep.residual)}",
        f"tail bound       : {ctx.nstr(rep.tail_bound)}",
        f"zeros used       : {rep.zeros_used}",
        f"wall time (ms)   : {rep.wall_time_ms if cfg.timing else 0}",
        f"criterion        : {criterion}",
    ]
    for k, v in rep.aux:
        lines.append(f"aux {k:<16}: {v}")
    for note in rep.notes:
        lines.append(f"note: {note}")
    _emit("\n".join(lines) + "\n", cfg)


# -- subcommands ---------------------------------------------------------------


def cmd_zeros(args) -> int:
    cfg = _build_config(args)
    ctx = NumericContext(cfg.precision_bits)
    if args.import_path:
        store = import_zeros(args.import_path, ctx)
    else:
        store = load_or_compute(args.count or cfg.zeros_count, ctx, cfg.cache_dir)
    engine = engine_for(ctx)
    mp = ctx.mp
    worst = mp.mpf(0)
    for rec in store:
        worst = max(worst, abs(engine.zeta(mp.mpc(0.5, rec.tau))))
    expected = _expected_count(engine, store[-1].tau)
    print(f"zeros          : {len(store)} ({store.source})")
    print(f"tau range      : [{mp.nstr(store[0].tau, 15)}, {mp.nstr(store[-1].tau, 15)}]")
    print(f"count check    : {len(store)} found vs {expected} expected (|diff| <= 1)")
    print(f"max |zeta(rho)|: {mp.nstr(worst, 4)}")
    if args.export_path:
        export_zeros(store, args.export_path, ctx)
        print(f"exported       : {args.export_path}")
    return 0


def _verify_integral(cfg, ctx) -> tuple:
    params = sr.SumRuleParams(a=cfg.a, x=cfg.x, n_zeros=1, n_trivial=cfg.n_trivial,
                              n_halfint=cfg.n_halfint)
    a, x = params.bind(ctx)
    mp = ctx.mp
    t0 = time.perf_counter()
    value = sr.contour_integral(params, ctx)
    closed = sr.cpow(x, mp.mpf(1) / 4, ctx) / (2 * mp.pi * engine_for(ctx).zeta(a))
    residual = abs(value - closed)
    tail = 20 * ctx.target_tol
    wall = int((time.perf_counter() - t0) * 1000)
    rep = sr.EvaluationReport(
        a=a, x=x, lhs_zero_sum=mp.re(value), rhs_const=closed, rhs_n_series=mp.mpf(0),
        rhs_k_series=mp.mpf(0), residual=residual, tail_bound=tail,
        zeros_used=0, wall_time_ms=wall,
        notes=("integral along the imaginary axis vs x^(1/4)/(2 pi zeta(a))",),
        aux=(("relative_error", ctx.nstr(residual / abs(closed))),))
    return rep, rep.passes(), "|integral - closed form| <= 10 * (20*target_tol)"


def _verify_residues(cfg, ctx) -> tuple:
    params = sr.SumRuleParams(a=cfg.a, x=cfg.x, n_zeros=min(cfg.zeros_count, 10),
                              n_trivial=min(cfg.n_trivial, 10),
                              n_halfint=min(cfg.n_halfint, 4))
    a, x = params.bind(ctx)
    mp = ctx.mp
    t0 = time.perf_counter()
    store = _store_for(cfg, ctx, params.n_zeros)
    catalog = sr.pole_catalog(params, store, ctx)
    worst = mp.mpf(0)
    for site in catalog:
        num = sr.numeric_residue(site, params, ctx, catalog, store=store)
        worst = max(worst, abs(num - site.analytic_residue) / abs(site.analytic_residue))
    wall = int((time.perf_counter() - t0) * 1000)
    rep = sr.EvaluationReport(
        a=a, x=x, lhs_zero_sum=mp.mpf(0), rhs_const=mp.mpf(0), rhs_n_series=mp.mpf(0),
        rhs_k_series=mp.mpf(0), residual=worst, tail_bound=mp.mpf("1e-13"),
        zeros_used=params.n_zeros, wall_time_ms=wall,
        notes=sr.CONVENTION_NOTES,
        aux=(("sites_checked", str(len(catalog))),))
    return rep, worst <= mp.mpf("1e-12"), "max relative residue deviation <= 1e-12"


def cmd_verify(args) -> int:
    cfg = _build_config(args)
    ctx = NumericContext(cfg.precision_bits)
    kind = args.kind
    if kind in ("integral", "residues", "sumrule") and (cfg.a is None or cfg.x is None):
        raise ValueError(f"verify {kind} requires --a and --x")
    if kind in ("rh-form", "guillera") and cfg.x is None:
        raise ValueError(f"verify {kind} requires --x")
    if kind == "integral":
        rep, ok, criterion = _verify_integral(cfg, ctx)
    elif kind == "residues":
        rep, ok, criterion = _verify_residues(cfg, ctx)
    elif kind == "sumrule":
        params = sr.SumRuleParams(a=cfg.a, x=cfg.x, n_zeros=cfg.zeros_count,
                                  n_trivial=cfg.n_trivial, n_halfint=cfg.n_halfint)
        store = _store_for(cfg, ctx, cfg.zeros_count)
        rep = sr.evaluate_sumrule(params, store, ctx)
        ok, criterion = rep.passes(), "|residual| <= 10 * tail_bound"
    elif kind == "rh-form":
        store = _store_for(cfg, ctx, cfg.zeros_count)
        rep = sr.evaluate_rh_form(cfg.x, store, ctx, n_zeros=cfg.zeros_count,
                                  n_trivial=cfg.n_trivial, n_halfint=cfg.n_halfint)
        cross = max(ctx.mpf(v) for k, v in rep.aux if k.startswith("cross_"))
        ok = rep.passes() and cross <= ctx.mpf("1e-12")
        criterion = "|residual| <= 10 * tail_bound and cross-diffs <= 1e-12"
    elif kind == "guillera":
        store = _store_for(cfg, ctx, cfg.zeros_count)
        table = mangoldt_sieve(cfg.lambda_limit)
        rep = sr.evaluate_guillera(cfg.x, store, table, ctx)
        ok = abs(rep.residual) <= ctx.mpf("1e-3")
        criterion = "|corrected residual| <= 1e-3"
    else:
        raise ValueError(f"unknown verify kind {kind!r}")
    _print_report(rep, ctx, cfg, criterion)
    if cfg.output_format == "text":
        print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_scan(args) -> int:
    cfg = _build_config(args)
    ctx = NumericContext(cfg.precision_bits)
    if not cfg.a_list or not cfg.x_list:
        raise ValueError("scan requires --a-list and --x-list")
    store = _store_for(cfg, ctx, cfg.zeros_count)
    rows = []
    reports = []
    any_fail = False
    for a in cfg.a_list:  # a-major, then x: deterministic row order
        for x in cfg.x_list:
            try:
                params = sr.SumRuleParams(a=a, x=x, n_zeros=cfg.zeros_count,
                                          n_trivial=cfg.n_trivial, n_halfint=cfg.n_halfint)
                rep = sr.evaluate_sumrule(params, store, ctx)
                status = "PASS" if rep.passes() else "FAIL"
                if status == "FAIL":
                    any_fail = True
                d = rep.to_dict(ctx, timing=cfg.timing)
                d["status"] = status
                reports.append(d)
                rows.append(_csv_row(d, status))
            except COMPUTATIONAL_ERRORS as exc:
                any_fail = True
                msg = f"error: {exc}".replace(",", ";").replace("\n", " ")
                reports.append({"a": a, "x": x, "status": msg})
                rows.append([a, x, "", "", "", "", "", "", "", "", msg])
    if cfg.output_format == "json":
        _emit(json.dumps(reports, indent=2) + "\n", cfg)
    elif cfg.output_format == "csv":
        lines = [",".join(SCAN_COLUMNS)] + [",".join(r) for r in rows]
        _emit("\n".join(lines) + "\n", cfg)
    else:
        header = " | ".join(f"{c:>12}" for c in ("a", "x", "residual", "tail_bound", "status"))
        lines = [header]
        for r in rows:
            lines.append(" | ".join(f"{v[:12]:>12}" for v in (r[0], r[1], r[6], r[7], r[10])))
        _emit("\n".join(lines) + "\n", cfg)
    if args.plot_script:
        data = cfg.out or "scan.csv"
        script = "\n".join([
            "set datafile separator ','",
            "set logscale y",
            "set xlabel 'n_zeros'",
            "set ylabel '|residual|'",
            f"plot '{data}' using 9:(abs($7)) with points title 'residual vs zeros used'",
            ""])
        with open(args.plot_script, "w", encoding="utf-8") as f:
            f.write(script)
    return 1 if any_fail else 0


def cmd_selftest(args) -> int:
    cfg = _build_config(args)
    ctx = NumericContext(min(cfg.precision_bits, 128))
    mp = ctx.mp
    engine = engine_for(ctx)

    def check(name: str, ok: bool) -> bool:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        return ok

    tol = ctx.target_tol
    if not check("zeta(2) = pi^2/6",
                 abs(engine.zeta(mp.mpf(2)) - mp.pi ** 2 / 6) < 100 * tol):
        return 1
    if not check("zeta(0) = -1/2", engine.zeta(mp.mpf(0)) == mp.mpf("-0.5")):
        return 1
    if not check("zeta(-7) = 1/240",
                 abs(engine.zeta(mp.mpf(-7)) - mp.mpf(1) / 240) < 100 * tol):
        return 1
    ok = True
    for n in range(1, 5):
        cf = engine.zeta_deriv_neg_even(n)
        if abs(cf - engine.zeta_deriv(mp.mpf(-2 * n))) >= 10 * tol * abs(cf):
            ok = False
    circle = engine.cauchy_deriv(mp.mpf(-2), radius=mp.mpf("1e-3"))
    ok = ok and abs(circle - engine.zeta_deriv_neg_even(1)) < 1e-20
    if not check("zeta'(-2n) closed form (n=1..4, plus circle route)", ok):
        return 1
    store = load_or_compute(10, ctx, cfg.cache_dir)
    if not check("first 10 zeros + count check",
                 abs(store[0].tau - mp.mpf("14.134725141734693790")) < mp.mpf("1e-15")):
        return 1
    params = sr.SumRuleParams(a="0.5", x="0.5", n_zeros=6, n_trivial=12, n_halfint=6)
    catalog = sr.pole_catalog(params, store, ctx)
    worst = mp.mpf(0)
    for site in catalog[:8] + catalog[12:16] + catalog[19:23]:
        num = sr.numeric_residue(site, params, ctx, catalog, store=store)
        worst = max(worst, abs(num - site.analytic_residue) / abs(site.analytic_residue))
    if not check("residue arbitration (sampled sites) <= 1e-12", worst <= mp.mpf("1e-12")):
        return 1
    closure = sr.verify_residue_theorem(params, store, ctx)
    if not check("contour closure at (0.5, 0.5)",
                 closure.passes() and closure.orientation == -1):
        return 1
    rep = sr.evaluate_sumrule(params, store, ctx)
    if not check("sum rule at (0.5, 0.5)", rep.passes()):
        return 1
    flipped = rep.lhs_zero_sum - (rep.rhs_const + rep.rhs_n_series - rep.rhs_k_series)
    if not check("flipped k-series sign is rejected", abs(flipped) > 10 * rep.tail_bound):
        return 1
    rh = sr.evaluate_rh_form("0.5", store, ctx, n_zeros=6, n_trivial=12, n_halfint=6)
    cross = max(ctx.mpf(v) for k, v in rh.aux if k.startswith("cross_"))
    if not check("rh-form cross-evaluation <= 1e-12", rh.passes() and cross <= mp.mpf("1e-12")):
        return 1
    bases = dict(mangoldt_sieve(10**4).prime_powers())
    ok = (bases[8] == 2 and 6 not in bases
          and abs(sum(mp.log(bases[d]) for d in (2, 3, 4, 6, 12) if d in bases)
                  - mp.log(12)) < 100 * tol)
    if not check("Mangoldt sieve identities", ok):
        return 1
    print("selftest: all checks passed")
    return 0


# -- argument parsing ------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--precision", dest="precision_bits", type=int, default=None,
                   help="working precision in bits (default 192)")
    p.add_argument("--cache-dir", dest="cache_dir", default=None,
                   help=f"zeros cache directory (env {ENV_CACHE_DIR})")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--format", dest="output_format", default=None,
                   choices=("text", "csv", "json"))
    p.add_argument("--out", default=None, help="write output to this path")
    p.add_argument("--timing", action="store_true", default=None,
                   help="emit real wall_time_ms (breaks byte-determinism)")
    p.add_argument("--zeros-file", dest="zeros_file", default=None,
                   help="use an imported zeros table instead of computing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetasum",
        description="High-precision verification of critical-zero sum rules")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeros", help="compute/refresh the zero store")
    _add_common(p)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--export", dest="export_path", default=None)
    p.add_argument("--import", dest="import_path", default=None)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("verify", help="verify one identity at one point")
    _add_common(p)
    p.add_argument("kind", choices=("integral", "residues", "sumrule", "rh-form", "guillera"))
    p.add_argument("--a", default=None)
    p.add_argument("--x", default=None)
    p.add_argument("--zeros", dest="zeros_count", type=int, default=None)
    p.add_argument("--n-trivial", dest="n_trivial", type=int, default=None)
    p.add_argument("--n-halfint", dest="n_halfint", type=int, default=None)
    p.add_argument("--lambda-limit", dest="lambda_limit", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="evaluate the sum rule over an (a, x) grid")
    _add_common(p)
    p.add_argument("--a-list", default=None, help="comma-separated a values")
    p.add_argument("--x-list", default=None, help="comma-separated x values")
    p.add_argument("--zeros", dest="zeros_count", type=int, default=None)
    p.add_argument("--n-trivial", dest="n_trivial", type=int, default=None)
    p.add_argument("--n-halfint", dest="n_halfint", type=int, default=None)
    p.add_argument("--plot-script", dest="plot_script", default=None,
                   help="emit a gnuplot script to this path")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("selftest", help="reduced-scale invariant suite")
    _add_common(p)
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except COMPUTATIONAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

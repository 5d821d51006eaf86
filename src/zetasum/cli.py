"""Command-line front end.

Subcommands
  zeros     compute/refresh/import/export the zero store
  verify    one identity at one parameter point (integral | residues |
            sumrule | rh-form | guillera)
  scan      Cartesian (a, x) grid, one report row per point (csv/json/text)
  selftest  reduced-scale invariant suite

Exit codes: 0 all criteria met, 1 a mathematical criterion failed,
2 computational or configuration error.

The CLI validates settings, loads zeros and renders reports; it decides no
verdict.  Each verify kind's report, its tail bound and its criterion line
come from its sumrule builder, and the verdict is the report's passes().  A
bad setting a verify kind reads (a, x, zeros_count, n_trivial, n_halfint,
lambda_limit) exits 2 before any zero is loaded or located; so does a scan's
bad zeros_count, n_trivial or n_halfint, while a bad a or x is its point's row.

Settings precedence: flags > ZETASUM_CACHE_DIR (cache dir only) > config file
(flat key=value lines; an unknown key or a bad value exits 2) > DEFAULTS.
`zeros --import F` is that subcommand's spelling of --zeros-file F, and
`zeros --count N` its spelling of the zeros_count setting (--zeros).  Reports
and scans are byte-deterministic for the same settings in every format, with
no cache, a cache or --zeros-file alike.  wall_time_ms times the whole verify
call, or one scan point's evaluate_sumrule, with --timing, and is 0 without.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from .arith import mangoldt_sieve
from .numctx import DomainError, NumericContext
from .zetafn import (InternalConsistencyError, PrecisionError, ZetaPoleError, _split_map,
                     engine_for)
from .zeros import (MissedZeroError, MultipleZeroError, ZeroImportError, _match_scan,
                    export_zeros, import_zeros, load_or_compute)
from . import sumrule as sr

__all__ = ["main"]

ENV_CACHE_DIR = "ZETASUM_CACHE_DIR"

COMPUTATIONAL_ERRORS = (
    ValueError, DomainError, ZetaPoleError, PrecisionError, InternalConsistencyError,
    MissedZeroError, MultipleZeroError, ZeroImportError, sr.ResonantParameterError,
    sr.SingularityError, sr.OverlappingPoleError, OSError,
)

FORMATS = ("text", "csv", "json")

# every setting a flag or the config file can give, with its default
DEFAULTS = {
    "precision_bits": 192, "zeros_count": sr.SumRuleParams.n_zeros,
    "n_trivial": sr.SumRuleParams.n_trivial, "n_halfint": sr.SumRuleParams.n_halfint,
    "lambda_limit": 10**6, "a": None, "x": None, "a_list": (), "x_list": (),
    "cache_dir": None, "zeros_file": None, "out": None, "output_format": "text",
}

# report attribute (also the JSON key), CSV column, text label; the two ints last
FIELDS = (
    ("a", "a", "a"),
    ("x", "x", "x"),
    ("lhs_zero_sum", "lhs", "lhs zero sum"),
    ("rhs_const", "rhs_const", "rhs constant"),
    ("rhs_n_series", "rhs_n_series", "rhs n-series"),
    ("rhs_k_series", "rhs_k_series", "rhs k-series"),
    ("residual", "residual", "residual"),
    ("tail_bound", "tail_bound", "tail bound"),
    ("zeros_used", "zeros_used", "zeros used"),
    ("wall_time_ms", "wall_time_ms", "wall time (ms)"),  # the CLI's clock, not a report's
)
TABLE = ("a", "x", "residual", "tail_bound")  # a grid's text table, then status


def _split(text: str) -> tuple:
    """Comma-separated values, empty ones dropped."""
    return tuple(s for s in text.split(",") if s)


def _read_config_file(path: str) -> dict:
    """Flat key=value lines, each value converted by the type of its default."""
    values = {}
    with open(path, "r", encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config file {path}: {line!r} is not a key=value line")
            k, v = (part.strip() for part in line.split("=", 1))
            if k not in DEFAULTS:
                raise ValueError(f"config file {path}: unknown key {k!r}")
            convert = {int: int, tuple: _split}.get(type(DEFAULTS[k]), str)
            try:
                values[k] = convert(v)
            except ValueError:
                raise ValueError(f"config file {path}: {k} = {v!r} is not an integer") from None
    if values.get("output_format", "text") not in FORMATS:
        raise ValueError(f"config file {path}: output_format = {values['output_format']!r} "
                         f"is not one of {', '.join(FORMATS)}")
    return values


def _settle(args) -> None:
    """Give every setting in DEFAULTS a value on args: its flag, else
    ZETASUM_CACHE_DIR (cache dir only), else the config file, else DEFAULTS."""
    values = dict(DEFAULTS)
    if args.config:
        values.update(_read_config_file(args.config))
    if os.environ.get(ENV_CACHE_DIR):
        values["cache_dir"] = os.environ[ENV_CACHE_DIR]
    for key, value in values.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _store_for(args, ctx: NumericContext, count: int | None = None):
    """The first count zeros (zeros_count without a count) by load_or_compute,
    or those of --zeros-file (all of them without a count); an OSError on that
    file names the setting."""
    if not args.zeros_file:
        return load_or_compute(args.zeros_count if count is None else count, ctx, args.cache_dir)
    try:
        return import_zeros(args.zeros_file, ctx, count)
    except OSError as exc:
        if exc.filename != args.zeros_file:
            raise
        raise OSError(f"--zeros-file {args.zeros_file}: {exc.strerror}") from None


# -- reports -------------------------------------------------------------------


def _row(rep, ctx: NumericContext, args, t0) -> tuple:
    """(values, PASS if rep.passes() else FAIL) of one report: its FIELDS keyed
    by attribute, numbers as full-precision decimal strings, wall_time_ms the
    milliseconds since perf_counter() read t0 with --timing, else 0, then
    notes and aux."""
    wall_ms = int((time.perf_counter() - t0) * 1000) if args.timing else 0
    values = {attr: ctx.nstr(getattr(rep, attr)) for attr, _, _ in FIELDS[:-2]}
    values.update(zeros_used=rep.zeros_used, wall_time_ms=wall_ms, notes=list(rep.notes))
    if rep.aux:
        values["aux"] = dict(rep.aux)
    return values, "PASS" if rep.passes() else "FAIL"


def _render(args, rows, criterion: str | None = None) -> None:
    """Write rows, each (values, status), in args.output_format to args.out or
    stdout: CSV lines (a comma in a status printed as ';'), or for a verdict
    (one row and its criterion) a JSON object or labelled lines, for a grid a
    JSON list or a table, each error row's full message under it.  Missing
    values print empty."""
    if args.output_format == "csv":
        lines = [",".join([col for _, col, _ in FIELDS] + ["status"])]
        lines += [",".join([str(values.get(attr, "")) for attr, _, _ in FIELDS]
                           + [status.replace(",", ";")])
                  for values, status in rows]
    elif args.output_format == "json":
        doc = [{**values, "status": status} for values, status in rows]
        lines = [json.dumps(doc if criterion is None else rows[0][0], indent=2)]
    elif criterion is None:
        lines = [" | ".join(f"{c:>12}" for c in TABLE + ("status",))]
        lines += [" | ".join(f"{str(v)[:12]:>12}"
                             for v in [values.get(c, "") for c in TABLE] + [status])
                  for values, status in rows]
        lines += [f"a = {values['a']}, x = {values['x']}: {status}"
                  for values, status in rows if status not in ("PASS", "FAIL")]
    else:
        values = rows[0][0]
        lines = [f"{label:<17}: {values[attr]}" for attr, _, label in FIELDS]
        lines.append(f"{'criterion':<17}: {criterion}")
        lines += [f"aux {k:<16}: {v}" for k, v in values.get("aux", {}).items()]
        lines += [f"note: {note}" for note in values["notes"]]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands ---------------------------------------------------------------


def cmd_zeros(args) -> int:
    ctx = NumericContext(args.precision_bits)
    store = _store_for(args, ctx)
    engine = engine_for(ctx)
    mp = ctx.mp
    # a store served from the cache was never matched with the scan: match it here
    n0, gram = _match_scan(store, engine)
    worst = max(_split_map(lambda i: abs(engine.zeta(mp.mpc(0.5, store[i].tau))), len(store), mp))
    print(f"zeros          : {len(store)} ({'imported' if args.zeros_file else 'computed'})")
    print(f"tau range      : [{mp.nstr(store[0].tau, 15)}, {mp.nstr(store[-1].tau, 15)}]")
    print(f"count check    : each zero in its own scan bracket; N(g_{n0}) = {n0 + 1} by "
          f"Turing's method, g_{n0} = {gram:.10g}")
    print(f"max |zeta(rho)|: {mp.nstr(worst, 4)}")
    if args.export_path:
        export_zeros(store, args.export_path, ctx)
        print(f"exported       : {args.export_path}")
    return 0


def _verify_integral(args, ctx) -> sr.EvaluationReport:
    params = sr.SumRuleParams(args.a, args.x, n_zeros=args.zeros_count,
                              n_trivial=args.n_trivial, n_halfint=args.n_halfint)
    return sr.evaluate_integral(params, ctx)


def _verify_residues(args, ctx) -> sr.EvaluationReport:
    params = sr.SumRuleParams(a=args.a, x=args.x, n_zeros=min(args.zeros_count, 10),
                              n_trivial=min(args.n_trivial, 10), n_halfint=min(args.n_halfint, 4))
    params.bind(ctx)  # a bad setting exits before any zero is loaded or located
    store = _store_for(args, ctx, params.n_zeros)
    catalog = sr.pole_catalog(params, store, ctx)
    return sr.evaluate_residues(catalog, params, ctx, catalog, store)


def _verify_sumrule(args, ctx) -> sr.EvaluationReport:
    params = sr.SumRuleParams(a=args.a, x=args.x, n_zeros=args.zeros_count,
                              n_trivial=args.n_trivial, n_halfint=args.n_halfint)
    params.bind(ctx)  # a bad setting exits before any zero is loaded or located
    return sr.evaluate_sumrule(params, _store_for(args, ctx, args.zeros_count), ctx)


def _verify_rh_form(args, ctx) -> sr.EvaluationReport:
    orders = dict(n_zeros=args.zeros_count, n_trivial=args.n_trivial, n_halfint=args.n_halfint)
    # evaluate_rh_form's a = 1/2 parameters: a bad setting exits before any zero is loaded
    sr.SumRuleParams(a="0.5", x=args.x, **orders).bind(ctx)
    return sr.evaluate_rh_form(args.x, _store_for(args, ctx, args.zeros_count), ctx, **orders)


def _verify_guillera(args, ctx) -> sr.EvaluationReport:
    sr._bind_x(args.x, ctx)
    mangoldt = mangoldt_sieve(args.lambda_limit)  # a bad limit exits before any zero is loaded
    return sr.evaluate_guillera(args.x, _store_for(args, ctx, args.zeros_count), mangoldt, ctx)


# verify kind -> (settings it requires, function(args, ctx) -> report)
VERIFY = {
    "integral": (("a", "x"), _verify_integral),
    "residues": (("a", "x"), _verify_residues),
    "sumrule": (("a", "x"), _verify_sumrule),
    "rh-form": (("x",), _verify_rh_form),
    "guillera": (("x",), _verify_guillera),
}


def cmd_verify(args) -> int:
    ctx = NumericContext(args.precision_bits)
    required, verify = VERIFY[args.kind]
    if any(getattr(args, name) is None for name in required):
        raise ValueError(f"verify {args.kind} requires "
                         + " and ".join(f"--{name}" for name in required))
    t0 = time.perf_counter()
    rep = verify(args, ctx)
    row = _row(rep, ctx, args, t0)
    _render(args, [row], rep.criterion)
    if args.output_format == "text":
        print(row[1])
    return 0 if row[1] == "PASS" else 1


def cmd_scan(args) -> int:
    """One row per (a, x) point, a-major, then x.  The a-rows are mapped by one
    _split_map (a forked child takes every other a-row), and each side
    evaluates its rows' points in order and in process, so each a's held
    tables are built once and, where the map forks, no zero sum does.  An
    a-row crosses as one JSON text of its rows, which renders the bytes of a
    one-process scan."""
    ctx = NumericContext(args.precision_bits)
    if not args.a_list or not args.x_list:
        raise ValueError("scan requires --a-list and --x-list")
    # the run-wide orders exit 2 before any zero is loaded (module docstring)
    orders = sr.SumRuleParams(a=None, x=None, n_zeros=args.zeros_count,
                              n_trivial=args.n_trivial, n_halfint=args.n_halfint)
    orders.check_orders()
    store = _store_for(args, ctx, args.zeros_count)

    def a_row(i):
        a, rows = args.a_list[i], []
        for x in args.x_list:
            try:
                params = replace(orders, a=a, x=x)
                t0 = time.perf_counter()
                rows.append(_row(sr.evaluate_sumrule(params, store, ctx), ctx, args, t0))
            except COMPUTATIONAL_ERRORS as exc:
                rows.append(({"a": a, "x": x}, f"error: {exc}".replace("\n", " ")))
        return json.dumps(rows)

    rows = [row for text in _split_map(a_row, len(args.a_list), ctx.mp)
            for row in json.loads(text)]
    _render(args, rows)
    return 0 if all(status == "PASS" for _, status in rows) else 1


def _selftest_checks(args):
    """(name, ok) of each selftest check in order; a check that a sumrule report
    decides is named by the report's criterion line.  The generator is lazy, so
    a caller that stops at the first failure skips the remaining computations."""
    ctx = NumericContext(min(args.precision_bits, 128))
    mp = ctx.mp
    engine = engine_for(ctx)
    tol = ctx.target_tol
    yield "zeta(2) = pi^2/6", abs(engine.zeta(mp.mpf(2)) - mp.pi ** 2 / 6) < 100 * tol
    yield "zeta(0) = -1/2", engine.zeta(mp.mpf(0)) == mp.mpf("-0.5")
    yield "zeta(-7) = 1/240", abs(engine.zeta(mp.mpf(-7)) - mp.mpf(1) / 240) < 100 * tol
    ok = True
    for n in range(1, 5):
        cf = engine.zeta_deriv_neg_even(n)
        if abs(cf - engine.zeta_deriv(mp.mpf(-2 * n))) >= 10 * tol * abs(cf):
            ok = False
    circle = engine.cauchy_deriv(mp.mpf(-2), radius=mp.mpf("1e-3"))
    ok = ok and abs(circle - engine.zeta_deriv_neg_even(1)) < 1e-20
    yield "zeta'(-2n) closed form (n=1..4, plus circle route)", ok
    store = load_or_compute(10, ctx, args.cache_dir)
    _match_scan(store, engine)  # a cached store was never matched with the scan
    yield ("first 10 zeros + count check",
           abs(store[0].tau - mp.mpf("14.134725141734693790")) < mp.mpf("1e-15"))
    params = sr.SumRuleParams(a="0.5", x="0.5", n_zeros=6, n_trivial=12, n_halfint=6)
    catalog = sr.pole_catalog(params, store, ctx)
    sampled = catalog[:8] + catalog[12:16] + catalog[19:23]
    residues = sr.evaluate_residues(sampled, params, ctx, catalog, store)
    yield f"residue arbitration (sampled sites): {residues.criterion}", residues.passes()
    closure = sr.verify_residue_theorem(params, store, ctx)
    yield "contour closure at (0.5, 0.5)", closure.passes() and closure.orientation == -1
    rep = sr.evaluate_sumrule(params, store, ctx)
    yield "sum rule at (0.5, 0.5)", rep.passes()
    flipped = rep.lhs_zero_sum - (rep.rhs_const + rep.rhs_n_series - rep.rhs_k_series)
    yield "flipped k-series sign is rejected", not replace(rep, residual=flipped).passes()
    rh = sr.evaluate_rh_form("0.5", store, ctx, n_zeros=6, n_trivial=12, n_halfint=6)
    yield f"rh-form at x = 0.5: {rh.criterion}", rh.passes()
    bases = dict(mangoldt_sieve(10**4).prime_powers())
    yield "Mangoldt sieve identities", (
        bases[8] == 2 and 6 not in bases
        and abs(sum(mp.log(bases[d]) for d in (2, 3, 4, 6, 12) if d in bases)
                - mp.log(12)) < 100 * tol)


def cmd_selftest(args) -> int:
    for name, ok in _selftest_checks(args):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            return 1
    print("selftest: all checks passed")
    return 0


# -- argument parsing ------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, reports: bool) -> None:
    """The flags of every subcommand; with reports, those of verify and scan."""
    p.add_argument("--precision", dest="precision_bits", type=int, default=None,
                   help="working precision in bits (default 192)")
    p.add_argument("--cache-dir", dest="cache_dir", default=None,
                   help=f"zeros cache directory (env {ENV_CACHE_DIR})")
    p.add_argument("--config", default=None, help="flat key=value config file")
    if reports:
        p.add_argument("--format", dest="output_format", default=None, choices=FORMATS)
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--timing", action="store_true", default=None,
                       help="emit the real wall_time_ms of each verify call or scan point "
                            "(breaks byte-determinism)")
        p.add_argument("--zeros-file", dest="zeros_file", default=None,
                       help="use an imported zeros table instead of computing")
        p.add_argument("--zeros", dest="zeros_count", type=int, default=None)
        p.add_argument("--n-trivial", dest="n_trivial", type=int, default=None)
        p.add_argument("--n-halfint", dest="n_halfint", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetasum",
        description="High-precision verification of critical-zero sum rules")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeros", help="compute/refresh the zero store")
    _add_common(p, reports=False)
    p.add_argument("--count", dest="zeros_count", type=int, default=None)
    p.add_argument("--export", dest="export_path", default=None)
    p.add_argument("--zeros-file", "--import", dest="zeros_file", default=None,
                   help="use an imported zeros table instead of computing")
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("verify", help="verify one identity at one point")
    _add_common(p, reports=True)
    p.add_argument("kind", choices=tuple(VERIFY))
    p.add_argument("--a", default=None)
    p.add_argument("--x", default=None)
    p.add_argument("--lambda-limit", dest="lambda_limit", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="evaluate the sum rule over an (a, x) grid")
    _add_common(p, reports=True)
    p.add_argument("--a-list", type=_split, default=None, help="comma-separated a values")
    p.add_argument("--x-list", type=_split, default=None, help="comma-separated x values")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("selftest", help="reduced-scale invariant suite")
    _add_common(p, reports=False)
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _settle(args)
        return args.func(args)
    except COMPUTATIONAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

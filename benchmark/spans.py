"""Span recorder for the traced run, and the per-layer metrics derived from it.

The recorder wraps zetasum from outside: each public function named in
FUNCTIONS and each ZetaEngine method in ENGINE_METHODS is replaced by a
wrapper that records one span per call.  A function is replaced in every
zetasum module that holds it, so `sumrule.cpow`, `cli.load_or_compute` and
the package-level re-exports are traced as well as the defining module.
Untraced runs never call `install`.

A span is [name, start, end, parent, op, tag]: parent is the index of the
enclosing span (-1 at top level), op the id of the benchmark operation that
was running, and tag a small annotation: the route of a zeta argument, the
precision of a Z evaluation, or the number of zeros a locate/import returned.
"""

from __future__ import annotations

import functools
import json
import time

FUNCTIONS = {
    "numctx": ("cpow",),
    "zeros": ("locate_zeros", "import_zeros", "export_zeros", "load_or_compute"),
    "arith": ("mangoldt_sieve", "guillera_h"),
    "sumrule": ("integrand", "contour_integral", "pole_catalog", "numeric_residue",
                "zero_sum_lhs", "trivial_series", "half_integer_series",
                "evaluate_sumrule", "evaluate_rh_form", "evaluate_guillera",
                "verify_residue_theorem", "consistent_orientation"),
    "cli": ("main",),
}

ENGINE_METHODS = ("__init__", "zeta", "zeta_deriv", "zeta_deriv_neg_even",
                  "cauchy_deriv", "zeta_reflect_log", "riemann_siegel_theta",
                  "hardy_z", "hardy_z_with_deriv")

ZETA_EVALS = ("zetafn.zeta", "zetafn.zeta_deriv")
Z_EVALS = ("zetafn.hardy_z", "zetafn.hardy_z_with_deriv")


def _zeta_route(args, result):
    """Which branch of ZetaEngine.zeta the argument takes, read from Re s."""
    re = getattr(args[1], "real", args[1])
    if re == 0.5:
        return "crit"
    return "right" if re > 0.5 else "left"


def _zero_count(args, result):
    return len(result)


def _precision(args, result):
    return args[0].ctx.precision_bits


TAGS = {
    "zetafn.zeta": _zeta_route,
    "zetafn.hardy_z": _precision,
    "zetafn.hardy_z_with_deriv": _precision,
    "zeros.locate_zeros": _zero_count,
    "zeros.import_zeros": _zero_count,
}


class Recorder:
    """Spans kept in memory for one traced round; written out at the end."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0
        self.op_kinds = {0: "none"}
        self.origin = time.perf_counter()

    def begin_op(self, kind: str) -> None:
        self.op += 1
        self.op_kinds[self.op] = kind

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tag = TAGS.get(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, rec.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tag is not None:
                span[5] = tag(args, result)
            return result

        return traced

    def write(self, path, header: dict) -> None:
        out = dict(header)
        out["ops"] = [{"id": i, "kind": k} for i, k in sorted(self.op_kinds.items())]
        out["span_fields"] = ["name", "start_s", "end_s", "parent", "op", "tag"]
        out["spans"] = [[n, s - self.origin, e - self.origin, p, o, t]
                        for n, s, e, p, o, t in self.spans]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(out, f)


def install(rec: Recorder, package, modules: dict) -> None:
    """Replace every traced function, in every zetasum module that holds it."""
    wrapped = {}
    for layer, names in FUNCTIONS.items():
        for fname in names:
            orig = getattr(modules[layer], fname)
            wrapped[id(orig)] = (orig, rec.wrap(f"{layer}.{fname}", orig))
    engine = modules["zetafn"].ZetaEngine
    for meth in ENGINE_METHODS:
        name = "zetafn.ZetaEngine" if meth == "__init__" else f"zetafn.{meth}"
        setattr(engine, meth, rec.wrap(name, engine.__dict__[meth]))
    for mod in (package, *modules.values()):
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


# -- derived per-layer numbers -------------------------------------------------


def _inside(spans, outer: str, kinds=None, op_kinds=None):
    """Flags: span i runs (strictly) inside a span named `outer`, optionally
    only within operations of the given kinds.  Parents precede children."""
    flags = [False] * len(spans)
    for i, (_, _, _, parent, op, _) in enumerate(spans):
        if parent >= 0:
            flags[i] = flags[parent] or spans[parent][0] == outer
        if flags[i] and kinds is not None and op_kinds[op] not in kinds:
            flags[i] = False
    return flags


def layer_metrics(rec: Recorder, overhead_pct: float) -> dict:
    """Every per-layer metric of BENCHMARK.json from one traced round.
    A metric whose call does not occur in the workload reads 0."""
    spans, kinds = rec.spans, rec.op_kinds
    n = len(spans)
    dur = [e - s for _, s, e, _, _, _ in spans]
    child_time = [0.0] * n
    for i, sp in enumerate(spans):
        if sp[3] >= 0:
            child_time[sp[3]] += dur[i]

    def select(name, route=None, op_kinds=None):
        return [i for i, sp in enumerate(spans)
                if sp[0] == name and (route is None or sp[5] == route)
                and (op_kinds is None or kinds[sp[4]] in op_kinds)]

    def total(idx):
        return sum((dur[i] for i in idx), 0.0)

    def mean_ms(idx):
        return 1000 * total(idx) / len(idx) if idx else 0.0

    def count_inside(names, outer, op_kinds=None):
        flags = _inside(spans, outer, op_kinds, kinds)
        return sum(1 for i, sp in enumerate(spans) if flags[i] and sp[0] in names)

    def per(num, den):
        return num / den if den else 0.0

    zeta = select("zetafn.zeta")
    zd = select("zetafn.zeta_deriv")
    hz = select("zetafn.hardy_z")
    hzd = select("zetafn.hardy_z_with_deriv")
    # Z+Z' against plain Z at the precision(s) Z+Z' ran at
    hzd_bits = {spans[i][5] for i in hzd}
    hz_same = [i for i in hz if spans[i][5] in hzd_bits]
    locate = select("zeros.locate_zeros")
    located = sum(spans[i][5] or 0 for i in locate)
    imports = select("zeros.import_zeros", op_kinds={"import"})
    imported = sum(spans[i][5] or 0 for i in imports)
    loads = select("zeros.load_or_compute")
    # a load that had to locate zeros itself is a miss
    missed = {sp[3] for sp in spans if sp[0] == "zeros.locate_zeros"
              and sp[3] >= 0 and spans[sp[3]][0] == "zeros.load_or_compute"}
    residues = select("sumrule.numeric_residue")
    sumrules = select("sumrule.evaluate_sumrule")
    guillera = select("sumrule.evaluate_guillera")
    cpow = select("numctx.cpow")
    main = select("cli.main")
    return {
        "zetafn.zeta.calls": len(zeta),
        "zetafn.zeta_deriv.calls": len(zd),
        "zetafn.zeta_deriv.ms_per_call": mean_ms(zd),
        "zetafn.zeta_crit.ms_per_call": mean_ms(select("zetafn.zeta", "crit")),
        "zetafn.zeta_right.ms_per_call": mean_ms(select("zetafn.zeta", "right")),
        "zetafn.zeta_left.ms_per_call": mean_ms(select("zetafn.zeta", "left")),
        "zetafn.hardy_z.calls": len(hz),
        "zetafn.hardy_z_with_deriv.calls": len(hzd),
        "zetafn.riemann_siegel_theta.calls": len(select("zetafn.riemann_siegel_theta")),
        "zetafn.hardy_z_with_deriv.cost_ratio": per(mean_ms(hzd), mean_ms(hz_same)),
        "zetafn.engines": len(select("zetafn.ZetaEngine")),
        "zeros.locate_zeros.s": total(locate),
        "zeros.zeta_evals_per_zero": per(count_inside(ZETA_EVALS, "zeros.locate_zeros"), located),
        "zeros.hardy_z_per_zero": per(count_inside(Z_EVALS, "zeros.locate_zeros"), located),
        "zeros.import_zeros.s": total(imports),
        "zeros.import.zeta_evals_per_zero": per(
            count_inside(ZETA_EVALS, "zeros.import_zeros", {"import"}), imported),
        "zeros.load_or_compute.s": total(loads),
        "zeros.cache_hits": len(loads) - len(missed),
        "zeros.cache_misses": len(missed),
        "zeros.export_zeros.s": total(select("zeros.export_zeros")),
        "sumrule.contour_integral.s": total(select("sumrule.contour_integral")),
        "sumrule.contour_integral.zeta_evals": count_inside(("zetafn.zeta",),
                                                            "sumrule.contour_integral"),
        "sumrule.numeric_residue.sites": len(residues),
        "sumrule.numeric_residue.ms_per_site": mean_ms(residues),
        "sumrule.numeric_residue.zeta_evals_per_site": per(
            count_inside(ZETA_EVALS, "sumrule.numeric_residue"), len(residues)),
        "sumrule.pole_catalog.s": total(select("sumrule.pole_catalog")),
        "sumrule.evaluate_sumrule.calls": len(sumrules),
        "sumrule.evaluate_sumrule.ms_per_call": mean_ms(sumrules),
        "sumrule.zero_sum_lhs.s": total(select("sumrule.zero_sum_lhs")),
        "sumrule.trivial_series.s": total(select("sumrule.trivial_series")),
        "sumrule.half_integer_series.s": total(select("sumrule.half_integer_series")),
        "sumrule.evaluate_rh_form.s": total(select("sumrule.evaluate_rh_form")),
        "sumrule.evaluate_guillera.self_s": sum(dur[i] - child_time[i] for i in guillera),
        "arith.mangoldt_sieve.s": total(select("arith.mangoldt_sieve")),
        "arith.guillera_h.s": total(select("arith.guillera_h")),
        "numctx.cpow.calls": len(cpow),
        "numctx.cpow.s": total(cpow),
        "cli.main.calls": len(main),
        "cli.main.self_s": sum(dur[i] - child_time[i] for i in main),
        "trace.spans": n,
        "trace.overhead": overhead_pct,
    }


def _unit(name: str) -> str:
    if name.endswith((".ms_per_call", ".ms_per_site")):
        return "ms"
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith(".cost_ratio"):
        return "ratio"
    if name.endswith("_per_zero"):
        return "1/zero"
    if name.endswith("_per_site"):
        return "1/site"
    if name == "trace.overhead":
        return "%"
    return "count"


METRIC_NAMES = tuple(layer_metrics(Recorder(), 0.0))
UNITS = {name: _unit(name) for name in METRIC_NAMES}

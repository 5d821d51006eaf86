"""Two-parameter sum rule over the critical zeros: contour integral,
pole catalog with symbolically derived residues, numeric residue
arbitration, both sides of the series identity, the a = 1/2 specialization,
and the one-parameter cross-check identity built on the von Mangoldt series.

Every verdict is decided here.  Each identity's report comes from its builder
(evaluate_integral, evaluate_residues, evaluate_sumrule, evaluate_rh_form,
evaluate_guillera) with its residual, its tail bound and the criterion line
that states its rule; EvaluationReport.passes() is the one verdict rule.

Conventions fixed empirically by residue arbitration (recorded in every
report's notes):

  orientation  The integration path runs up the imaginary axis and closes
               to the right, so integral = -(sum of right-half-plane
               residues).
  residues     For f = x^(s(1-s)) / (cos(pi s) zeta(4a s(1-s))):
                 half-integer pole s = k + 1/2:
                     (-1)^(k+1) x^(1/4 - k^2) / (pi zeta(a(1-4k^2)))
                 trivial-zero pole s = (1+q)/2, q = sqrt((2n+a)/a):
                     x^(-n/(2a)) / (4a q sin(pi q/2) zeta'(-2n))
                 critical-zero pole s = (1+v)/2, v = sqrt(1 - rho/a),
                 principal branch (Re v > 0):
                     x^(rho/(4a)) / (4a v sin(pi v/2) zeta'(rho))
               and the conjugate of the last for rho*.
  series form  Scaling residues by -2 sqrt(a) x^(-1/4) gives
                 Re sum_rho -x^((rho-a)/4a) /
                     (sqrt(rho-a) sinh((pi/2) sqrt((rho-a)/a)) zeta'(rho))
                 = sqrt(a)/(pi zeta(a))
                   + sum_n (-1)^(n+1) (2 pi)^(2n) x^(-(2n+a)/4a) /
                         (sqrt(2n+a) sin((pi/2) sqrt((2n+a)/a)) zeta(2n+1) (2n)!)
                   + (2 sqrt(a)/pi) sum_k (-1)^k x^(-k^2) / zeta(a(1-4k^2))
               with the zero sum over upper-half-plane zeros only.  The
               k-series enters with the + sign; the k = 0 half-integer
               residue maps onto the constant term.

Parameters a with 2n = a(4k^2 - 1) solvable in positive integers are
rejected: there the trivial-zero and half-integer pole families merge into
double poles and the printed series terms are individually singular.

The x-independent factors of the series (each zero's denominator, the n-series
logs, the k-series' reflected zeta, zeta(a) and the resonance check) are held
(_held) for the last two values of a, so a repeated a costs only its x-dependent
terms; a failed build holds nothing, and a new a maps its zeros' denominators
before their terms (_zero_map).  evaluate_rh_form holds its own zero table
and, in one slot of its own, its own x-independent series factors and
constant (zeta(1/2) with them); it never reads the tables above, so its cross
check still compares two computations and can still fail.  Each zero's
x-dependent term, in both zero sums, costs one cos/sin pair and the real part
of one quotient by its held factor: it runs on raw mpmath tuples through the
libmp calls that mpmath 1.3's operators make for the written expression
(_exp_at_real_part, _re_quotient), so every value is bit for bit the mpf/mpc
expression's.  The denominators are built the same way.  The contour
integral and each residue circle take log x once per call, and each node's
x^u is exp(u log x), the expression cpow evaluates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from mpmath.libmp import (from_float, fzero, mpc_abs, mpc_div, mpc_div_mpf, mpc_mul, mpc_mul_mpf,
                          mpc_neg, mpc_sinh, mpc_sqrt, mpf_add, mpf_cos_sin, mpf_div, mpf_exp,
                          mpf_lt, mpf_mul, mpf_neg, mpf_pos, mpf_sqrt, mpf_sub)

from .arith import MangoldtTable, guillera_h
from .numctx import NumericContext, cpow
from .zetafn import (InternalConsistencyError, PrecisionError, ZetaEngine, _split_map,
                     engine_for, trapezoid_mean)
from .zeros import SIMPLICITY_FLOOR, MultipleZeroError, ZeroStore

__all__ = [
    "SumRuleParams",
    "PoleSite",
    "EvaluationReport",
    "ClosureReport",
    "ResonantParameterError",
    "SingularityError",
    "OverlappingPoleError",
    "integrand",
    "contour_integral",
    "pole_catalog",
    "numeric_residue",
    "zero_sum_lhs",
    "trivial_series",
    "half_integer_series",
    "evaluate_sumrule",
    "evaluate_rh_form",
    "evaluate_guillera",
    "evaluate_residues",
    "evaluate_integral",
    "verify_residue_theorem",
    "consistent_orientation",
]

A_MAX = 40
RESONANCE_TOL = 1e-9
# numeric_residue's last circle: ((a, x, precision, radius, centre), its values by node)
_last_circle = [None, {}]

CONVENTION_NOTES = (
    "orientation=-1 (upward imaginary-axis path closed to the right: integral = -(residue sum))",
    "series normalization: residues scaled by -2*sqrt(a)*x^(-1/4); k=0 half-integer residue maps onto the constant term",
    "k-series sign resolved empirically: +(2*sqrt(a)/pi)*(-1)^k; the leading-minus variant misses closure by twice the k-series",
    "zero-sum term: -x^((rho-a)/(4a))/(sqrt(rho-a)*sinh((pi/2)*sqrt((rho-a)/a))*zeta'(rho)), principal branches, upper zeros only",
)


class ResonantParameterError(ValueError):
    """2n = a(4k^2-1) is solvable: pole families merge and series terms
    are singular; the parameter is rejected rather than regularized."""


class SingularityError(ArithmeticError):
    """The integrand was evaluated at (or within roundoff of) a pole."""


class OverlappingPoleError(RuntimeError):
    """No isolating circle exists around a catalog pole."""


def _number(name: str, value, ctx: NumericContext):
    """value as a context-precision real, or a ValueError naming the setting."""
    try:
        return ctx.mp.mpf(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} = {value!r} is not a number") from None


def _bind_x(value, ctx: NumericContext):
    """x as a context-precision real in (0, 1) exclusive."""
    x = _number("x", value, ctx)
    if not (0 < x < 1):
        raise ValueError(f"x must lie in (0, 1) exclusive, got {float(x)}")
    return x


@dataclass(frozen=True)
class SumRuleParams:
    """Free parameters and truncation orders.

    a in (0, 40], a != 1; x in (0, 1) exclusive.  n_zeros / n_trivial /
    n_halfint truncate the zero sum, the trivial-zero series and the
    half-integer series respectively.
    """

    a: float | str
    x: float | str
    n_zeros: int = 100
    n_trivial: int = 40
    n_halfint: int = 12

    def bind(self, ctx: NumericContext):
        """Validate and return (a, x) as context-precision reals."""
        a = _number("a", self.a, ctx)
        if not (0 < a <= A_MAX):
            raise ValueError(f"a must lie in (0, {A_MAX}], got {float(a)}")
        if a == 1:
            raise ValueError("a = 1 is the zeta pole")
        x = _bind_x(self.x, ctx)
        self.check_orders()
        return a, x

    def check_orders(self) -> None:
        """Each truncation order positive, under the name of the setting that gives it."""
        for name, value in (("zeros_count", self.n_zeros), ("n_trivial", self.n_trivial),
                            ("n_halfint", self.n_halfint)):
            if value < 1:
                raise ValueError(f"{name} = {value} must be positive")

    def check_resonance(self, ctx: NumericContext) -> None:
        """Reject a whose pole families (trivial-zero / half-integer) merge."""
        mp = ctx.mp
        a, _ = self.bind(ctx)
        for n in range(1, self.n_trivial + 1):
            q = mp.sqrt((2 * n + a) / a)
            if abs(q - 2 * mp.nint(q / 2)) < RESONANCE_TOL and mp.nint(q / 2) >= 1:
                raise ResonantParameterError(
                    f"resonant parameter a = {float(a)}: sqrt((2n+a)/a) is the even "
                    f"integer {int(mp.nint(q))} at n = {n} (merged double pole)")
        for k in range(1, self.n_halfint + 1):
            m = a * (4 * k * k - 1) / 2
            if abs(m - mp.nint(m)) < RESONANCE_TOL and mp.nint(m) >= 1:
                raise ResonantParameterError(
                    f"resonant parameter a = {float(a)}: a(1-4k^2) hits the trivial "
                    f"zero -{2 * int(mp.nint(m))} at k = {k}")


@dataclass(frozen=True)
class PoleSite:
    """One pole of the integrand in the right half s-plane."""

    family: str  # trivial_zero | half_integer | critical_zero | critical_zero_conjugate
    index: int
    location: object
    analytic_residue: object


@dataclass(frozen=True)
class EvaluationReport:
    """Both sides of one identity evaluation plus error accounting, and the
    criterion line that states its verdict rule."""

    a: object
    x: object
    lhs_zero_sum: object
    rhs_const: object
    rhs_n_series: object
    rhs_k_series: object
    residual: object
    tail_bound: object
    zeros_used: int
    notes: tuple = ()
    aux: tuple = ()  # ((key, decimal-string), ...) extra diagnostics
    limits: tuple = ()  # ((quantity, bound), ...) that must hold besides the tail rule
    criterion: str = "|residual| <= 10 * tail_bound"

    def passes(self) -> bool:
        """The one verdict rule: |residual| <= 10 * tail_bound, and each limit holds."""
        return abs(self.residual) <= 10 * self.tail_bound and all(q <= b for q, b in self.limits)


@dataclass(frozen=True)
class ClosureReport:
    """Residue-theorem consistency at one (a, x) point."""

    a: object
    x: object
    integral: object
    residue_sum: object
    orientation: int
    residual: object
    tail_bound: object
    sites: int

    limits = ()  # no bound besides the tail rule, so that passes is EvaluationReport's
    passes = EvaluationReport.passes


# -- integrand and contour ----------------------------------------------------


def _pole_site(s, w, cos_vanished, mp, store) -> str:
    """The catalog name of the integrand's pole at s, from the factor that
    vanished there: cos(pi s) at a half-integer; else zeta(w), w = 4a s(1-s),
    at a trivial zero w = -2n (near the real axis: every critical zero has
    tau > 14) or at a critical zero w = 1/2 +- i tau, named by the stored tau
    nearest |Im w|."""
    if cos_vanished:
        return f"half_integer k={int(mp.nint(mp.re(s) - 0.5))}"
    if abs(mp.im(w)) < 1:
        return f"trivial_zero n={int(mp.nint(-mp.re(w) / 2))}"
    tau = abs(mp.im(w))
    family = "critical_zero" if mp.im(w) > 0 else "critical_zero_conjugate"
    if not store:
        return f"{family} tau={mp.nstr(tau, 15)}"
    return f"{family} index={1 + min(range(len(store)), key=lambda i: abs(store[i].tau - tau))}"


def _integrand(s, a, ln_x, ctx, engine, store=None):
    """x^u / (cos(pi s) zeta(4a u)), u = s(1 - s), with x^u = exp(u log x): cpow's
    expression, its log x taken once by the caller."""
    mp = ctx.mp
    u = s * (1 - s)
    c = mp.cos(mp.pi * s)
    w = 4 * a * u
    z = engine.zeta(w)
    floor = 1000 * ctx.target_tol
    if abs(c) < floor or abs(z) < floor:
        site = _pole_site(s, w, abs(c) < floor, mp, store)
        raise SingularityError(f"integrand evaluated at a pole near {site}")
    return mp.exp(u * ln_x) / (c * z)


def integrand(s, params: SumRuleParams, ctx: NumericContext, store: ZeroStore | None = None):
    """x^(s(1-s)) / (cos(pi s) zeta(4a s(1-s))) at context precision."""
    a, x = params.bind(ctx)
    return _integrand(ctx.mp.convert(s), a, ctx.mp.log(x), ctx, engine_for(ctx), store)


def _pick_path_halfwidth(a, x, ctx):
    mp = ctx.mp
    bound_target = ctx.target_tol / 10
    t = mp.mpf(4)
    while cpow(x, t * t, ctx) / mp.cosh(mp.pi * t) >= bound_target:
        t += mp.mpf("0.5")
        if t > 200:
            raise PrecisionError("path half-width for the contour integral exceeds 200")
    return t


def contour_integral(params: SumRuleParams, ctx: NumericContext):
    """(1/(2 pi i)) integral of the integrand along s = it, t in [-T, T]:
    T/pi times the interval trapezoid mean, from 32 panels up, stopped by
    trapezoid_mean's extrapolated error estimate at target_tol.  The
    integrand at -it is the conjugate of the one at it, so after its first
    level, where every mirrored pair must be exact conjugates, the
    quadrature evaluates only the nodes with t < 0 (conjugate=True).  The
    imaginary part of the sum must vanish.  log x is taken once, for every
    node's x^u."""
    a, x = params.bind(ctx)
    mp = ctx.mp
    engine, ln_x = engine_for(ctx), mp.log(x)
    T = _pick_path_halfwidth(a, x, ctx)

    def g(u):
        return _integrand(mp.mpc(0, T * (2 * u - 1)), a, ln_x, ctx, engine)

    result = trapezoid_mean(g, ctx, 32, ctx.target_tol, T / mp.pi,
                            "contour integral did not converge after 20 halvings",
                            conjugate=True)
    if abs(mp.im(result)) >= 1000 * ctx.target_tol:
        raise InternalConsistencyError(
            f"contour integral came out non-real: Im = {float(mp.im(result)):.3g}")
    return result


# -- pole catalog and residues -------------------------------------------------


def _residue_half_integer(k, a, x, ctx, engine):
    mp = ctx.mp
    sign = -1 if k % 2 == 0 else 1  # (-1)^(k+1)
    return sign * cpow(x, mp.mpf(1) / 4 - k * k, ctx) / (mp.pi * engine.zeta(a * (1 - 4 * k * k)))


def _residue_trivial(n, a, x, ctx, engine):
    mp = ctx.mp
    q = mp.sqrt((2 * n + a) / a)
    return (cpow(x, -mp.mpf(n) / (2 * a), ctx)
            / (4 * a * q * mp.sinpi(q / 2) * engine.zeta_deriv_neg_even(n)))


def _residue_critical(rho, zeta_prime, a, x, ctx):
    mp = ctx.mp
    v = mp.sqrt(1 - rho / a)
    return cpow(x, rho / (4 * a), ctx) / (4 * a * v * mp.sin(mp.pi * v / 2) * zeta_prime)


def pole_catalog(params: SumRuleParams, store: ZeroStore, ctx: NumericContext,
                 engine: ZetaEngine | None = None) -> list:
    """All cataloged right-half-plane poles with their derived residues:
    trivial-zero family n = 1..n_trivial, half-integer family k = 0..n_halfint,
    then each store zero and its conjugate up to n_zeros.  engine defaults to
    engine_for(ctx)."""
    a, x = params.bind(ctx)
    params.check_resonance(ctx)
    zeros = store.prefix(params.n_zeros)
    mp = ctx.mp
    engine = engine or engine_for(ctx)
    sites = []
    for n in range(1, params.n_trivial + 1):
        loc = (1 + mp.sqrt((2 * n + a) / a)) / 2
        sites.append(PoleSite("trivial_zero", n, loc, _residue_trivial(n, a, x, ctx, engine)))
    for k in range(0, params.n_halfint + 1):
        loc = mp.mpf(k) + mp.mpf("0.5")
        sites.append(PoleSite("half_integer", k, loc, _residue_half_integer(k, a, x, ctx, engine)))
    for index, rec in enumerate(zeros, start=1):
        for family, rho, zeta_prime in (
                ("critical_zero", mp.mpc(0.5, rec.tau), rec.zeta_prime),
                ("critical_zero_conjugate", mp.mpc(0.5, -rec.tau), mp.conj(rec.zeta_prime))):
            sites.append(PoleSite(family, index, (1 + mp.sqrt(1 - rho / a)) / 2,
                                  _residue_critical(rho, zeta_prime, a, x, ctx)))
    return sites


def _phantom_neighbors(params: SumRuleParams, a, ctx, store: ZeroStore | None):
    """First pole beyond each family's truncation, so isolation radii stay
    safe at the catalog edge."""
    mp = ctx.mp
    n = params.n_trivial + 1
    out = [(1 + mp.sqrt((2 * n + a) / a)) / 2,
           mp.mpf(params.n_halfint + 1) + mp.mpf("0.5")]
    if store is not None and len(store) > params.n_zeros:
        rec = store[params.n_zeros]
        for rho in (mp.mpc(0.5, rec.tau), mp.mpc(0.5, -rec.tau)):
            out.append((1 + mp.sqrt(1 - rho / a)) / 2)
    return out


def numeric_residue(site: PoleSite, params: SumRuleParams, ctx: NumericContext,
                    catalog: list, engine: ZetaEngine | None = None,
                    store: ZeroStore | None = None):
    """Residue at site.location as r times the mean of f(c + r w) w over the
    circle w = e^(2 pi i u), by the periodic trapezoid rule from 8 points up,
    stopped by trapezoid_mean's extrapolated error estimate at target_tol.
    The radius is 1/4 of the distance to the nearest other pole of the
    catalog or beyond its truncation, capped at 1e-2.  engine defaults to
    engine_for(ctx).  As f(conj s) = conj f(s), a circle centred on the real
    axis halves each later level (conjugate=True), and one centred at the
    conjugate of the last circle's centre (a zero's conjugate after the zero)
    takes each later node u the last circle holds as the conjugate of its value
    at 1 - u; a first-level value must be that conjugate bit for bit, where
    held, or InternalConsistencyError names the site.  Summed in its own node
    order, each residue is bit for bit a full circle's.  log x is taken once,
    for every node's x^u."""
    a, x = params.bind(ctx)
    mp = ctx.mp
    engine, ln_x = engine or engine_for(ctx), mp.log(x)
    neighbors = [p.location for p in catalog if p is not site]
    neighbors.extend(_phantom_neighbors(params, a, ctx, store))
    nn = min(abs(site.location - loc) for loc in neighbors)
    if nn < 1e-9:
        raise OverlappingPoleError(f"catalog poles overlap at {site.family} index {site.index}")
    r = min(mp.mpf("0.01"), nn / 4)
    c = site.location
    circle, values = (a, x, ctx.precision_bits, r), {}
    partner = _last_circle[1] if _last_circle[0] == (*circle, mp.conj(c)) else {}
    _last_circle[:] = (*circle, c), values

    def g(u):
        mirror = partner.get(1 - u if u else u)
        if mirror is not None and not mp.isint(8 * u):  # a later level's node
            return mp.conj(mirror)
        w = mp.expjpi(2 * u)
        v = values[u] = _integrand(c + r * w, a, ln_x, ctx, engine, store) * w
        if mirror is not None and v != mp.conj(mirror):  # mpf tuples are normalised
            raise InternalConsistencyError(f"residue circle at {site.family} index {site.index} "
                                           f"is not the last circle's mirror at u = {u}")
        return v

    return trapezoid_mean(g, ctx, 8, ctx.target_tol, r,
                          f"residue quadrature did not settle at {site.family} index {site.index}",
                          periodic=True, conjugate=mp.im(c) == 0, max_doublings=12)


def _residue_map(sites, params: SumRuleParams, ctx: NumericContext, catalog, store) -> list:
    """[numeric_residue(site, ...) for site in sites] by one _split_map over single
    sites and (zero, conjugate) pairs, each pair's circles in turn in one process."""
    tasks = [tuple(pair) for _, pair in itertools.groupby(
        sites, lambda site: (site.family.removesuffix("_conjugate"), site.index))]
    residues = _split_map(lambda t: tuple(numeric_residue(site, params, ctx, catalog, store=store)
                                          for site in tasks[t]), len(tasks), ctx.mp)
    return [v for values in residues for v in values]


# -- series -------------------------------------------------------------------

# slot (series, a) -> (key, rows) for the last two values of a per series; the
# key is the precision and what else the rows depend on (module docstring)
_held = {}


def _held_rows(slot, key, build):
    """The rows build() gives, built once while slot holds key."""
    held = _held.pop(slot, None)
    rows = held[1] if held and held[0] == key else build()
    _held[slot] = key, rows
    for old in [s for s in _held if s[0] == slot[0]][:-2]:
        del _held[old]
    return rows


def _zero_map(slot, zeros, ctx, factor, term):
    """[term(i, raw factor(i)) for each zero i] by one _split_map over the held
    factors.  A miss builds them by a _split_map of its own inside _held_rows
    (under the zeros' records), each mpc held as its raw tuple, a third smaller,
    which term reads as it is."""
    mp, n = ctx.mp, len(zeros)
    rows = _held_rows(slot, (ctx.precision_bits, zeros.records),
                      lambda: [f._mpc_ for f in _split_map(factor, n, mp)])
    return _split_map(lambda i: term(i, rows[i]), n, mp)


def _exp_at_real_part(re, prec, rnd):
    """im -> mpc_exp((re, im), prec, rnd), mpmath 1.3's complex exp (mp.exp)
    for a real part re shared by every call: exp(re) at prec+4 once, then per
    call cos/sin of im at prec+4 and the two products rounded to prec.  A zero
    re takes mpc_exp's own branch, cos/sin of im at prec alone.  im != 0."""
    if re == fzero:
        return lambda im: mpf_cos_sin(im, prec, rnd)
    mag = mpf_exp(re, prec + 4, rnd)

    def exp(im):
        c, s = mpf_cos_sin(im, prec + 4, rnd)
        return mpf_mul(mag, c, prec, rnd), mpf_mul(mag, s, prec, rnd)

    return exp


def _re_quotient(z, w, prec, rnd):
    """Re mpc_div(z, w, prec, rnd), the real part of mpmath 1.3's complex
    quotient z / w: Re z Re w + Im z Im w and |w|^2, each from exact products
    summed at prec+10, then one division rounded to prec."""
    (p, q), (c, d) = z, w
    wp = prec + 10
    return mpf_div(mpf_add(mpf_mul(p, c), mpf_mul(q, d), wp),
                   mpf_add(mpf_mul(c, c), mpf_mul(d, d), wp), prec, rnd)


def zero_sum_lhs(params: SumRuleParams, store: ZeroStore, ctx: NumericContext):
    """(value, tail_bound): Re sum over upper zeros of the stable sinh form
    -x^((rho-a)/4a) / D_rho, D_rho = sqrt(rho-a) sinh((pi/2) sqrt((rho-a)/a))
    zeta'(rho), summed in ascending zero order; tail = 3 |last term|.  The
    real parts are mapped by _zero_map (a forked child takes every other
    zero) over each D_rho, held for the next call at this a, so the value is
    bit for bit the one-process sum and an exception the first failing zero's.
    x^((1/2-a)/4a) is the same for every zero, so a term costs one cos/sin
    pair and a real quotient by D_rho (the last also its |t|), and D_rho a
    complex sqrt, sinh and two products, each on raw tuples as the module
    docstring says."""
    a, x = params.bind(ctx)
    mp = ctx.mp
    prec, rnd = mp._prec_rounding
    zeros = store.prefix(params.n_zeros)
    last = len(zeros) - 1
    four_a, ln_x = (4 * a)._mpf_, mp.log(x)._mpf_
    root_a, half_pi, floor = mp.sqrt(a)._mpf_, (mp.pi / 2)._mpf_, from_float(SIMPLICITY_FLOOR)
    # rho - a as mp.mpc(0.5, tau) - a gives it, tau rounded to the context
    re_shift = mpf_sub(from_float(0.5), a._mpf_, prec, rnd)
    exp = _exp_at_real_part(mpf_mul(mpf_div(re_shift, four_a, prec, rnd), ln_x, prec, rnd),
                            prec, rnd)

    def denominator(i):
        rec = zeros[i]
        zeta_prime = rec.zeta_prime._mpc_
        if mpf_lt(mpc_abs(zeta_prime, prec, rnd), floor):
            raise MultipleZeroError(f"|zeta'(rho)| below simplicity floor at index {i + 1}")
        w = mpc_sqrt((re_shift, mpf_pos(rec.tau._mpf_, prec, rnd)), prec, rnd)
        sh = mpc_sinh(mpc_div_mpf(mpc_mul_mpf(w, half_pi, prec, rnd), root_a, prec, rnd),
                      prec, rnd)
        return mp.make_mpc(mpc_mul(mpc_mul(w, sh, prec, rnd), zeta_prime, prec, rnd))

    def term(i, d):
        im = mpf_div(mpf_pos(zeros[i].tau._mpf_, prec, rnd), four_a, prec, rnd)
        e = exp(mpf_mul(im, ln_x, prec, rnd))
        if i == last:
            t = mpc_div(mpc_neg(e, prec, rnd), d, prec, rnd)
            return mp.make_mpf(t[0]), mp.make_mpf(mpc_abs(t, prec, rnd))
        # Re(-e / d) = -Re(e / d): both roundings of the quotient are symmetric
        return mp.make_mpf(mpf_neg(_re_quotient(e, d, prec, rnd)))

    *reals, (last_re, last_abs) = _zero_map(("zero sum", a), zeros, ctx, denominator, term)
    return sum(reals, mp.zero) + last_re, 3 * last_abs


def trivial_series(params: SumRuleParams, ctx: NumericContext):
    """(value, tail_bound): sum_n (-1)^(n+1) (2 pi)^(2n) x^(-(2n+a)/4a) /
    (sqrt(2n+a) sin((pi/2) sqrt((2n+a)/a)) zeta(2n+1) (2n)!), assembled in
    log space ((2n)! against (2 pi)^(2n) x^(-n/2a)); tail = 2 |last term|.
    The resonance check and each term's x-independent logs are held (_held)."""
    a, x = params.bind(ctx)
    mp = ctx.mp
    engine = engine_for(ctx)
    ln_x, ln_2pi = mp.log(x), mp.log(2 * mp.pi)

    def row(n):
        sq = mp.sinpi(mp.sqrt((2 * n + a) / a) / 2)
        return (2 * n * ln_2pi, (2 * n + a) / (4 * a), mp.loggamma(2 * n + 1),
                mp.log(engine._zeta_odd(2 * n + 1)), mp.log(abs(sq)), mp.log(2 * n + a) / 2,
                (1 if n % 2 == 1 else -1) * (1 if sq > 0 else -1))

    # the resonance check (None), then the rows
    rows = _held_rows(("n-series", a), (ctx.precision_bits, params.n_trivial, params.n_halfint),
                      lambda: params.check_resonance(ctx)
                      or [row(n) for n in range(1, params.n_trivial + 1)])
    terms = [sign * mp.exp(lead - c * ln_x - g - z - s - h) for lead, c, g, z, s, h, sign in rows]
    return sum(terms, mp.zero), 2 * abs(terms[-1])


def half_integer_series(params: SumRuleParams, ctx: NumericContext):
    """(value, tail_bound): (2 sqrt(a)/pi) sum_k (-1)^k x^(-k^2) / zeta(a(1-4k^2)),
    with 1/zeta at the large negative arguments taken from the log-space
    reflection, its (log |zeta|, sign) pairs held (_held); tail = 2 |last term|."""
    a, x = params.bind(ctx)
    mp = ctx.mp
    engine = engine_for(ctx)
    ln_x = mp.log(x)
    pref = 2 * mp.sqrt(a) / mp.pi

    def row(k):
        log_abs, sign = engine.zeta_reflect_log(a * (1 - 4 * k * k))
        if sign == 0:
            raise ResonantParameterError(
                f"a(1-4k^2) is a trivial zero at k = {k}; series term is singular")
        return -k * k, log_abs, (1 if k % 2 == 0 else -1) * sign

    rows = _held_rows(("k-series", a), (ctx.precision_bits, params.n_halfint),
                      lambda: [row(k) for k in range(1, params.n_halfint + 1)])
    terms = [pref * sign * mp.exp(m * ln_x - log_abs) for m, log_abs, sign in rows]
    return sum(terms, mp.zero), 2 * abs(terms[-1])


# -- evaluators ----------------------------------------------------------------


def evaluate_integral(params: SumRuleParams, ctx: NumericContext) -> EvaluationReport:
    """The contour integral against its closed form x^(1/4)/(2 pi zeta(a)),
    with a tail bound of 20 target_tol."""
    a, x = params.bind(ctx)
    mp = ctx.mp
    value = contour_integral(params, ctx)
    closed = cpow(x, mp.mpf(1) / 4, ctx) / (2 * mp.pi * engine_for(ctx).zeta(a))
    residual = abs(value - closed)
    return EvaluationReport(
        a=a, x=x, lhs_zero_sum=mp.re(value), rhs_const=closed, rhs_n_series=mp.mpf(0),
        rhs_k_series=mp.mpf(0), residual=residual, tail_bound=20 * ctx.target_tol, zeros_used=0,
        notes=("integral along the imaginary axis vs x^(1/4)/(2 pi zeta(a))",),
        aux=(("relative_error", ctx.nstr(residual / abs(closed))),),
        criterion="|integral - closed form| <= 10 * (20*target_tol)")


def evaluate_residues(sites, params, ctx: NumericContext, catalog, store) -> EvaluationReport:
    """As residual the largest relative deviation of a numeric residue from its
    derived value, the sites (of catalog) mapped by _residue_map, against a
    tail bound of 1e-13."""
    a, x = params.bind(ctx)
    mp = ctx.mp
    residues = _residue_map(sites, params, ctx, catalog, store)
    worst = max([mp.mpf(0), *(abs(num - site.analytic_residue) / abs(site.analytic_residue)
                              for site, num in zip(sites, residues))])
    return EvaluationReport(
        a=a, x=x, lhs_zero_sum=mp.mpf(0), rhs_const=mp.mpf(0), rhs_n_series=mp.mpf(0),
        rhs_k_series=mp.mpf(0), residual=worst, tail_bound=mp.mpf("1e-13"),
        zeros_used=params.n_zeros, notes=CONVENTION_NOTES,
        aux=(("sites_checked", str(len(sites))),),
        criterion="max relative residue deviation <= 1e-12")


def evaluate_sumrule(params: SumRuleParams, store: ZeroStore,
                     ctx: NumericContext) -> EvaluationReport:
    """Both sides of the series identity; residual = lhs - (const + n + k)."""
    a, x = params.bind(ctx)
    mp = ctx.mp
    # the resonance check (None), then zeta(a)
    z_a = _held_rows(("zeta(a)", a), (ctx.precision_bits, params.n_trivial, params.n_halfint),
                     lambda: params.check_resonance(ctx) or engine_for(ctx).zeta(a))
    if abs(z_a) < 1000 * ctx.target_tol:
        raise InternalConsistencyError(f"zeta(a) vanished at a = {float(a)}")
    lhs, tail_z = zero_sum_lhs(params, store, ctx)
    n_val, tail_n = trivial_series(params, ctx)
    k_val, tail_k = half_integer_series(params, ctx)
    const = mp.sqrt(a) / (mp.pi * z_a)
    residual = lhs - (const + n_val + k_val)
    aux = (("tail_zero_sum", ctx.nstr(tail_z)),
           ("tail_n_series", ctx.nstr(tail_n)),
           ("tail_k_series", ctx.nstr(tail_k)))
    return EvaluationReport(
        a=a, x=x, lhs_zero_sum=lhs, rhs_const=const, rhs_n_series=n_val,
        rhs_k_series=k_val, residual=residual, tail_bound=tail_z + tail_n + tail_k,
        zeros_used=params.n_zeros, notes=CONVENTION_NOTES, aux=aux)


def evaluate_rh_form(x, store: ZeroStore, ctx: NumericContext,
                     n_zeros: int = SumRuleParams.n_zeros,
                     n_trivial: int = SumRuleParams.n_trivial,
                     n_halfint: int = SumRuleParams.n_halfint) -> EvaluationReport:
    """The a = 1/2 specialization written over the imaginary parts tau:

        Re sum_tau tau^(-1/2) e^((i/2)(tau ln x + pi/2)) /
                   (sin(pi sqrt(tau)/(1+i)) zeta'(1/2 + i tau))

    against 1/(pi sqrt(2) zeta(1/2)) + the two series.  The commonly printed
    variant of the k-series carries an extra x^(1/4); the residual uses the
    corrected k-series and the measured discrepancy factor is reported in
    aux as rh_k_prefactor.  Cross-differences against evaluate_sumrule at
    a = 1/2 ride along in aux, and the largest must be <= 1e-12 (limits).
    The zero terms are mapped by _zero_map, as zero_sum_lhs maps its own,
    with each sin(pi sqrt(tau)/(1+i)) zeta'(rho) held in this function's own
    table, and summed in ascending zero order: bit for bit the one-process sum.
    A term's exponent is purely imaginary, so it costs one cos/sin pair, a
    square root and a real quotient by the held factor, on raw tuples.  The
    x-independent series factors are held as well, in the slot
    ("rh-form series", 1/2) keyed by the precision and both orders: per n
    the signed (2 pi)^(2n), sqrt(4n+1), its sinpi, zeta(2n+1) and (2n)!, per
    k the sign product, -k^2 and the reflected log |zeta|, and the constant.
    Each term still combines them with the x-dependent power in the written
    operand order, so every value is the one a fresh call gives, bit for bit."""
    mp = ctx.mp
    ref_params = SumRuleParams(a="0.5", x=x, n_zeros=n_zeros,
                               n_trivial=n_trivial, n_halfint=n_halfint)
    half, x = ref_params.bind(ctx)
    engine = engine_for(ctx)
    prec, rnd = mp._prec_rounding
    ln_x = mp.log(x)
    zeros = store.prefix(n_zeros)
    half_pi, one_plus_i = mp.pi / 2, mp.mpc(1, 1)
    cis = _exp_at_real_part(fzero, prec, rnd)  # exp(i y/2): mp.mpc(0, 1/2) * y has real part 0

    def denominator(i):
        return mp.sin(mp.pi * mp.sqrt(zeros[i].tau) / one_plus_i) * zeros[i].zeta_prime

    def term(i, den):
        tau = zeros[i].tau
        y = (tau * ln_x + half_pi)._mpf_  # rounded in tau's context, as the operators do
        e = mpc_div_mpf(cis(mpf_mul(half._mpf_, y, prec, rnd)), mpf_sqrt(tau._mpf_, prec, rnd),
                        prec, rnd)
        return mp.make_mpf(_re_quotient(e, den, prec, rnd))

    def n_row(n):
        root = mp.sqrt(mp.mpf(4 * n + 1))
        return ((1 if n % 2 == 1 else -1) * mp.power(2 * mp.pi, 2 * n), root,
                mp.sinpi(root / 2), engine._zeta_odd(2 * n + 1), mp.factorial(2 * n))

    def k_row(k):
        log_abs, sign = engine.zeta_reflect_log(half - 2 * k * k)
        return (1 if k % 2 == 0 else -1) * sign, -k * k, log_abs

    lhs = sum(_zero_map(("rh-form", half), zeros, ctx, denominator, term), mp.zero)
    n_rows, k_rows, const = _held_rows(
        ("rh-form series", half), (ctx.precision_bits, n_trivial, n_halfint),
        lambda: ([n_row(n) for n in range(1, n_trivial + 1)],
                 [k_row(k) for k in range(1, n_halfint + 1)],
                 1 / (mp.pi * mp.sqrt(2) * engine.zeta(half))))
    n_val = mp.mpf(0)
    for n, (lead, root, sin_root, zeta_odd, fact) in enumerate(n_rows, start=1):
        n_val += lead / (cpow(x, n, ctx) * root * sin_root * zeta_odd * fact)
    n_val *= mp.sqrt(2) * cpow(x, -mp.mpf(1) / 4, ctx)
    k_corr = mp.mpf(0)
    for sign, m, log_abs in k_rows:
        k_corr += sign * mp.exp(m * ln_x - log_abs)
    k_corr *= mp.sqrt(2) / mp.pi
    k_printed = -k_corr * cpow(x, mp.mpf(1) / 4, ctx)  # the rejected variant
    residual = lhs - (const + n_val + k_corr)
    ref = evaluate_sumrule(ref_params, store, ctx)
    cross = (("cross_lhs_diff", abs(lhs - ref.lhs_zero_sum)),
             ("cross_const_diff", abs(const - ref.rhs_const)),
             ("cross_n_diff", abs(n_val - ref.rhs_n_series)),
             ("cross_k_diff", abs(k_corr - ref.rhs_k_series)))
    aux = (("rh_k_prefactor", ctx.nstr(abs(k_printed / k_corr))),
           *((key, ctx.nstr(diff)) for key, diff in cross))
    notes = CONVENTION_NOTES + (
        "rh-form k-series variant with an extra x^(1/4) prefactor rejected "
        "empirically; measured factor in aux.rh_k_prefactor",)
    return EvaluationReport(
        a=half, x=x, lhs_zero_sum=lhs, rhs_const=const, rhs_n_series=n_val,
        rhs_k_series=k_corr, residual=residual, tail_bound=ref.tail_bound,
        zeros_used=n_zeros, notes=notes, aux=aux,
        limits=((max(diff for _, diff in cross), mp.mpf("1e-12")),),
        criterion="|residual| <= 10 * tail_bound and cross-diffs <= 1e-12")


def evaluate_guillera(x, store: ZeroStore, mangoldt: MangoldtTable,
                      ctx: NumericContext) -> EvaluationReport:
    """One-parameter cross-check:

        sum_rho x^(rho - 1/2)/sin(pi(rho - 1/2))
          = sqrt(x) - zeta'(1/2)/(pi zeta(1/2)) + h(x)
            + ((1-x^2)/pi) sum_n sqrt(n) Lambda(n) / ((n+x)(1+nx))

    The zero side pair-sums to 2 sin(tau ln x)/sinh(pi tau).  The Mangoldt
    series is summed in double precision (math.fsum; its criterion is 1e-3),
    truncated at the table limit and corrected by the integral tail with
    Lambda replaced by its mean value 1; both corrected and uncorrected
    residuals are reported.  The zero terms are mapped by _split_map and
    summed in ascending zero order, as zero_sum_lhs sums its own."""
    mp = ctx.mp
    x = _bind_x(x, ctx)
    engine = engine_for(ctx)
    ln_x, pi, zeros = mp.log(x), +mp.pi, store.records

    def term(i):
        tau = zeros[i].tau
        return 2 * mp.sin(tau * ln_x) / mp.sinh(pi * tau)

    terms = _split_map(term, len(zeros), mp)
    lhs, tail_z = sum(terms, mp.zero), 3 * abs(terms[-1])
    half = mp.mpf("0.5")
    base = (mp.sqrt(x) - engine.zeta_deriv(half) / (mp.pi * engine.zeta(half))
            + guillera_h(x, ctx))
    xf = float(x)
    lam = math.fsum(math.sqrt(n) * math.log(p) / ((n + xf) * (1 + n * xf))
                    for n, p in mangoldt.prime_powers())
    lam = mp.mpf(lam) * (1 - x * x) / mp.pi
    # integral tail of the series with Lambda -> 1 (closed form)
    N = mangoldt.limit
    tail_corr = ((1 - x) / mp.sqrt(x)
                 - (2 / mp.pi) * (mp.atan(mp.sqrt(N * x)) / mp.sqrt(x)
                                  - mp.sqrt(x) * mp.atan(mp.sqrt(mp.mpf(N) / x))))
    residual = lhs - (base + lam + tail_corr)
    residual_raw = lhs - (base + lam)
    aux = (
        ("lambda_cutoff", str(N)),
        ("tail_correction", ctx.nstr(tail_corr)),
        ("residual_uncorrected", ctx.nstr(residual_raw)),
        ("zero_tail_bound", ctx.nstr(tail_z)),
    )
    return EvaluationReport(
        a=mp.mpf(1), x=x, lhs_zero_sum=lhs, rhs_const=base, rhs_n_series=lam + tail_corr,
        rhs_k_series=mp.mpf(0), residual=residual, tail_bound=mp.mpf("1e-4"),
        zeros_used=len(store),
        notes=("mangoldt series summed in double precision (math.fsum)",
               "mangoldt tail corrected by its mean-value integral; "
               "uncorrected residual in aux"), aux=aux, criterion="|corrected residual| <= 1e-3")


def verify_residue_theorem(params: SumRuleParams, store: ZeroStore,
                           ctx: NumericContext) -> ClosureReport:
    """contour integral vs the numeric residues of every cataloged pole.
    The residues are mapped by _residue_map (a forked child takes every
    other site or zero and conjugate pair, and each side runs its sites'
    quadratures in process) and summed in catalog order, so the sum is bit
    for bit the one-process one and an exception the first failing site's.
    The orientation sign is determined empirically per call; callers assert
    its consistency across parameter pairs."""
    a, x = params.bind(ctx)
    mp = ctx.mp
    integral = contour_integral(params, ctx)
    catalog = pole_catalog(params, store, ctx)

    residue_sum = sum(_residue_map(catalog, params, ctx, catalog, store), mp.mpc(0))
    orientation = -1 if abs(integral + residue_sum) <= abs(integral - residue_sum) else 1
    residual = abs(integral - orientation * residue_sum)
    # the series tails map back to residue scale through the -2 sqrt(a) x^(-1/4) factor
    scale = cpow(x, mp.mpf(1) / 4, ctx) / (2 * mp.sqrt(a))
    tail = evaluate_sumrule(params, store, ctx).tail_bound * scale + 100 * ctx.target_tol
    return ClosureReport(a=a, x=x, integral=integral, residue_sum=residue_sum,
                         orientation=orientation, residual=residual,
                         tail_bound=tail, sites=len(catalog))


def consistent_orientation(reports) -> int:
    """The single orientation sign shared by all closure reports; a mixed set
    would mean a pole family was missed somewhere and is a hard failure."""
    signs = {rep.orientation for rep in reports}
    if len(signs) != 1:
        raise InternalConsistencyError(
            f"closure orientation differs across parameter pairs: {sorted(signs)}")
    return signs.pop()

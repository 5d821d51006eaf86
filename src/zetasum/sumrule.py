"""Two-parameter sum rule over the critical zeros: contour integral,
pole catalog with symbolically derived residues, numeric residue
arbitration, both sides of the series identity, the a = 1/2 specialization,
and the one-parameter cross-check identity built on the von Mangoldt series.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "verify_residue_theorem",
    "consistent_orientation",
    "CONVENTION_NOTES",
]

A_MAX = 40
RESONANCE_TOL = 1e-9

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
        if min(self.n_zeros, self.n_trivial, self.n_halfint) < 1:
            raise ValueError("truncation orders must be positive")
        return a, x

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
    """Both sides of one identity evaluation plus error accounting."""

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


def _integrand(s, a, x, ctx, engine, store=None):
    mp = ctx.mp
    u = s * (1 - s)
    c = mp.cos(mp.pi * s)
    w = 4 * a * u
    z = engine.zeta(w)
    floor = 1000 * ctx.target_tol
    if abs(c) < floor or abs(z) < floor:
        site = _pole_site(s, w, abs(c) < floor, mp, store)
        raise SingularityError(f"integrand evaluated at a pole near {site}")
    return cpow(x, u, ctx) / (c * z)


def integrand(s, params: SumRuleParams, ctx: NumericContext, store: ZeroStore | None = None):
    """x^(s(1-s)) / (cos(pi s) zeta(4a s(1-s))) at context precision."""
    a, x = params.bind(ctx)
    return _integrand(ctx.mp.convert(s), a, x, ctx, engine_for(ctx), store)


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
    imaginary part of the sum must vanish."""
    a, x = params.bind(ctx)
    mp = ctx.mp
    engine = engine_for(ctx)
    T = _pick_path_halfwidth(a, x, ctx)

    def g(u):
        return _integrand(mp.mpc(0, T * (2 * u - 1)), a, x, ctx, engine)

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
        rho = mp.mpc(0.5, rec.tau)
        v = mp.sqrt(1 - rho / a)
        sites.append(PoleSite("critical_zero", index, (1 + v) / 2,
                              _residue_critical(rho, rec.zeta_prime, a, x, ctx)))
        rho_c = mp.conj(rho)
        vc = mp.sqrt(1 - rho_c / a)
        sites.append(PoleSite("critical_zero_conjugate", index, (1 + vc) / 2,
                              _residue_critical(rho_c, mp.conj(rec.zeta_prime), a, x, ctx)))
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
    engine_for(ctx)."""
    a, x = params.bind(ctx)
    mp = ctx.mp
    engine = engine or engine_for(ctx)
    neighbors = [p.location for p in catalog if p is not site]
    neighbors.extend(_phantom_neighbors(params, a, ctx, store))
    nn = min(abs(site.location - loc) for loc in neighbors)
    if nn < 1e-9:
        raise OverlappingPoleError(f"catalog poles overlap at {site.family} index {site.index}")
    r = min(mp.mpf("0.01"), nn / 4)
    c = site.location

    def g(u):
        w = mp.expjpi(2 * u)
        return _integrand(c + r * w, a, x, ctx, engine, store) * w

    return trapezoid_mean(g, ctx, 8, ctx.target_tol, r,
                          f"residue quadrature did not settle at {site.family} index {site.index}",
                          periodic=True, max_doublings=12)


# -- series -------------------------------------------------------------------


def zero_sum_lhs(params: SumRuleParams, store: ZeroStore, ctx: NumericContext):
    """(value, tail_bound): Re sum over upper zeros of the stable sinh form
    -x^((rho-a)/4a) / (sqrt(rho-a) sinh((pi/2) sqrt((rho-a)/a)) zeta'(rho)),
    summed in ascending zero order; tail = 3 |last term|.  The terms are
    mapped by zetafn._split_map (a forked child takes every other one), each
    giving only its real part and the last one also its modulus, so the value
    is bit for bit the one-process sum and an exception the first failing
    zero's."""
    a, x = params.bind(ctx)
    mp = ctx.mp
    zeros = store.prefix(params.n_zeros)
    last = len(zeros) - 1
    ln_x, four_a, root_a, half_pi = mp.log(x), 4 * a, mp.sqrt(a), mp.pi / 2

    def term(i):
        rec = zeros[i]
        if abs(rec.zeta_prime) < SIMPLICITY_FLOOR:
            raise MultipleZeroError(f"|zeta'(rho)| below simplicity floor at index {i + 1}")
        rho = mp.mpc(0.5, rec.tau)
        w = mp.sqrt(rho - a)
        t = -mp.exp((rho - a) / four_a * ln_x) / (
            w * mp.sinh(half_pi * w / root_a) * rec.zeta_prime)
        return (mp.re(t), abs(t)) if i == last else mp.re(t)

    *reals, (last_re, last_abs) = _split_map(term, len(zeros), mp)
    return sum(reals, mp.zero) + last_re, 3 * last_abs


def trivial_series(params: SumRuleParams, ctx: NumericContext):
    """(value, tail_bound): sum_n (-1)^(n+1) (2 pi)^(2n) x^(-(2n+a)/4a) /
    (sqrt(2n+a) sin((pi/2) sqrt((2n+a)/a)) zeta(2n+1) (2n)!), assembled in
    log space ((2n)! against (2 pi)^(2n) x^(-n/2a)); tail = 2 |last term|."""
    a, x = params.bind(ctx)
    params.check_resonance(ctx)
    mp = ctx.mp
    engine = engine_for(ctx)
    ln_x = mp.log(x)
    ln_2pi = mp.log(2 * mp.pi)
    total = mp.mpf(0)
    last = None
    for n in range(1, params.n_trivial + 1):
        q = mp.sqrt((2 * n + a) / a)
        sq = mp.sinpi(q / 2)
        log_mag = (2 * n * ln_2pi - (2 * n + a) / (4 * a) * ln_x
                   - mp.loggamma(2 * n + 1) - mp.log(engine._zeta_odd(2 * n + 1))
                   - mp.log(abs(sq)) - mp.log(2 * n + a) / 2)
        sign = (1 if n % 2 == 1 else -1) * (1 if sq > 0 else -1)
        last = sign * mp.exp(log_mag)
        total += last
    return total, 2 * abs(last)


def half_integer_series(params: SumRuleParams, ctx: NumericContext):
    """(value, tail_bound): (2 sqrt(a)/pi) sum_k (-1)^k x^(-k^2) / zeta(a(1-4k^2)),
    with 1/zeta at the large negative arguments taken from the log-space
    reflection; tail = 2 |last term|."""
    a, x = params.bind(ctx)
    mp = ctx.mp
    engine = engine_for(ctx)
    ln_x = mp.log(x)
    pref = 2 * mp.sqrt(a) / mp.pi
    total = mp.mpf(0)
    last = None
    for k in range(1, params.n_halfint + 1):
        log_abs, sign = engine.zeta_reflect_log(a * (1 - 4 * k * k))
        if sign == 0:
            raise ResonantParameterError(
                f"a(1-4k^2) is a trivial zero at k = {k}; series term is singular")
        k_sign = 1 if k % 2 == 0 else -1
        last = pref * k_sign * sign * mp.exp(-k * k * ln_x - log_abs)
        total += last
    return total, 2 * abs(last)


# -- evaluators ----------------------------------------------------------------


def evaluate_sumrule(params: SumRuleParams, store: ZeroStore,
                     ctx: NumericContext) -> EvaluationReport:
    """Both sides of the series identity; residual = lhs - (const + n + k)."""
    a, x = params.bind(ctx)
    params.check_resonance(ctx)
    mp = ctx.mp
    z_a = engine_for(ctx).zeta(a)
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
    The zero terms are mapped by _split_map, as zero_sum_lhs maps its own,
    and give only their real parts; they are summed in ascending zero
    order, so the sum is bit for bit the one-process one."""
    mp = ctx.mp
    ref_params = SumRuleParams(a="0.5", x=x, n_zeros=n_zeros,
                               n_trivial=n_trivial, n_halfint=n_halfint)
    half, x = ref_params.bind(ctx)
    engine = engine_for(ctx)
    ln_x = mp.log(x)
    zeros = store.prefix(n_zeros)
    half_i, half_pi, one_plus_i = mp.mpc(0, half), mp.pi / 2, mp.mpc(1, 1)

    def term(i):
        rec = zeros[i]
        root = mp.sqrt(rec.tau)
        num = mp.exp(half_i * (rec.tau * ln_x + half_pi)) / root
        den = mp.sin(mp.pi * root / one_plus_i) * rec.zeta_prime
        return mp.re(num / den)

    lhs = sum(_split_map(term, len(zeros), mp), mp.zero)
    const = 1 / (mp.pi * mp.sqrt(2) * engine.zeta(half))
    n_val = mp.mpf(0)
    for n in range(1, n_trivial + 1):
        root = mp.sqrt(mp.mpf(4 * n + 1))
        sign = 1 if n % 2 == 1 else -1
        n_val += (sign * mp.power(2 * mp.pi, 2 * n)
                  / (cpow(x, n, ctx) * root * mp.sinpi(root / 2)
                     * engine._zeta_odd(2 * n + 1) * mp.factorial(2 * n)))
    n_val *= mp.sqrt(2) * cpow(x, -mp.mpf(1) / 4, ctx)
    k_corr = mp.mpf(0)
    for k in range(1, n_halfint + 1):
        log_abs, sign = engine.zeta_reflect_log(half - 2 * k * k)
        k_sign = 1 if k % 2 == 0 else -1
        k_corr += k_sign * sign * mp.exp(-k * k * ln_x - log_abs)
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
        limits=((max(diff for _, diff in cross), mp.mpf("1e-12")),))


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
               "uncorrected residual in aux"), aux=aux)


def verify_residue_theorem(params: SumRuleParams, store: ZeroStore,
                           ctx: NumericContext) -> ClosureReport:
    """contour integral vs the numeric residues of every cataloged pole.
    The residues are mapped by zetafn._split_map (a forked child takes every
    other site, and each side runs its sites' quadratures in process) and
    summed in catalog order, so the sum is bit for bit the one-process one
    and an exception the first failing site's.  The orientation sign is
    determined empirically per call; callers assert its consistency across
    parameter pairs."""
    a, x = params.bind(ctx)
    mp = ctx.mp
    integral = contour_integral(params, ctx)
    catalog = pole_catalog(params, store, ctx)

    def residue(i):
        return numeric_residue(catalog[i], params, ctx, catalog, store=store)

    residue_sum = sum(_split_map(residue, len(catalog), mp), mp.mpc(0))
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

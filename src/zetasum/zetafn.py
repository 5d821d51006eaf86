"""Riemann zeta machinery: zeta(s), zeta'(s), the closed form for zeta'(-2n),
the Riemann-Siegel theta phase and the Hardy Z function.

Evaluation strategy
  Re s >= REFLECTION_THRESHOLD : Euler-Maclaurin
      zeta(s) ~ sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
                + sum_{j<=M} B_2j/(2j)! * s(s+1)...(s+2j-2) * N^(-s-2j+1)
      with the cutoff N doubled (at most MAX_ESCALATIONS times) until the
      first omitted Bernoulli term falls below the context tolerance.
  Re s <  REFLECTION_THRESHOLD : functional equation
      zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)

zeta'(s) uses the term-wise differentiated Euler-Maclaurin sum on the right
of the threshold, the differentiated reflection formula on the left, and a
Cauchy circle integral in a small disk around s = 0 where the reflection
split degenerates into a 0*inf product.  That circle, like the sum rule's
contour and residue circles, is integrated by trapezoid_mean.

Where both are wanted (Newton on Hardy Z, the weight zeta'(rho) of a zero,
the reflected zeta'), zeta and zeta' = -sum log k * k^-s + ... are summed in
one pass over the same powers k^-s, with the same N, escalations and
Bernoulli stop.  Each engine keeps a table of log k (and, for Re s = 1/2,
|k^-s| = exp(-log(k)/2)), so a complex power costs one cos/sin and two
multiplications.  The table rounds as mpmath 1.3's mpc_pow does, so every
value is bit for bit what separate passes over mp.power(k, -s) give.

Bernoulli numbers come from the tangent-number triangle as exact rationals,
cached process-wide.  All functions are pure.  An engine's state is the
coefficients B_2j/(2j)! at working precision, fixed at construction, and the
log k table, which only grows and holds values fixed by k and the precision;
so engine_for(ctx) builds one engine per context and every caller shares it.
"""

from __future__ import annotations

import functools
import threading
from fractions import Fraction

from mpmath.libmp import (from_int, mpf_cos_sin, mpf_exp, mpf_log, mpf_mul, mpf_neg,
                          mpf_shift, round_down, round_nearest)

from .numctx import NumericContext

__all__ = [
    "ZetaEngine",
    "engine_for",
    "ZetaPoleError",
    "PrecisionError",
    "InternalConsistencyError",
    "bernoulli",
    "trapezoid_mean",
]


class ZetaPoleError(ArithmeticError):
    """Evaluation requested at the pole s = 1."""


class PrecisionError(RuntimeError):
    """A convergence target (Euler-Maclaurin remainder, quadrature) could not be met."""


def trapezoid_mean(g, ctx: NumericContext, n: int, tol, scale, failure: str,
                   periodic: bool = False, max_doublings: int = 20):
    """scale * (mean of g over [0, 1]) by the trapezoid rule: the interval form
    (nodes j/n, j = 0..n, endpoints weighted 1/2) or the periodic form (nodes
    j/n, j < n).  Each level doubles n by adding the midpoints.  With I_k the
    scaled value at level k, stop when |I_k - I_(k-1)| < tol or, from three
    levels on, when the extrapolated error 10^max(D1^2/D2, 2 D1) < tol with
    D1 = log10|I_k - I_(k-1)|, D2 = log10|I_k - I_(k-2)| (Borwein, Bailey &
    Girgensohn: the error of an analytic integrand squares at each level).
    Raises PrecisionError(failure) after max_doublings doublings."""
    mp = ctx.mp
    if periodic:
        total = sum(g(mp.mpf(j) / n) for j in range(n))
    else:
        total = (g(mp.zero) + g(mp.one)) / 2 + sum(g(mp.mpf(j) / n) for j in range(1, n))
    levels = [scale * total / n]
    for _ in range(max_doublings):
        total += sum(g(mp.mpf(2 * j + 1) / (2 * n)) for j in range(n))
        n *= 2
        levels.append(scale * total / n)
        d1 = abs(levels[-1] - levels[-2])
        if d1 < tol:
            return levels[-1]
        if len(levels) >= 3:
            d2 = abs(levels[-1] - levels[-3])
            if 0 < d2 < 1:  # else log10 fails or the estimate is at least 1
                e1, e2 = mp.log10(d1), mp.log10(d2)
                if mp.power(10, max(e1 * e1 / e2, 2 * e1)) < tol:
                    return levels[-1]
    raise PrecisionError(failure)


class InternalConsistencyError(RuntimeError):
    """A built-in cross-check failed (e.g. Hardy Z came out non-real)."""


# ---------------------------------------------------------------------------
# Bernoulli numbers B_2, B_4, ... as exact rationals (tangent-number triangle)

_bern_lock = threading.Lock()
_bern_cache: list[Fraction] = []


def _extend_bernoulli(m: int) -> None:
    # tangent numbers T_1..T_m by the integer triangle, then
    # B_2k = (-1)^(k-1) * 2k * T_k / (2^2k * (2^2k - 1))
    T = [0] * (m + 1)
    T[1] = 1
    for k in range(2, m + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    _bern_cache.clear()
    for k in range(1, m + 1):
        sign = 1 if k % 2 == 1 else -1
        den = (1 << (2 * k)) * ((1 << (2 * k)) - 1)
        _bern_cache.append(Fraction(sign * T[k] * 2 * k, den))


def bernoulli(two_k: int) -> Fraction:
    """B_{two_k} for even two_k >= 2, as an exact Fraction."""
    if two_k < 2 or two_k % 2:
        raise ValueError("bernoulli expects an even index >= 2")
    k = two_k // 2
    with _bern_lock:
        if k > len(_bern_cache):
            _extend_bernoulli(max(k, 2 * len(_bern_cache), 32))
        return _bern_cache[k - 1]


# Euler-Maclaurin on Re s >= REFLECTION_THRESHOLD, the functional equation left of it
REFLECTION_THRESHOLD = 0.5
# doublings of the Euler-Maclaurin cutoff N before PrecisionError
MAX_ESCALATIONS = 6


class ZetaEngine:
    """zeta/zeta' evaluator bound to one NumericContext."""

    def __init__(self, ctx: NumericContext):
        self.ctx = ctx
        p = ctx.precision_bits
        self._n0 = 16 + int(0.25 * p)
        self._m_cap = 12 + int(0.30 * p)
        # remainder target well below one ulp at nominal precision; target_tol
        # is the coarser per-operation quality gate
        self._stop_tol = ctx.mp.mpf(2) ** (-(p + 16))
        # B_2j/(2j)! at working precision for j <= m_cap + 1, all _em_once reads
        mp = ctx.mp
        bern = [bernoulli(2 * j) for j in range(1, self._m_cap + 2)]
        self._coef = tuple(mp.mpf(b.numerator) / b.denominator / mp.factorial(2 * j)
                           for j, b in enumerate(bern, start=1))
        self._logk = (None, None)  # _log_table rows from k = 2, filled on first use

    # -- Euler-Maclaurin core ------------------------------------------------

    def _pick_n(self, s) -> int:
        mp = self.ctx.mp
        n = self._n0 + int(0.56 * abs(mp.im(s)))
        sigma = mp.re(s)
        if sigma > 4:
            # n^-s is below roundoff past 2^((p+34)/sigma); no point summing further
            cut = int(mp.mpf(2) ** ((self.ctx.precision_bits + 34.0) / sigma)) + 2
            n = min(n, max(4, cut))
        return n

    def _em(self, s, want_deriv: bool):
        """Euler-Maclaurin zeta for Re s >= threshold, s != 1; with want_deriv,
        (zeta(s), zeta'(s)) from the same pass."""
        tol = self._stop_tol
        n = self._pick_n(s)
        for _ in range(MAX_ESCALATIONS + 1):
            value, deriv, rem = self._em_once(s, n, want_deriv)
            if rem < tol:
                return (value, deriv) if want_deriv else value
            n *= 2
        raise PrecisionError(
            f"Euler-Maclaurin remainder {float(rem):.3g} above tolerance at N={n//2}")

    def _log_table(self, n: int):
        """Rows (log k at prec+10 rounded down, log k as an mpf, exp(-log(k)/2)
        at prec+4) indexed by k, extended to k < n on demand.  A longer table
        replaces the old one whole, so a shared engine never shows a partial row."""
        table = self._logk
        if len(table) < n:
            mp = self.ctx.mp
            prec = mp.prec
            rows = []
            for k in range(len(table), n):
                log_pow = mpf_log(from_int(k), prec + 10, round_down)
                rows.append((log_pow, mp.make_mpf(mpf_log(from_int(k), prec, round_nearest)),
                             mpf_exp(mpf_neg(mpf_shift(log_pow, -1)), prec + 4, round_nearest)))
            table = self._logk = table + tuple(rows)
        return table

    def _powers(self, s, n: int):
        """(k^-s, log k) for k = 2..n-1.  k^-s is bit for bit mp.power(k, -s):
        for complex s it repeats mpmath 1.3's mpc_pow (log and product at
        prec+10 rounded down, exp and cos/sin at prec+4, the context rounding
        to nearest) with log k from the table, and on Re s = 1/2 also |k^-s|."""
        mp = self.ctx.mp
        table = self._log_table(n)
        if mp.im(s) == 0:  # mp.power takes its real-exponent route
            for k in range(2, n):
                yield mp.power(k, -s), table[k][1]
            return
        prec = mp.prec
        neg_re, neg_im = (-s)._mpc_
        on_line = mp.re(s) == 0.5
        for k in range(2, n):
            log_pow, log_k, half_mag = table[k]
            mag = half_mag if on_line else mpf_exp(
                mpf_mul(log_pow, neg_re, prec + 10, round_down), prec + 4, round_nearest)
            c, sn = mpf_cos_sin(mpf_mul(log_pow, neg_im, prec + 10, round_down),
                                prec + 4, round_nearest)
            yield (mp.make_mpc((mpf_mul(mag, c, prec, round_nearest),
                                mpf_mul(mag, sn, prec, round_nearest))), log_k)

    def _em_once(self, s, n, want_deriv):
        """One pass at cutoff n: (zeta(s), zeta'(s) or None, first omitted
        Bernoulli term).  zeta' = -sum log k * k^-s + the differentiated tail,
        over the same powers and the same Bernoulli stop as zeta."""
        mp = self.ctx.mp
        tol = self._stop_tol
        total = mp.mpf(1)
        deriv = mp.mpf(0) if want_deriv else None
        for p, log_k in self._powers(s, n):
            total += p
            if want_deriv:
                deriv -= log_k * p
        ln_n = mp.log(n)
        n1s = mp.power(n, 1 - s)
        ns = mp.power(n, -s)
        total += n1s / (s - 1) + ns / 2
        if want_deriv:
            deriv += -ln_n * n1s / (s - 1) - n1s / (s - 1) ** 2
            deriv += -ln_n * ns / 2

        # Bernoulli corrections; rf = s(s+1)...(s+2j-2), npow = N^(-s-2j+1),
        # rf_logd = d/ds log rf = sum 1/(s+i) for the derivative
        rf = s
        rf_logd = 1 / s if want_deriv else None
        npow = ns / n
        j = 0
        prev_mag = mp.inf
        while True:
            j += 1
            c = self._coef[j - 1]
            term = c * rf * npow
            mag = abs(term)
            # stop below tolerance, or where the corrections stop converging at this N
            if mag < tol or j > self._m_cap or mag > prev_mag * 4:
                return total, deriv, mag
            total += term
            if want_deriv:
                deriv += term * (rf_logd - ln_n)
            prev_mag = mag
            rf = rf * (s + (2 * j - 1)) * (s + 2 * j)
            if want_deriv:
                rf_logd = rf_logd + 1 / (s + (2 * j - 1)) + 1 / (s + 2 * j)
            npow = npow / (n * n)

    # -- public operations ----------------------------------------------------

    def zeta(self, s, with_deriv: bool = False):
        """zeta(s) at context precision for any complex s != 1.  With
        with_deriv, (zeta(s), zeta'(s)) from one Euler-Maclaurin pass; that
        needs Re s >= REFLECTION_THRESHOLD."""
        mp = self.ctx.mp
        s = mp.convert(s)
        if s == 1:
            raise ZetaPoleError("zeta has a pole at s = 1")
        if with_deriv:
            if mp.re(s) < REFLECTION_THRESHOLD:
                raise ValueError("zeta with its derivative is summed for Re s >= 1/2 only")
            return self._em(s, want_deriv=True)
        if s == 0:
            return mp.mpf(-0.5)
        if mp.re(s) >= REFLECTION_THRESHOLD:
            return self._em(s, want_deriv=False)
        w = 1 - s
        zw = self._em(w, want_deriv=False)
        return (mp.power(2, s) * mp.power(mp.pi, s - 1)
                * mp.sinpi(s / 2) * mp.gamma(w) * zw)

    def zeta_deriv(self, s):
        """zeta'(s) at context precision for any complex s != 1."""
        mp = self.ctx.mp
        s = mp.convert(s)
        if s == 1:
            raise ZetaPoleError("zeta has a pole at s = 1")
        if mp.re(s) >= REFLECTION_THRESHOLD:
            return self._em(s, want_deriv=True)[1]
        if abs(s) < mp.mpf("0.05"):
            # reflection split is 0*inf here; the circle integral is clean
            est = self.cauchy_deriv(s, radius=mp.mpf("0.1"))
            if mp.im(s) == 0:
                return mp.re(est)
            return est
        w = 1 - s
        zw, zdw = self._em(w, want_deriv=True)
        pref = mp.power(2, s) * mp.power(mp.pi, s - 1) * mp.gamma(w)
        sp, cp = mp.sinpi(s / 2), mp.cospi(s / 2)
        return pref * ((mp.log(2 * mp.pi) - mp.digamma(w)) * sp * zw
                       + mp.pi / 2 * cp * zw - sp * zdw)

    def zeta_deriv_neg_even(self, n: int):
        """zeta'(-2n) = (-1)^n zeta(2n+1) (2n)! / (2 (2 pi)^(2n)), n >= 1."""
        if n < 1:
            raise ValueError("closed form starts at the first trivial zero (n >= 1)")
        mp = self.ctx.mp
        sign = -1 if n % 2 else 1
        return (sign * self.zeta(mp.mpf(2 * n + 1)) * mp.factorial(2 * n)
                / (2 * mp.power(2 * mp.pi, 2 * n)))

    def cauchy_deriv(self, s, radius=None):
        """zeta'(s) as (1/r) times the mean of zeta(s + r w) / w over the circle
        w = e^(2 pi i u), by the periodic trapezoid rule from 8 points up,
        stopped at 10 * target_tol (trapezoid_mean)."""
        mp = self.ctx.mp
        s = mp.convert(s)
        r = mp.mpf("1e-3") if radius is None else mp.mpf(radius)
        if abs(s - 1) <= 2 * r:
            raise ZetaPoleError("circle derivative would enclose the pole at s = 1")

        def g(u):
            w = mp.expjpi(2 * u)
            return self.zeta(s + r * w) / w

        return trapezoid_mean(g, self.ctx, 8, 10 * self.ctx.target_tol, 1 / r,
                              "circle derivative did not settle",
                              periodic=True, max_doublings=13)

    def zeta_reflect_log(self, s):
        """(log |zeta(s)|, sign) for real s < the reflection threshold, assembled
        from log Gamma + log zeta + linear terms so huge magnitudes stay in
        log space.  sign = 0 flags a trivial zero."""
        mp = self.ctx.mp
        s = mp.mpf(s)
        if s >= REFLECTION_THRESHOLD:
            raise ValueError("log-space reflection is for the left half-line")
        w = 1 - s
        sp = mp.sinpi(s / 2)
        if sp == 0:
            return mp.ninf, 0
        zw = self._em(w, want_deriv=False)  # real; > 0 for w > 1, < 0 on (1/2, 1)
        sign = (1 if sp > 0 else -1) * (1 if zw > 0 else -1)
        log_abs = (s * mp.log(2) + (s - 1) * mp.log(mp.pi)
                   + mp.log(abs(sp)) + mp.loggamma(1 - s) + mp.log(abs(zw)))
        return log_abs, sign

    # -- critical-line helpers -------------------------------------------------

    def riemann_siegel_theta(self, t):
        """theta(t) = Im log Gamma(1/4 + i t/2) - (t/2) log pi, t > 0."""
        mp = self.ctx.mp
        t = mp.mpf(t)
        if not t > 0:
            raise ValueError("theta is evaluated for t > 0")
        return mp.im(mp.loggamma(mp.mpf(1) / 4 + mp.mpc(0, 1) * t / 2)) - t / 2 * mp.log(mp.pi)

    def _theta_deriv(self, t):
        mp = self.ctx.mp
        return mp.re(mp.digamma(mp.mpf(1) / 4 + mp.mpc(0, 1) * t / 2)) / 2 - mp.log(mp.pi) / 2

    def hardy_z(self, t):
        """Z(t) = e^(i theta(t)) zeta(1/2 + i t); asserts the product is real."""
        return self._hardy(t, with_deriv=False)[0]

    def hardy_z_with_deriv(self, t):
        """(Z(t), Z'(t)) from one Euler-Maclaurin pass for zeta and zeta'."""
        mp = self.ctx.mp
        t = mp.mpf(t)
        z, zeta, zeta_d, phase = self._hardy(t, with_deriv=True)
        return z, -mp.im(phase * (self._theta_deriv(t) * zeta + zeta_d))

    def hardy_z_and_zeta_deriv(self, t):
        """(Z(t), zeta'(1/2 + i t)) from one Euler-Maclaurin pass: the residual
        and the weight of a zero record."""
        z, _, zeta_d, _ = self._hardy(t, with_deriv=True)
        return z, zeta_d

    def _hardy(self, t, with_deriv: bool):
        """(Z(t), zeta(s), zeta'(s) or None, e^(i theta(t))) at s = 1/2 + i t."""
        mp = self.ctx.mp
        t = mp.mpf(t)
        if not t > 0:
            raise ValueError("Hardy Z is evaluated for t > 0")
        s = mp.mpc(0.5, t)
        z, zd = self.zeta(s, with_deriv=True) if with_deriv else (self.zeta(s), None)
        phase = mp.expj(self.riemann_siegel_theta(t))
        w = phase * z
        if abs(mp.im(w)) >= 1000 * self.ctx.target_tol * max(1, abs(w)):
            raise InternalConsistencyError(
                f"Hardy Z imaginary part {float(mp.im(w)):.3g} at t={float(t):.6f}")
        return mp.re(w), z, zd, phase


@functools.cache
def engine_for(ctx: NumericContext) -> ZetaEngine:
    """The one ZetaEngine of ctx, built on first use and shared afterwards.
    Contexts hash by precision, so the cache holds one engine per precision
    for the life of the process."""
    return ZetaEngine(ctx)

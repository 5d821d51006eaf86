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

Bernoulli numbers come from the tangent-number triangle as exact rationals,
cached process-wide.  All functions are pure.  An engine's state, the
coefficients B_2j/(2j)! at working precision, is fixed at construction, so
engine_for(ctx) builds one engine per context and every caller shares it.
"""

from __future__ import annotations

import functools
import threading
from fractions import Fraction

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
        """Euler-Maclaurin zeta (or zeta') for Re s >= threshold, s != 1."""
        tol = self._stop_tol
        n = self._pick_n(s)
        for _ in range(MAX_ESCALATIONS + 1):
            value, rem = self._em_once(s, n, want_deriv)
            if rem < tol:
                return value
            n *= 2
        raise PrecisionError(
            f"Euler-Maclaurin remainder {float(rem):.3g} above tolerance at N={n//2}")

    def _em_once(self, s, n, want_deriv):
        mp = self.ctx.mp
        tol = self._stop_tol
        if want_deriv:
            total = mp.mpf(0)
            for k in range(2, n):
                lk = mp.log(k)
                total -= lk * mp.power(k, -s)
            ln_n = mp.log(n)
            n1s = mp.power(n, 1 - s)
            ns = mp.power(n, -s)
            total += -ln_n * n1s / (s - 1) - n1s / (s - 1) ** 2
            total += -ln_n * ns / 2
        else:
            total = mp.mpf(1)
            for k in range(2, n):
                total += mp.power(k, -s)
            ln_n = mp.log(n)
            ns = mp.power(n, -s)
            total += mp.power(n, 1 - s) / (s - 1) + ns / 2

        # Bernoulli corrections; rf = s(s+1)...(s+2j-2), npow = N^(-s-2j+1)
        rf = s
        rf_logd = None  # d/ds log rf = sum 1/(s+i), built incrementally for the derivative
        if want_deriv:
            rf_logd = 1 / s
        npow = ns / n
        rem = None
        j = 0
        prev_mag = mp.inf
        while True:
            j += 1
            c = self._coef[j - 1]
            term = c * rf * npow
            mag = abs(term)
            if mag < tol:
                rem = mag
                break
            if j > self._m_cap or mag > prev_mag * 4:
                # corrections stopped converging at this N
                rem = mag
                break
            if want_deriv:
                total += term * (rf_logd - ln_n)
            else:
                total += term
            prev_mag = mag
            rf = rf * (s + (2 * j - 1)) * (s + 2 * j)
            if want_deriv:
                rf_logd = rf_logd + 1 / (s + (2 * j - 1)) + 1 / (s + 2 * j)
            npow = npow / (n * n)
        return total, rem

    # -- public operations ----------------------------------------------------

    def zeta(self, s):
        """zeta(s) at context precision for any complex s != 1."""
        mp = self.ctx.mp
        s = mp.convert(s)
        if s == 1:
            raise ZetaPoleError("zeta has a pole at s = 1")
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
            return self._em(s, want_deriv=True)
        if abs(s) < mp.mpf("0.05"):
            # reflection split is 0*inf here; the circle integral is clean
            est = self.cauchy_deriv(s, radius=mp.mpf("0.1"))
            if mp.im(s) == 0:
                return mp.re(est)
            return est
        w = 1 - s
        zw = self._em(w, want_deriv=False)
        zdw = self._em(w, want_deriv=True)
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
        """(Z(t), Z'(t)) sharing one zeta evaluation."""
        return self._hardy(t, with_deriv=True)

    def _hardy(self, t, with_deriv: bool):
        mp = self.ctx.mp
        t = mp.mpf(t)
        if not t > 0:
            raise ValueError("Hardy Z is evaluated for t > 0")
        s = mp.mpc(0.5, t)
        z = self.zeta(s)
        phase = mp.expj(self.riemann_siegel_theta(t))
        w = phase * z
        if abs(mp.im(w)) >= 1000 * self.ctx.target_tol * max(1, abs(w)):
            raise InternalConsistencyError(
                f"Hardy Z imaginary part {float(mp.im(w)):.3g} at t={float(t):.6f}")
        if not with_deriv:
            return mp.re(w), None
        zd = self.zeta_deriv(s)
        zp = -mp.im(phase * (self._theta_deriv(t) * z + zd))
        return mp.re(w), zp


@functools.cache
def engine_for(ctx: NumericContext) -> ZetaEngine:
    """The one ZetaEngine of ctx, built on first use and shared afterwards.
    Contexts hash by precision, so the cache holds one engine per precision
    for the life of the process."""
    return ZetaEngine(ctx)

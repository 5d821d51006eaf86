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
contour and residue circles, is integrated by trapezoid_mean.  Where
g(1 - u) = conj g(u), as on the contour, it evaluates half of each level
after the first and takes the other half as conjugates (conjugate=True).

trapezoid_mean runs each level on two CPUs through _split.  Where the
affinity mask (read at each call) holds more than one CPU and the process
has one thread, a call forks one child at its first level.  The child walks
its own copy of the lazily built levels and streams back, over one pipe, the
values of each level's odd-indexed nodes as raw mpmath tuples (marshal),
running ahead only as far as the pipe buffer lets it; the caller evaluates
the even-indexed ones, sums in node order, and kills and reaps the child on
leaving.  So every level, stop, result and exception is the in-process one;
the integrand must be pure, since what it changes in the child is lost.  A
split inside a split, and any split in the child, evaluates in process.
_split_map maps a pure function over indices 0..n-1 as one list, the child
taking the odd ones, with values ints, mpfs, mpcs or tuples of them: zeros
refines each zero through it, the CLI's zeros command evaluates |zeta(rho)|
through it, and the sum rule maps each zero sum's terms and each closure's
residues through it (each side running its residues' quadratures in
process).

Where both are wanted (Newton on Hardy Z, the weight zeta'(rho) of a zero,
the reflected zeta'), zeta and zeta' = -sum log k * k^-s + ... are summed in
one pass over the same powers k^-s, with the same N, escalations and
Bernoulli stop.  On the critical line Z = e^(i theta) zeta is real, so
Z' = -Im(e^(i theta) zeta') exactly: the theta' zeta term of the product
rule only multiplies Im(e^(i theta) zeta) = 0, and no pass evaluates theta'
(a complex digamma).  Each engine keeps a table of log k (and, for
Re s = 1/2, |k^-s| = exp(-log(k)/2)), so a complex power costs one cos/sin
and two multiplications.  The table rounds as mpmath 1.3's mpc_pow does,
and the sum runs on raw mpmath tuples through the functions mpmath's
operators call (_em_once), so every value is bit for bit what separate
passes over mp.power(k, -s) with mpf/mpc arithmetic give.

Bernoulli numbers are exact rationals built from the integer tangent
numbers (_bernoulli).  All functions are pure.  An engine's state is the
coefficients B_2j/(2j)! at working precision, fixed at construction, the
log k table and the table of zeta(m) at odd integers m >= 3 (_zeta_odd,
which the sum rule's n-series and zeta'(-2n) read).  The tables are filled on
first use, only grow, and hold values fixed by k or m and the precision; so
engine_for(ctx) builds one engine per context and every caller shares it.

Signs of Z for the zero scan: _hardy_z_float(t), for t >= 10, gives Z(t) in
double precision (Euler-Maclaurin with N and M fixed by t, theta by Stirling's
series) and a bound on its error: the Backlund and Stieltjes remainders plus
a rounding margin stated in its docstring.  A caller that needs only the sign
trusts it where |Z| exceeds the bound and falls back to ZetaEngine.hardy_z
at working precision elsewhere (zeros._signed_z).  Its coefficients are
rounded from the same exact Bernoulli fractions on first use.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import itertools
import marshal
import math
import os
import signal
import threading
from fractions import Fraction

from mpmath.libmp import (MPZ, finf, fone, from_int, fzero, mpc_abs, mpc_add, mpc_add_mpf,
                          mpc_div_mpf, mpc_mpf_div, mpc_mul, mpc_mul_mpf, mpc_pow, mpc_sub,
                          mpc_sub_mpf, mpf_abs, mpf_add, mpf_cos_sin, mpf_div, mpf_exp, mpf_gt,
                          mpf_log, mpf_lt, mpf_mul, mpf_mul_int, mpf_neg, mpf_pow, mpf_rdiv_int,
                          mpf_shift, mpf_sub, round_down, round_nearest)

from .numctx import NumericContext

__all__ = [
    "ZetaEngine",
    "engine_for",
    "ZetaPoleError",
    "PrecisionError",
    "InternalConsistencyError",
    "trapezoid_mean",
]


class ZetaPoleError(ArithmeticError):
    """Evaluation requested at the pole s = 1."""


class PrecisionError(RuntimeError):
    """A convergence target (Euler-Maclaurin remainder, quadrature) could not be met."""


def trapezoid_mean(g, ctx: NumericContext, n: int, tol, scale, failure: str,
                   periodic: bool = False, conjugate: bool = False, max_doublings: int = 20):
    """scale * (mean of g over [0, 1]) by the trapezoid rule: the interval form
    (nodes j/n, j = 0..n, endpoints weighted 1/2) or the periodic form (nodes
    j/n, j < n).  Each level doubles n by adding the midpoints.  With I_k the
    scaled value at level k, stop when |I_k - I_(k-1)| < tol or, from three
    levels on, when the extrapolated error 10^max(D1^2/D2, 2 D1) < tol with
    D1 = log10|I_k - I_(k-1)|, D2 = log10|I_k - I_(k-2)| (Borwein, Bailey &
    Girgensohn: the error of an analytic integrand squares at each level).
    Raises PrecisionError(failure) after max_doublings doublings.

    conjugate states g(1 - u) = conj g(u).  The first level is then
    evaluated in full, and InternalConsistencyError names the first pair of
    its nodes whose values are not exact conjugates, bit for bit.  Each later
    level evaluates only its nodes u < 1/2 (and u = 1/2) and takes the others
    as their mirrors' conjugates, so it sums the full grid's values in order.

    g maps an mpf of ctx to an mpf or mpc of ctx and must be pure: where a
    second CPU is free, a forked child evaluates every other node of each
    level (_split), and whatever g changes in the child is lost.  The values
    are summed in node order, so the result is bit for bit the in-process
    one, and an exception in g is the one the in-process loop raises.  Only
    the affinity mask counts CPUs: a CPU quota (a cgroup's cpu.max) is not
    detected, and under one the two processes share its time; pinning the
    process to one CPU (taskset -c 0) gives the in-process path."""
    mp = ctx.mp

    def node_lists(n):
        # the interval form evaluates its end nodes before the inner ones
        if periodic:
            yield [mp.mpf(j) / n for j in range(n)]
        else:
            yield [mp.zero, mp.one, *(mp.mpf(j) / n for j in range(1, n))]
        for _ in range(max_doublings):
            yield [mp.mpf(2 * j + 1) / (2 * n) for j in range(n - n // 2 if conjugate else n)]
            n *= 2

    with contextlib.closing(_split(g, node_lists(n), mp)) as evaluated:
        first = next(evaluated)
        if periodic:
            total = sum(first)
            first.append(first[0])  # g(1) = g(0)
        else:
            g0, g1, *inner = first
            total = (g0 + g1) / 2 + sum(inner)
            first = [g0, *inner, g1]
        if conjugate:
            _check_conjugate(first, n, mp)
        levels = [scale * total / n]
        for values in evaluated:
            if conjugate:
                values += [mp.conj(v) for v in reversed(values[:n // 2])]
            total += sum(values)
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


def _check_conjugate(values, n: int, mp) -> None:
    """Raise InternalConsistencyError at the first j <= n/2 where the value at
    node (n - j)/n is not the conjugate of the one at j/n, bit for bit."""
    for j in range(n // 2 + 1):
        if _raw(values[n - j]) != _raw(mp.conj(values[j])):
            raise InternalConsistencyError(
                f"g(1 - u) is not conj g(u) at u = {mp.mpf(j) / n}, 1 - u = {mp.mpf(n - j) / n}")


# True in a split's child, and in a parent while its child lives: a split
# there evaluates in process, so no process has two children
_split_busy = False


def _may_fork() -> bool:
    """A child gets a second CPU (the affinity is read at each call), and fork
    copies only the calling thread, so the process must have one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return (not _split_busy and affinity is not None and len(affinity(0)) > 1
            and threading.active_count() == 1)


def _raw(v):
    """The form in which a value crosses the pipe: an int as a plain int, a
    tuple as a list of the raw forms of its items, and each _mpf_ tuple as
    four plain ints.  A private MPContext's types cannot be serialised, and
    under mpmath's gmpy backend the mantissa is a gmpy2.mpz, an int subclass
    marshal cannot write."""
    if isinstance(v, int):
        return int(v)
    if isinstance(v, tuple):
        return [_raw(u) for u in v]
    if hasattr(v, "_mpc_"):
        return tuple((s, int(m), int(e), int(bc)) for s, m, e, bc in v._mpc_)
    s, m, e, bc = v._mpf_
    return s, int(m), int(e), int(bc)


def _from_raw(mp, r):
    """The value _raw gave r, each mpf or mpc one of mp with its mantissa
    mpmath's MPZ again."""
    if isinstance(r, int):
        return r
    if isinstance(r, list):
        return tuple(_from_raw(mp, u) for u in r)
    if len(r) == 2:
        return mp.make_mpc(tuple((s, MPZ(m), e, bc) for s, m, e, bc in r))
    s, m, e, bc = r
    return mp.make_mpf((s, MPZ(m), e, bc))


def _split_map(f, count: int, mp) -> list:
    """[f(0), ..., f(count - 1)]: _split over the one list of indices, so a
    forked child takes the odd ones; f must be pure, as trapezoid_mean's g,
    and return ints, mpfs and mpcs of mp, or tuples of them."""
    [values] = _split(f, [list(range(count))], mp)
    return values


def _until_failure(f, items) -> list:
    """[f(u) for u in items], up to the first u on which f raises."""
    values = []
    with contextlib.suppress(Exception):
        for u in items:
            values.append(f(u))
    return values


def _split(g, node_lists, mp):
    """Yield [g(u) for u in nodes] for each list of node_lists, which must
    hold one list at least and be pure as g is.  Where the first list holds two or more nodes and _may_fork
    allows, a forked child walks its own copy of node_lists and streams back,
    over one pipe, the values of each list's odd-indexed nodes up to its
    first failure; this process evaluates the even-indexed ones, merges, and
    evaluates in process from the first node without a value, so g's
    exception is the in-process one.  The child runs ahead only as far as
    the pipe buffer lets it; closing the generator kills and reaps it."""
    global _split_busy
    lists = iter(node_lists)
    first = next(lists)
    lists = itertools.chain([first], lists)
    pid = pipe = None
    if len(first) > 1 and _may_fork():
        read_fd, write_fd = os.pipe()
        _split_busy = True  # here while the child lives, and in the child
        with contextlib.suppress(OSError):  # where fork fails, the pipe reads as a dead child's
            pid = os.fork()
        if pid == 0:
            _stream(g, lists, read_fd, write_fd)
        os.close(write_fd)
        pipe = os.fdopen(read_fd, "rb")
    live = pipe is not None
    try:
        for nodes in lists:
            values = []
            if live:
                even = _until_failure(g, nodes[::2])
                try:
                    odd = [_from_raw(mp, r) for r in marshal.load(pipe)]
                except (EOFError, ValueError, OSError):  # ValueError: a truncated message
                    odd = []
                live = len(odd) == len(nodes) // 2  # else the child failed and left, or died
                values = nodes[:min(len(nodes), 2 * len(even), 2 * len(odd) + 1)]
                values[::2], values[1::2] = even[:(len(values) + 1) // 2], odd[:len(values) // 2]
            yield values + [g(u) for u in nodes[len(values):]]
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if pipe is not None:
            pipe.close()
            _split_busy = False


def _stream(g, node_lists, read_fd: int, write_fd: int):
    """The child, which never returns: close the read end (so a write fails
    once the parent is gone), send the raw values of each list's odd-indexed
    nodes up to the first where g raised, and stop after that list or the
    last.  Leave by os._exit: no stdio buffer is flushed, no atexit handler runs."""
    code = 0
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as out:
            for nodes in node_lists:
                raws = _until_failure(lambda u: _raw(g(u)), nodes[1::2])
                marshal.dump(raws, out)
                out.flush()
                if len(raws) < len(nodes) // 2:
                    break
    except BaseException:
        code = 1
    finally:
        os._exit(code)


class InternalConsistencyError(RuntimeError):
    """A built-in cross-check failed (e.g. Hardy Z came out non-real)."""


# Euler-Maclaurin on Re s >= REFLECTION_THRESHOLD, the functional equation left of it
REFLECTION_THRESHOLD = 0.5
# doublings of the Euler-Maclaurin cutoff N before PrecisionError
MAX_ESCALATIONS = 6
# The libmp functions mpmath 1.3's operators call, for a complex and for a
# real Euler-Maclaurin sum: z + w, z - w, z * w; z + x, z - x, z * x, z / x
# for a real x; 1 / z, |z|, and x ** w for a real x > 0 (mp.power).  Each
# takes (operands..., prec, rnd).
_MPC_OPS = (mpc_add, mpc_sub, mpc_mul, mpc_add_mpf, mpc_sub_mpf, mpc_mul_mpf, mpc_div_mpf,
            functools.partial(mpc_mpf_div, fone), mpc_abs,
            lambda x, w, prec, rnd: mpc_pow((x, fzero), w, prec, rnd))
_MPF_OPS = (mpf_add, mpf_sub, mpf_mul, mpf_add, mpf_sub, mpf_mul, mpf_div,
            functools.partial(mpf_rdiv_int, 1), mpf_abs, mpf_pow)


def _bernoulli(m: int):
    """[B_2, B_4, ..., B_2m] as exact Fractions, from the tangent numbers
    T_k (tan x = sum T_k x^(2k-1)/(2k-1)!) by Brent & Harvey's integer
    recurrence: B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    tan = [0, 1] + [0] * (m - 1)
    for k in range(2, m + 1):
        tan[k] = (k - 1) * tan[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            tan[j] = (j - k) * tan[j - 1] + (j - k + 2) * tan[j]
    return [Fraction((-1) ** (k - 1) * 2 * k * tan[k], 4 ** k * (4 ** k - 1))
            for k in range(1, m + 1)]


# the double-precision Z: Euler-Maclaurin corrections kept, Stirling terms
# kept for theta, and the t from which it answers
_FLOAT_EM_TERMS = 24
_FLOAT_STIRLING_TERMS = 12
_FLOAT_Z_START = 10.0
_UNIT_ROUNDOFF = 2.0 ** -53
_LOG_PI = math.log(math.pi)


@functools.cache
def _float_coefs():
    """(B_2j/(2j)! for j <= _FLOAT_EM_TERMS + 1, B_2j/(2j(2j-1)) for
    j <= _FLOAT_STIRLING_TERMS + 1) as floats rounded from the exact fractions;
    the last of each is the first omitted term's coefficient."""
    bern = _bernoulli(max(_FLOAT_EM_TERMS, _FLOAT_STIRLING_TERMS) + 1)
    em = tuple(float(b / math.factorial(2 * j))
               for j, b in enumerate(bern[:_FLOAT_EM_TERMS + 1], start=1))
    stirling = tuple(float(b / (2 * j * (2 * j - 1)))
                     for j, b in enumerate(bern[:_FLOAT_STIRLING_TERMS + 1], start=1))
    return em, stirling


def _hardy_z_float(t):
    """(value, bound) with |Z(t) - value| <= bound, in double precision, for
    t >= _FLOAT_Z_START; below it the bound is infinite.  t may be an mpf.

    theta(t) = Im log Gamma(z) - (t/2) log pi, z = 1/4 + i t/2, by Stirling's
    series with K = _FLOAT_STIRLING_TERMS terms; Stieltjes' bound puts the
    omitted part below the first omitted term times sec^(2K+2)(arg z / 2).
    zeta(s), s = 1/2 + i t, by Euler-Maclaurin with N = floor(t/3) + 12 and
    M = _FLOAT_EM_TERMS corrections; the remainder is at most
    |s + 2M + 1| / (2M + 3/2) times the first omitted correction (Backlund).
    Z = sum_{k<N} k^(-1/2) cos(theta - t log k) + Re(e^(i theta) * tail).

    Rounding margin, with u = 2^-53 and every libm call (log, cos, sqrt,
    atan2, hypot) within one ulp: each angle theta - t log k is off by at
    most 16 u t log(N + t).  That covers the rounding of the mpf t to a float
    (one ulp, so at most 2 u t log k in t log k), log k, the product, the
    subtraction and the float theta.  Each term also carries at most
    (N + 6M + 32) u of its magnitude: the summation over N terms, cos, the
    square root, the product, and the complex arithmetic of the tail.  With
    A = 2 sqrt(N) - 1 >= sum_{k<N} k^(-1/2) plus the tail's term sizes, the
    bound is twice (EM remainder + A * (theta remainder + angle error +
    (N + 6M + 32) u)); the factor 2 covers the (1 + O(N u)) factors of the
    estimates and the float evaluation of the bound itself."""
    t = float(t)
    if not t >= _FLOAT_Z_START:
        return 0.0, math.inf
    em, stirling = _float_coefs()
    z = complex(0.25, t / 2)
    inv = 1 / z
    inv2 = inv * inv
    series = (z - 0.5) * cmath.log(z) - z
    for c in stirling[:-1]:
        series += c * inv
        inv *= inv2
    theta = series.imag - t / 2 * _LOG_PI
    theta_rem = abs(stirling[-1] * inv) * (2 * abs(z) / (abs(z) + z.real)) ** len(stirling)
    n = int(t / 3) + 12
    main = sum(math.cos(theta - t * math.log(k)) / math.sqrt(k) for k in range(1, n))
    # e^(i theta) N^-s (N / (s - 1) + 1/2 + sum_j B_2j/(2j)! s(s+1)...(s+2j-2) N^(1-2j))
    s = complex(0.5, t)
    head = n / (s - 1)
    bracket, size = head + 0.5, abs(head) + 0.5
    q = s / n
    for j, c in enumerate(em[:-1], start=1):
        term = c * q
        bracket += term
        size += abs(term)
        q *= (s + (2 * j - 1)) * (s + 2 * j) / (n * n)
    m = len(em) - 1
    root_n = math.sqrt(n)
    em_rem = abs(s + (2 * m + 1)) / (2 * m + 1.5) * abs(em[-1] * q) / root_n
    value = main + (cmath.rect(1 / root_n, theta - t * math.log(n)) * bracket).real
    magnitude = 2 * root_n - 1 + size / root_n
    angle = 16 * _UNIT_ROUNDOFF * t * math.log(n + t)
    ops = (n + 6 * m + 32) * _UNIT_ROUNDOFF
    return value, 2 * (em_rem + magnitude * (theta_rem + angle + ops))


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
        self._coef = tuple(mp.mpf(b.numerator) / b.denominator / mp.factorial(2 * j)
                           for j, b in enumerate(_bernoulli(self._m_cap + 1), start=1))
        self._logk = (None, None)  # _log_table rows from k = 2, filled on first use
        self._odd = {}  # m -> zeta(m) for odd m >= 3, filled on first use

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
            f"Euler-Maclaurin remainder {float(rem):.3g} above tolerance at N={n//2} "
            f"for s = {self.ctx.mp.nstr(s, 15)}")

    def _log_table(self, n: int):
        """Rows (log k at prec+10 rounded down, log k at prec, exp(-log(k)/2)
        at prec+4), raw _mpf_ tuples indexed by k, extended to k < n on
        demand.  A longer table replaces the old one whole, so a shared engine
        never shows a partial row."""
        table = self._logk
        if len(table) < n:
            prec = self.ctx.mp.prec
            rows = []
            for k in range(len(table), n):
                log_pow = mpf_log(from_int(k), prec + 10, round_down)
                rows.append((log_pow, mpf_log(from_int(k), prec, round_nearest),
                             mpf_exp(mpf_neg(mpf_shift(log_pow, -1)), prec + 4, round_nearest)))
            table = self._logk = table + tuple(rows)
        return table

    def _em_once(self, s, n, want_deriv):
        """One pass at cutoff n: (zeta(s), zeta'(s) or None, first omitted
        Bernoulli term).  zeta' = -sum log k * k^-s + the differentiated tail,
        over the same powers and the same Bernoulli stop as zeta.

        The power sum and the Bernoulli corrections run on raw _mpc_ (or, for
        a real s, _mpf_) tuples, through the libmp functions that mpmath 1.3's
        operators call for the same expressions (_MPC_OPS, _MPF_OPS), at the
        context's precision and rounding; so every value is bit for bit what
        the sum over mpc or mpf objects gives.  k^-s is mp.power(k, -s): off
        the real axis it repeats mpc_pow (log and product at prec+10 rounded
        down, exp and cos/sin at prec+4, the context rounding to nearest) with
        log k from the table, and on Re s = 1/2 also |k^-s|."""
        mp = self.ctx.mp
        prec, rnd = mp._prec_rounding
        cplx = hasattr(s, "_mpc_")
        add, sub, mul, add_x, sub_x, mul_x, div_x, recip, size, power = (
            _MPC_OPS if cplx else _MPF_OPS)
        raw = (lambda v: v._mpc_) if cplx else (lambda v: v._mpf_)
        s_raw, neg_s = raw(s), raw(-s)
        table = self._log_table(n)
        if cplx and neg_s[1] != fzero:
            neg_re, neg_im = neg_s
            on_line = mp.re(s) == 0.5

            def k_pow(k, log_pow, half_mag):
                mag = half_mag if on_line else mpf_exp(
                    mpf_mul(log_pow, neg_re, prec + 10, round_down), prec + 4, round_nearest)
                c, sn = mpf_cos_sin(mpf_mul(log_pow, neg_im, prec + 10, round_down),
                                    prec + 4, round_nearest)
                return mpf_mul(mag, c, prec, round_nearest), mpf_mul(mag, sn, prec, round_nearest)
        else:
            def k_pow(k, log_pow, half_mag):
                return power(from_int(k), neg_s, prec, rnd)

        total = (fone, fzero) if cplx else fone
        deriv = (fzero, fzero) if cplx else fzero
        for k in range(2, n):
            log_pow, log_k, half_mag = table[k]
            p = k_pow(k, log_pow, half_mag)
            total = add(total, p, prec, rnd)
            if want_deriv:
                deriv = sub(deriv, mul_x(p, log_k, prec, rnd), prec, rnd)
        ln_n = mp.log(n)
        n1s = mp.power(n, 1 - s)
        ns = mp.power(n, -s)
        total = add(total, raw(n1s / (s - 1) + ns / 2), prec, rnd)
        if want_deriv:
            deriv = add(deriv, raw(-ln_n * n1s / (s - 1) - n1s / (s - 1) ** 2), prec, rnd)
            deriv = add(deriv, raw(-ln_n * ns / 2), prec, rnd)
            rf_logd, ln_raw = recip(s_raw, prec, rnd), ln_n._mpf_

        # Bernoulli corrections; rf = s(s+1)...(s+2j-2), npow = N^(-s-2j+1),
        # rf_logd = d/ds log rf = sum 1/(s+i) for the derivative
        rf = s_raw
        npow = raw(ns / n)
        nn = from_int(n * n)
        tol = self._stop_tol._mpf_
        prev_mag = finf
        for j, c in enumerate(self._coef, start=1):
            term = mul(mul_x(rf, c._mpf_, prec, rnd), npow, prec, rnd)
            mag = size(term, prec, rnd)
            # stop below tolerance, or where the corrections stop converging at this N
            if (mpf_lt(mag, tol) or j > self._m_cap
                    or mpf_gt(mag, mpf_mul_int(prev_mag, 4, prec, rnd))):
                break
            total = add(total, term, prec, rnd)
            if want_deriv:
                deriv = add(deriv, mul(term, sub_x(rf_logd, ln_raw, prec, rnd), prec, rnd),
                            prec, rnd)
            prev_mag = mag
            lo = add_x(s_raw, from_int(2 * j - 1), prec, rnd)
            hi = add_x(s_raw, from_int(2 * j), prec, rnd)
            rf = mul(mul(rf, lo, prec, rnd), hi, prec, rnd)
            if want_deriv:
                rf_logd = add(add(rf_logd, recip(lo, prec, rnd), prec, rnd), recip(hi, prec, rnd),
                              prec, rnd)
            npow = div_x(npow, nn, prec, rnd)
        make = mp.make_mpc if cplx else mp.make_mpf
        return make(total), make(deriv) if want_deriv else None, mp.make_mpf(mag)

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

    def _zeta_odd(self, m: int):
        """zeta(m) for odd m >= 3, the value zeta(mpf(m)) gives, computed once
        per engine: the sum rule's n-series and zeta'(-2n) read it on every
        call."""
        value = self._odd.get(m)
        if value is None:
            value = self._odd[m] = self.zeta(self.ctx.mp.mpf(m))
        return value

    def zeta_deriv_neg_even(self, n: int):
        """zeta'(-2n) = (-1)^n zeta(2n+1) (2n)! / (2 (2 pi)^(2n)), n >= 1."""
        if n < 1:
            raise ValueError("closed form starts at the first trivial zero (n >= 1)")
        mp = self.ctx.mp
        sign = -1 if n % 2 else 1
        return (sign * self._zeta_odd(2 * n + 1) * mp.factorial(2 * n)
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

    def hardy_z(self, t):
        """Z(t) = e^(i theta(t)) zeta(1/2 + i t); asserts the product is real."""
        return self._hardy(t, with_deriv=False)[0]

    def hardy_z_with_deriv(self, t):
        """(Z(t), Z'(t), zeta'(1/2 + i t)) from one Euler-Maclaurin pass, with
        Z' = -Im(e^(i theta(t)) zeta'(1/2 + i t)): a Newton step on Z, the
        Taylor certificate and the weight of a zero."""
        return self._hardy(t, with_deriv=True)

    def _hardy(self, t, with_deriv: bool):
        """(Z(t), Z'(t), zeta'(s)) at s = 1/2 + i t; the last two are None
        without with_deriv.  Z' = -Im(e^(i theta) (theta' zeta + zeta')), and
        e^(i theta) zeta = Z is real, so Z' = -Im(e^(i theta) zeta')."""
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
        if not with_deriv:
            return mp.re(w), None, None
        return mp.re(w), -mp.im(phase * zd), zd


@functools.cache
def engine_for(ctx: NumericContext) -> ZetaEngine:
    """The one ZetaEngine of ctx, built on first use and shared afterwards.
    Contexts hash by precision, so the cache holds one engine per precision
    for the life of the process."""
    return ZetaEngine(ctx)

"""Locate, exchange, and cache the low nontrivial zeros of zeta on the
critical line.

One scan, _scan_brackets, finds the zeros and certifies their count.  It
walks the Gram points g_n, theta(g_n) = n pi, from t = 10 (for g_-1 = 9.67).
A Gram block runs from one good g_n, (-1)^n Z(g_n) > 0, to the next, and by
Rosser's rule it holds a zero per Gram interval: a block whose points show
fewer sign changes has every interval halved until they show as many
(GRAM_HALVINGS times at most; then it is a MissedZeroError naming it).
Past `count` zeros and 168 pi, at a good g_n0, Turing's method as Brent
states it (Math. Comp. 33, 1979, Theorem 3.2, with Lehman's bound on the
integral of S(t), which holds from 168 pi; Trudgian, Math. Comp. 80, 2011,
has sharper constants) gives N(g_n0) <= n0 + 1 when the next K >= 0.0061
log^2 g_p + 0.08 log g_p blocks, up to g_p, follow Rosser's rule too.  The
scan walks them, reads the signs again at g_n0 ... g_p computed at working
precision, and needs exactly n0 + 1 brackets below g_n0: one zero in each,
and none outside.  A process keeps its last eight scans, one per (engine,
count), so a locate and an import of the same count scan once.

Located and imported zeros take one refinement path, _certify: bisection of
the sign-change bracket to width 1e-4 (it only reads signs), Newton on Z
inside the bracket, then a certificate that Z changes sign across
[tau - e, tau + e], e = 2^(10 - precision_bits).  A located zero's Newton
is Brent's Newton with increasing precision (1976): each pass pays only for
the digits its step decides.  It starts at the root of the double-precision
Z in that bracket (_float_root), which gives tau to about double precision.
Where the working precision is at least 2 FIRST_STEP_BITS = 192 bits, the
first pass runs at 96 bits: its step leaves tau some 1e-28 off, far above
the 96-bit engine's stop tolerance 2^-112.  After a full pass at working
precision whose step delta has tau 2^-prec <= delta^2 < e/4 (prec =
ctx.mp.prec), the next pass is Z alone (ZetaEngine.hardy_z), divided by that
full pass's Z': |Z''/2Z'| is below 1 at the zeros, so that step is below
e/4, and the stale Z' moves it by about delta times itself, some 1e-85 at
192 bits, where an ulp of tau is at least 5e-67, and at most about 1e-41 at
96, far below the 30 digits a zeros file keeps there.  The lower bound
leaves a step that would not move tau to the pass at tau.  Where the double
Z shows no sign change across the bracket, or its root is not inside, Newton
starts at the midpoint, as an imported zero's does; every pass of an
imported zero is a full pass at working precision.  Each full pass
(ZetaEngine.hardy_z_with_deriv) gives Z, Z' and zeta'(1/2 + i tau) at once,
and tau's pass, at working precision, is Newton's last one wherever Newton's
last step leaves tau unchanged (one more pass where it moved tau).  That
pass gives the residual Z(tau), the cached zeta'(1/2 + i tau) and the
certificate, _taylor_certifies: |Z(tau)| plus its error bound plus e^2 M/2,
M >= |Z''| near tau (_z2_bound), below e |Z'(tau)| minus its error bound.
It accepts every stored tau of the tests (500 zeros at 192 bits, 30 at 96);
where it does not hold, a full-precision bisection of the bracket down to e
gives tau, and one pass at its midpoint.
So a located zero costs its Newton passes: for the first zeros 3 at 96 bits
(Z and Z', Z alone, Z and Z') and 4 at 192 (the same after a 96-bit pass of
Z and Z'); 4 and 5 from the midpoint.  An imported one costs two: the import
check at the tau read, which is Newton's first step, and the pass at the tau
Newton moves to.
The certificate is for the refined tau; _certify returns tau and zeta' as
a zeros file holds them (rounded to the ctx.dps digits export_zeros writes,
read back at working precision): it moves tau by half a unit in the last
digit at most, which is under e/2 for every tau < 10^4, so for every zero
up to MAX_COUNT.

Every sign the scan and the bisections read comes from _signed_z: Z in
double precision with a proven error bound (zetafn._hardy_z_float), used
only where |Z| exceeds the bound, else Z at full precision.  Where the bound
proves a sign, it is the sign of Z and so the one full precision gives, so
every bracket and bisection midpoint is what a scan at full precision alone
yields.  The Newton start is not: it is a double-precision guess inside the
bracket, and it sets only how many passes Newton makes.  The tau and zeta'
a zeros file holds are the same bytes from it as from the midpoint, for
every store the tests and the benchmark build.  A zero run reads every
sign, theta and Z from one engine, engine_for(ctx), but for a located
zero's first Newton pass at 192 bits and above.
locate_zeros refines the first `count` brackets, and import_zeros requires
the tau refined from row i to lie in bracket i, so a table with a zero
missing fails at the first row past the gap.  A cache load runs no count
check: _load_cache checks the header, the checksum, the number of rows and
each zeta' line.  The zeros and selftest commands match the store they load
with the scan (_match_scan).

Each zero is refined on its own (an import first checks Z/Z' at its tau),
so locate_zeros and import_zeros map the refinement over the zero indices
with zetafn._split_map: where a second CPU is free, a forked child refines
the odd indices.  The records are put together in index order, so every
tau, zeta' and export byte, and the exception (the first failing zero's),
is the in-process one.

File format (import/export and cache): UTF-8 text, one decimal tau per line
in ascending order, '#' comment lines allowed, export header
"# precision_bits=<n> checksum=<hex>".  Import and cache loads share one
reader, _parse_zeros, which rejects an unparseable, non-positive or
non-ascending tau and a checksum mismatch before any zeta evaluation; a
cache load warns and recomputes instead.  Cache files also carry per-record
"# zp <re> <im>" lines so warm loads skip all zeta evaluations.  A process
keeps the last eight cache stores it accepted, each under the file's bytes
(_cached_store), so repeated warm calls in one process parse a file once,
and again only after its bytes change.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import os
import re
import warnings
from dataclasses import dataclass

from .numctx import NumericContext
from .zetafn import ZetaEngine, _hardy_z_float, _split_map, engine_for

__all__ = [
    "ZeroRecord",
    "ZeroStore",
    "MissedZeroError",
    "MultipleZeroError",
    "ZeroImportError",
    "locate_zeros",
    "import_zeros",
    "export_zeros",
    "load_or_compute",
]

# the scan's first point, which stands in for the Gram point g_-1 = 9.67 (no zero
# lies below 14): Z(10) < 0, so it is good
SCAN_START = 10.0
# halvings of a Gram block's intervals before a block short of sign changes is a
# missed zero.  Up to the 2000th zero the scan needs 3: the closest pair there,
# zeros #1496 and #1497, lies 0.089 of a mean spacing apart
GRAM_HALVINGS = 8
MAX_COUNT = 2000
SIMPLICITY_FLOOR = 1e-15
# bracket width at which Newton takes over from bisection
NEWTON_WIDTH = "1e-4"
# the precision of a located zero's first Newton pass, where the run's is at
# least twice it: one step from the double-precision root leaves tau some
# 1e-28 off, far above that engine's stop tolerance 2^-112
FIRST_STEP_BITS = 96
# regula falsi steps on the double-precision Z at most, for a located zero's
# Newton start (_float_root); from their 1e-4 brackets, each of the first
# 2000 zeros reaches a step that leaves the root unchanged within 10
FLOAT_STEPS = 12
# radius of the circles of the Cauchy estimate for |Z''| (_z2_bound), and
# zeta(3/2) = 2.61237... rounded up
CAUCHY_RADIUS = 0.375
ZETA_3_2 = 2.6124


class MissedZeroError(RuntimeError):
    """A zero missed or not enclosed: a count, sign-change or residual check failed."""


class MultipleZeroError(RuntimeError):
    """|zeta'(rho)| fell below the simplicity floor; the sum rule's 1/zeta'
    weights would be garbage, so this is a hard stop."""


class ZeroImportError(ValueError):
    """A zeros file failed validation; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass(frozen=True)
class ZeroRecord:
    """One critical-line zero rho = 1/2 + i tau with cached zeta'(rho); its
    index is its position in the store, from 1."""

    tau: object
    zeta_prime: object


class ZeroStore(tuple):
    """The ZeroRecords of the first zeros, in ascending order."""

    @property
    def records(self) -> "ZeroStore":
        return self

    def prefix(self, n: int) -> "ZeroStore":
        return ZeroStore(_prefix(self, n))


def _prefix(items, n: int):
    """The first n of a store's items, for 1 <= n <= len(items)."""
    if not 1 <= n <= len(items):
        raise ValueError(f"store holds {len(items)} zeros, {n} requested")
    return items[:n]


def _signed_z(engine: ZetaEngine, t):
    """A number with the sign of Z(t): the double-precision Z where its error
    bound proves the sign, else engine.hardy_z(t).  Either way the sign is
    the one engine.hardy_z(t) has, whose error lies far below the bound."""
    value, bound = _hardy_z_float(t)
    return value if abs(value) > bound else engine.hardy_z(t)


def _theta_float(t: float) -> float:
    """theta(t) in double precision, from its asymptotic series."""
    return (t / 2 * math.log(t / (2 * math.pi)) - t / 2 - math.pi / 8 + 1 / (48 * t)
            + 7 / (5760 * t ** 3) + 31 / (80640 * t ** 5))


def _gram(theta, n_pi, t, tol):
    """The Gram point where theta = n_pi (theta(g_n) = n pi), by Newton from t
    until a step is at most tol.  theta' is taken as log(t / 2 pi) / 2 -
    1 / (48 t^2), which is within a relative 10^-7 of it for t > 17."""
    step = 2 * tol
    while abs(step) > tol:
        slope = math.log(float(t) / (2 * math.pi)) / 2 - 1 / (48 * float(t) ** 2)
        step = (theta(t) - n_pi) / slope
        t -= step
    return t


def _gram_block(engine: ZetaEngine, points, n: int) -> list:
    """The brackets (lo, hi, Z(lo), Z(hi)) of Z's sign changes between the
    points [(t, Z(t))] of the Gram block that ends at g_n; a point where Z
    vanishes is its own bracket.  While they are fewer than the block's Gram
    intervals, every interval is halved, GRAM_HALVINGS times at most, and
    then MissedZeroError names the block."""
    mp, intervals = engine.ctx.mp, len(points) - 1
    for level in range(GRAM_HALVINGS + 1):
        if level:
            mids = [(a + b) / 2 for (a, _), (b, _) in zip(points, points[1:])]
            points = [p for pair in zip(points, [(m, _signed_z(engine, m)) for m in mids])
                      for p in pair] + points[-1:]
        found = [(mp.mpf(a), mp.mpf(a if za == 0 else b), za, za if za == 0 else zb)
                 for (a, za), (b, zb) in zip(points, points[1:]) if za == 0 or za * zb < 0]
        if len(found) >= intervals:
            return found
    raise MissedZeroError(f"Gram block [g_{n - intervals}, g_{n}] = [{points[0][0]:.6f}, "
                          f"{points[-1][0]:.6f}] shows {len(found)} sign changes of Z for "
                          f"{intervals} Gram intervals")


@functools.lru_cache(maxsize=8)
def _scan_brackets(engine: ZetaEngine, count: int):
    """(brackets, g_n0): the sign-change brackets (lo, hi, Z(lo), Z(hi)) of the
    n0 + 1 >= count zeros below g_n0, one in each, and g_n0 as a double
    (module docstring).  Every point read below g_n0 is a double, so the
    brackets are the same at every precision."""
    mp = engine.ctx.mp
    n, t, z = -1, SCAN_START, _signed_z(engine, SCAN_START)
    block, brackets, grams, n0, blocks = [(t, z)], [], [], None, 0
    # past g_n0, Brent's bound on the blocks up to g_p = t
    while n0 is None or blocks < 0.0061 * math.log(t) ** 2 + 0.08 * math.log(t):
        n += 1
        t = _gram(_theta_float, n * math.pi, t, 1e-9)
        z = _signed_z(engine, t)
        block.append((t, z))
        grams.append((n, t, z))
        if not (-1) ** n * z > 0:
            continue  # the block runs on to the next good Gram point
        brackets += _gram_block(engine, block, n)
        block = [(t, z)]
        if n0 is not None:
            blocks += 1
        elif len(brackets) >= count and t >= 168 * math.pi:  # where Lehman's bound holds
            n0, below, grams = n, len(brackets), [(n, t, z)]
    # g_n lies some 1e-13 from its double, far closer than any other point
    # read, so with the sign the scan read there, the counts hold for g_n
    for k, g, zk in grams:
        gk = _gram(engine.riemann_siegel_theta, k * mp.pi, mp.mpf(g), engine.ctx.target_tol)
        if not zk * _signed_z(engine, gk) > 0:
            raise MissedZeroError(f"Gram point g_{k} = {g:.6f}: Z at working precision does not "
                                  f"have the sign the scan read")
    if below != n0 + 1:
        raise MissedZeroError(f"{below} sign changes of Z below g_{n0} = {grams[0][1]:.6f}, "
                              f"where Turing's method allows {n0 + 1}")
    return tuple(brackets[:below]), grams[0][1]


def _bisect(engine: ZetaEngine, lo, hi, z_lo, z_hi, width):
    """Halve [lo, hi], across which Z (Z(lo) = z_lo, Z(hi) = z_hi) changes
    sign, until it is at most `width` wide; returns (lo, hi), with lo = hi at
    a point where Z vanishes."""
    if z_lo * z_hi > 0:
        raise MissedZeroError(f"no sign change in ({float(lo):.6f}, {float(hi):.6f})")
    if z_lo == 0 or z_hi == 0:
        return (lo, lo) if z_lo == 0 else (hi, hi)
    while hi - lo > width:
        mid = (lo + hi) / 2
        z_mid = _signed_z(engine, mid)
        if z_mid == 0:
            return mid, mid
        if z_lo * z_mid < 0:
            hi = mid
        else:
            lo, z_lo = mid, z_mid
    return lo, hi


def _float_root(lo, hi):
    """A zero of the double-precision Z (_hardy_z_float) strictly inside
    (lo, hi), by the Illinois variant of regula falsi, stopped where a step
    leaves it unchanged (as the step after a zero value does) or after
    FLOAT_STEPS steps; or None where Z's double values at lo and hi do not
    have opposite signs, or it is not inside."""
    a, b = float(lo), float(hi)
    fa, fb = _hardy_z_float(a)[0], _hardy_z_float(b)[0]
    if not fa * fb < 0:
        return None
    c = a
    for _ in range(FLOAT_STEPS):
        c, last = b - fb * (b - a) / (fb - fa), c
        if c == last:
            break
        fc = _hardy_z_float(c)[0]
        if fc * fb < 0:
            a, fa = b, fb
        else:
            fa /= 2  # Illinois: halve the value at the end that stays
        b, fb = c, fc
    return c if lo < c < hi else None


def _z2_bound(tau) -> float:
    """M >= |Z''(t)| for |t - tau| <= 1/8, or inf for tau < 10.5.

    Cauchy's estimate |Z''(t)| <= 2 max |Z(w)| / r^2 over the circle
    |w - t| = r = CAUCHY_RADIUS, where Z(w) = e^(i theta(w)) zeta(1/2 + i w)
    continues Z.  The circles lie in |Re w - tau| <= 1/2, |Im w| <= r, so
    s = 1/2 + i w has 1/8 <= sigma <= 7/8 and t_lo <= Im s <= t_hi, with
    t_lo, t_hi = tau -+ 1/2.  There:
    - Rademacher (Math. Z. 72, 1959), with eta = 1/2: |zeta(s)| <=
      3 |1 + s| / |1 - s| (|1 + s| / 2 pi)^((3/2 - sigma)/2) zeta(3/2), and
      |1 + s| < t_hi + 2, |1 - s| >= t_lo, (3/2 - sigma)/2 <= 11/16;
    - |e^(i theta(w))| = e^(-Im theta(w)) <= e^(r max |Re theta'|), as theta
      is real on the real axis.  theta' = (psi(z1) + psi(z2))/4 - log(pi)/2
      with z1,2 = 1/4 +- i w/2, Re z >= 1/4 - r/2 = 1/16 and t_lo/2 <= |z|
      <= (t_hi + 1)/2; Binet's formula gives |Re psi(z) - log |z|| <=
      1/(2|z|) + 1/(12 (Re z)^2).
    The product is doubled to cover the rounding of this float estimate."""
    t_lo, t_hi = float(tau) - 0.5, float(tau) + 0.5
    if not t_lo >= 10:
        return math.inf
    r = CAUCHY_RADIUS
    zeta_max = 3 * (t_hi + 2) / t_lo * ((t_hi + 2) / (2 * math.pi)) ** (11 / 16) * ZETA_3_2
    psi_max = math.log((t_hi + 1) / 2) + 1 / t_lo + 1 / (12 * (1 / 4 - r / 2) ** 2)
    phase_max = math.exp(r * (psi_max + math.log(math.pi)) / 2)
    return 2 * (2 * zeta_max * phase_max / r ** 2)


def _taylor_certifies(engine: ZetaEngine, tau, z, zd) -> bool:
    """Whether Z changes sign across [tau - e, tau + e], proved from
    z = Z(tau) and zd = Z'(tau) alone: Z(tau +- e) = Z(tau) +- e Z'(tau) +
    (e^2/2) Z''(xi), so |Z(tau)| + d + e^2 M / 2 < e (|Z'(tau)| - d), with
    M = _z2_bound(tau), gives Z(tau + e) the sign of Z'(tau) and Z(tau - e)
    the other.  d = (tau + 4) 2^-(p + 12) bounds the error of z = Re and
    zd = -Im of e^(i theta) times zeta and zeta' (the exact Z' has no theta'
    term, since e^(i theta) zeta is real): the engine stops Euler-Maclaurin
    at a first omitted term below 2^-(p + 16), Backlund's remainder is at
    most (t + 4)/3.5 times that term, zeta''s differentiated remainder is
    taken as at most 2^4 times it (log N < 12), and the phase, the products
    and every other rounding at p + 32 bits lie far below."""
    mp = engine.ctx.mp
    e = engine.ctx.target_tol
    d = mp.ldexp(tau + 4, -(engine.ctx.precision_bits + 12))
    return abs(z) + d + e * e * _z2_bound(tau) / 2 < e * (abs(zd) - d)


def _certify(engine: ZetaEngine, lo, hi, z_lo, z_hi, start=None, first=None):
    """(tau, zeta'(1/2 + i tau)), as a zeros file holds them, for the zero in
    the sign-change bracket [lo, hi], where z_lo and z_hi have the signs of
    Z(lo) and Z(hi).  start = (t, engine.hardy_z_with_deriv(t)) is an
    imported zero's pass already made, and Newton starts at the midpoint of
    the 1e-4 bracket, with every pass a full one.  Without it (a located
    zero), Newton starts at _float_root's root in the bracket, or at the
    midpoint where that gives none; its first pass is on the engine `first`
    where one is given, and a pass after a full one on `engine` may be Z
    alone.  The steps, the certificate and the rounding are in the module
    docstring."""
    mp = engine.ctx.mp
    e = engine.ctx.target_tol
    last = start

    def derivs(t):
        """engine.hardy_z_with_deriv(t), or the last pass where it was at t."""
        nonlocal last
        if last is None or last[0] != t:
            last = (t, engine.hardy_z_with_deriv(t))
        return last[1]

    lo, hi = _bisect(engine, lo, hi, z_lo, z_hi, mp.mpf(NEWTON_WIDTH))
    guess = _float_root(lo, hi) if start is None else None
    tau = (lo + hi) / 2 if guess is None else mp.mpf(guess)
    stale = None  # Z' of the last full pass, where the next pass is Z alone
    for _ in range(80):
        if stale is not None:
            z, zd = engine.hardy_z(tau), stale
        else:
            z, zd, _ = derivs(tau) if first is None else first.hardy_z_with_deriv(tau)
        if zd == 0:
            break
        delta = z / zd
        if not lo <= tau - delta <= hi:
            break  # Newton left the bracket; the certificate below decides
        tau -= delta
        if abs(delta) < e / 4:
            break
        # after a located zero's full pass at working precision, the next
        # step, about delta^2 |Z''/2Z'| < e/4, needs only Z''s leading
        # digits; a step that would leave tau unchanged is left to the pass at tau
        full = start is None and stale is None and first is None
        stale = zd if full and mp.ldexp(tau, -mp.prec) <= delta * delta < e / 4 else None
        first = None
    z, zd, zp = derivs(tau)
    if not _taylor_certifies(engine, tau, z, zd):
        lo, hi = _bisect(engine, lo, hi, _signed_z(engine, lo), _signed_z(engine, hi), e)
        tau = (lo + hi) / 2
        z, _, zp = derivs(tau)
    if abs(zp) < SIMPLICITY_FLOOR:
        raise MultipleZeroError(f"|zeta'(rho)| = {float(abs(zp)):.3g} at tau = {float(tau):.9f}")
    if not abs(z) < 1000 * e * abs(zp):
        raise MissedZeroError(
            f"residual {float(abs(z)):.3g} inconsistent with enclosure at tau = {float(tau):.9f}")
    re_zp, im_zp = _zp_fields(engine.ctx, zp)  # read back as _parse_zeros reads them
    return mp.mpf(engine.ctx.nstr(tau)), mp.mpc(mp.mpf(re_zp), mp.mpf(im_zp))


def _check_bracket(brackets, i: int, tau, where: str) -> None:
    """MissedZeroError, naming `where` and the bracket, unless tau lies in
    brackets[i], the scan's bracket of zero #i + 1."""
    lo, hi = brackets[i][:2]
    if not lo <= tau <= hi:
        raise MissedZeroError(f"{where}: tau = {float(tau):.6f} is not in bracket {i + 1} of the "
                              f"scan, [{float(lo):.6f}, {float(hi):.6f}]")


def _match_scan(store: ZeroStore, engine: ZetaEngine):
    """(n0, g_n0) of the certified scan for len(store) zeros, once each zero
    #i + 1 of store is found in bracket i of it; else MissedZeroError names
    the first zero that is not, and its bracket."""
    brackets, gram = _scan_brackets(engine, len(store))
    for i, rec in enumerate(store):
        _check_bracket(brackets, i, rec.tau, f"zero #{i + 1}")
    return len(brackets) - 1, gram


def _store(pairs) -> ZeroStore:
    """The ZeroStore of (tau, zeta') pairs."""
    return ZeroStore(ZeroRecord(tau, zp) for tau, zp in pairs)


def locate_zeros(count: int, ctx: NumericContext) -> ZeroStore:
    """First `count` critical-line zeros, refined at context precision."""
    if not 1 <= count <= MAX_COUNT:  # named as SumRuleParams.bind names a count below 1
        raise ValueError(f"zeros_count = {count} must be "
                         + ("positive" if count < 1 else f"at most {MAX_COUNT}"))
    engine = engine_for(ctx)
    first = (engine_for(NumericContext(FIRST_STEP_BITS))
             if ctx.precision_bits >= 2 * FIRST_STEP_BITS else None)
    brackets = _scan_brackets(engine, count)[0]

    def refine(i):
        return _certify(engine, *brackets[i], first=first)

    return _store(_split_map(refine, count, ctx.mp))


# -- text format -------------------------------------------------------------


def _checksum(payload_lines) -> str:
    h = hashlib.sha256("\n".join(payload_lines).encode("utf-8"))
    return h.hexdigest()[:16]


def _zp_fields(ctx: NumericContext, zp) -> list:
    """Re and Im of zeta' as the decimal strings of its "# zp" line."""
    return [ctx.mp.nstr(part, ctx.dps) for part in (ctx.mp.re(zp), ctx.mp.im(zp))]


def export_zeros(store: ZeroStore, path, ctx: NumericContext,
                 include_zeta_prime: bool = False) -> None:
    """Write the store as zeros-format text (header + ascending tau lines)."""
    lines = []
    for rec in store.records:
        lines.append(ctx.nstr(rec.tau))
        if include_zeta_prime:
            lines.append("# zp " + " ".join(_zp_fields(ctx, rec.zeta_prime)))
    header = f"# precision_bits={ctx.precision_bits} checksum={_checksum(lines)}"
    text = header + "\n" + "\n".join(lines) + "\n"
    _atomic_write(path, text)


def _atomic_write(path, text: str) -> None:
    """Write text to a fresh file next to path, then rename it over path.  The
    fresh file is opened as open(path, "w") would open it, so it gets the
    same mode under the process umask."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".zeros-tmp-{os.getpid()}-{os.urandom(8).hex()}")
    try:
        with open(tmp, "x", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_zeros(text: str, ctx: NumericContext):
    """(header fields, [[line_no, tau, zeta' or None]]) of a zeros file's
    text, each value read at context precision, zeta' from the "# zp" line
    after tau.  Raises ZeroImportError for a file without zeros, an
    unparseable record, a non-positive or non-ascending tau, or a payload
    that no longer matches the header's checksum (when the header carries
    one).  Nothing here evaluates zeta."""
    mp, header, rows, payload = ctx.mp, {}, [], []

    def read(line_no, line, *fields, count=1):
        with contextlib.suppress(ValueError):
            if len(fields) == count:
                return [mp.mpf(field) for field in fields]
        raise ZeroImportError(line_no, f"unparseable record {line!r}")

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        body = line[1:].split() if line.startswith("#") else None
        if body and body[0].startswith("precision_bits="):
            header.update(field.split("=", 1) for field in body if "=" in field)
            continue
        payload.append(line)
        if body is None:
            (tau,) = read(line_no, line, line)
            if not tau > 0:
                raise ZeroImportError(line_no, "tau must be positive")
            if rows and not tau > rows[-1][1]:
                raise ZeroImportError(line_no, f"non-monotone tau {line}")
            rows.append([line_no, tau, None])
        elif body and body[0] == "zp" and rows:
            rows[-1][2] = mp.mpc(*read(line_no, line, *body[1:], count=2))
    if not rows:
        raise ZeroImportError(0, "no zeros in file")
    if "checksum" in header and header["checksum"] != _checksum(payload):
        raise ZeroImportError(0, f"checksum mismatch: header says {header['checksum']}, "
                                 f"payload hashes to {_checksum(payload)}")
    return header, rows


def import_zeros(path, ctx: NumericContext, count: int | None = None) -> ZeroStore:
    """Read a zeros table (_parse_zeros: every format check and the checksum
    run over the whole file before any zeta evaluation), and refine its first
    `count` zeros (all of them without a count): reject any tau whose Newton
    correction |Z/Z'| exceeds 0.05, refine the rest to context precision by
    the certification locate_zeros uses, from a bracket of four corrections,
    and require the tau of row i in the scan's bracket of zero #i + 1.  The
    pass that gives the correction is Newton's first step where Newton starts
    at the tau read."""
    with open(path, "r", encoding="utf-8") as f:
        _, rows = _parse_zeros(f.read(), ctx)
    if count is not None:
        rows = _prefix(rows, count)
    engine = engine_for(ctx)
    brackets = _scan_brackets(engine, len(rows))[0]

    def refine(i):
        line_no, t0, _ = rows[i]
        check = engine.hardy_z_with_deriv(t0)
        z, zd, _ = check
        newton = abs(z / zd) if zd != 0 else ctx.mp.inf
        if newton > 0.05:
            raise ZeroImportError(line_no, f"residual check failed: |Z/Z'| = {float(newton):.3g}")
        step = newton * 4 + ctx.mp.mpf("1e-7")
        lo, hi = t0 - step, t0 + step
        tau, zp = _certify(engine, lo, hi, _signed_z(engine, lo), _signed_z(engine, hi),
                           (t0, check))
        _check_bracket(brackets, i, tau, f"line {line_no}")
        return tau, zp

    return _store(_split_map(refine, len(rows), ctx.mp))


# -- cache -------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _cached_store(data: bytes, count: int, ctx: NumericContext) -> ZeroStore:
    """The store a cache file's bytes hold, kept for the next load of the same
    bytes.  Raises ZeroImportError where they fail _parse_zeros, carry no
    checksum, are for another precision or another count, or lack a zeta'."""
    header, rows = _parse_zeros(data.decode("utf-8"), ctx)
    if (header.get("precision_bits") != str(ctx.precision_bits) or "checksum" not in header
            or len(rows) != count):
        raise ZeroImportError(0, "header mismatch")
    for line_no, _, zp in rows:
        if zp is None:
            raise ZeroImportError(line_no, "missing zeta'")
    return _store(row[1:] for row in rows)


def _load_cache(path, count: int, ctx: NumericContext) -> ZeroStore | None:
    """The cached store at `path` (_cached_store), or None, with a warning,
    if the file does not hold it.  A file that fails warns on every load."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return _cached_store(data, count, ctx)
    except ZeroImportError as err:
        warnings.warn(f"zeros cache {path}: {err}, recomputing")
        return None


def load_or_compute(count: int, ctx: NumericContext, cache_dir=None) -> ZeroStore:
    """locate_zeros with a text-file cache keyed by (count, precision_bits).
    The cache files at this precision that hold at least `count` zeros are
    tried smallest count first, and the first that _load_cache accepts serves
    its prefix.  A located store already holds what its cache file holds
    (_certify), so a run with no cache, a cold and a warm one print the same
    bytes.  A count out of range goes straight to locate_zeros, which rejects it."""
    if cache_dir is None or not 1 <= count <= MAX_COUNT:
        return locate_zeros(count, ctx)
    os.makedirs(cache_dir, exist_ok=True)
    held = (re.fullmatch(rf"zeros_n(\d+)_p{ctx.precision_bits}\.txt", name)
            for name in os.listdir(cache_dir))
    for n, name in sorted((int(m[1]), m[0]) for m in held if m and int(m[1]) >= count):
        cached = _load_cache(os.path.join(cache_dir, name), n, ctx)
        if cached is not None:
            return cached.prefix(count)
    store = locate_zeros(count, ctx)
    export_zeros(store, os.path.join(cache_dir, f"zeros_n{count}_p{ctx.precision_bits}.txt"),
                 ctx, include_zeta_prime=True)
    return store

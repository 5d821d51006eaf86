"""Locate, exchange, and cache the low nontrivial zeros of zeta on the
critical line.

Zeros are found as sign changes of the Hardy Z function on one scan grid
from t = 10, whose step at t is 1/SCAN_CELLS of the mean zero spacing
2 pi / log(t / 2 pi).  Located and imported zeros
take one refinement path, _certify: bisection of the sign-change bracket to
width 1e-4 (it only reads signs), Newton on Z at full precision inside the
bracket, then a certificate that Z changes sign across [tau - e, tau + e],
e = 2^(10 - precision_bits).  Each full-precision pass
(ZetaEngine.hardy_z_with_deriv) gives Z, Z' and zeta'(1/2 + i tau) at once,
and tau's pass is Newton's last one wherever Newton's last step leaves tau
unchanged (one more pass where it moved tau).  That pass gives the residual
Z(tau), the cached zeta'(1/2 + i tau) and the certificate, _taylor_certifies:
|Z(tau)| plus its error bound plus e^2 M/2, M >= |Z''| near tau (_z2_bound),
below e |Z'(tau)| minus its error bound.  It accepts every stored tau of
the tests (500 zeros at 192 bits, 30 at 96); where it does not hold, a
full-precision bisection of the bracket down to e gives tau, and one pass
at its midpoint.
So a located zero costs its Newton passes (4 at 96 bits, 5 at 192 for the
first zeros), and an imported one two: the import check at the tau read,
which is Newton's first step, and the pass at the tau Newton moves to.
The certificate is for the refined tau; _certify returns tau and zeta' as
a zeros file holds them (rounded to the ctx.dps digits export_zeros writes,
read back at working precision): it moves tau by half a unit in the last
digit at most, which is under e/2 for every tau < 10^4, so for every zero
up to MAX_COUNT.

Every sign the scan and the bisections read comes from _signed_z: Z in
double precision with a proven error bound (zetafn._hardy_z_float), used
only where |Z| exceeds the bound, else Z at full precision.  Where the bound
proves a sign, it is the sign of Z and so the one full precision gives, so
every bracket, midpoint, Newton start and tau is what a scan at full
precision alone yields.  A zero run reads every sign, theta and Z from one
engine, engine_for(ctx).
locate_zeros and import_zeros return a store only if the running count of
the refined zeros matches the smoothed zero-counting function
round(theta(T)/pi + 1) within +-1 at every prefix; that window accepts a
list with one zero missing, or with two where the gap between them is short
(zeros #922 and #923), so for located zeros it is the grid, not the count,
that finds every zero.  A cache load runs no count check: _load_cache checks
the header, the checksum, the number of rows and each zeta' line.

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
keeps each cache store it accepted, with the sha256 of the file's bytes,
and serves it again while the file hashes the same, so repeated warm calls
in one process parse the file once.
"""

from __future__ import annotations

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

SCAN_START = 10.0
# Scan cells per mean zero spacing.  Verified up to MAX_COUNT against
# mpmath.nzeros (test_scan_finds_every_zero_up_to_max_count): the 2000th
# bracket ends at T = 2515.3 and nzeros(T) = 2000.  The closest pair below,
# zeros #1496 and #1497, lies 0.089 of a mean spacing apart; 8 cells miss it.
SCAN_CELLS = 20
MAX_COUNT = 2000
SIMPLICITY_FLOOR = 1e-15
# bracket width at which Newton takes over from bisection
NEWTON_WIDTH = "1e-4"
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


@dataclass(frozen=True)
class ZeroStore:
    records: tuple

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, idx):
        return self.records[idx]

    def prefix(self, n: int) -> "ZeroStore":
        return ZeroStore(_prefix(self.records, n))


def _prefix(items, n: int):
    """The first n of a store's items, for 1 <= n <= len(items)."""
    if not 1 <= n <= len(items):
        raise ValueError(f"store holds {len(items)} zeros, {n} requested")
    return items[:n]


def _expected_count(engine: ZetaEngine, tau):
    """Smoothed counting function round(theta(T)/pi + 1)."""
    mp = engine.ctx.mp
    return int(mp.nint(engine.riemann_siegel_theta(tau) / mp.pi + 1))


def _check_counts(engine: ZetaEngine, taus) -> int | None:
    """Index of the first prefix violating the +-1 count window, else None."""
    for k, tau in enumerate(taus, start=1):
        if abs(k - _expected_count(engine, tau)) > 1:
            return k
    return None


def _signed_z(engine: ZetaEngine, t):
    """A number with the sign of Z(t): the double-precision Z where its error
    bound proves the sign, else engine.hardy_z(t).  Either way the sign is
    the one engine.hardy_z(t) has, whose error lies far below the bound."""
    value, bound = _hardy_z_float(t)
    return value if abs(value) > bound else engine.hardy_z(t)


def _scan_brackets(engine: ZetaEngine, count: int):
    """Sign-change brackets (lo, hi, Z(lo), Z(hi)) of Z on the scan grid until
    `count` are found; a grid point where Z vanishes is its own bracket.  The
    step at t is 2 pi / (SCAN_CELLS log(t / 2 pi)), and every grid point is a
    double, so the grid is the same at every precision."""
    mp = engine.ctx.mp
    t = mp.mpf(SCAN_START)
    z_prev = _signed_z(engine, t)
    brackets = []
    while len(brackets) < count:
        t_next = mp.mpf(float(t) + 2 * math.pi / (SCAN_CELLS * math.log(float(t) / (2 * math.pi))))
        z_next = _signed_z(engine, t_next)
        if z_prev == 0:
            brackets.append((t, t, z_prev, z_prev))
        elif z_prev * z_next < 0:
            brackets.append((t, t_next, z_prev, z_next))
        t, z_prev = t_next, z_next
    return brackets


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


def _certify(engine: ZetaEngine, lo, hi, z_lo, z_hi, start=None):
    """(tau, zeta'(1/2 + i tau)), as a zeros file holds them, for the zero in
    the sign-change bracket [lo, hi], where z_lo and z_hi have the signs of
    Z(lo) and Z(hi).  start = (t, engine.hardy_z_with_deriv(t)) is a pass
    already made.  The steps, the certificate and the rounding are in the
    module docstring."""
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
    tau = (lo + hi) / 2
    for _ in range(80):
        z, zd, _ = derivs(tau)
        if zd == 0:
            break
        delta = z / zd
        if not lo <= tau - delta <= hi:
            break  # Newton left the bracket; the certificate below decides
        tau -= delta
        if abs(delta) < e / 4:
            break
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


def _store(pairs) -> ZeroStore:
    """The ZeroStore of (tau, zeta') pairs."""
    return ZeroStore(tuple(ZeroRecord(tau, zp) for tau, zp in pairs))


def _counted(engine: ZetaEngine, store: ZeroStore) -> ZeroStore:
    """The store, if every prefix passes _check_counts; else MissedZeroError
    naming the first failing prefix and the interval it ends with."""
    bad = _check_counts(engine, [r.tau for r in store])
    if bad is not None:
        lo = float(store[bad - 2].tau) if bad >= 2 else SCAN_START
        raise MissedZeroError(f"count check fails at prefix {bad}; suspect interval "
                              f"({lo:.4f}, {float(store[bad - 1].tau):.4f})")
    return store


def locate_zeros(count: int, ctx: NumericContext) -> ZeroStore:
    """First `count` critical-line zeros, refined at context precision."""
    if not 1 <= count <= MAX_COUNT:
        raise ValueError(f"count must be in [1, {MAX_COUNT}]")
    engine = engine_for(ctx)
    brackets = _scan_brackets(engine, count)

    def refine(i):
        return _certify(engine, *brackets[i])

    return _counted(engine, _store(_split_map(refine, len(brackets), ctx.mp)))


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
    """(header fields, [(line_no, tau, zeta' or None)]) of a zeros file's
    text, each value read at context precision, zeta' from the "# zp" line
    after tau.  Raises ZeroImportError for a file without zeros, an
    unparseable record, a non-positive or non-ascending tau, or a payload
    that no longer matches the header's checksum (when the header carries
    one).  Nothing here evaluates zeta."""
    header, lines, payload = {}, [], []
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
            lines.append([line_no, line, None])
        elif len(body) == 3 and body[0] == "zp" and lines:
            lines[-1][2] = body[1:]
    if not lines:
        raise ZeroImportError(0, "no zeros in file")
    # values are read after the line scan, each tau next to its zeta': read
    # during the scan, they raised the peak RSS of a warm 500-zero verify run
    # by about 0.6 MB (heap layout; the live data is the same)
    mp = ctx.mp
    rows = []
    for line_no, line, zp in lines:
        try:
            tau = mp.mpf(line)
            zp = None if zp is None else mp.mpc(mp.mpf(zp[0]), mp.mpf(zp[1]))
        except ValueError:
            raise ZeroImportError(line_no, f"unparseable record {line!r}") from None
        if not tau > 0:
            raise ZeroImportError(line_no, "tau must be positive")
        if rows and not tau > rows[-1][1]:
            raise ZeroImportError(line_no, f"non-monotone tau {line}")
        rows.append((line_no, tau, zp))
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
    and count-check them.  The pass that gives the correction is Newton's
    first step where Newton starts at the tau read."""
    with open(path, "r", encoding="utf-8") as f:
        _, rows = _parse_zeros(f.read(), ctx)
    if count is not None:
        rows = _prefix(rows, count)
    engine = engine_for(ctx)

    def refine(i):
        line_no, t0, _ = rows[i]
        check = engine.hardy_z_with_deriv(t0)
        z, zd, _ = check
        newton = abs(z / zd) if zd != 0 else ctx.mp.inf
        if newton > 0.05:
            raise ZeroImportError(line_no, f"residual check failed: |Z/Z'| = {float(newton):.3g}")
        step = newton * 4 + ctx.mp.mpf("1e-7")
        lo, hi = t0 - step, t0 + step
        return _certify(engine, lo, hi, _signed_z(engine, lo), _signed_z(engine, hi), (t0, check))

    return _counted(engine, _store(_split_map(refine, len(rows), ctx.mp)))


# -- cache -------------------------------------------------------------------


# (path, precision_bits) -> (sha256 of the file's bytes, count, the store
# _load_cache accepted from them): a process parses a cache file once, and
# again only after its bytes change, whatever its size and mtime say
_loaded = {}


def _load_cache(path, count: int, ctx: NumericContext) -> ZeroStore | None:
    """The cached store at `path`, or None, with a warning, if it fails
    _parse_zeros or does not hold this store.  A store accepted is kept
    (_loaded) and served while the file's bytes hash the same; a file that
    fails is read, and warns, on every load."""
    with open(path, "rb") as f:
        data = f.read()
    key = os.fspath(path), ctx.precision_bits
    digest = hashlib.sha256(data).digest()
    held = _loaded.get(key)
    if held is not None and held[:2] == (digest, count):
        return held[2]
    try:
        header, rows = _parse_zeros(data.decode("utf-8"), ctx)
    except ZeroImportError as err:
        warnings.warn(f"zeros cache {path}: {err}, recomputing")
        return None
    if (header.get("precision_bits") != str(ctx.precision_bits) or "checksum" not in header
            or len(rows) != count):
        warnings.warn(f"zeros cache {path}: header mismatch, recomputing")
        return None
    for line_no, _, zp in rows:
        if zp is None:
            warnings.warn(f"zeros cache {path}: missing zeta' at line {line_no}, recomputing")
            return None
    store = _store(row[1:] for row in rows)
    _loaded[key] = digest, count, store
    return store


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

"""Locate, exchange, and cache the low nontrivial zeros of zeta on the
critical line.

Zeros are found as sign changes of the Hardy Z function on a fixed scan
grid (step 0.25 from t = 10, fallback 0.05).  Located and imported zeros
take one refinement path, _certify: bisection of the sign-change bracket to
width 1e-4 (it only reads signs), Newton on Z at full precision inside the
bracket, then a full-precision sign change of Z across [tau - e, tau + e],
e = 2^(10 - precision_bits), as the certificate; should that fail, a
full-precision bisection down to e.  One fused zeta/zeta' pass gives the
residual Z(tau) and the cached zeta'(1/2 + i tau).  The certificate is for
the refined tau; _certify returns tau and zeta' as a zeros file holds them
(rounded to the ctx.dps digits export_zeros writes, read back at working
precision): it moves tau by half a unit in the last digit at most, which is
under e/2 for every tau < 10^4, so for every zero up to MAX_COUNT.

Every sign the scan and the bisections read comes from _signed_z: Z in
double precision with a proven error bound (zetafn._hardy_z_float), used
only where |Z| exceeds the bound, else Z at full precision.  Where the bound
proves a sign, it is the sign of Z and so the one full precision gives, so
every bracket, midpoint, Newton start and tau is what a scan at full
precision alone yields.  A zero run reads every sign, theta and Z from one
engine, engine_for(ctx).
locate_zeros and import_zeros return a store only if the running count
matches the smoothed zero-counting function round(theta(T)/pi + 1) within
+-1 at every prefix.  A cache load runs no count check: _load_cache checks
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
reader, _read_zeros, which rejects an unparseable, non-positive or
non-ascending tau and a checksum mismatch before any zeta evaluation; a
cache load warns and recomputes instead.  Cache files also carry per-record
"# zp <re> <im>" lines so warm loads skip all zeta evaluations.
"""

from __future__ import annotations

import hashlib
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
SCAN_STEP = 0.25
# The coarse grid misses two zeros that share one cell: zeros #922 and #923
# (tau ~ 1329.04 and 1329.21) both lie in [1329.00, 1329.25], where Z is
# positive at both ends.  The count check sees the pair missing, and the fine
# rescan recovers it, for every count from 922 up to MAX_COUNT.
SCAN_STEP_FINE = 0.05
MAX_COUNT = 2000
SIMPLICITY_FLOOR = 1e-15
# bracket width at which Newton takes over from bisection
NEWTON_WIDTH = "1e-4"


class MissedZeroError(RuntimeError):
    """Zero count disagrees with the counting function even after a fine rescan."""


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
    """One critical-line zero rho = 1/2 + i tau with cached zeta'(rho)."""

    index: int
    tau: object
    zeta_prime: object


@dataclass(frozen=True)
class ZeroStore:
    records: tuple
    source: str  # "computed" or "imported"

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, idx):
        return self.records[idx]

    def prefix(self, n: int) -> "ZeroStore":
        if not 1 <= n <= len(self.records):
            raise ValueError(f"store holds {len(self.records)} zeros, {n} requested")
        return ZeroStore(self.records[:n], self.source)


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


def _scan_brackets(engine: ZetaEngine, count: int, step):
    """Sign-change brackets (lo, hi, Z(lo), Z(hi)) of Z on the scan grid until
    `count` are found; a grid point where Z vanishes is its own bracket."""
    mp = engine.ctx.mp
    step = mp.mpf(step)
    t = mp.mpf(SCAN_START)
    z_prev = _signed_z(engine, t)
    brackets = []
    while len(brackets) < count:
        t_next = t + step
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


def _certify(engine: ZetaEngine, lo, hi, z_lo, z_hi):
    """(tau, zeta'(1/2 + i tau)), as a zeros file holds them, for the zero in
    the sign-change bracket [lo, hi], where z_lo and z_hi have the signs of
    Z(lo) and Z(hi); the steps and the rounding are in the module docstring."""
    e = engine.ctx.target_tol
    lo, hi = _bisect(engine, lo, hi, z_lo, z_hi, engine.ctx.mp.mpf(NEWTON_WIDTH))
    tau = (lo + hi) / 2
    for _ in range(80):
        z, zd = engine.hardy_z_with_deriv(tau)
        if zd == 0:
            break
        delta = z / zd
        if not lo <= tau - delta <= hi:
            break  # Newton left the bracket; the certificate below decides
        tau -= delta
        if abs(delta) < e / 4:
            break
    if not engine.hardy_z(tau - e) * engine.hardy_z(tau + e) < 0:
        lo, hi = _bisect(engine, lo, hi, _signed_z(engine, lo), _signed_z(engine, hi), e)
        tau = (lo + hi) / 2
    z, zp = engine.hardy_z_and_zeta_deriv(tau)
    if abs(zp) < SIMPLICITY_FLOOR:
        raise MultipleZeroError(f"|zeta'(rho)| = {float(abs(zp)):.3g} at tau = {float(tau):.9f}")
    if not abs(z) < 1000 * e * abs(zp):
        raise MissedZeroError(
            f"residual {float(abs(z)):.3g} inconsistent with enclosure at tau = {float(tau):.9f}")
    re_zp, im_zp = _zp_fields(engine.ctx, zp)  # read back as _read_zeros reads them
    mp = engine.ctx.mp
    return mp.mpf(engine.ctx.nstr(tau)), mp.mpc(mp.mpf(re_zp), mp.mpf(im_zp))


def _records(refined) -> tuple:
    """ZeroRecords, numbered from 1, of (tau, zeta') pairs."""
    return tuple(ZeroRecord(i, tau, zp) for i, (tau, zp) in enumerate(refined, start=1))


def locate_zeros(count: int, ctx: NumericContext) -> ZeroStore:
    """First `count` critical-line zeros, refined at context precision."""
    if not 1 <= count <= MAX_COUNT:
        raise ValueError(f"count must be in [1, {MAX_COUNT}]")
    engine = engine_for(ctx)
    for step in (SCAN_STEP, SCAN_STEP_FINE):
        brackets = _scan_brackets(engine, count, step)
        taus_rough = [(lo + hi) / 2 for lo, hi, _, _ in brackets]
        bad = _check_counts(engine, taus_rough)
        if bad is None:
            break
    else:
        lo = float(taus_rough[bad - 2]) if bad >= 2 else SCAN_START
        hi = float(taus_rough[bad - 1])
        raise MissedZeroError(
            f"count check fails at prefix {bad}; suspect interval ({lo:.4f}, {hi:.4f})")

    def refine(i):
        return _certify(engine, *brackets[i])

    records = _records(_split_map(refine, len(brackets), ctx.mp))
    bad = _check_counts(engine, [r.tau for r in records])
    if bad is not None:
        raise MissedZeroError(f"count check fails at prefix {bad} after refinement")
    return ZeroStore(records, "computed")


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


def _read_zeros(path, ctx: NumericContext):
    """(header fields, [(line_no, tau, zeta' or None)]) of a zeros file, each
    value read at context precision, zeta' from the "# zp" line after tau.
    Raises ZeroImportError for a file without zeros, an unparseable record,
    a non-positive or non-ascending tau, or a payload that no longer matches
    the header's checksum (when the header carries one).  Nothing here
    evaluates zeta."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
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


def import_zeros(path, ctx: NumericContext) -> ZeroStore:
    """Read a zeros table (_read_zeros: every format check and the checksum
    run before any zeta evaluation), reject any tau whose Newton correction
    |Z/Z'| exceeds 0.05, and refine the rest to context precision by the
    certification locate_zeros uses, from a bracket of four corrections."""
    _, rows = _read_zeros(path, ctx)
    engine = engine_for(ctx)

    def refine(i):
        line_no, t0, _ = rows[i]
        z, zd = engine.hardy_z_with_deriv(t0)
        newton = abs(z / zd) if zd != 0 else ctx.mp.inf
        if newton > 0.05:
            raise ZeroImportError(line_no, f"residual check failed: |Z/Z'| = {float(newton):.3g}")
        step = newton * 4 + ctx.mp.mpf("1e-7")
        lo, hi = t0 - step, t0 + step
        return _certify(engine, lo, hi, _signed_z(engine, lo), _signed_z(engine, hi))

    records = _records(_split_map(refine, len(rows), ctx.mp))
    bad = _check_counts(engine, [r.tau for r in records])
    if bad is not None:
        raise MissedZeroError(f"imported table fails the count check at prefix {bad}")
    return ZeroStore(records, "imported")


# -- cache -------------------------------------------------------------------


def _load_cache(path, count: int, ctx: NumericContext) -> ZeroStore | None:
    """The cached store at `path`, or None, with a warning, if it fails
    _read_zeros or does not hold this store."""
    try:
        header, rows = _read_zeros(path, ctx)
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
    return ZeroStore(_records(row[1:] for row in rows), "computed")


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

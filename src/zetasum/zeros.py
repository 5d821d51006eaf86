"""Locate, exchange, and cache the low nontrivial zeros of zeta on the
critical line.

Zeros are found as sign changes of the Hardy Z function on a fixed scan
grid (step 0.25 from t = 10, fallback 0.05).  Scan and bisection down to
width 1e-4 only read signs, so both run at 96 bits at most; Newton steps on
Z at full precision, each one fused zeta/zeta' pass, then polish the
midpoint, and a sign change across the claimed enclosure [tau - e, tau + e],
e = 2^(10 - precision_bits), certifies it.  Every record caches
zeta'(1/2 + i tau), taken from the pass that computes the residual Z(tau).
A store is only returned if the running count matches the smoothed
zero-counting function round(theta(T)/pi + 1) within +-1 at every prefix.

File format (import/export and cache): UTF-8 text, one decimal tau per
line in ascending order, '#' comment lines allowed, export header
"# precision_bits=<n> checksum=<hex>"; import and cache loads reject a
payload that no longer matches that checksum.  Cache files additionally carry
per-record "# zp <re> <im>" comment lines so warm loads skip all zeta
evaluations.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings
from dataclasses import dataclass

from .numctx import NumericContext
from .zetafn import ZetaEngine, engine_for

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
    err_bound: object
    zeta_prime: object
    precision_bits: int


@dataclass(frozen=True)
class ZeroStore:
    records: tuple
    source: str  # "computed" or "imported"
    generated_with: int

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, idx):
        return self.records[idx]

    def prefix(self, n: int) -> "ZeroStore":
        if n > len(self.records):
            raise ValueError(f"store holds {len(self.records)} zeros, {n} requested")
        return ZeroStore(self.records[:n], self.source, self.generated_with)


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


def _scan_brackets(engine: ZetaEngine, count: int, step):
    """Sign-change brackets of Z on the scan grid until `count` are found."""
    mp = engine.ctx.mp
    step = mp.mpf(step)
    t = mp.mpf(SCAN_START)
    z_prev = engine.hardy_z(t)
    brackets = []
    while len(brackets) < count:
        t_next = t + step
        z_next = engine.hardy_z(t_next)
        if z_prev == 0:
            brackets.append((t - step / 2, t + step / 2))
        elif z_prev * z_next < 0:
            brackets.append((t, t_next))
        t, z_prev = t_next, z_next
    return brackets


def _bisect(engine: ZetaEngine, lo, hi, z_lo, width):
    """Halve the sign-change bracket [lo, hi] (Z(lo) = z_lo) until it is at
    most `width` wide; returns (lo, hi, z_lo), with lo = hi where Z vanishes."""
    while hi - lo > width:
        mid = (lo + hi) / 2
        z_mid = engine.hardy_z(mid)
        if z_mid == 0:
            return mid, mid, z_mid
        if z_lo * z_mid < 0:
            hi = mid
        else:
            lo, z_lo = mid, z_mid
    return lo, hi, z_lo


def _narrow(scanner: ZetaEngine, lo, hi):
    """Bisect a scan bracket to NEWTON_WIDTH by the sign of Z on the scanner.
    lo and hi carry the refining precision, so every midpoint is the one a
    bisection at that precision would take."""
    width = scanner.ctx.mp.mpf(NEWTON_WIDTH)
    lo, hi, _ = _bisect(scanner, lo, hi, scanner.hardy_z(lo), width)
    return lo, hi


def _refine(engine: ZetaEngine, lo, hi):
    """Bisection + Newton to the enclosure target; returns (tau, err_bound,
    |Z(tau)|, zeta'(1/2 + i tau)), the last two from one fused pass."""
    target = engine.ctx.mp.mpf(2) ** (10 - engine.ctx.precision_bits)
    tau = _certified_tau(engine, lo, hi, target)
    z, zp = engine.hardy_z_and_zeta_deriv(tau)
    return tau, target, abs(z), zp


def _certified_tau(engine: ZetaEngine, lo, hi, target):
    """tau with a sign change of Z across [tau - target, tau + target]."""
    mp = engine.ctx.mp
    z_lo = engine.hardy_z(lo)
    z_hi = engine.hardy_z(hi)
    if z_lo == 0:
        return lo
    if z_hi == 0:
        return hi
    if z_lo * z_hi > 0:
        raise MissedZeroError(f"no sign change in ({float(lo):.6f}, {float(hi):.6f})")
    lo, hi, z_lo = _bisect(engine, lo, hi, z_lo, mp.mpf(NEWTON_WIDTH))
    t = (lo + hi) / 2
    for _ in range(80):
        z_t, zd_t = engine.hardy_z_with_deriv(t)
        if zd_t == 0:
            break
        delta = z_t / zd_t
        t_new = t - delta
        if not (lo - 1 < t_new < hi + 1):
            break  # Newton escaped; bisection fallback below
        t = t_new
        if abs(delta) < target / 4:
            break
    if engine.hardy_z(t - target) * engine.hardy_z(t + target) < 0:
        return t
    # fallback: certified bisection all the way down
    lo, hi, _ = _bisect(engine, lo, hi, z_lo, target)
    return (lo + hi) / 2


def _build_records(engine: ZetaEngine, scanner: ZetaEngine, brackets):
    mp = engine.ctx.mp
    records = []
    for i, (lo, hi) in enumerate(brackets, start=1):
        tau, err, resid, zp = _refine(engine, *_narrow(scanner, mp.mpf(lo), mp.mpf(hi)))
        if abs(zp) < SIMPLICITY_FLOOR:
            raise MultipleZeroError(
                f"|zeta'(rho)| = {float(abs(zp)):.3g} at tau = {float(tau):.9f}")
        if not resid < 1000 * err * abs(zp):
            raise MissedZeroError(
                f"residual {float(resid):.3g} inconsistent with enclosure at tau = {float(tau):.9f}")
        records.append(ZeroRecord(i, tau, err, zp, engine.ctx.precision_bits))
    return records


def locate_zeros(count: int, ctx: NumericContext) -> ZeroStore:
    """First `count` critical-line zeros, refined at context precision."""
    if not 1 <= count <= MAX_COUNT:
        raise ValueError(f"count must be in [1, {MAX_COUNT}]")
    engine = engine_for(ctx)
    # bracketing only needs a few good digits; refine at full precision
    scanner = engine_for(ctx if ctx.precision_bits <= 96 else NumericContext(96))
    brackets = _scan_brackets(scanner, count, SCAN_STEP)
    taus_rough = [(lo + hi) / 2 for lo, hi in brackets]
    if _check_counts(scanner, taus_rough) is not None:
        brackets = _scan_brackets(scanner, count, SCAN_STEP_FINE)
        taus_rough = [(lo + hi) / 2 for lo, hi in brackets]
        bad = _check_counts(scanner, taus_rough)
        if bad is not None:
            lo = float(taus_rough[bad - 2]) if bad >= 2 else SCAN_START
            hi = float(taus_rough[bad - 1])
            raise MissedZeroError(
                f"count check fails at prefix {bad}; suspect interval ({lo:.4f}, {hi:.4f})")
    records = _build_records(engine, scanner, brackets)
    bad = _check_counts(engine, [r.tau for r in records])
    if bad is not None:
        raise MissedZeroError(f"count check fails at prefix {bad} after refinement")
    return ZeroStore(tuple(records), "computed", ctx.precision_bits)


# -- text format -------------------------------------------------------------


def _format_tau(ctx: NumericContext, tau) -> str:
    return ctx.mp.nstr(tau, ctx.dps, strip_zeros=False)


def _checksum(payload_lines) -> str:
    h = hashlib.sha256("\n".join(payload_lines).encode("utf-8"))
    return h.hexdigest()[:16]


def _payload_checksum(text: str) -> str:
    """_checksum of the lines export_zeros hashed: every non-empty line but the header."""
    lines = (raw.strip() for raw in text.splitlines())
    return _checksum([line for line in lines if line and not line.startswith("# precision_bits=")])


def export_zeros(store: ZeroStore, path, ctx: NumericContext | None = None,
                 include_zeta_prime: bool = False) -> None:
    """Write the store as zeros-format text (header + ascending tau lines)."""
    if ctx is None:
        ctx = NumericContext(store.generated_with)
    lines = []
    for rec in store.records:
        lines.append(_format_tau(ctx, rec.tau))
        if include_zeta_prime:
            mp = ctx.mp
            lines.append(f"# zp {mp.nstr(mp.re(rec.zeta_prime), ctx.dps)} "
                         f"{mp.nstr(mp.im(rec.zeta_prime), ctx.dps)}")
    header = f"# precision_bits={store.generated_with} checksum={_checksum(lines)}"
    text = header + "\n" + "\n".join(lines) + "\n"
    _atomic_write(path, text)


def _atomic_write(path, text: str) -> None:
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".zeros-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_zeros_text(text: str):
    """(header_fields, [(line_no, tau_str)], [(line_no, zp_pair or None)])."""
    header = {}
    taus = []
    zps = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("precision_bits="):
                for field in body.split():
                    if "=" in field:
                        k, v = field.split("=", 1)
                        header[k] = v
            elif body.startswith("zp "):
                parts = body.split()
                if len(parts) == 3 and taus:
                    zps.append((taus[-1][0], (parts[1], parts[2])))
            continue
        taus.append((line_no, line))
    return header, taus, zps


def import_zeros(path, ctx: NumericContext) -> ZeroStore:
    """Read a zeros table, revalidate each tau, refine it to context precision,
    and recompute zeta'(rho).  Rejects non-monotone input, a payload that no
    longer matches the header's checksum (when the header carries one), and
    any tau whose Newton correction |Z/Z'| exceeds 0.05 (residual inconsistent
    with a zero).  The first two checks run before any zeta evaluation."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    header, tau_lines, _ = _parse_zeros_text(text)
    if not tau_lines:
        raise ZeroImportError(0, "no zeros in file")
    mp = ctx.mp
    taus = []
    for line_no, tau_str in tau_lines:
        try:
            t0 = mp.mpf(tau_str)
        except ValueError:
            raise ZeroImportError(line_no, f"unparseable value {tau_str!r}") from None
        if not t0 > 0:
            raise ZeroImportError(line_no, "tau must be positive")
        if taus and not t0 > taus[-1]:
            raise ZeroImportError(line_no, f"non-monotone tau {tau_str}")
        taus.append(t0)
    payload = _payload_checksum(text)
    if "checksum" in header and header["checksum"] != payload:
        raise ZeroImportError(0, f"checksum mismatch: header says {header['checksum']}, "
                                 f"payload hashes to {payload}")
    engine = engine_for(ctx)
    records = []
    for idx, ((line_no, _), t0) in enumerate(zip(tau_lines, taus), start=1):
        z, zd = engine.hardy_z_with_deriv(t0)
        if zd == 0 or abs(z / zd) > 0.05:
            raise ZeroImportError(line_no, f"residual check failed: |Z/Z'| = "
                                           f"{float(abs(z / zd)) if zd != 0 else float('inf'):.3g}")
        step = abs(z / zd) * 4 + mp.mpf("1e-7")
        tau, err, _, zp = _refine(engine, t0 - step, t0 + step)
        if abs(zp) < SIMPLICITY_FLOOR:
            raise MultipleZeroError(f"|zeta'(rho)| below simplicity floor at line {line_no}")
        records.append(ZeroRecord(idx, tau, err, zp, ctx.precision_bits))
    store = ZeroStore(tuple(records), "imported", ctx.precision_bits)
    bad = _check_counts(engine, [r.tau for r in records])
    if bad is not None:
        raise MissedZeroError(f"imported table fails the count check at prefix {bad}")
    return store


# -- cache -------------------------------------------------------------------


def _cache_path(cache_dir, count: int, precision_bits: int) -> str:
    return os.path.join(os.fspath(cache_dir), f"zeros_n{count}_p{precision_bits}.txt")


def _load_cache(path, count: int, ctx: NumericContext) -> ZeroStore | None:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    header, tau_lines, zp_lines = _parse_zeros_text(text)
    if header.get("checksum") != _payload_checksum(text):
        warnings.warn(f"zeros cache {path}: checksum mismatch, recomputing")
        return None
    if header.get("precision_bits") != str(ctx.precision_bits) or len(tau_lines) != count:
        warnings.warn(f"zeros cache {path}: header mismatch, recomputing")
        return None
    zp_by_line = dict(zp_lines)
    mp = ctx.mp
    records = []
    err = mp.mpf(2) ** (10 - ctx.precision_bits)
    for idx, (line_no, tau_str) in enumerate(tau_lines, start=1):
        zp = zp_by_line.get(line_no)
        if zp is None:
            warnings.warn(f"zeros cache {path}: missing zeta' at line {line_no}, recomputing")
            return None
        records.append(ZeroRecord(idx, mp.mpf(tau_str), err,
                                  mp.mpc(mp.mpf(zp[0]), mp.mpf(zp[1])), ctx.precision_bits))
    return ZeroStore(tuple(records), "computed", ctx.precision_bits)


def load_or_compute(count: int, ctx: NumericContext, cache_dir=None) -> ZeroStore:
    """locate_zeros with a text-file cache keyed by (count, precision_bits)."""
    if cache_dir is None:
        return locate_zeros(count, ctx)
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, count, ctx.precision_bits)
    cached = _load_cache(path, count, ctx)
    if cached is not None:
        return cached
    # a longer cached run at the same precision also serves any prefix
    for name in sorted(os.listdir(cache_dir)):
        if name.startswith("zeros_n") and name.endswith(f"_p{ctx.precision_bits}.txt"):
            try:
                bigger = int(name.split("_n")[1].split("_p")[0])
            except ValueError:
                continue
            if bigger > count:
                big = _load_cache(os.path.join(cache_dir, name), bigger, ctx)
                if big is not None:
                    return big.prefix(count)
    store = locate_zeros(count, ctx)
    export_zeros(store, path, ctx, include_zeta_prime=True)
    return store

import math
import os

import mpmath
import pytest
from conftest import SPLITS, assert_no_child, one_cpu

from zetasum import zeros as zeros_mod
from zetasum.numctx import NumericContext
from zetasum.zetafn import ZetaEngine, _raw, _split_map
from zetasum.zeros import (ZeroImportError, ZeroStore, export_zeros, import_zeros,
                           load_or_compute, locate_zeros)

# frozen pre-build oracle values (independent zero finder, 30 dps)
TAU_1 = "14.1347251417346937904572519836"
TAU_10 = "49.7738324776723021819167846786"


def test_count_bounds(ctx96):
    with pytest.raises(ValueError):
        locate_zeros(0, ctx96)
    with pytest.raises(ValueError):
        locate_zeros(2001, ctx96)


def test_first_zeros_match_oracle(store30_96, ctx96):
    mp = ctx96.mp
    assert abs(store30_96[0].tau - mp.mpf(TAU_1)) < mp.mpf("1e-12")
    assert abs(store30_96[9].tau - mp.mpf(TAU_10)) < mp.mpf("1e-12")
    assert store30_96[0].tau > 14
    taus = [r.tau for r in store30_96]
    assert all(b > a for a, b in zip(taus, taus[1:]))


def test_store_invariants(store30_96, ctx96):
    engine = ZetaEngine(ctx96)
    mp = ctx96.mp
    residual_cap = mp.mpf(10) ** (6 - 0.3 * ctx96.precision_bits)
    for rec in store30_96:
        z = engine.zeta(mp.mpc(0.5, rec.tau))
        assert abs(z) < 1000 * ctx96.target_tol * abs(rec.zeta_prime)
        assert abs(engine.hardy_z(rec.tau)) < residual_cap
        assert abs(rec.zeta_prime) > 1e-15
    # gap structure at desk scale
    for a, b in zip(store30_96, store30_96.records[1:]):
        assert b.tau - a.tau > 0.5
    # prefix count checks
    for k, rec in enumerate(store30_96, start=1):
        expected = int(mp.nint(engine.riemann_siegel_theta(rec.tau) / mp.pi + 1))
        assert abs(k - expected) <= 1


def test_count_below_100(store30_96):
    assert sum(1 for r in store30_96 if r.tau <= 100) == 29


def test_prefix(store30_96):
    p = store30_96.prefix(5)
    assert len(p) == 5 and p[4].tau == store30_96[4].tau
    for n in (31, 0, -1):  # -1 would drop the last zero
        with pytest.raises(ValueError):
            store30_96.prefix(n)


def test_export_import_roundtrip(store30_96, ctx96, tmp_path):
    path = tmp_path / "zeros.txt"
    export_zeros(store30_96, path, ctx96)
    text = path.read_text()
    assert text.startswith("# precision_bits=96 checksum=")
    back = import_zeros(path, ctx96)
    assert len(back) == len(store30_96)
    for a, b in zip(store30_96, back):
        assert abs(a.tau - b.tau) <= 2 * ctx96.target_tol
        assert abs(a.zeta_prime - b.zeta_prime) < ctx96.mpf("1e-20")


def test_export_deterministic(store30_96, ctx96, tmp_path):
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    export_zeros(store30_96, p1, ctx96)
    export_zeros(store30_96, p2, ctx96)
    assert p1.read_bytes() == p2.read_bytes()


def test_import_rejects_swapped_lines(store30_96, ctx96, tmp_path):
    path = tmp_path / "zeros.txt"
    export_zeros(store30_96.prefix(6), path, ctx96)
    lines = path.read_text().splitlines()
    lines[3], lines[4] = lines[4], lines[3]  # header + taus: swap 3rd/4th zero
    bad = tmp_path / "swapped.txt"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ZeroImportError) as err:
        import_zeros(bad, ctx96)
    assert err.value.line_no == 5


def test_import_rejects_deleted_line_by_checksum(store30_96, ctx96, tmp_path, monkeypatch):
    path = tmp_path / "zeros.txt"
    export_zeros(store30_96.prefix(6), path, ctx96)
    lines = path.read_text().splitlines()
    del lines[3]  # header + taus: drop the 3rd zero, header unchanged
    bad = tmp_path / "missing.txt"
    bad.write_text("\n".join(lines) + "\n")

    def no_zeta_work(*args, **kwargs):
        raise AssertionError("the checksum is compared before any zeta evaluation")

    monkeypatch.setattr(zeros_mod, "engine_for", no_zeta_work)
    with pytest.raises(ZeroImportError, match="checksum"):
        import_zeros(bad, ctx96)


def test_import_rejects_non_zero(ctx96, tmp_path):
    path = tmp_path / "bogus.txt"
    path.write_text("14.9\n")  # not near any zero
    with pytest.raises(ZeroImportError) as err:
        import_zeros(path, ctx96)
    assert err.value.line_no == 1
    assert "residual" in str(err.value)


@pytest.mark.parametrize("decimals", [10, 3])
def test_import_low_precision_then_refine(store30_96, ctx96, tmp_path, decimals):
    # at 3 decimals the import bracket is wider than NEWTON_WIDTH, so it is
    # bisected before Newton; either way the located bytes come back
    located = store30_96.prefix(8)
    path = tmp_path / "coarse.txt"
    path.write_text("".join(f"{float(r.tau):.{decimals}f}\n" for r in located))
    expected, again = tmp_path / "located.txt", tmp_path / "again.txt"
    export_zeros(located, expected, ctx96, include_zeta_prime=True)
    export_zeros(import_zeros(path, ctx96), again, ctx96, include_zeta_prime=True)
    assert again.read_bytes() == expected.read_bytes()


def test_prefix_import_refines_the_prefix_only(store30_96, ctx96, hardy_passes, tmp_path):
    # the format and the checksum are checked over the whole file, but only
    # the first `count` zeros are refined (two passes each) and count-checked
    path = tmp_path / "zeros.txt"
    export_zeros(store30_96.prefix(12), path, ctx96)
    full = import_zeros(path, ctx96)
    del hardy_passes[:]
    prefix = import_zeros(path, ctx96, count=3)
    assert len(hardy_passes) == 2 * 3
    assert [(_raw(r.tau), _raw(r.zeta_prime)) for r in prefix] == [
        (_raw(r.tau), _raw(r.zeta_prime)) for r in full.prefix(3)]
    for count in (0, 13):
        with pytest.raises(ValueError, match=f"12 zeros, {count} requested"):
            import_zeros(path, ctx96, count=count)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1][:-1] + ("1" if lines[-1][-1] != "1" else "2")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ZeroImportError, match="checksum"):
        import_zeros(path, ctx96, count=3)


def test_certify_falls_back_to_full_precision_bisection(store30_96, ctx96, monkeypatch):
    # with Z' = 0 Newton stops at once, the Taylor certificate fails at the
    # midpoint of the 1e-4 bracket, and the bracket is bisected at full
    # precision to e; store30_96 holds the same zeros refined by Newton
    derivs = ZetaEngine.hardy_z_with_deriv

    def flat(self, t):
        z, _, zp = derivs(self, t)
        return z, 0, zp

    monkeypatch.setattr(ZetaEngine, "hardy_z_with_deriv", flat)
    store = locate_zeros(3, ctx96)
    engine = ZetaEngine(ctx96)
    e = ctx96.target_tol
    for newton, fallback in zip(store30_96, store):
        assert fallback.tau != newton.tau
        assert abs(fallback.tau - newton.tau) <= e
        assert engine.hardy_z(fallback.tau - e) * engine.hardy_z(fallback.tau + e) < 0


@pytest.mark.parametrize("bits,newton", [(96, 4), (192, 5)])
def test_full_precision_passes_per_zero(bits, newton, hardy_passes, tmp_path):
    # a located zero takes its Newton passes alone: the last gives the Taylor
    # certificate and the weight.  An imported one takes two: the check at
    # the tau read, which is Newton's first step, and the pass at the tau
    # Newton moved to
    ctx = NumericContext(bits)
    located = locate_zeros(8, ctx)
    assert hardy_passes == [(t, True) for t, _ in hardy_passes]
    assert len(hardy_passes) == newton * 8
    path = tmp_path / "zeros.txt"
    export_zeros(located, path, ctx)
    del hardy_passes[:]
    import_zeros(path, ctx)
    assert [t for t, _ in hardy_passes[::2]] == [r.tau for r in located]
    assert hardy_passes == [(t, True) for t, _ in hardy_passes]
    assert len(hardy_passes) == 2 * 8


def test_taylor_certificate_decides_every_zero(store30_96, ctx96, monkeypatch):
    # the last Newton pass certifies each zero, so no zero is bisected to e
    one_cpu(monkeypatch)
    verdicts = []
    taylor = zeros_mod._taylor_certifies

    def recorded(*args):
        verdicts.append(taylor(*args))
        return verdicts[-1]

    monkeypatch.setattr(zeros_mod, "_taylor_certifies", recorded)
    store = locate_zeros(8, ctx96)
    assert verdicts == [True] * 8
    assert [(_raw(r.tau), _raw(r.zeta_prime)) for r in store] == [
        (_raw(r.tau), _raw(r.zeta_prime)) for r in store30_96.prefix(8)]


@pytest.mark.parametrize("name,offsets", [
    ("store30_96", (-2, -1.25, -1, -0.5, 0, 0.5, 1, 1.25, 2)),
    ("store500_192", (0,)),
], ids=["store30_96", "store500_192"])
def test_taylor_certificate_never_accepts_where_the_two_point_check_rejects(name, offsets,
                                                                            request):
    # at every stored tau, and at 96 bits next to it, in steps of e: the
    # Taylor certificate accepts every stored tau, and none that the two
    # full-precision signs at tau +- e reject
    store = request.getfixturevalue(name)
    ctx = request.getfixturevalue("ctx" + name.split("_")[1])
    engine = ZetaEngine(ctx)
    e = ctx.target_tol
    taus = [r.tau + k * e for r in store for k in offsets]

    def taylor_and_two_point(i):
        z, zd, _ = engine.hardy_z_with_deriv(taus[i])
        two_point = engine.hardy_z(taus[i] - e) * engine.hardy_z(taus[i] + e) < 0
        return int(zeros_mod._taylor_certifies(engine, taus[i], z, zd)), int(two_point)

    verdicts = _split_map(taylor_and_two_point, len(taus), ctx.mp)
    assert all(two_point for taylor, two_point in verdicts if taylor)
    assert [taylor for (taylor, _), k in zip(verdicts, offsets * len(store)) if k == 0] == [
        1] * len(store)
    if len(offsets) > 1:  # the offsets reach points that both reject
        assert sum(taylor for taylor, _ in verdicts) < len(taus)


def test_z2_bound_holds(ctx96):
    # M against mpmath's |Z''| at the first zero, inside the scan's start and
    # across [10, 1400]; below 10.5 there is no bound
    mp = ctx96.mp
    for t in ("10.5", "14.134725", "17.3", "100", "377.7", "811.18", "1000", "1399.9"):
        assert abs(mpmath.siegelz(mpmath.mpf(t), derivative=2)) < zeros_mod._z2_bound(
            mp.mpf(t)) < 1e7, t
    assert zeros_mod._z2_bound(mp.mpf("10.4")) == math.inf


@pytest.mark.parametrize("name", ["store30_96", "store40_192"])
def test_pass_within_the_certificate_error_bound(name, request):
    # Z and Z' of a full-precision pass against mpmath's siegelz at 64 bits
    # more, over a grid and at tau +- 10^-k next to stored zeros: both lie
    # within the d that _taylor_certifies charges.  Z' is -Im(e^(i theta)
    # zeta'), so no pass evaluates digamma (theta')
    store = request.getfixturevalue(name)
    ctx = request.getfixturevalue("ctx" + name.split("_")[1])
    mp, p = ctx.mp, ctx.precision_bits
    request.getfixturevalue("monkeypatch").setattr(
        mp, "digamma", lambda *args: pytest.fail("a critical-line pass called digamma"))
    engine = ZetaEngine(ctx)
    points = [mp.mpf(t) for t in ("10.5", "14.2", "31.77", "100.3", "377.7", "811.18", "1399.9")]
    for rec in store.records[::6]:
        points += [rec.tau + sign * mp.mpf(10) ** -k for k in (3, 6, 12, 24) for sign in (-1, 1)]
    for t in points:
        z, zd, _ = engine.hardy_z_with_deriv(t)
        d = mp.ldexp(t + 4, -(p + 12))
        with mpmath.workprec(p + 64):
            tt = mpmath.mpf(t)
            for got, want in ((z, mpmath.siegelz(tt)), (zd, mpmath.siegelz(tt, derivative=1))):
                assert abs(mpmath.mpf(got) - want) <= d, (t, got, want)


def test_taylor_certificate_counts_the_evaluation_error(ctx96):
    # |Z(tau)| must clear e |Z'(tau)| by twice the error bound d of the pass
    engine = ZetaEngine(ctx96)
    tau, e = ctx96.mpf(100), ctx96.target_tol
    d = ctx96.mp.ldexp(tau + 4, -(ctx96.precision_bits + 12))
    for z, zd in ((e - 3 * d, 1), (3 * d - e, -1)):
        assert zeros_mod._taylor_certifies(engine, tau, z, zd)
        assert not zeros_mod._taylor_certifies(engine, tau, z + d * zd * 5 / 2, zd)


def test_cache_cold_then_warm(ctx96, tmp_path):
    d = tmp_path / "cache"
    cold = load_or_compute(6, ctx96, d)
    warm = load_or_compute(6, ctx96, d)
    for a, b in zip(cold, warm):
        assert abs(a.tau - b.tau) <= ctx96.target_tol
        assert abs(a.zeta_prime - b.zeta_prime) < ctx96.mpf("1e-20")
    # a located zero is rounded to what its cache file holds, so the cold and
    # warm stores are equal bit for bit
    assert [(_raw(r.tau), _raw(r.zeta_prime)) for r in cold] == [
        (_raw(r.tau), _raw(r.zeta_prime)) for r in warm]


@pytest.mark.parametrize("bits", [96, 192])
def test_located_and_imported_stores_are_their_exports_read_back(bits, tmp_path):
    # _certify rounds every zero to the digits a zeros file holds, so a store
    # written with zeta' and loaded as a cache file comes back bit for bit
    ctx = NumericContext(bits)
    located = locate_zeros(8, ctx)
    path = tmp_path / "located.txt"
    export_zeros(located, path, ctx)
    imported = import_zeros(path, ctx)
    for name, store in (("located", located), ("imported", imported)):
        cache = tmp_path / f"{name}-cache.txt"
        export_zeros(store, cache, ctx, include_zeta_prime=True)
        back = zeros_mod._load_cache(cache, len(store), ctx)
        assert [(_raw(r.tau), _raw(r.zeta_prime)) for r in store] == [
            (_raw(r.tau), _raw(r.zeta_prime)) for r in back], name


@pytest.mark.parametrize("name", ["store30_96", "store40_192"])
def test_rounded_tau_keeps_the_sign_change_certificate(name, request):
    # rounding to the file's digits moves tau by under e/2, so Z still changes
    # sign across [tau - e, tau + e] at every stored tau
    store = request.getfixturevalue(name)
    ctx = request.getfixturevalue("ctx" + name.split("_")[1])
    engine = ZetaEngine(ctx)
    e = ctx.target_tol
    for index, rec in enumerate(store, start=1):
        assert engine.hardy_z(rec.tau - e) * engine.hardy_z(rec.tau + e) < 0, index


def test_cache_corruption_triggers_recompute(ctx96, tmp_path):
    d = tmp_path / "cache"
    load_or_compute(4, ctx96, d)
    (path,) = [os.path.join(d, f) for f in os.listdir(d)]
    text = open(path).read().replace("checksum=", "checksum=dead")
    open(path, "w").write(text)
    with pytest.warns(UserWarning, match="checksum"):
        store = load_or_compute(4, ctx96, d)
    assert len(store) == 4


def test_cache_load_parses_a_file_once_until_its_bytes_change(ctx96, tmp_path, monkeypatch):
    d = tmp_path / "cache"
    stored = load_or_compute(4, ctx96, d)
    (path,) = [os.path.join(d, f) for f in os.listdir(d)]
    parsed, parse = [], zeros_mod._parse_zeros
    monkeypatch.setattr(zeros_mod, "_parse_zeros",
                        lambda text, ctx: parsed.append(text) or parse(text, ctx))
    first = load_or_compute(4, ctx96, d)
    assert load_or_compute(3, ctx96, d) == first.prefix(3)
    assert len(parsed) == 1 and [r.tau for r in first] == [r.tau for r in stored]
    # rewritten in place with the same size and mtime: only the bytes tell
    before = os.stat(path)
    lines = open(path).read().splitlines()
    last = lines[1][-1]
    lines[1] = lines[1][:-1] + ("1" if last == "0" else "0")
    lines[0] = (f"# precision_bits=96 checksum="
                f"{zeros_mod._checksum([line for line in lines[1:] if line])}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    second = load_or_compute(4, ctx96, d)
    assert len(parsed) == 2
    assert second[0].tau == ctx96.mpf(lines[1]) != first[0].tau
    assert [r.tau for r in second[1:]] == [r.tau for r in first[1:]]


def test_corrupt_cache_file_warns_on_every_load(store30_96, ctx96, tmp_path):
    path = tmp_path / "zeros_n4_p96.txt"
    export_zeros(store30_96.prefix(4), path, ctx96, include_zeta_prime=True)
    path.write_text(path.read_text().replace("checksum=", "checksum=dead"))
    for _ in range(2):
        with pytest.warns(UserWarning, match="checksum"):
            assert zeros_mod._load_cache(path, 4, ctx96) is None


def test_cache_load_rejects_swapped_records(store30_96, ctx96, tmp_path):
    # a cache file with a valid checksum but taus out of order fails the same
    # checks as an import, so it is recomputed rather than served
    records = list(store30_96.records[:6])
    records[2], records[3] = records[3], records[2]
    d = tmp_path / "cache"
    d.mkdir()
    export_zeros(ZeroStore(tuple(records)), d / "zeros_n6_p96.txt", ctx96,
                 include_zeta_prime=True)
    with pytest.warns(UserWarning, match="non-monotone"):
        store = load_or_compute(6, ctx96, d)
    taus = [r.tau for r in store]
    assert len(taus) == 6 and all(b > a for a, b in zip(taus, taus[1:]))


def test_cache_keyed_by_precision(ctx96, tmp_path):
    d = tmp_path / "cache"
    load_or_compute(4, ctx96, d)
    ctx112 = NumericContext(112)
    load_or_compute(4, ctx112, d)
    names = sorted(os.listdir(d))
    assert names == ["zeros_n4_p112.txt", "zeros_n4_p96.txt"]


def test_prefix_served_from_longer_cache(store30_96, ctx96, cache_dir):
    # the session cache holds 30 zeros at 96 bits; a request for 12 reuses it
    before = set(os.listdir(cache_dir))
    store = load_or_compute(12, ctx96, cache_dir)
    assert len(store) == 12
    assert set(os.listdir(cache_dir)) == before


@pytest.mark.filterwarnings("error")
def test_cache_tries_the_smallest_file_that_holds_the_count(store30_96, ctx96, tmp_path,
                                                            monkeypatch):
    # zeros_n100 sorts before zeros_n30 as a string, but the smaller count is
    # tried first: it serves the prefix, and the bad n100 file is never opened
    d = tmp_path / "cache"
    d.mkdir()
    export_zeros(store30_96, d / "zeros_n30_p96.txt", ctx96, include_zeta_prime=True)
    (d / "zeros_n100_p96.txt").write_text("not a zeros file\n")
    opened, load = [], zeros_mod._load_cache
    monkeypatch.setattr(zeros_mod, "_load_cache", lambda path, count, ctx: opened.append(
        os.path.basename(path)) or load(path, count, ctx))
    store = load_or_compute(12, ctx96, d)
    assert opened == ["zeros_n30_p96.txt"]
    assert [(_raw(r.tau), _raw(r.zeta_prime)) for r in store] == [
        (_raw(r.tau), _raw(r.zeta_prime)) for r in store30_96.prefix(12)]


def test_import_rejects_table_missing_two_zeros(store30_96, ctx96, tmp_path):
    # the +-1 count window tolerates one absent zero; this table, missing the
    # first two, fails the check (two missing zeros with a short gap between
    # them pass it: test_count_check_rejects_two_missing_zeros_near_1329)
    from zetasum.zeros import MissedZeroError
    mp = ctx96.mp
    path = tmp_path / "shifted.txt"
    path.write_text("".join(mp.nstr(r.tau, 25) + "\n" for r in store30_96.records[2:9]))
    with pytest.raises(MissedZeroError):
        import_zeros(path, ctx96)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the +-1 window of the smoothed count accepts one missing zero; "
                          "a certified count (Turing's method) would reject the table")
def test_import_rejects_headerless_table_missing_one_zero(store30_96, ctx96, tmp_path):
    from zetasum.zeros import MissedZeroError
    mp = ctx96.mp
    path = tmp_path / "gap.txt"
    path.write_text("".join(mp.nstr(r.tau, 25) + "\n"
                            for i, r in enumerate(store30_96, start=1) if i != 13))
    try:
        store = import_zeros(path, ctx96)
    except MissedZeroError:
        return
    raise AssertionError(f"import_zeros returned {len(store)} records without zero #13")


@pytest.fixture(scope="module")
def scan64():
    """A 64-bit engine and the scan brackets of the first MAX_COUNT zeros."""
    engine = ZetaEngine(NumericContext(64))
    return engine, zeros_mod._scan_brackets(engine, zeros_mod.MAX_COUNT)


def test_scan_finds_every_zero_up_to_max_count(scan64):
    # each bracket holds an odd number of zeros, and no zero lies below the
    # scan's start; so where mpmath counts as many zeros up to the last
    # bracket's end as there are brackets, each holds one and none lies
    # between them.  The grid does not depend on the precision
    _, brackets = scan64
    assert mpmath.nzeros(brackets[-1][1]) == len(brackets) == zeros_mod.MAX_COUNT


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="zeros #922 and #923 lie 0.16 apart, so without both the running "
                          "count stays within +-1 of the smoothed count at every prefix; a "
                          "certified count (Turing's method) would reject the list")
def test_count_check_rejects_two_missing_zeros_near_1329(scan64):
    engine, brackets = scan64
    taus = [(lo + hi) / 2 for lo, hi, _, _ in brackets[:925]]
    del taus[921:923]
    assert zeros_mod._check_counts(engine, taus) is not None


def test_export_mode_follows_umask(store30_96, ctx96, tmp_path):
    # the atomic write gives the file the mode a plain open(path, "w") gives
    old = os.umask(0o022)
    try:
        export_zeros(store30_96.prefix(2), tmp_path / "zeros.txt", ctx96)
        with open(tmp_path / "plain.txt", "w"):
            pass
    finally:
        os.umask(old)
    assert (os.stat(tmp_path / "zeros.txt").st_mode
            == os.stat(tmp_path / "plain.txt").st_mode)


def test_scan_signs_equal_scanner_signs(ctx96, monkeypatch):
    # every sign locate_zeros reads, at each grid point and each bisection
    # midpoint, is the sign of the 96-bit Euler-Maclaurin Z there
    reads = []
    signed_z = zeros_mod._signed_z

    def record(engine, t):
        value = signed_z(engine, t)
        reads.append((engine, t, value))
        return value

    one_cpu(monkeypatch)
    monkeypatch.setattr(zeros_mod, "_signed_z", record)
    locate_zeros(100, ctx96)
    assert len(reads) > 100 * 12
    for engine, t, value in reads:
        assert engine.ctx.precision_bits == 96
        assert (value > 0) == (engine.hardy_z(t) > 0) and value != 0, t


def refuse_every_float_sign(monkeypatch):
    """Make _hardy_z_float prove no sign; returns the list of t it was asked."""
    calls = []

    def no_certificate(t):
        calls.append(t)
        return 0.0, float("inf")

    one_cpu(monkeypatch)
    monkeypatch.setattr(zeros_mod, "_hardy_z_float", no_certificate)
    return calls


def test_all_fallback_signs_give_the_same_bytes(ctx96, tmp_path, monkeypatch):
    # with an infinite bound every sign comes from the 96-bit engine, as it
    # did before the double-precision Z; the export is the golden one
    calls = refuse_every_float_sign(monkeypatch)
    path = tmp_path / "zeros.txt"
    export_zeros(locate_zeros(8, ctx96), path, ctx96)
    assert len(calls) > 100
    golden = os.path.join(os.path.dirname(__file__), "data", "zeros8_p96.txt")
    assert path.read_bytes() == open(golden, "rb").read()


def test_all_fallback_signs_give_the_same_bytes_at_192_bits(ctx192, tmp_path, monkeypatch):
    # every sign from the 192-bit engine: the first four zeros and their
    # zeta' are the golden 16-zero export's first eight payload lines
    calls = refuse_every_float_sign(monkeypatch)
    path = tmp_path / "zeros.txt"
    export_zeros(locate_zeros(4, ctx192), path, ctx192, include_zeta_prime=True)
    assert len(calls) > 50
    golden = os.path.join(os.path.dirname(__file__), "data", "zeros16_p192_zp.txt")
    want = open(golden, encoding="utf-8").read().splitlines()[1:9]
    assert path.read_text(encoding="utf-8").splitlines()[1:] == want


def test_a_192_bit_zero_run_asks_for_its_own_engine_only(ctx192, tmp_path, monkeypatch):
    # signs, theta and Z all come from engine_for(ctx): no second engine
    asked = []
    engine_for = zeros_mod.engine_for

    def recording(ctx):
        asked.append(ctx)
        return engine_for(ctx)

    monkeypatch.setattr(zeros_mod, "engine_for", recording)
    path = tmp_path / "zeros.txt"
    export_zeros(locate_zeros(4, ctx192), path, ctx192)
    import_zeros(path, ctx192)
    assert asked == [ctx192, ctx192]


# -- refinement on two CPUs ----------------------------------------------------


def locate_export_import(ctx, tmp_path, name):
    """(located store, imported store, bytes of both exports) for 30 zeros."""
    located = locate_zeros(30, ctx)
    path = tmp_path / f"{name}.txt"
    export_zeros(located, path, ctx)
    imported = import_zeros(path, ctx)
    again = tmp_path / f"{name}-again.txt"
    export_zeros(imported, again, ctx, include_zeta_prime=True)
    return located, imported, path.read_bytes() + again.read_bytes()


def test_split_refinement_is_bit_for_bit(ctx96, tmp_path, monkeypatch, forks):
    split = locate_export_import(ctx96, tmp_path, "split")
    assert len(forks) == 2 * SPLITS
    assert_no_child()
    one_cpu(monkeypatch)
    alone = locate_export_import(ctx96, tmp_path, "alone")
    for got, want in zip(split[:2], alone[:2]):
        assert ([(r.tau._mpf_, r.zeta_prime._mpc_) for r in got]
                == [(r.tau._mpf_, r.zeta_prime._mpc_) for r in want])
    assert split[2] == alone[2]


@pytest.mark.parametrize("bad", [(1,), (2,), (1, 2), (2, 3)])
def test_import_error_is_the_in_process_one(store30_96, ctx96, tmp_path, monkeypatch, forks,
                                            bad):
    # row i (from 0) is line i + 1; odd rows are the child's share.  A bad
    # row holds the midpoint of two zeros, so the table stays ascending
    taus = [r.tau for r in store30_96.records[:7]]
    rows = [(t + taus[i + 1]) / 2 if i in bad else t for i, t in enumerate(taus[:6])]
    path = tmp_path / "bad.txt"
    path.write_text("".join(ctx96.mp.nstr(t, 25) + "\n" for t in rows))

    def run():
        with pytest.raises(ZeroImportError) as err:
            import_zeros(path, ctx96)
        return err.value.line_no, str(err.value)

    split = run()
    assert len(forks) == SPLITS
    assert_no_child()
    one_cpu(monkeypatch)
    assert split == run()
    assert split[0] == bad[0] + 1 and "residual check failed" in split[1]


def test_interrupt_in_refinement_kills_and_reaps_the_child(ctx96, monkeypatch, forks):
    parent = os.getpid()
    certify = zeros_mod._certify
    calls = []

    def interrupted(*args):
        if os.getpid() == parent:
            calls.append(args)
            if len(calls) == 2:  # zero #3, this process's second
                raise KeyboardInterrupt
        return certify(*args)

    monkeypatch.setattr(zeros_mod, "_certify", interrupted)
    with pytest.raises(KeyboardInterrupt):
        locate_zeros(8, ctx96)
    assert len(forks) == SPLITS
    assert_no_child()

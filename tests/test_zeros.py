import os

import pytest

from zetasum import zeros as zeros_mod
from zetasum.numctx import NumericContext
from zetasum.zetafn import ZetaEngine
from zetasum.zeros import (ZeroImportError, export_zeros, import_zeros,
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
        assert abs(z) < 1000 * rec.err_bound * abs(rec.zeta_prime)
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
    with pytest.raises(ValueError):
        store30_96.prefix(31)


def test_export_import_roundtrip(store30_96, ctx96, tmp_path):
    path = tmp_path / "zeros.txt"
    export_zeros(store30_96, path, ctx96)
    text = path.read_text()
    assert text.startswith("# precision_bits=96 checksum=")
    back = import_zeros(path, ctx96)
    assert len(back) == len(store30_96)
    for a, b in zip(store30_96, back):
        assert abs(a.tau - b.tau) <= a.err_bound + b.err_bound
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


def test_import_low_precision_then_refine(store30_96, ctx96, tmp_path):
    path = tmp_path / "coarse.txt"
    mp = ctx96.mp
    path.write_text("".join(mp.nstr(r.tau, 10) + "\n" for r in store30_96.prefix(8)))
    refined = import_zeros(path, ctx96)
    for a, b in zip(store30_96, refined):
        assert abs(a.tau - b.tau) < mp.mpf("1e-10")


def test_cache_cold_then_warm(ctx96, tmp_path):
    d = tmp_path / "cache"
    cold = load_or_compute(6, ctx96, d)
    warm = load_or_compute(6, ctx96, d)
    assert warm.source == "computed"
    for a, b in zip(cold, warm):
        assert abs(a.tau - b.tau) <= a.err_bound
        assert abs(a.zeta_prime - b.zeta_prime) < ctx96.mpf("1e-20")


def test_cache_corruption_triggers_recompute(ctx96, tmp_path):
    d = tmp_path / "cache"
    load_or_compute(4, ctx96, d)
    (path,) = [os.path.join(d, f) for f in os.listdir(d)]
    text = open(path).read().replace("checksum=", "checksum=dead")
    open(path, "w").write(text)
    with pytest.warns(UserWarning, match="checksum"):
        store = load_or_compute(4, ctx96, d)
    assert len(store) == 4


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


def test_import_rejects_table_missing_two_zeros(store30_96, ctx96, tmp_path):
    # the +-1 count window tolerates one absent zero (scan misses come in
    # pairs, which it does catch); a table missing two fails the check
    from zetasum.zeros import MissedZeroError
    mp = ctx96.mp
    path = tmp_path / "shifted.txt"
    path.write_text("".join(mp.nstr(r.tau, 25) + "\n" for r in store30_96.records[2:9]))
    with pytest.raises(MissedZeroError):
        import_zeros(path, ctx96)

"""The doubling trapezoid rule (zetafn.trapezoid_mean) as the sum rule's
quadratures drive it: accuracy of the extrapolated stop, level count against
the plain |I_k - I_(k-1)| < tol stop, and the level cap."""

from types import SimpleNamespace

import pytest

from zetasum import sumrule as sr
from zetasum.zetafn import PrecisionError, ZetaEngine, trapezoid_mean

# the criterion-04 parameter pairs
CONTOUR_PAIRS = (("0.5", "0.5"), ("2", "0.25"), ("0.9", "0.75"))


@pytest.fixture()
def recorded(monkeypatch):
    """Every trapezoid_mean call sumrule makes, with its memoized integrand
    and the node count it stopped at."""
    calls = []

    def recording(g, ctx, n, tol, scale, failure, periodic=False, max_doublings=20):
        cache = {}

        def memo(u):
            if u not in cache:
                cache[u] = g(u)
            return cache[u]

        value = trapezoid_mean(memo, ctx, n, tol, scale, failure, periodic, max_doublings)
        n_final = len(cache) if periodic else len(cache) - 1
        calls.append(SimpleNamespace(g=memo, ctx=ctx, n=n, tol=tol, scale=scale,
                                     periodic=periodic, n_final=n_final, value=value))
        return value

    monkeypatch.setattr(sr, "trapezoid_mean", recording)
    return calls


def reference_levels(call, extra):
    """Scaled trapezoid values from call.n up to call.n_final * 2^extra
    points, all taken from one evaluation of the finest grid."""
    mp = call.ctx.mp
    depth = (call.n_final // call.n).bit_length() - 1 + extra
    n_fine = call.n << depth
    nodes = n_fine if call.periodic else n_fine + 1
    vals = [call.g(mp.mpf(j) / n_fine) for j in range(nodes)]
    levels = []
    for level in range(depth + 1):
        n = call.n << level
        sub = vals[::n_fine // n]
        total = sum(sub) if call.periodic else (sub[0] + sub[-1]) / 2 + sum(sub[1:-1])
        levels.append(call.scale * total / n)
    return levels


def plain_stop_level(levels, tol):
    """Level at which the |I_k - I_(k-1)| < tol rule stops (None: not within levels)."""
    for k in range(1, len(levels)):
        if abs(levels[k] - levels[k - 1]) < tol:
            return k
    return None


def check_call(call):
    levels = reference_levels(call, extra=2)
    stop = len(levels) - 3  # the level trapezoid_mean stopped at
    # the stopped value agrees with the value two levels deeper
    assert abs(call.value - levels[-1]) < call.tol
    # and the plain rule never stops earlier
    plain = plain_stop_level(levels, call.tol)
    assert plain is None or stop <= plain
    return stop, plain


@pytest.mark.parametrize("a,x", CONTOUR_PAIRS)
def test_contour_stop_is_accurate_and_no_later(ctx96, recorded, a, x):
    sr.contour_integral(sr.SumRuleParams(a=a, x=x), ctx96)
    (call,) = recorded
    assert not call.periodic and call.n == 32 and call.tol == ctx96.target_tol
    stop, plain = check_call(call)
    # the integrand is analytic: the extrapolated stop saves the confirming level
    assert plain is None or stop < plain


def test_residue_stops_are_accurate_and_no_later(ctx96, store30_96, recorded):
    params = sr.SumRuleParams(a="0.5", x="0.5", n_zeros=2, n_trivial=2, n_halfint=1)
    engine = ZetaEngine(ctx96)
    catalog = sr.pole_catalog(params, store30_96, ctx96, engine)
    for site in catalog:
        sr.numeric_residue(site, params, ctx96, catalog, engine, store30_96)
    assert len(recorded) == len(catalog) == 8
    for call in recorded:
        assert call.periodic and call.n == 8
        check_call(call)


def test_level_cap_raises_precision_error(ctx96):
    mp = ctx96.mp
    kink = mp.mpf(1) / 3  # |u - 1/3| converges only like h^2

    with pytest.raises(PrecisionError, match="kink did not settle"):
        trapezoid_mean(lambda u: abs(u - kink), ctx96, 8, ctx96.target_tol, 1,
                       "kink did not settle", periodic=True, max_doublings=4)


def test_exact_levels_stop_at_once(ctx96):
    # the periodic rule is exact for a trigonometric polynomial of low degree
    mp = ctx96.mp
    got = trapezoid_mean(lambda u: mp.cospi(2 * u) ** 2, ctx96, 8, ctx96.target_tol, 2,
                         "not exact", periodic=True, max_doublings=1)
    assert abs(got - 1) < ctx96.target_tol

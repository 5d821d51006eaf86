import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import SPLITS, assert_no_child, next_up, one_cpu

from zetasum.arith import mangoldt_sieve
from zetasum.cli import main
from zetasum.numctx import NumericContext, cpow
from zetasum.zetafn import _raw, engine_for
from zetasum.zeros import MultipleZeroError, ZeroRecord, ZeroStore
from zetasum import sumrule as sr

# frozen pre-build oracle values (independent multiprecision route, 40-60 dps)
INTEGRAND_03I = ("-0.2853970781186721620977584420993662451452",
                 "1.017611734713792877674590107563163941768")
CLOSED_05_05 = "-0.0916440633480003623167023866952491820292920259400332302987046"
CLOSED_2_025 = "0.0684158361041603827040488406226594057486445920385046999813044"
CLOSED_09_075 = "-0.0157061052588231829252093025698672469527683102240647060482152"
ZETA_NEG_1_5 = "-0.0254852018898330359495429869107047454690249846009729968346455"


@pytest.fixture(scope="module")
def ctx():
    return NumericContext(128)


@pytest.fixture(scope="module")
def engine(ctx):
    return engine_for(ctx)


@pytest.fixture(scope="module")
def store(store30_96, ctx):
    # rebuild the session store's records at this module's context precision
    # is unnecessary: taus/zeta' carry more than enough digits for 128 bits
    return store30_96


def params(a="0.5", x="0.5", n_zeros=20, n_trivial=24, n_halfint=8):
    return sr.SumRuleParams(a=a, x=x, n_zeros=n_zeros, n_trivial=n_trivial,
                            n_halfint=n_halfint)


# -- parameter validation ------------------------------------------------------


def test_params_validation(ctx):
    with pytest.raises(ValueError):
        params(a="1").bind(ctx)
    with pytest.raises(ValueError):
        params(a="41").bind(ctx)
    with pytest.raises(ValueError):
        params(a="-0.5").bind(ctx)
    with pytest.raises(ValueError):
        params(x="1").bind(ctx)
    with pytest.raises(ValueError):
        params(x="0").bind(ctx)
    with pytest.raises(ValueError):
        sr.SumRuleParams(a="0.5", x="0.5", n_zeros=0).bind(ctx)
    params().bind(ctx)


@pytest.mark.parametrize("a,x,message", [
    ("abc", "0.5", "a = 'abc' is not a number"),
    (None, "0.5", "a = None is not a number"),
    ("0.5", "1/3x", "x = '1/3x' is not a number"),
])
def test_params_name_a_value_that_is_not_a_number(ctx, a, x, message):
    with pytest.raises(ValueError) as err:
        params(a=a, x=x).bind(ctx)
    assert str(err.value) == message


@pytest.mark.parametrize("a", ["2", "0.6666666666666666666666666666666666"])
def test_resonant_a_rejected(ctx, a):
    # 2n = a(4k^2-1) solvable: families merge into double poles
    with pytest.raises(sr.ResonantParameterError):
        params(a=a).check_resonance(ctx)


def test_non_resonant_a_accepted(ctx):
    for a in ("0.3", "0.5", "0.9", "2.5", "5", "39.5"):
        params(a=a).check_resonance(ctx)


# -- integrand and contour integral ---------------------------------------------


def test_integrand_at_origin(ctx):
    got = sr.integrand(ctx.mp.mpf(0), params(), ctx)
    assert abs(got - (-2)) < 100 * ctx.target_tol


def test_integrand_frozen_point(ctx):
    got = sr.integrand(ctx.mp.mpc(0, "0.3"), params(), ctx)
    want = ctx.mp.mpc(*INTEGRAND_03I)
    assert abs(got - want) < ctx.mp.mpf("1e-38")


def test_integrand_path_decay_bound(ctx, engine):
    mp = ctx.mp
    p = params()
    a, x = p.bind(ctx)
    for t in (mp.mpf(2), mp.mpf(5), mp.mpf(9)):
        val = sr.integrand(mp.mpc(0, t), p, ctx)
        bound = cpow(x, t * t, ctx) / mp.cosh(mp.pi * t) \
            / abs(engine.zeta(4 * a * (t * t + mp.mpc(0, 1) * t)))
        assert abs(val) <= bound * (1 + mp.mpf("1e-30"))


@pytest.mark.parametrize("bits", [96, 192])
def test_held_log_integrand_is_the_cpow_integrand(bits):
    # x^u as exp(u log x), log x taken once: bit for bit cpow's x^u over
    # cos(pi s) zeta(4a u), at contour nodes and on the circles of a
    # half-integer pole and of the first zero
    ctx = NumericContext(bits)
    mp, engine = ctx.mp, engine_for(ctx)
    a, x = params(a="0.9", x="0.75").bind(ctx)
    T = sr._pick_path_halfwidth(a, x, ctx)
    nodes = [mp.mpc(0, T * (mp.mpf(j) / 32 - 1)) for j in range(0, 65, 3)]
    rho = mp.mpc(0.5, "14.134725141734693790457251983562470270784257115699")
    for c in (mp.mpf("1.5"), (1 + mp.sqrt(1 - rho / a)) / 2):
        nodes += [c + mp.mpf("0.01") * mp.expjpi(mp.mpf(j) / 8) for j in range(16)]
    for s in nodes:
        u = s * (1 - s)
        want = cpow(x, u, ctx) / (mp.cos(mp.pi * s) * engine.zeta(4 * a * u))
        assert _raw(sr._integrand(s, a, mp.log(x), ctx, engine)) == _raw(want), s


def integrand_by_moduli(s, a, ln_x, ctx, engine, store=None):
    """sumrule._integrand with its pole guard on abs(c) and abs(zeta(w)),
    each an mpc_abs: the reference for the guard that reads exponents."""
    mp = ctx.mp
    u = s * (1 - s)
    c = mp.cos(mp.pi * s)
    w = 4 * a * u
    z = engine.zeta(w)
    floor = 1000 * ctx.target_tol
    if abs(c) < floor or abs(z) < floor:
        site = sr._pole_site(s, w, abs(c) < floor, mp, store)
        raise sr.SingularityError(f"integrand evaluated at a pole near {site}")
    return mp.exp(u * ln_x) / (c * z)


class FixedZeta:
    """An engine whose zeta is one given value everywhere."""

    def __init__(self, value):
        self.value = value

    def zeta(self, w):
        return self.value


def outcome(f, *args):
    """The raw value of f(*args), or the text of the SingularityError it raises."""
    try:
        return _raw(f(*args))
    except sr.SingularityError as err:
        return str(err)


@pytest.mark.parametrize("bits", [96, 192])
def test_pole_guard_decides_as_the_moduli_do(bits):
    # |cos(pi s)| and |zeta(w)| from 2^-3 to 2^3 times the floor 1000
    # target_tol, in steps of 2^(1/8), at seven angles, and at the floor and
    # next to it: the exponent test decides as abs() < floor does, and the
    # integrand returns the same bits or raises the same text
    ctx = NumericContext(bits)
    mp = ctx.mp
    floor = 1000 * ctx.target_tol
    sizes = [floor * mp.mpf(2) ** (mp.mpf(k) / 8) for k in range(-24, 25)]
    sizes += [floor, next_up(floor), 2 * floor - next_up(floor)]
    turns = [mp.mpf(0), mp.mpf("1e-3"), mp.mpf("0.5"), mp.pi / 4, mp.mpf("1.2"), mp.pi / 2,
             mp.mpf(3)]
    values = [mp.mpf(0)] + [m * sign for m in sizes for sign in (1, -1)] + [
        mp.mpc(m * mp.cos(phi), m * mp.sin(phi)) for m in sizes for phi in turns]
    assert [sr._below(v, floor) for v in values] == [abs(v) < floor for v in values]
    a, ln_x = mp.mpf("0.9"), mp.log(mp.mpf("0.75"))
    away = mp.mpc("0.2", "0.3")
    cases = [(away, FixedZeta(v)) for v in values]  # zeta(w) straddles the floor
    cases += [(mp.mpf("0.5") - v / mp.pi, FixedZeta(mp.mpf(1))) for v in values]  # cos(pi s)
    seen = set()
    for s, engine in cases:
        got = outcome(sr._integrand, s, a, ln_x, ctx, engine)
        assert got == outcome(integrand_by_moduli, s, a, ln_x, ctx, engine), s
        seen.add(got.split(" near ")[1].split()[0] if isinstance(got, str) else "value")
    assert seen == {"value", "half_integer", "trivial_zero"}


def test_integrand_singularity_names_site(store30_96, ctx96):
    # at every site of every family the error names that site.  96 bits, the
    # store's own precision: its taus are zeros to within its tolerance
    families = set()
    for a in ("0.5", "0.9", "5"):
        p = params(a=a, n_zeros=5, n_trivial=4, n_halfint=3)
        for site in sr.pole_catalog(p, store30_96, ctx96):
            families.add(site.family)
            key = {"half_integer": "k", "trivial_zero": "n"}.get(site.family, "index")
            with pytest.raises(sr.SingularityError,
                               match=rf"near {site.family} {key}={site.index}$"):
                sr.integrand(site.location, p, ctx96, store30_96)
    assert families == {"half_integer", "trivial_zero", "critical_zero",
                        "critical_zero_conjugate"}


@pytest.mark.parametrize("a,x,closed", [
    ("0.5", "0.5", CLOSED_05_05),
    ("2", "0.25", CLOSED_2_025),
    ("0.9", "0.75", CLOSED_09_075),
])
def test_contour_integral_closed_form(ctx, a, x, closed):
    mp = ctx.mp
    got = sr.contour_integral(params(a=a, x=x), ctx)
    want = mp.mpf(closed)
    assert abs(got - want) / abs(want) < mp.mpf("1e-25")
    assert abs(mp.im(got)) < 1000 * ctx.target_tol


def test_path_halfwidth_grows_toward_x_one(ctx):
    mp = ctx.mp
    t_mid = sr._pick_path_halfwidth(mp.mpf("0.5"), mp.mpf("0.5"), ctx)
    t_high = sr._pick_path_halfwidth(mp.mpf("0.5"), mp.mpf("0.9"), ctx)
    assert t_high > t_mid


# -- pole catalog ----------------------------------------------------------------


def test_catalog_locations(ctx, store):
    mp = ctx.mp
    p = params(n_zeros=3, n_trivial=4, n_halfint=3)
    a, x = p.bind(ctx)
    catalog = sr.pole_catalog(p, store, ctx)
    by_family = {}
    for site in catalog:
        by_family.setdefault(site.family, []).append(site)
    assert [s.index for s in by_family["trivial_zero"]] == [1, 2, 3, 4]
    assert [s.index for s in by_family["half_integer"]] == [0, 1, 2, 3]
    assert len(by_family["critical_zero"]) == 3
    assert len(by_family["critical_zero_conjugate"]) == 3
    # family (a) n=1 at a=1/2 sits at the golden ratio
    golden = (1 + mp.sqrt(5)) / 2
    assert abs(by_family["trivial_zero"][0].location - golden) < 100 * ctx.target_tol
    assert by_family["half_integer"][0].location == mp.mpf("0.5")
    # every location is a genuine zero of the denominator: 4a u(s) hits the target
    for site in by_family["trivial_zero"]:
        u = site.location * (1 - site.location)
        assert abs(4 * a * u + 2 * site.index) < 1000 * ctx.target_tol
    for site, rec in zip(by_family["critical_zero"], store):
        u = site.location * (1 - site.location)
        assert abs(4 * a * u - mp.mpc(0.5, rec.tau)) < 1e-20
        assert mp.re(2 * site.location - 1) > 0  # right half-plane branch
    # at a = 1/2 the conjugate pole coincides with (1 + sqrt(2 rho - 1))/2
    rho1 = mp.mpc(0.5, store[0].tau)
    legacy = (1 + mp.sqrt(2 * rho1 - 1)) / 2
    assert abs(by_family["critical_zero_conjugate"][0].location - legacy) < 1e-20


def test_catalog_requires_enough_zeros(ctx, store):
    with pytest.raises(ValueError):
        sr.pole_catalog(params(n_zeros=len(store) + 1), store, ctx)


# -- numeric residues -------------------------------------------------------------


def test_numeric_residue_k0_closed_form(ctx, store, engine):
    mp = ctx.mp
    p = params(n_zeros=2, n_trivial=4, n_halfint=2)
    a, x = p.bind(ctx)
    catalog = sr.pole_catalog(p, store, ctx)
    k0 = next(s for s in catalog if s.family == "half_integer" and s.index == 0)
    num = sr.numeric_residue(k0, p, ctx, catalog, store=store)
    want = -cpow(x, mp.mpf(1) / 4, ctx) / (mp.pi * engine.zeta(a))
    assert abs(num - want) / abs(want) < mp.mpf("1e-12")
    assert abs(k0.analytic_residue - want) / abs(want) < 100 * ctx.target_tol


def test_numeric_residue_n1_matches_series_term(ctx, store, engine):
    # scaled residue of the n=1 pole reproduces the n=1 series term
    mp = ctx.mp
    p = params(n_zeros=2, n_trivial=4, n_halfint=2)
    a, x = p.bind(ctx)
    catalog = sr.pole_catalog(p, store, ctx)
    n1 = next(s for s in catalog if s.family == "trivial_zero" and s.index == 1)
    num = sr.numeric_residue(n1, p, ctx, catalog, store=store)
    scaled = -2 * mp.sqrt(a) * cpow(x, -mp.mpf(1) / 4, ctx) * num
    q = mp.sqrt((2 + a) / a)
    term1 = (mp.power(2 * mp.pi, 2) * cpow(x, -(2 + a) / (4 * a), ctx)
             / (mp.sqrt(2 + a) * mp.sinpi(q / 2) * engine.zeta(mp.mpf(3))
                * mp.factorial(2)))
    assert abs(scaled - term1) / abs(term1) < mp.mpf("1e-12")


def test_numeric_residue_precision_stable(ctx, store):
    p = params(n_zeros=2, n_trivial=4, n_halfint=2)
    catalog = sr.pole_catalog(p, store, ctx)
    site = catalog[0]
    lo = sr.numeric_residue(site, p, ctx, catalog, store=store)
    hi_ctx = NumericContext(256)
    hi_cat = sr.pole_catalog(p, store, hi_ctx)
    hi = sr.numeric_residue(hi_cat[0], p, hi_ctx, hi_cat, store=store)
    assert abs(hi_ctx.mp.convert(lo) - hi) < ctx.target_tol


def test_overlapping_poles_detected(ctx, store):
    p = params(n_zeros=1, n_trivial=2, n_halfint=1)
    catalog = sr.pole_catalog(p, store, ctx)
    clone = sr.PoleSite(catalog[0].family, 99, catalog[0].location,
                        catalog[0].analytic_residue)
    with pytest.raises(sr.OverlappingPoleError):
        sr.numeric_residue(clone, p, ctx, catalog + [clone][:1] + [catalog[0]],
                           store=store)


# -- series -----------------------------------------------------------------------


def test_zero_sum_terms_decay_and_pairing(ctx, store):
    # Strict per-step decay of raw |term| fails occasionally (|zeta'(rho)|
    # fluctuates, e.g. between zeros 12 and 13); what decays deterministically
    # is the zeta'-stripped envelope.  Raw magnitudes decay over short windows.
    mp = ctx.mp
    p = params(n_zeros=20)
    a, x = p.bind(ctx)
    mags = []
    envelope = []
    for rec in store.records[:20]:
        rho = mp.mpc(0.5, rec.tau)
        w = mp.sqrt(rho - a)
        term = -cpow(x, (rho - a) / (4 * a), ctx) / (
            w * mp.sinh(mp.pi / 2 * w / mp.sqrt(a)) * rec.zeta_prime)
        mags.append(abs(term))
        envelope.append(abs(term) * abs(rec.zeta_prime))
        # conjugate zero gives the conjugate term: pair sum = 2 Re(term)
        rho_c = mp.conj(rho)
        w_c = mp.sqrt(rho_c - a)
        term_c = -cpow(x, (rho_c - a) / (4 * a), ctx) / (
            w_c * mp.sinh(mp.pi / 2 * w_c / mp.sqrt(a)) * mp.conj(rec.zeta_prime))
        assert abs(term + term_c - 2 * mp.re(term)) < 1000 * ctx.target_tol * mags[-1]
    for k in range(len(envelope) - 1):
        assert envelope[k + 1] < envelope[k]
    for k in range(5, 12):
        assert mags[k + 8] < mags[k]
    assert mags[19] < mags[4] / 100


def test_zero_sum_tail_honesty(ctx, store):
    v20, tail20 = sr.zero_sum_lhs(params(n_zeros=20), store, ctx)
    v30, _ = sr.zero_sum_lhs(params(n_zeros=30), store, ctx)
    assert abs(v30 - v20) < tail20


def test_zero_sum_simplicity_guard(ctx, store):
    bad = ZeroRecord(store[0].tau, ctx.mp.mpc("1e-16", 0))
    fake = ZeroStore((bad,) + store.records[1:])
    with pytest.raises(MultipleZeroError):
        sr.zero_sum_lhs(params(n_zeros=3), fake, ctx)


def test_zero_sums_are_the_one_process_loops_bit_for_bit(ctx192, store500_192, forks,
                                                         held_tables):
    # the sums as one loop over the zeros wrote them, before the split and
    # the hoisted invariants
    mp = ctx192.mp
    p = sr.SumRuleParams(a="0.6", x="0.4", n_zeros=500)
    a, x = p.bind(ctx192)
    total = mp.mpf(0)
    for rec in store500_192.records:
        rho = mp.mpc(0.5, rec.tau)
        w = mp.sqrt(rho - a)
        last = -cpow(x, (rho - a) / (4 * a), ctx192) / (
            w * mp.sinh(mp.pi / 2 * w / mp.sqrt(a)) * rec.zeta_prime)
        total += mp.re(last)
    assert _raw(sr.zero_sum_lhs(p, store500_192, ctx192)) == _raw((total, 3 * abs(last)))
    half, ln_x, one_plus_i = mp.mpf("0.5"), mp.log(x), mp.mpc(1, 1)
    lhs = mp.mpf(0)
    for rec in store500_192.records:
        tau = rec.tau
        num = mp.exp(mp.mpc(0, half) * (tau * ln_x + mp.pi / 2)) / mp.sqrt(tau)
        den = mp.sin(mp.pi * mp.sqrt(tau) / one_plus_i) * rec.zeta_prime
        lhs += mp.re(num / den)
    rep = sr.evaluate_rh_form(x, store500_192, ctx192, n_zeros=500)
    assert _raw(rep.lhs_zero_sum) == _raw(lhs)
    lhs = mp.mpf(0)
    for rec in store500_192.records:
        last = 2 * mp.sin(rec.tau * ln_x) / mp.sinh(mp.pi * rec.tau)
        lhs += last
    rep = sr.evaluate_guillera(x, store500_192, mangoldt_sieve(100), ctx192)
    assert _raw(rep.lhs_zero_sum) == _raw(lhs)
    assert dict(rep.aux)["zero_tail_bound"] == ctx192.nstr(3 * abs(last))
    # zero_sum_lhs, both loops of evaluate_rh_form, and evaluate_guillera's;
    # each of the first three is a new table, whose factors map first
    assert len(forks) == 7 * SPLITS
    assert_no_child()


@pytest.fixture(scope="module")
def stores_by_bits(ctx96, store30_96, ctx192, store40_192):
    # the last: a store's taus carry more bits than the context, and are rounded
    return {"96": (ctx96, store30_96), "192": (ctx192, store40_192),
            "96-over-192": (ctx96, store40_192)}


def zero_maps(fn):
    """fn()'s value and the list each sumrule map gives, in call order, with
    every map in process and no table held before or after."""
    maps = []

    def in_process(f, count, mp):
        maps.append([f(i) for i in range(count)])
        return maps[-1]

    sr._held.clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sr, "_split_map", in_process)
            return fn(), maps
    finally:
        sr._held.clear()


@pytest.mark.parametrize("bits", ["96", "192", "96-over-192"])
@settings(max_examples=30, deadline=None)
@given(a=st.one_of(st.just("0.5"), st.floats(min_value=0, max_value=40, exclude_min=True)),
       x=st.floats(min_value=0, max_value=1, exclude_min=True, exclude_max=True))
def test_raw_zero_terms_are_the_operator_expressions_bit_for_bit(stores_by_bits, bits, a, x):
    # each held factor and each term of zero_sum_lhs and evaluate_rh_form,
    # the last term's |t| included, against the mpf/mpc expressions they
    # repeat on raw tuples; a = 1/2 is mpc_exp's zero-real-part branch
    ctx, store = stores_by_bits[bits]
    mp = ctx.mp
    p = sr.SumRuleParams(a=a, x=x, n_zeros=len(store), n_trivial=4, n_halfint=2)
    assume(float(a) != 1)
    try:
        p.check_resonance(ctx)
    except sr.ResonantParameterError:
        assume(False)
    av, xv = p.bind(ctx)
    ln_x = mp.log(xv)
    _, (factors, terms) = zero_maps(lambda: sr.zero_sum_lhs(p, store, ctx))
    for i, rec in enumerate(store.records):
        w = mp.sqrt(mp.mpc(0.5, rec.tau) - av)
        d = w * mp.sinh(mp.pi / 2 * w / mp.sqrt(av)) * rec.zeta_prime
        assert factors[i]._mpc_ == d._mpc_
        t = -mp.exp((mp.mpc(0.5, rec.tau) - av) / (4 * av) * ln_x) / d
        assert _raw(terms[i]) == _raw((mp.re(t), abs(t)) if i == len(store) - 1 else mp.re(t))
    _, (dens, terms, *_) = zero_maps(lambda: sr.evaluate_rh_form(x, store, ctx, n_zeros=len(store),
                                                                 n_trivial=4, n_halfint=2))
    half = mp.mpf("0.5")
    for i, rec in enumerate(store.records):
        den = mp.sin(mp.pi * mp.sqrt(rec.tau) / mp.mpc(1, 1)) * rec.zeta_prime
        assert dens[i]._mpc_ == den._mpc_
        t = mp.exp(mp.mpc(0, half) * (rec.tau * ln_x + mp.pi / 2)) / mp.sqrt(rec.tau) / den
        assert terms[i]._mpf_ == mp.re(t)._mpf_


def test_a_closure_tail_forks_as_a_long_zero_sum_does(ctx192, store500_192, monkeypatch,
                                                      forks, held_tables):
    def zero_sum(n):
        return sr.zero_sum_lhs(sr.SumRuleParams(a="0.6", x="0.4", n_zeros=n), store500_192,
                               ctx192)

    zero_sum(500)  # a new table: its factors, then its terms
    assert len(forks) == 2 * SPLITS
    split = zero_sum(6)  # the size of each closure round's zero tail
    assert len(forks) == 4 * SPLITS
    assert_no_child()
    one_cpu(monkeypatch)
    assert _raw(split) == _raw(zero_sum(6))


def test_a_new_a_maps_its_factors_then_its_terms(ctx192, store500_192, monkeypatch, maps,
                                                 held_tables):
    # a new a builds its held factors by a map of their own, then maps its
    # terms over them; the same a again maps its terms alone
    p = sr.SumRuleParams(a="0.6", x="0.4", n_zeros=500)
    miss = _raw(sr.zero_sum_lhs(p, store500_192, ctx192))
    assert maps == ([500, 500] if SPLITS else [])
    hit = _raw(sr.zero_sum_lhs(p, store500_192, ctx192))
    assert maps == ([500, 500, 500] if SPLITS else [])
    assert_no_child()
    held_tables.clear()
    one_cpu(monkeypatch)
    assert miss == hit == _raw(sr.zero_sum_lhs(p, store500_192, ctx192))


@pytest.mark.parametrize("bad", [(67,), (70,), (70, 75)], ids=["odd", "even", "both"])
def test_split_zero_sum_raises_the_first_bad_zeros_error(ctx192, store500_192, monkeypatch,
                                                         forks, bad):
    count = 80
    floor = ctx192.mp.mpc("1e-16", 0)
    records = tuple(ZeroRecord(r.tau, floor)
                    if i in bad else r for i, r in enumerate(store500_192.records[:count]))
    fake = ZeroStore(records)
    p = sr.SumRuleParams(a="0.6", x="0.4", n_zeros=count)

    def message():
        with pytest.raises(MultipleZeroError) as info:
            sr.zero_sum_lhs(p, fake, ctx192)
        return str(info.value)

    split = message()
    with monkeypatch.context() as m:
        one_cpu(m)
        alone = message()
    assert split == alone == f"|zeta'(rho)| below simplicity floor at index {bad[0] + 1}"
    assert len(forks) == SPLITS
    assert_no_child()


@pytest.mark.parametrize("bits", [96, 192])
def test_zeta_at_odd_integers_is_computed_once(bits, monkeypatch, held_tables):
    ctx_b = NumericContext(bits)
    mp = ctx_b.mp
    engine = engine_for(ctx_b)
    p = sr.SumRuleParams(a="0.6", x="0.4", n_trivial=40)
    first = sr.trivial_series(p, ctx_b)
    for m in range(3, 82, 2):
        assert engine._zeta_odd(m) == engine.zeta(mp.mpf(m))
    em_calls = []
    em = engine._em

    def counting_em(s, want_deriv):
        em_calls.append(s)
        return em(s, want_deriv)

    monkeypatch.setattr(engine, "_em", counting_em)
    held_tables.clear()  # so the n-series reads zeta(2n+1) again, from the engine's table
    assert _raw(sr.trivial_series(p, ctx_b)) == _raw(first)
    assert em_calls == []


def test_trivial_series_first_term_and_ratio(ctx, engine):
    mp = ctx.mp
    p = params()
    a, x = p.bind(ctx)
    v1, tail1 = sr.trivial_series(params(n_trivial=1), ctx)
    q = mp.sqrt((2 + a) / a)
    term1 = (mp.power(2 * mp.pi, 2) * cpow(x, -(2 + a) / (4 * a), ctx)
             / (mp.sqrt(2 + a) * mp.sinpi(q / 2) * engine.zeta(mp.mpf(3))
                * mp.factorial(2)))
    assert abs(v1 - term1) < 1e-20 * abs(term1)
    assert abs(tail1 - 2 * abs(term1)) < 1e-20 * abs(term1)
    # late-term ratio approaches (2 pi)^2 x^(-1/(2a)) / ((2n+1)(2n+2))
    v_n = {n: sr.trivial_series(params(n_trivial=n), ctx)[0]
           for n in (20, 21)}
    t21 = v_n[21] - v_n[20]
    v_n20 = v_n[20] - sr.trivial_series(params(n_trivial=19), ctx)[0]
    expect = mp.power(2 * mp.pi, 2) * cpow(x, -1 / (2 * a), ctx) / (43 * 44)
    assert abs(abs(t21 / v_n20) / expect - 1) < 0.2


def test_trivial_series_tail_honesty(ctx):
    v24, tail24 = sr.trivial_series(params(n_trivial=24), ctx)
    v30, _ = sr.trivial_series(params(n_trivial=30), ctx)
    assert abs(v30 - v24) < tail24


def test_trivial_series_deep_tail():
    ctx192 = NumericContext(192)
    _, tail = sr.trivial_series(sr.SumRuleParams(a="0.5", x="0.5", n_trivial=40), ctx192)
    assert tail < ctx192.mp.mpf("1e-40")


def test_half_integer_series_terms(ctx, engine):
    mp = ctx.mp
    p = params()
    a, x = p.bind(ctx)
    v1, tail1 = sr.half_integer_series(params(n_halfint=1), ctx)
    want1 = (2 * mp.sqrt(a) / mp.pi) * (-1) * cpow(x, -1, ctx) / mp.mpf(ZETA_NEG_1_5)
    assert abs(v1 - want1) / abs(want1) < 1e-25
    # k = 6 magnitude bound at (0.5, 0.5)
    v6, tail6 = sr.half_integer_series(params(n_halfint=6), ctx)
    v5, _ = sr.half_integer_series(params(n_halfint=5), ctx)
    assert abs(v6 - v5) < mp.mpf("1e-30")
    # k = 0 summand (without prefactor) is 1/zeta(a)
    assert abs(cpow(x, 0, ctx) / engine.zeta(a) - 1 / engine.zeta(a)) == 0


def test_half_integer_tail_honesty(ctx):
    v8, tail8 = sr.half_integer_series(params(n_halfint=8), ctx)
    v12, _ = sr.half_integer_series(params(n_halfint=12), ctx)
    assert abs(v12 - v8) <= tail8


# -- evaluators --------------------------------------------------------------------


def test_evaluate_sumrule_passes_and_deterministic(ctx, store):
    p = params(n_zeros=30)
    rep1 = sr.evaluate_sumrule(p, store, ctx)
    rep2 = sr.evaluate_sumrule(p, store, ctx)
    assert rep1.passes()
    assert abs(rep1.residual) <= 10 * rep1.tail_bound
    for field in ("lhs_zero_sum", "rhs_const", "rhs_n_series", "rhs_k_series",
                  "residual", "tail_bound"):
        assert getattr(rep1, field) == getattr(rep2, field)
    assert rep1.zeros_used == 30
    assert rep1.notes  # conventions recorded


def test_evaluate_sumrule_rejects_bad_store(ctx, store):
    with pytest.raises(ValueError):
        sr.evaluate_sumrule(params(n_zeros=len(store) + 1), store, ctx)


def test_rh_form_cross_evaluation(ctx, store):
    rep = sr.evaluate_rh_form("0.5", store, ctx, n_zeros=20, n_trivial=24, n_halfint=8)
    aux = dict(rep.aux)
    for key in ("cross_lhs_diff", "cross_const_diff", "cross_n_diff", "cross_k_diff"):
        assert ctx.mp.mpf(aux[key]) < ctx.mp.mpf("1e-12")
    # the rejected variant differs by exactly x^(1/4)
    assert abs(ctx.mp.mpf(aux["rh_k_prefactor"]) - ctx.mp.mpf("0.5") ** ctx.mp.mpf("0.25")) \
        < ctx.mp.mpf("1e-20")
    assert rep.passes()


def test_rh_form_fails_on_its_cross_difference_alone(ctx, store, monkeypatch):
    rep = sr.evaluate_rh_form("0.5", store, ctx, n_zeros=20, n_trivial=24, n_halfint=8)
    [(cross, limit)] = rep.limits
    assert limit == ctx.mp.mpf("1e-12")
    assert ctx.nstr(cross) in [v for k, v in rep.aux if k.startswith("cross_")]
    # at its limit the cross-difference passes, one ulp above it fails
    assert dataclasses.replace(rep, limits=((limit, limit),)).passes()
    assert not dataclasses.replace(rep, limits=((next_up(limit), limit),)).passes()
    # an a = 1/2 reference whose n-series is off by 1e-11: the residual still
    # passes, the largest cross-difference does not, and so the report fails
    evaluate_sumrule = sr.evaluate_sumrule

    def shifted(params, store, ctx):
        ref = evaluate_sumrule(params, store, ctx)
        return dataclasses.replace(ref, rhs_n_series=ref.rhs_n_series + ctx.mp.mpf("1e-11"))

    monkeypatch.setattr(sr, "evaluate_sumrule", shifted)
    bad = sr.evaluate_rh_form("0.5", store, ctx, n_zeros=20, n_trivial=24, n_halfint=8)
    assert (bad.residual, bad.tail_bound) == (rep.residual, rep.tail_bound)
    assert abs(bad.limits[0][0] - ctx.mp.mpf("1e-11")) < ctx.mp.mpf("1e-20")
    assert not bad.passes()


def test_rh_form_single_term_matches_specialization(ctx, store):
    mp = ctx.mp
    x = mp.mpf("0.5")
    rec = store[0]
    tau = rec.tau
    num = mp.exp(mp.mpc(0, "0.5") * (tau * mp.log(x) + mp.pi / 2)) / mp.sqrt(tau)
    den = mp.sin(mp.pi * mp.sqrt(tau) / mp.mpc(1, 1)) * rec.zeta_prime
    term_tau = mp.re(num / den)
    a = mp.mpf("0.5")
    rho = mp.mpc(0.5, tau)
    w = mp.sqrt(rho - a)
    term_rho = mp.re(-cpow(x, (rho - a) / (4 * a), ctx)
                     / (w * mp.sinh(mp.pi / 2 * w / mp.sqrt(a)) * rec.zeta_prime))
    assert abs(term_tau - term_rho) < 1000 * ctx.target_tol * abs(term_rho)


def test_rh_form_constant_is_x_independent(ctx, store):
    rep1 = sr.evaluate_rh_form("0.5", store, ctx, n_zeros=5, n_trivial=8, n_halfint=4)
    rep2 = sr.evaluate_rh_form("0.25", store, ctx, n_zeros=5, n_trivial=8, n_halfint=4)
    assert rep1.rhs_const == rep2.rhs_const


def test_guillera_zero_terms_negligible(ctx, store):
    mp = ctx.mp
    tau1 = store[0].tau
    pair = 2 * mp.sin(tau1 * mp.log(mp.mpf("0.5"))) / mp.sinh(mp.pi * tau1)
    assert abs(pair) < mp.mpf("1e-18")


def test_guillera_residual_shrinks_with_cutoff(ctx, store):
    from zetasum.arith import mangoldt_sieve
    mp = ctx.mp
    residuals = []
    for limit in (10**4, 10**5):
        table = mangoldt_sieve(limit)
        rep = sr.evaluate_guillera("0.5", store, table, ctx)
        aux = dict(rep.aux)
        residuals.append(abs(mp.mpf(aux["residual_uncorrected"])))
        # the mean-value correction must improve on the raw truncation
        assert abs(rep.residual) < abs(mp.mpf(aux["residual_uncorrected"]))
    assert residuals[1] < residuals[0]


def test_guillera_float_series_matches_mpf(ctx192, store):
    # the Mangoldt series is summed in floats; a 192-bit sum of the same
    # terms agrees far inside the 1e-3 criterion
    from zetasum.arith import mangoldt_sieve
    mp = ctx192.mp
    table = mangoldt_sieve(10**5)
    rep = sr.evaluate_guillera("0.5", store, table, ctx192)
    series = rep.rhs_n_series - mp.mpf(dict(rep.aux)["tail_correction"])
    x = mp.mpf("0.5")
    exact = mp.fsum(mp.sqrt(n) * mp.log(p) / ((n + x) * (1 + n * x))
                    for n, p in table.prime_powers())
    exact *= (1 - x * x) / mp.pi
    assert abs(series - exact) < 1e-13


def test_guillera_domain(ctx, store):
    # one x rule: evaluate_guillera's message is the sum rule's, value and all
    from zetasum.arith import mangoldt_sieve
    table = mangoldt_sieve(100)
    for x, message in (("1.5", r"x must lie in \(0, 1\) exclusive, got 1\.5$"),
                       ("0", r"x must lie in \(0, 1\) exclusive, got 0\.0$"),
                       ("zz", r"x = 'zz' is not a number$")):
        with pytest.raises(ValueError, match=message):
            sr.evaluate_guillera(x, store, table, ctx)
        with pytest.raises(ValueError, match=message):
            params(x=x).bind(ctx)
    # x within 1e-6 of 1 is h's own singular window
    with pytest.raises(ValueError, match="individually singular"):
        sr.evaluate_guillera("0.9999999", store, table, ctx)


# -- the verdict rule ----------------------------------------------------------------


def evaluation_report(residual, tail_bound):
    zero = 0 * tail_bound
    return sr.EvaluationReport(a=zero, x=zero, lhs_zero_sum=zero, rhs_const=zero,
                               rhs_n_series=zero, rhs_k_series=zero, residual=residual,
                               tail_bound=tail_bound, zeros_used=0)


def closure_report(residual, tail_bound):
    zero = 0 * tail_bound
    return sr.ClosureReport(a=zero, x=zero, integral=zero, residue_sum=zero, orientation=-1,
                            residual=residual, tail_bound=tail_bound, sites=0)


@pytest.mark.parametrize("report", [evaluation_report, closure_report],
                         ids=["evaluation", "closure"])
@pytest.mark.parametrize("tail", ["1e-13", "1e-4", "0.375", "2.4e70"])
def test_verdict_is_ten_tail_bounds(ctx, report, tail):
    # |residual| = 10 * tail_bound passes, one ulp above fails; a closure's
    # residual is a modulus, a sum rule's has a sign
    tail_bound = ctx.mp.mpf(tail)
    bound = 10 * tail_bound
    assert report(bound, tail_bound).passes()
    assert not report(next_up(bound), tail_bound).passes()
    if report is evaluation_report:
        assert report(-bound, tail_bound).passes()
        assert not report(-next_up(bound), tail_bound).passes()


def test_closure_verdict_is_the_evaluation_verdict():
    assert sr.ClosureReport.passes is sr.EvaluationReport.passes


# -- closure -----------------------------------------------------------------------


def test_closure_small(ctx, store):
    p = params(n_zeros=12, n_trivial=12, n_halfint=6)
    rep = sr.verify_residue_theorem(p, store, ctx)
    assert rep.orientation == -1
    assert rep.passes()
    assert rep.sites == 12 + (6 + 1) + 2 * 12


def test_closure_ablation_family_b(ctx, store):
    # dropping the half-integer family moves the check by ~ its residue sum
    mp = ctx.mp
    p = params(n_zeros=8, n_trivial=10, n_halfint=5)
    integral = sr.contour_integral(p, ctx)
    catalog = sr.pole_catalog(p, store, ctx)
    full = mp.mpc(0)
    without_b = mp.mpc(0)
    b_sum = mp.mpc(0)
    for site in catalog:
        res = sr.numeric_residue(site, p, ctx, catalog, store=store)
        full += res
        if site.family == "half_integer":
            b_sum += res
        else:
            without_b += res
    # catalog truncation leaves a gap far below the ablation signal
    assert abs(integral + full) < abs(b_sum) * mp.mpf("1e-3")
    gap = abs(integral + without_b)
    assert abs(gap - abs(b_sum)) < abs(b_sum) * mp.mpf("0.01")


def test_closure_maps_its_residues_and_is_the_one_cpu_report(ctx, store, monkeypatch, forks,
                                                             maps, held_tables):
    p = params(n_zeros=2, n_trivial=2, n_halfint=1)
    split = sr.verify_residue_theorem(p, store, ctx)
    # one fork per contour level, one for the 8 residues (4 sites and 2 zero
    # and conjugate pairs), and for the 2-zero tail one for its factors and
    # one for its terms
    assert maps[-3:] == ([6, 2, 2] if SPLITS else [])
    assert len(forks) == len(maps) and (len(maps) > 3) == SPLITS
    assert_no_child()
    one_cpu(monkeypatch)
    alone = sr.verify_residue_theorem(p, store, ctx)
    assert split.sites == 8
    for field in dataclasses.fields(sr.ClosureReport):
        assert _raw(getattr(split, field.name)) == _raw(getattr(alone, field.name))


@pytest.mark.parametrize("bad", [(3,), (6,), (5, 6)], ids=["odd", "even", "both"])
def test_closure_raises_the_first_failing_sites_error(ctx, store, monkeypatch, forks, bad):
    p = params(n_zeros=2, n_trivial=2, n_halfint=1)
    catalog = sr.pole_catalog(p, store, ctx)
    bad_sites = [(catalog[i].family, catalog[i].index) for i in bad]
    numeric_residue = sr.numeric_residue

    def failing(site, *args, **kwargs):
        if (site.family, site.index) in bad_sites:
            raise sr.SingularityError(f"residue fails at {site.family} {site.index}")
        return numeric_residue(site, *args, **kwargs)

    monkeypatch.setattr(sr, "numeric_residue", failing)
    monkeypatch.setattr(sr, "contour_integral", lambda params, ctx: ctx.mp.mpc(0))

    def message():
        with pytest.raises(sr.SingularityError) as info:
            sr.verify_residue_theorem(p, store, ctx)
        return str(info.value)

    split = message()
    with monkeypatch.context() as m:
        one_cpu(m)
        alone = message()
    assert split == alone == "residue fails at %s %d" % bad_sites[0]
    assert len(forks) == SPLITS
    assert_no_child()


# -- held x-independent tables -------------------------------------------------


def report_bits(rep):
    """Every field of a report, each number as its raw mpmath tuple."""
    def bits(v):
        if isinstance(v, tuple):
            return tuple(bits(u) for u in v)
        return _raw(v) if hasattr(v, "_mpf_") or hasattr(v, "_mpc_") else v

    return {f.name: bits(getattr(rep, f.name)) for f in dataclasses.fields(rep)}


@pytest.mark.parametrize("bits", [96, 192])
def test_held_tables_give_the_bits_of_a_fresh_call(bits, store500_192, monkeypatch, forks,
                                                   held_tables):
    # two values of a alternating, at 100 -> 500 -> 100 zeros: misses, hits
    # and rebuilt tables, each call against the same call with no table held,
    # and the whole sequence again on one CPU
    ctx_b = NumericContext(bits)
    calls = [sr.SumRuleParams(a=a, x=x, n_zeros=n) for n in (100, 500, 100)
             for a, x in (("0.6", "0.4"), ("0.9", "0.4"), ("0.6", "0.75"), ("0.9", "0.25"))]

    def run(fresh):
        reports = []
        for p in calls:
            if fresh:
                held_tables.clear()
            reports.append(report_bits(sr.evaluate_sumrule(p, store500_192, ctx_b)))
        for x in ("0.4", "0.75", "0.4"):
            if fresh:
                held_tables.clear()
            reports.append(report_bits(sr.evaluate_rh_form(x, store500_192, ctx_b, n_zeros=500)))
        return reports

    held = run(fresh=False)
    # one split per zero sum, hit or miss, and one more per miss: the first
    # two calls at each count of zeros, and the first rh-form's two sums
    assert len(forks) == (len(calls) + 2 * 3 + 3 * 2 + 2) * SPLITS
    assert_no_child()
    assert run(fresh=True) == held
    held_tables.clear()
    one_cpu(monkeypatch)
    assert run(fresh=False) == held


def test_a_repeated_a_computes_only_its_x_dependent_terms(ctx192, store500_192, monkeypatch,
                                                          held_tables):
    one_cpu(monkeypatch)
    mp = ctx192.mp
    sr.evaluate_sumrule(sr.SumRuleParams(a="0.6", x="0.4", n_zeros=500), store500_192, ctx192)
    sr.evaluate_rh_form("0.4", store500_192, ctx192, n_zeros=500)
    engine = engine_for(ctx192)
    calls = []
    for name in ("sinh", "sin", "loggamma"):
        monkeypatch.setattr(mp, name, lambda *args, _f=getattr(mp, name), _n=name:
                            calls.append(_n) or _f(*args))
    for name in ("zeta", "zeta_reflect_log"):
        monkeypatch.setattr(engine, name, lambda *args, _f=getattr(engine, name), _n=name:
                            calls.append(_n) or _f(*args))
    monkeypatch.setattr(sr.SumRuleParams, "check_resonance",
                        lambda self, ctx: calls.append("check_resonance"))
    sr.evaluate_sumrule(sr.SumRuleParams(a="0.6", x="0.75", n_zeros=500), store500_192, ctx192)
    assert calls == []
    # rh-form reads its own zero table and its own series, constant included
    sr.evaluate_rh_form("0.75", store500_192, ctx192, n_zeros=500)
    assert calls == []


def test_the_cross_check_fails_on_a_scaled_held_table(ctx, store, held_tables):
    mp = ctx.mp
    half, scale = ctx.mp.mpf("0.5"), 1 + ctx.mp.mpf("1e-9")

    def rh_form():
        rep = sr.evaluate_rh_form("0.75", store, ctx, n_zeros=20, n_trivial=24, n_halfint=8)
        return rep, {k: ctx.mp.mpf(v) for k, v in rep.aux if k.startswith("cross_")}

    good, cross = rh_form()
    assert good.passes() and max(cross.values()) < ctx.mp.mpf("1e-12")
    key, dens = held_tables["zero sum", half]
    held_tables["zero sum", half] = key, [(mp.make_mpc(d) * scale)._mpc_ for d in dens]
    bad, cross = rh_form()
    assert cross["cross_lhs_diff"] > ctx.mp.mpf("1e-12") and not bad.passes()
    # rh-form's own zero sum reads its own table, not the scaled one
    assert _raw(bad.lhs_zero_sum) == _raw(good.lhs_zero_sum)
    held_tables["zero sum", half] = key, dens
    key, rows = held_tables["k-series", half]
    held_tables["k-series", half] = key, [(m, log_abs - mp.log(scale), sign)
                                          for m, log_abs, sign in rows]
    bad, cross = rh_form()
    assert cross["cross_k_diff"] > ctx.mp.mpf("1e-12") and not bad.passes()
    assert cross["cross_lhs_diff"] < ctx.mp.mpf("1e-12")
    assert _raw(bad.rhs_k_series) == _raw(good.rhs_k_series)
    # and the other way round: rh-form's own k rows scaled, the sum rule's
    # k-series keeps its bits
    held_tables["k-series", half] = key, rows
    ref = sr.SumRuleParams(a="0.5", x="0.75", n_zeros=20, n_trivial=24, n_halfint=8)
    ref_k = sr.evaluate_sumrule(ref, store, ctx).rhs_k_series
    key, (n_rows, k_rows, const) = held_tables["rh-form series", half]
    held_tables["rh-form series", half] = key, (n_rows, [(sign, m, log_abs - mp.log(scale))
                                                         for sign, m, log_abs in k_rows], const)
    bad, cross = rh_form()
    assert cross["cross_k_diff"] > ctx.mp.mpf("1e-12") and not bad.passes()
    assert cross["cross_lhs_diff"] < ctx.mp.mpf("1e-12")
    assert _raw(bad.rhs_k_series) != _raw(good.rhs_k_series)
    assert _raw(sr.evaluate_sumrule(ref, store, ctx).rhs_k_series) == _raw(ref_k)


def test_a_failure_is_never_held(ctx192, store500_192, held_tables):
    records = store500_192.records[:80]
    fake = ZeroStore(tuple(ZeroRecord(r.tau, ctx192.mp.mpc("1e-16", 0)) if i == 70 else r
                           for i, r in enumerate(records)))
    p = sr.SumRuleParams(a="0.6", x="0.4", n_zeros=80)
    a, _ = p.bind(ctx192)
    sr.evaluate_sumrule(p, ZeroStore(records), ctx192)  # the good store's tables, at this a
    for _ in range(2):
        with pytest.raises(MultipleZeroError, match="at index 71$"):
            sr.evaluate_sumrule(p, fake, ctx192)
        assert ("zero sum", a) not in held_tables  # nothing held for the failed sum
    # a resonant a raises on every call, also next to a held neighbour's tables
    near = sr.SumRuleParams(a="2.5", x="0.4", n_zeros=80)
    resonant = sr.SumRuleParams(a="2", x="0.4", n_zeros=80)
    for _ in range(2):
        sr.evaluate_sumrule(near, store500_192, ctx192)
        for evaluate in (lambda p: sr.evaluate_sumrule(p, store500_192, ctx192),
                         lambda p: sr.trivial_series(p, ctx192),
                         lambda p: sr.half_integer_series(p, ctx192)):
            with pytest.raises(sr.ResonantParameterError):
                evaluate(resonant)
    assert not [slot for slot in held_tables if slot[1] == 2]


def test_the_held_tables_stay_bounded(cache_dir, store30_96, capsys, held_tables):
    common = ["--zeros", "10", "--precision", "96", "--cache-dir", cache_dir]
    assert main(["scan", "--a-list", "0.45,0.6,0.9", "--x-list", "0.25,0.5,0.75",
                 "--format", "csv"] + common) == 0
    for x in ("0.4", "0.6"):
        main(["verify", "sumrule", "--a", "0.7", "--x", x] + common)
        main(["verify", "rh-form", "--x", x] + common)
    capsys.readouterr()
    # two values of a for each of the four sum-rule tables, the caller's and
    # rh-form's a = 1/2, and rh-form's own zero table and series slot: ten
    # tables at most
    series = [name for name, _ in held_tables]
    assert len(held_tables) <= 10
    assert all(series.count(name) <= 2 for name in series)
    assert series.count("rh-form") == series.count("rh-form series") == 1
    assert {float(a) for name, a in held_tables if not name.startswith("rh-form")} == {0.7, 0.5}

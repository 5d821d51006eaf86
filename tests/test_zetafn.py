import math
import random
from fractions import Fraction

import mpmath
import pytest

from zetasum import zetafn
from zetasum.numctx import NumericContext
from zetasum.zetafn import PrecisionError, ZetaEngine, ZetaPoleError, engine_for

CTX = NumericContext(192)
ENG = ZetaEngine(CTX)

# frozen pre-build oracle values (independent multiprecision evaluation, 60 dps)
ZETA_HALF = "-1.46035450880958681288949915251529801246722933101258149054289"
ZETA_3 = "1.20205690315959428539973816151144999076498629234049888179227"
ZETA_NEG_1_5 = "-0.0254852018898330359495429869107047454690249846009729968346455"
ZETA_D_NEG2 = "-0.0304484570583932707802515304711547766470004835449739362529719"
ZETA_D_ZERO = "-0.918938533204672741780329736405617639861397473637783412817152"
TAU_1 = "14.13472514173469379045725198356247027078425711569924317568556746015"
ZETA_D_RHO1_RE = "0.78329651186703092864965720923906507479613917974328357030271681915"
ZETA_D_RHO1_IM = "0.12469982974817108940992849150890537284325083787797435941149080826"
THETA_ARGMIN = "6.28983598883690277966509010082"
GRAM_PI = "23.1702827012463092789966435383"  # first root of theta(t) = pi
GRAM_ZERO = "17.8455995404108"  # theta vanishes here (conventional scaffold point)


def test_bernoulli_exact():
    # the engine's Euler-Maclaurin coefficients are B_2j/(2j)! at working precision
    mp = CTX.mp
    known = {2: Fraction(1, 6), 4: Fraction(-1, 30), 6: Fraction(1, 42),
             8: Fraction(-1, 30), 10: Fraction(5, 66), 12: Fraction(-691, 2730),
             14: Fraction(7, 6), 16: Fraction(-3617, 510)}
    for idx, want in known.items():
        assert ENG._coef[idx // 2 - 1] == (mp.mpf(want.numerator) / want.denominator
                                          / mp.factorial(idx))


def test_zeta_classical_identities():
    mp = CTX.mp
    assert abs(ENG.zeta(mp.mpf(2)) - mp.pi ** 2 / 6) <= 10 * CTX.ulp(mp.pi ** 2 / 6)
    assert ENG.zeta(mp.mpf(0)) == mp.mpf("-0.5")
    assert abs(ENG.zeta(mp.mpf(-7)) - mp.mpf(1) / 240) <= 10 * CTX.ulp(mp.mpf(1) / 240)
    assert abs(ENG.zeta(mp.mpf("0.5")) - mp.mpf(ZETA_HALF)) < 100 * CTX.target_tol
    assert abs(ENG.zeta(mp.mpf("-1.5")) - mp.mpf(ZETA_NEG_1_5)) < 100 * CTX.target_tol
    assert abs(ENG.zeta(mp.mpf(3)) - mp.mpf(ZETA_3)) < 100 * CTX.target_tol


def test_zeta_pole_rejected():
    with pytest.raises(ZetaPoleError):
        ENG.zeta(CTX.mp.mpf(1))
    with pytest.raises(ZetaPoleError):
        ENG.zeta_deriv(CTX.mp.mpf(1))


@pytest.mark.parametrize("re,im", [
    (0.5, 14.1347251417), (2.0, 0.0), (3.0, 50.0), (0.6, -30.0),
    (-3.2, 4.5), (0.25, 2.0), (10.0, 100.0), (0.5, 236.524),
])
def test_zeta_against_independent_oracle(re, im):
    mpmath.mp.prec = 280
    ref = mpmath.zeta(mpmath.mpc(re, im))
    got = ENG.zeta(CTX.mp.mpc(re, im))
    diff = abs(mpmath.mpc(str(CTX.mp.re(got)), str(CTX.mp.im(got))) - ref)
    assert diff < mpmath.mpf(2) ** (-180) * max(1, abs(ref))


def test_reflection_vs_direct_consistency():
    # reflection output == direct Euler-Maclaurin at 1-s pushed through the factors
    mp = CTX.mp
    rng = random.Random(7)
    for _ in range(100):
        s = mp.mpc(rng.uniform(-10, -0.5), rng.uniform(-40, 40))
        direct = ENG._em(1 - s, want_deriv=False)
        assembled = (mp.power(2, s) * mp.power(mp.pi, s - 1) * mp.sinpi(s / 2)
                     * mp.gamma(1 - s) * direct)
        got = ENG.zeta(s)
        assert abs(got - assembled) <= 100 * CTX.target_tol * max(1, abs(assembled))


def test_zeta_deriv_values():
    mp = CTX.mp
    assert abs(ENG.zeta_deriv(mp.mpf(-2)) - mp.mpf(ZETA_D_NEG2)) < 100 * CTX.target_tol
    assert abs(ENG.zeta_deriv(mp.mpf(0)) - mp.mpf(ZETA_D_ZERO)) < 1e-40
    got = ENG.zeta_deriv(mp.mpc("0.5", TAU_1))
    want = mp.mpc(ZETA_D_RHO1_RE, ZETA_D_RHO1_IM)
    assert abs(got - want) < mp.mpf("1e-50")
    assert 0.7 < abs(got) < 0.9


def test_zeta_deriv_cauchy_cross_check():
    mp = CTX.mp
    for s in (mp.mpf(2), mp.mpc(0.5, 14.1347251417), mp.mpf(-2), mp.mpf(-4),
              mp.mpc(-1.5, 3)):
        direct = ENG.zeta_deriv(s)
        circle = ENG.cauchy_deriv(s, radius=mp.mpf("1e-3"))
        assert abs(direct - circle) <= 10 * CTX.target_tol * max(1, abs(direct))


def test_zeta_deriv_neg_even():
    mp = CTX.mp
    want1 = -mp.mpf(ZETA_3) / (4 * mp.pi ** 2)
    assert abs(ENG.zeta_deriv_neg_even(1) - want1) < 100 * CTX.target_tol
    want2 = ENG.zeta(mp.mpf(5)) * 24 / (2 * mp.power(2 * mp.pi, 4))
    assert abs(ENG.zeta_deriv_neg_even(2) - want2) < 100 * CTX.target_tol
    assert ENG.zeta_deriv_neg_even(1) < 0 < ENG.zeta_deriv_neg_even(2)
    for n in range(1, 11):
        cf = ENG.zeta_deriv_neg_even(n)
        em = ENG.zeta_deriv(mp.mpf(-2 * n))
        assert abs(cf - em) <= 10 * CTX.target_tol * abs(cf)
    with pytest.raises(ValueError):
        ENG.zeta_deriv_neg_even(0)


def test_theta_shape_and_gram_points():
    mp = CTX.mp
    # unique minimum near 6.2898 (pre-build grid-scan oracle)
    tmin = mp.mpf(THETA_ARGMIN)
    for d in (mp.mpf("0.05"), mp.mpf("0.5"), mp.mpf(2)):
        assert ENG.riemann_siegel_theta(tmin - d) > ENG.riemann_siegel_theta(tmin)
        assert ENG.riemann_siegel_theta(tmin + d) > ENG.riemann_siegel_theta(tmin)
    # theta vanishes at the classical scaffold point near 17.8456
    assert abs(ENG.riemann_siegel_theta(mp.mpf(GRAM_ZERO))) < mp.mpf("1e-12")
    # bisection on theta - pi lands at the frozen oracle value
    lo, hi = mp.mpf(22), mp.mpf(24)
    f = lambda t: ENG.riemann_siegel_theta(t) - mp.pi
    assert f(lo) < 0 < f(hi)
    for _ in range(80):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert abs((lo + hi) / 2 - mp.mpf(GRAM_PI)) < mp.mpf("1e-20")
    with pytest.raises(ValueError):
        ENG.riemann_siegel_theta(mp.mpf(-1))


def test_hardy_z_sign_change_and_modulus():
    mp = CTX.mp
    z14 = ENG.hardy_z(mp.mpf(14))
    z142 = ENG.hardy_z(mp.mpf("14.2"))
    assert z14 * z142 < 0
    for t in (mp.mpf(5), mp.mpf(20), mp.mpf("33.3")):
        assert abs(abs(ENG.hardy_z(t)) - abs(ENG.zeta(mp.mpc(0.5, t)))) \
            < 1000 * CTX.target_tol
    # consecutive scaffold points straddle the first zero: signs alternate
    assert ENG.hardy_z(mp.mpf(GRAM_ZERO)) * ENG.hardy_z(mp.mpf(GRAM_PI)) < 0


def test_doubling_stability():
    mp = CTX.mp
    for s in (mp.mpf(2), mp.mpc(0.5, 25), mp.mpf("0.5")):
        n0 = ENG._pick_n(s)
        v1, d1, _ = ENG._em_once(s, n0, want_deriv=True)
        v2, d2, _ = ENG._em_once(s, 2 * n0, want_deriv=True)
        assert abs(v1 - v2) < CTX.target_tol
        assert abs(d1 - d2) < CTX.target_tol
        # the zeta of the fused pass is the zeta of a plain pass, bit for bit
        assert ENG._em_once(s, n0, want_deriv=False)[:2] == (v1, None)


def smallest_prime_factor(k):
    return min(q for q in range(2, k + 1) if k % q == 0)


def em_once_objects(eng, s, n, want_deriv, products=True):
    """The object-level Euler-Maclaurin pass that ZetaEngine._em_once's raw
    loop replaced, with k^-s as mp.power(k, -s) and log k as mp.log(k):
    (zeta(s), zeta'(s) or None, first omitted Bernoulli term, the rule that
    stopped it).  The raw loop must return its first three bit for bit.
    With products, off the real axis and off the critical line a composite
    k^-s is q^-s (k/q)^-s, q the smallest prime factor of k; without, every
    k^-s is mp.power(k, -s), the pass before the products."""
    mp = eng.ctx.mp
    tol = eng._stop_tol
    total = mp.mpf(1)
    deriv = mp.mpf(0) if want_deriv else None
    sieve = products and mp.im(s) != 0 and mp.re(s) != 0.5
    powers = {}
    for k in range(2, n):
        q = smallest_prime_factor(k)
        p = powers[k] = powers[q] * powers[k // q] if sieve and q < k else mp.power(k, -s)
        total += p
        if want_deriv:
            deriv -= mp.log(k) * p
    ln_n = mp.log(n)
    n1s = mp.power(n, 1 - s)
    ns = mp.power(n, -s)
    total += n1s / (s - 1) + ns / 2
    if want_deriv:
        deriv += -ln_n * n1s / (s - 1) - n1s / (s - 1) ** 2
        deriv += -ln_n * ns / 2
    rf = s
    rf_logd = 1 / s if want_deriv else None
    npow = ns / n
    j = 0
    prev_mag = mp.inf
    while True:
        j += 1
        term = eng._coef[j - 1] * rf * npow
        mag = abs(term)
        if mag < tol:
            return total, deriv, mag, "tol"
        if j > eng._m_cap:
            return total, deriv, mag, "m_cap"
        if mag > prev_mag * 4:
            return total, deriv, mag, "4 x previous"
        total += term
        if want_deriv:
            deriv += term * (rf_logd - ln_n)
        prev_mag = mag
        rf = rf * (s + (2 * j - 1)) * (s + 2 * j)
        if want_deriv:
            rf_logd = rf_logd + 1 / (s + (2 * j - 1)) + 1 / (s + 2 * j)
        npow = npow / (n * n)


def em_calls(eng, evaluate):
    """The (s, n) of every _em_once call that evaluate() makes on eng."""
    calls = []
    em_once = eng._em_once

    def recording(s, n, want_deriv):
        calls.append((s, n))
        return em_once(s, n, want_deriv)

    eng._em_once = recording
    try:
        evaluate()
    finally:
        del eng._em_once
    return calls


def bits(values):
    return [None if v is None else (type(v).__name__, zetafn._raw(v)) for v in values]


def bernoulli_sizes(eng, s, n):
    """|term| of each Bernoulli correction that em_once_objects forms at
    cutoff n, up to the one it stops at."""
    mp = eng.ctx.mp
    rf, npow, sizes = s, mp.power(n, -s) / n, []
    for j, c in enumerate(eng._coef, start=1):
        sizes.append(abs(c * rf * npow))
        if (sizes[-1] < eng._stop_tol or j > eng._m_cap
                or len(sizes) > 1 and sizes[-1] > 4 * sizes[-2]):
            return sizes
        rf = rf * (s + (2 * j - 1)) * (s + 2 * j)
        npow = npow / (n * n)


@pytest.mark.parametrize("prec", [96, 192])
def test_raw_em_loop_equals_the_object_loop(prec):
    ctx = NumericContext(prec)
    mp = ctx.mp
    eng = ZetaEngine(ctx)
    a = mp.mpf("0.5")
    contour = [mp.mpc(0, t) for t in ("-3.7", "-0.45", "1.2")]  # s = i t
    residue = [mp.mpc("-0.5", 0) + mp.mpf("0.01") * mp.expjpi(mp.mpf(j) / 4)
               for j in (0, 1, 3, 4)]  # the circle around the half-integer pole s = -1/2
    calls = []
    for t in ("14.13", "60", "400"):
        calls += em_calls(eng, lambda: eng.zeta(mp.mpc(0.5, mp.mpf(t))))
    for s in contour + residue:
        calls += em_calls(eng, lambda: eng.zeta(4 * a * s * (1 - s)))
    for x in ("0.3", "1.5"):
        calls += em_calls(eng, lambda: eng.zeta(mp.mpf(x)))
    for m in (3, 5, 41):
        calls += em_calls(eng, lambda: eng._zeta_odd(m))
    calls += em_calls(eng, lambda: eng.zeta_reflect_log(mp.mpf("-1.5")))
    calls += em_calls(eng, lambda: eng.zeta_reflect_log(mp.mpf("-3.3")))
    assert {type(s).__name__ for s, _ in calls} == {"mpf", "mpc"}
    assert any(mp.im(s) == 0 for s, _ in calls if type(s).__name__ == "mpc")  # a real w as an mpc
    # n <= 3, and cutoffs too small for the Bernoulli stop
    calls += [(mp.mpc(0.5, 20), 1), (mp.mpc(0.5, 20), 3), (mp.mpf(3), 2),
              (mp.mpc(0.5, mp.mpf(400)), 4), (mp.mpf("1.5"), 22 * prec // 192)]
    # off the line, k < 13 covers the prime powers 4, 8, 9 and the products
    # of distinct primes 6, 10: each a product of two held powers
    calls.append((mp.mpc("0.75", "2.5"), 13))
    # where the exponents of a term's parts cannot decide the Bernoulli stop:
    # |term| within a factor 4 of tol, and consecutive |term| ratios in [1/4, 4]
    tol = eng._stop_tol
    for s, n in ((mp.mpc(2, 3), {96: 14, 192: 25}[prec]), (mp.mpc(1.5, 0), {96: 13, 192: 24}[prec])):
        sizes = bernoulli_sizes(eng, s, n)
        assert any(tol / 4 <= v <= 4 * tol for v in sizes)
        assert any(1 / mp.mpf(4) <= v / u <= 4 for u, v in zip(sizes, sizes[1:]))
        calls.append((s, n))
    # a complex s on the real axis; sigma just above 4, where N's cut is
    # tested; sigma where the cut decides N, and where N is its floor of 4
    edge = mp.mpc(4 + mp.mpf(2) ** -80, 7)
    assert eng._pick_n(edge) == eng._n0 + 3
    assert 4 < eng._pick_n(mp.mpc(40, 7)) < eng._n0 and eng._pick_n(mp.mpc(150, 7)) == 4
    calls += [(s, eng._pick_n(s)) for s in (mp.mpc(3, 0), edge, mp.mpc(40, 7), mp.mpc(150, 7))]
    stops = set()
    for s, n in calls:
        for want_deriv in (False, True):
            *want, stop = em_once_objects(eng, s, n, want_deriv)
            assert bits(eng._em_once(s, n, want_deriv)) == bits(want), (s, n, want_deriv)
            stops.add(stop)
    assert stops == {"tol", "m_cap", "4 x previous"}
    # N^-s and log N come from the table's row N: an n one past its length
    for s in (mp.mpc(0.5, 20), mp.mpc(1.25, -8)):
        n = len(eng._logk)
        for want_deriv in (False, True):
            want = em_once_objects(eng, s, n, want_deriv)[:3]
            assert bits(eng._em_once(s, n, want_deriv)) == bits(want), (s, n, want_deriv)
        assert len(eng._logk) == n + 1


def off_line_passes(mp):
    """The s of off-line Euler-Maclaurin passes: the golden points (2, 3),
    (0.7, -5) and (-1.2, 7.5); contour nodes w = 4a s(1 - s), s = i t, at the
    benchmark's three a (0.5, 2 and 0.9); and nodes c + e^(i pi j/4)/100,
    j = 1, 3, 6, of the circles at a = 1/2 around the first trivial-zero
    pole, the half-integer pole 3/2 and the first critical-zero pole, mapped
    to w.  Each w left of 1/2 is reflected to 1 - w, the pass the engine
    sums there."""
    points = [mp.mpc(2, 3), mp.mpc("0.7", -5), mp.mpc("-1.2", "7.5")]
    for a in ("0.5", "2", "0.9"):
        points += [4 * mp.mpf(a) * s * (1 - s) for s in (mp.mpc(0, t) for t in ("-3.7", "-0.45",
                                                                              "1.2", "6.1"))]
    a, rho = mp.mpf("0.5"), mp.mpc("0.5", TAU_1)
    for c in ((1 + mp.sqrt((2 + a) / a)) / 2, mp.mpf("1.5"), (1 + mp.sqrt(1 - rho / a)) / 2):
        for j in (1, 3, 6):
            s = c + mp.expjpi(mp.mpf(j) / 4) / 100
            points.append(4 * a * s * (1 - s))
    return [w if mp.re(w) >= 0.5 else 1 - w for w in points]


@pytest.mark.parametrize("prec", [96, 192])
def test_off_line_passes_against_mpmath(prec):
    # zeta and zeta' of each pass against mpmath.zeta at 2p + 64 bits.  Each
    # error must stay below 2^-(p+16) |zeta|, or at most that of the same
    # pass over mp.power(k, -s) at the same (s, N) plus 2^-(p+24) |zeta|:
    # the composite products may cost rounding, not digits.  Where the
    # Bernoulli remainder dominates, both errors are it, and rounding moves
    # them apart by up to about 2^-(p+25) |zeta|, in either direction.
    ctx = NumericContext(prec)
    mp = ctx.mp
    eng = ZetaEngine(ctx)
    points, changed = off_line_passes(mp), 0
    with mpmath.workprec(2 * prec + 64):
        to = lambda v: mpmath.mpc(mpmath.mpf(mp.re(v)), mpmath.mpf(mp.im(v)))
        for s in points:
            assert mp.im(s) != 0 and mp.re(s) >= 0.5
            got = []
            n = em_calls(eng, lambda: got.extend(eng.zeta(s, with_deriv=True)))[-1][1]
            plain = em_once_objects(eng, s, n, True, products=False)[:2]
            changed += got != list(plain)
            want = (mpmath.zeta(to(s)), mpmath.zeta(to(s), derivative=1))
            bound = mpmath.mpf(2) ** -(prec + 16) * abs(want[0])
            for v, old, ref in zip(got, plain, want):
                err, err_old = abs(to(v) - ref), abs(to(old) - ref)
                assert err < bound or err <= err_old + bound / 256, (s, err / bound)
    assert changed > len(points) // 4  # the products change some passes' bits


def pick_n_objects(eng, s):
    """The mpf expression that ZetaEngine._pick_n's libmp calls replaced."""
    mp = eng.ctx.mp
    n = eng._n0 + int(0.56 * abs(mp.im(s)))
    sigma = mp.re(s)
    if sigma > 4:
        cut = int(mp.mpf(2) ** ((eng.ctx.precision_bits + 34.0) / sigma)) + 2
        n = min(n, max(4, cut))
    return n


@pytest.mark.parametrize("prec", [96, 192])
def test_pick_n_equals_the_object_expression(prec):
    mp = NumericContext(prec).mp
    eng = ZetaEngine(NumericContext(prec))
    ims = [mp.mpf(0), mp.mpf("14.13"), mp.mpf(-400)]
    floors = set()
    for k in (1, 25, 100, 224):  # 0.56 |t| within 1e-30 of the integer k
        t = k / mp.mpf(0.56)
        for v in (t - mp.mpf("1e-30"), t, t + mp.mpf("1e-30")):
            assert abs(0.56 * v - k) < mp.mpf("1e-30")
            ims += [v, -v]
            floors.add(int(0.56 * v) - k)
    assert floors == {-1, 0}  # both sides of the integer
    # sigma = (p + 34)/m, where 2^((p+34)/sigma) is 2^m, and sigma at 4
    sigmas = [mp.mpf(prec + 34) / m for m in range(1, (prec + 34) // 4 + 1)]
    sigmas += [mp.mpf("0.5"), mp.mpf(4), 4 - mp.mpf(2) ** -100, 4 + mp.mpf(2) ** -100]
    for sigma in sigmas:
        assert eng._pick_n(sigma) == pick_n_objects(eng, sigma)  # a real s
        for im in ims:
            s = mp.mpc(sigma, im)
            assert eng._pick_n(s) == pick_n_objects(eng, s), s


def test_engine_for_one_per_context():
    eng = engine_for(NumericContext(192))
    assert engine_for(CTX) is eng and eng.ctx == CTX
    assert engine_for(NumericContext(128)) is not eng
    assert abs(eng.zeta(CTX.mp.mpf(2)) - CTX.mp.pi ** 2 / 6) < 100 * CTX.target_tol


def test_precision_error_when_escalation_disabled(monkeypatch):
    # two Bernoulli corrections cannot reach 192-bit accuracy at N = 10, and
    # without escalation N stays there; a fresh engine, so the shared
    # engine_for(CTX) keeps its own settings
    monkeypatch.setattr(zetafn, "MAX_ESCALATIONS", 0)
    eng = ZetaEngine(CTX)
    eng._n0, eng._m_cap = 10, 2
    with pytest.raises(PrecisionError, match=r"at N=10 for s = 0\.5$"):
        eng.zeta(CTX.mp.mpf("0.5"))
    with pytest.raises(PrecisionError, match=r"at N=\d+ for s = \(3\.0 \+ 40\.0j\)$"):
        eng.zeta(CTX.mp.mpc(3, 40))


def test_fused_pass_matches_separate_calls(monkeypatch):
    mp = CTX.mp
    eng = ZetaEngine(CTX)
    assert len(eng._logk) == 2  # the log k table is filled on first use, not at construction
    for s in (mp.mpc(0.5, 37.5), mp.mpc(1.25, -8), mp.mpf(3)):
        assert eng.zeta(s, with_deriv=True) == (eng.zeta(s), eng.zeta_deriv(s))
    with pytest.raises(ValueError):
        eng.zeta(mp.mpc(-1, 3), with_deriv=True)
    t = mp.mpf("21.02")
    want = (eng.hardy_z(t), eng.zeta_deriv(mp.mpc(0.5, t)))
    # no critical-line pass calls zeta_deriv: each is one fused pass
    monkeypatch.setattr(ZetaEngine, "zeta_deriv", None)
    z, _, zp = eng.hardy_z_with_deriv(t)
    assert (z, zp) == want


@pytest.mark.parametrize("bits", [96, 128, 192, 256])
def test_coefficients_match_bernfrac(bits):
    # the tangent-number Bernoulli numbers are mpmath's bernfrac exactly, so
    # every Euler-Maclaurin coefficient keeps its bits
    ctx = NumericContext(bits)
    mp = ctx.mp
    eng = ZetaEngine(ctx)
    for j, coef in enumerate(eng._coef, start=1):
        num, den = mp.bernfrac(2 * j)
        assert coef == mp.mpf(num) / den / mp.factorial(2 * j), j
    assert [(b.numerator, b.denominator) for b in zetafn._bernoulli(len(eng._coef))] == [
        tuple(int(x) for x in mp.bernfrac(2 * j)) for j in range(1, len(eng._coef) + 1)]


def float_z_points(taus):
    """A grid over [10, 2520] with irregular offsets, and tau +- 10^-k for
    each tau and k = 3..12 (at 128 bits)."""
    with mpmath.workprec(128):
        points = [mpmath.mpf(10) + mpmath.mpf("19.8731") * i for i in range(127)]
        for tau in taus:
            for k in range(3, 13):
                d = mpmath.mpf(10) ** -k
                points += [mpmath.mpf(tau) - d, mpmath.mpf(tau) + d]
    return points


def test_float_z_within_its_bound(store30_96):
    # the double-precision Z against mpmath's siegelz at 128 bits; next to
    # the zeros |Z| drops below the bound, where a caller must fall back
    fallbacks = 0
    with mpmath.workprec(128):
        for t in float_z_points(r.tau for r in store30_96):
            value, bound = zetafn._hardy_z_float(t)
            assert 0 < bound < 1e-8
            assert abs(mpmath.siegelz(t) - value) <= bound, t
            fallbacks += abs(value) <= bound
    assert fallbacks >= 30
    assert zetafn._hardy_z_float(CTX.mp.mpf("9.99")) == (0.0, float("inf"))


def test_cos_sum_is_the_generator_sum(monkeypatch):
    # the double-precision Z's main sum over the held tables of log k and
    # sqrt k, bit for bit the generator expression it replaced, over random
    # (theta, t) with t in [10, 2600] and n = floor(t/3) + 12, from empty
    # tables that grow on demand and are read at shorter lengths too
    monkeypatch.setattr(zetafn, "_FLOAT_LOGS", [])
    monkeypatch.setattr(zetafn, "_FLOAT_ROOTS", [])
    rng, longest = random.Random(31), 0
    for _ in range(2000):
        t, theta = rng.uniform(10, 2600), rng.uniform(-1e4, 1e4)
        n = int(t / 3) + 12
        want = sum(math.cos(theta - t * math.log(k)) / math.sqrt(k) for k in range(1, n))
        assert zetafn._cos_sum(theta, t, n) == want, (theta, t)
        longest = max(longest, n - 1)
    assert len(zetafn._FLOAT_LOGS) == len(zetafn._FLOAT_ROOTS) == longest

import random
from fractions import Fraction

import mpmath
import pytest

from zetasum import zetafn
from zetasum.numctx import NumericContext
from zetasum.zetafn import (PrecisionError, ZetaEngine, ZetaPoleError, bernoulli,
                            engine_for)

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
    known = {2: Fraction(1, 6), 4: Fraction(-1, 30), 6: Fraction(1, 42),
             8: Fraction(-1, 30), 10: Fraction(5, 66), 12: Fraction(-691, 2730),
             14: Fraction(7, 6), 16: Fraction(-3617, 510)}
    for idx, want in known.items():
        assert bernoulli(idx) == want
    with pytest.raises(ValueError):
        bernoulli(3)


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
        ENG.zeta(CTX.mpf(1))
    with pytest.raises(ZetaPoleError):
        ENG.zeta_deriv(CTX.mpf(1))


@pytest.mark.parametrize("re,im", [
    (0.5, 14.1347251417), (2.0, 0.0), (3.0, 50.0), (0.6, -30.0),
    (-3.2, 4.5), (0.25, 2.0), (10.0, 100.0), (0.5, 236.524),
])
def test_zeta_against_independent_oracle(re, im):
    mpmath.mp.prec = 280
    ref = mpmath.zeta(mpmath.mpc(re, im))
    got = ENG.zeta(CTX.mpc(re, im))
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
        circle = ENG.cauchy_deriv(s)
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


def test_engine_for_one_per_context():
    eng = engine_for(NumericContext(192))
    assert engine_for(CTX) is eng and eng.ctx == CTX
    assert engine_for(NumericContext(128)) is not eng
    assert abs(eng.zeta(CTX.mpf(2)) - CTX.mp.pi ** 2 / 6) < 100 * CTX.target_tol


def test_precision_error_when_escalation_disabled(monkeypatch):
    # two Bernoulli corrections cannot reach 192-bit accuracy at N = 10, and
    # without escalation N stays there; a fresh engine, so the shared
    # engine_for(CTX) keeps its own settings
    monkeypatch.setattr(zetafn, "MAX_ESCALATIONS", 0)
    eng = ZetaEngine(CTX)
    eng._n0, eng._m_cap = 10, 2
    with pytest.raises(PrecisionError, match="at N=10$"):
        eng.zeta(CTX.mpf("0.5"))


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
    # neither critical-line pair calls zeta_deriv: each is one fused pass
    monkeypatch.setattr(ZetaEngine, "zeta_deriv", None)
    assert eng.hardy_z_and_zeta_deriv(t) == want
    assert eng.hardy_z_with_deriv(t)[0] == want[0]

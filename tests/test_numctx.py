import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetasum.arith import guillera_h
from zetasum.numctx import DomainError, NumericContext, cpow

CTX = NumericContext(128)

# independent multiprecision oracle values (60 dps, frozen pre-build)
POW_HALF_QUARTER = "0.840896415253714543031125476233214895040034262356784510813226"
EULER_GAMMA = "0.577215664901532860606512090082402431042159335939923598805767"
LN2 = "0.69314718055994530941723212145817656807550013436025525412068"
PI = "3.14159265358979323846264338327950288419716939937510582097494"


def test_precision_floor():
    with pytest.raises(ValueError):
        NumericContext(32)
    NumericContext(64)


def test_target_tol_default_and_bounds():
    for bits in (64, 128, 192):
        ctx = NumericContext(bits)
        assert ctx.target_tol == ctx.mpf(2) ** (10 - bits)
        assert ctx.mpf(2) ** (-bits) <= ctx.target_tol < 1
    # the tolerance follows from the precision and is not an option
    with pytest.raises(TypeError):
        NumericContext(128, target_tol=2.0 ** -100)
    assert NumericContext(128) == CTX and hash(NumericContext(128)) == hash(CTX)


def test_sqrt_principal_branch():
    v = CTX.mp.sqrt(CTX.mpc(-1, 0))
    assert CTX.mp.im(v) == 1 and CTX.mp.re(v) == 0


def test_pow_identity_and_oracle():
    assert cpow(CTX.mpf(17.25), CTX.mpf(0), CTX) == 1
    got = cpow(CTX.mpf(0.5), CTX.mpf(0.25), CTX)
    assert abs(got - CTX.mpf(POW_HALF_QUARTER)) < 4 * CTX.ulp(got)


def test_domain_errors_carry_op_name():
    with pytest.raises(DomainError) as err:
        cpow(CTX.mpf(0), CTX.mpf(1), CTX)
    assert err.value.op == "pow"
    with pytest.raises(DomainError) as err:
        guillera_h(CTX.mpf(1), CTX)
    assert err.value.op == "guillera_h"


def test_constants():
    # the context's mpmath carries at least the nominal precision
    mp = CTX.mp
    assert abs(+mp.pi - CTX.mpf(PI)) < 4 * CTX.ulp(CTX.mpf(PI))
    assert abs(+mp.euler - CTX.mpf(EULER_GAMMA)) < 4 * CTX.ulp(CTX.mpf(1))
    assert abs(+mp.ln2 - mp.log(2)) < 4 * CTX.ulp(CTX.mpf(1))
    assert abs(+mp.ln2 - CTX.mpf(LN2)) < 4 * CTX.ulp(CTX.mpf(1))


def test_euler_gamma_against_accelerated_limit():
    # independent route: gamma = lim H_n - log n with Euler-Maclaurin correction
    # H_n - log n ~ gamma + 1/(2n) - 1/(12n^2) + 1/(120n^4) - ...
    mp = CTX.mp
    n = 10**4
    h = mp.mpf(0)
    for k in range(1, n + 1):
        h += mp.mpf(1) / k
    est = h - mp.log(n) - mp.mpf(1) / (2 * n) + mp.mpf(1) / (12 * n * n) \
        - mp.mpf(1) / (120 * n**4)
    assert abs(est - mp.euler) < mp.mpf("1e-20")


def test_exp_log_roundtrip_bulk():
    # 10^3 random z with |z| in [1e-3, 1e3]
    mp = CTX.mp
    rng = random.Random(20240811)
    for _ in range(1000):
        mag = 10 ** rng.uniform(-3, 3)
        phi = rng.uniform(-3.1415, 3.1415)
        z = mp.mpc(mag * mp.cos(phi), mag * mp.sin(phi))
        if z == 0:
            continue
        back = mp.exp(mp.log(z))
        assert abs(back - z) <= 8 * CTX.ulp(z)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-30, max_value=30, allow_nan=False))
def test_sin_of_imaginary_is_i_sinh(y):
    mp = CTX.mp
    lhs = mp.sin(mp.mpc(0, y))
    rhs = mp.mpc(0, 1) * mp.sinh(mp.mpf(y))
    scale = max(abs(rhs), mp.mpf(1))
    assert abs(lhs - rhs) <= 8 * CTX.ulp(scale)


@pytest.mark.parametrize("expr", [
    lambda c: cpow(c.mpf(0.5), c.mpf(0.25), c),
    lambda c: +c.mp.euler,
    lambda c: c.mp.sqrt(c.mpc(2, 3)),
])
def test_precision_monotonicity(expr):
    lo, hi = NumericContext(96), NumericContext(192)
    v_lo, v_hi = expr(lo), expr(hi)
    assert abs(hi.mp.convert(v_lo) - v_hi) < lo.target_tol


def test_cpow_positive_base_only():
    with pytest.raises(DomainError):
        cpow(-2, CTX.mpf(0.5), CTX)
    assert abs(cpow(0.5, CTX.mpf(0.25), CTX) - CTX.mpf(POW_HALF_QUARTER)) \
        < 4 * CTX.ulp(CTX.mpf(1))

import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetasum.numctx import DomainError, NumericContext
from zetasum.arith import guillera_h, mangoldt_sieve

CTX = NumericContext(128)

# frozen pre-build oracle values (independent multiprecision evaluation)
H_4 = "-0.00939640890724614907400589535034342016083398316109677168034452"
H_4_TERMS = ("0.03333333333333333333333333", "-0.1666666666666666666666667",
             "0.2420038185464338035996483", "-0.1180668941203466193403209")
H_QUARTER = "-0.780584498360584832927752609835744910172131170430048841655022"

TABLE = mangoldt_sieve(5000)
BASES = dict(TABLE.prime_powers())  # n -> p for n = p^k <= 5000


def mangoldt(n, ctx):
    """Lambda(n) at context precision, read off the sieve."""
    return ctx.mp.log(BASES[n]) if n in BASES else ctx.mp.mpf(0)


def test_sieve_bounds():
    with pytest.raises(ValueError):
        mangoldt_sieve(1)
    with pytest.raises(ValueError):
        mangoldt_sieve(10**7 + 1)


def test_mangoldt_point_values():
    mp = CTX.mp
    assert BASES[8] == 2 and mangoldt(8, CTX) == mp.log(2)
    assert 6 not in BASES and mangoldt(6, CTX) == 0
    assert 1 not in BASES
    assert BASES[7] == 7 and BASES[49] == 7
    assert BASES[4096] == 2
    assert min(BASES) == 2 and max(BASES) == 4999 and TABLE.limit == 5000


def test_chebyshev_identity_12():
    mp = CTX.mp
    total = sum((mangoldt(d, CTX) for d in range(1, 13) if 12 % d == 0), mp.mpf(0))
    assert abs(total - mp.log(12)) < 100 * CTX.target_tol


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=5000))
def test_chebyshev_identity_random(n):
    mp = CTX.mp
    total = sum((mangoldt(d, CTX) for d in range(1, n + 1) if n % d == 0), mp.mpf(0))
    assert abs(total - mp.log(n)) < 1000 * CTX.target_tol


def test_psi_consistency_1e6():
    table = mangoldt_sieve(10**6)
    psi = sum(math.log(p) for _, p in table.prime_powers())
    assert abs(psi / 10**6 - 1) < 0.05


def test_sieve_deterministic():
    again = mangoldt_sieve(5000)
    assert again.pp_ns == TABLE.pp_ns and again.pp_ps == TABLE.pp_ps


def test_prime_power_listing_matches_values():
    # independent route: n is a prime power iff dividing out its smallest
    # prime factor p leaves 1, and then Lambda(n) = log p
    def smallest_factor(n):
        return next(d for d in range(2, n + 1) if n % d == 0)

    def prime_power_base(n):
        p = smallest_factor(n)
        while n % p == 0:
            n //= p
        return p if n == 1 else None

    listing = list(TABLE.prime_powers())
    assert [n for n, _ in listing] == sorted(BASES)
    assert BASES == {n: p for n in range(2, 5001) if (p := prime_power_base(n))}


def test_sieve_matches_the_marking_sieve_1e5():
    # the sieve before slice marking, kept as the reference: every integer
    # visited, every multiple of each prime and every power marked one by one
    limit = 10**5
    is_comp, values = bytearray(limit + 1), [0] * (limit + 1)
    for p in range(2, limit + 1):
        if is_comp[p]:
            continue
        for mult in range(p * p, limit + 1, p):
            is_comp[mult] = 1
        q = p
        while q <= limit:
            values[q] = p
            q *= p
    table = mangoldt_sieve(limit)
    assert table.pp_ns == array("L", [n for n in range(2, limit + 1) if values[n]])
    assert table.pp_ps == array("L", [v for v in values[2:] if v])


def test_h_at_4_term_by_term():
    mp = CTX.mp
    x = mp.mpf(4)
    terms = (1 / (mp.sqrt(x) * (x * x - 1)),
             -1 / (2 * x - 2),
             (mp.log(8 * mp.pi) + mp.euler) / (mp.pi * (x + 1)),
             -(2 / mp.pi) * mp.sqrt(x) * mp.atan(1 / mp.sqrt(x)) / (x + 1))
    for got, want in zip(terms, H_4_TERMS):
        assert abs(got - mp.mpf(want)) < mp.mpf("1e-24")
    assert abs(guillera_h(x, CTX) - mp.mpf(H_4)) < 1000 * CTX.target_tol
    assert abs(sum(terms) - guillera_h(x, CTX)) < 100 * CTX.target_tol


def test_h_at_quarter_and_arccot_identity():
    mp = CTX.mp
    x = mp.mpf("0.25")
    assert abs(guillera_h(x, CTX) - mp.mpf(H_QUARTER)) < 1000 * CTX.target_tol
    # arccot(y) via arctan(1/y) and via pi/2 - arctan(y) agree for y > 0
    y = mp.sqrt(x)
    direct = mp.atan(1 / y)
    complement = mp.pi / 2 - mp.atan(y)
    assert abs(direct - complement) < 100 * CTX.target_tol


def test_h_vanishes_at_infinity():
    assert abs(guillera_h(CTX.mp.mpf(10) ** 6, CTX)) < 1e-5


def test_h_domain():
    with pytest.raises(DomainError):
        guillera_h(CTX.mp.mpf(1), CTX)
    with pytest.raises(DomainError):
        guillera_h(CTX.mp.mpf("1.0000001"), CTX)
    with pytest.raises(DomainError):
        guillera_h(CTX.mp.mpf(-2), CTX)
    guillera_h(CTX.mp.mpf("1.01"), CTX)  # just outside the window


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99))
def test_h_matches_term_sum(x):
    mp = CTX.mp
    xv = mp.mpf(x)
    expected = (1 / (mp.sqrt(xv) * (xv * xv - 1)) - 1 / (2 * xv - 2)
                + (mp.log(8 * mp.pi) + mp.euler) / (mp.pi * (xv + 1))
                - (2 / mp.pi) * mp.sqrt(xv) * mp.atan(1 / mp.sqrt(xv)) / (xv + 1))
    assert abs(guillera_h(xv, CTX) - expected) < 100 * CTX.target_tol

"""Checks made apart from the program.

Every reference value comes from mpmath's own routines (zetazero, siegelz,
zeta), evaluated in mpmath's global context with EXTRA_BITS more precision
than the run under test, or from the benchmark's own float sieve.  zetasum
evaluates in private mpmath contexts, so the two never share state.  Nothing
here compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import mpmath

EXTRA_BITS = 64


class Oracle:
    """Reference values at `bits + EXTRA_BITS`, memoised for one run."""

    def __init__(self, bits: int):
        self.prec = bits + EXTRA_BITS
        self._zeros = {}
        self._sign_change = {}

    def zetazero_tau(self, n: int):
        if n not in self._zeros:
            with mpmath.workprec(self.prec):
                self._zeros[n] = mpmath.zetazero(n).imag
        return self._zeros[n]

    def tau_matches(self, n: int, tau, tol) -> bool:
        with mpmath.workprec(self.prec):
            return abs(mpmath.mpf(tau) - self.zetazero_tau(n)) <= tol

    def within(self, u, v, tol) -> bool:
        with mpmath.workprec(self.prec):
            return abs(mpmath.mpf(u) - mpmath.mpf(v)) <= tol

    def z_changes_sign(self, tau, e) -> bool:
        """mpmath.siegelz differs in sign at tau - e and tau + e."""
        with mpmath.workprec(self.prec):
            t, e = mpmath.mpf(tau), mpmath.mpf(e)
            key = (t, e)
            if key not in self._sign_change:
                self._sign_change[key] = mpmath.siegelz(t - e) * mpmath.siegelz(t + e) < 0
            return self._sign_change[key]

    def zeta_prime_matches(self, tau, zeta_prime, rel) -> bool:
        with mpmath.workprec(self.prec):
            ref = mpmath.zeta(mpmath.mpc(0.5, mpmath.mpf(tau)), derivative=1)
            return abs(mpmath.mpc(zeta_prime) - ref) <= rel * abs(ref)

    def closed_form_matches(self, a: str, x: str, value, rel) -> bool:
        """value = x^(1/4) / (2 pi zeta(a)), the contour integral's closed form."""
        with mpmath.workprec(self.prec):
            ref = mpmath.mpf(x) ** 0.25 / (2 * mpmath.pi * mpmath.zeta(mpmath.mpf(a)))
            return abs(mpmath.mpc(value) - ref) <= rel * abs(ref)

    def sumrule_constant_matches(self, a: str, printed: str, rel) -> bool:
        """printed = sqrt(a) / (pi zeta(a)), the sum rule's constant term."""
        with mpmath.workprec(self.prec):
            a = mpmath.mpf(a)
            ref = mpmath.sqrt(a) / (mpmath.pi * mpmath.zeta(a))
            return abs(mpmath.mpf(printed) - ref) <= rel * abs(ref)

    def quarter_power_matches(self, x: str, printed: str, tol) -> bool:
        with mpmath.workprec(self.prec):
            return abs(mpmath.mpf(printed) - mpmath.mpf(x) ** 0.25) <= tol

    def difference(self, minuend: str, subtrahend: str) -> float:
        with mpmath.workprec(self.prec):
            return float(mpmath.mpf(minuend) - mpmath.mpf(subtrahend))


def prime_powers(limit: int):
    """(n, log p) for every prime power n = p^k <= limit, by a bytearray sieve."""
    composite = bytearray(limit + 1)
    for p in range(2, math.isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p::p] = b"\x01" * len(range(p * p, limit + 1, p))
    for p in range(2, limit + 1):
        if not composite[p]:
            lp = math.log(p)
            q = p
            while q <= limit:
                yield q, lp
                q *= p


def mangoldt_series_float(x: float, limit: int) -> float:
    """((1-x^2)/pi) sum_{n<=limit} sqrt(n) Lambda(n) / ((n+x)(1+nx)) in floats."""
    terms = (math.sqrt(n) * lp / ((n + x) * (1 + n * x)) for n, lp in prime_powers(limit))
    return (1 - x * x) / math.pi * math.fsum(terms)


def parse_report(text: str) -> dict:
    """Fields of a text-format verify report: 'key : value' lines."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep and not key.startswith("note"):
            fields[" ".join(key.split())] = value.strip()
    return fields

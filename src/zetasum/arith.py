"""Integer-side arithmetic for the one-parameter cross-check: the von
Mangoldt function over a sieve of prime powers, and the elementary
function h(x) appearing on its closed-form side.

The sieve stores prime bases, not logarithms, so one table serves any
working precision; the cross-check sums the series in double precision.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .numctx import DomainError, NumericContext

__all__ = ["MangoldtTable", "mangoldt_sieve", "guillera_h"]

SIEVE_MIN = 2
SIEVE_MAX = 10**7


@dataclass(frozen=True)
class MangoldtTable:
    """The prime powers n <= limit with their prime bases p: Lambda(n) = log p."""

    limit: int
    pp_ns: array  # prime powers <= limit, ascending
    pp_ps: array  # matching prime bases

    def prime_powers(self):
        """(n, p) for every prime power n <= limit, ascending in n."""
        return zip(self.pp_ns, self.pp_ps)


def mangoldt_sieve(limit: int) -> MangoldtTable:
    """Sieve of Eratosthenes marking prime powers up to limit."""
    if not SIEVE_MIN <= limit <= SIEVE_MAX:
        raise ValueError(f"limit must lie in [{SIEVE_MIN}, {SIEVE_MAX}]")
    is_comp = bytearray(limit + 1)
    values = array("L", bytes(array("L").itemsize * (limit + 1)))
    pp_ns = array("L")
    pp_ps = array("L")
    for p in range(2, limit + 1):
        if is_comp[p]:
            continue
        for mult in range(p * p, limit + 1, p):
            is_comp[mult] = 1
        q = p
        while q <= limit:
            values[q] = p
            q *= p
    for n in range(2, limit + 1):
        if values[n]:
            pp_ns.append(n)
            pp_ps.append(values[n])
    return MangoldtTable(limit, pp_ns, pp_ps)


def guillera_h(x, ctx: NumericContext):
    """h(x) = 1/(sqrt(x)(x^2-1)) - 1/(2x-2) + (ln(8 pi) + gamma)/(pi(x+1))
             - (2/pi) sqrt(x) arccot(sqrt(x))/(x+1),   arccot(y) = arctan(1/y).

    Defined for x > 0 away from the singularity window |x-1| < 1e-6; the
    individually singular terms are not regularized there."""
    mp = ctx.mp
    x = mp.mpf(x)
    if not x > 0:
        raise DomainError("guillera_h", "x must be positive")
    if abs(x - 1) < 1e-6:
        raise DomainError("guillera_h", "|x-1| < 1e-6: individually singular terms")
    rx = mp.sqrt(x)
    return (1 / (rx * (x * x - 1))
            - 1 / (2 * x - 2)
            + (mp.log(8 * mp.pi) + mp.euler) / (mp.pi * (x + 1))
            - (2 / mp.pi) * rx * mp.atan(1 / rx) / (x + 1))

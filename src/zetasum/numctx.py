"""Arbitrary-precision arithmetic context shared by every other module.

A NumericContext pins the working mantissa size (binary digits) and the
evaluation tolerance 2^(10 - bits) derived from it.  Each context owns an
independent mpmath MPContext instance, so contexts at different precisions
coexist and values never silently change precision.  Contexts are frozen
and hashable (by precision), so zetafn.engine_for can keep one engine each.

Other modules compute with mpmath's own functions on ctx.mp (principal
branches: sqrt and log cut along the negative real axis, Im(log z) in
(-pi, pi]); cpow adds x**s for real x > 0 as exp(s log x).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from mpmath.ctx_mp import MPContext

__all__ = ["DomainError", "NumericContext"]

# extra mantissa bits used internally so results round correctly at the
# context's nominal precision
GUARD_BITS = 32


class DomainError(ValueError):
    """An elementary operation was applied outside its domain."""

    def __init__(self, op: str, detail: str = ""):
        self.op = op
        super().__init__(f"domain error in {op!r}" + (f": {detail}" if detail else ""))


@dataclass(frozen=True)
class NumericContext:
    """Working precision plus derived tolerance.

    precision_bits: mantissa size, at least 64.
    target_tol: convergence/acceptance tolerance 2**(10 - precision_bits).
    """

    precision_bits: int = 192
    target_tol: object = field(init=False, compare=False)
    _mp: MPContext = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.precision_bits < 64:
            raise ValueError(f"precision_bits must be >= 64, got {self.precision_bits}")
        mp = MPContext()
        mp.prec = self.precision_bits + GUARD_BITS
        object.__setattr__(self, "_mp", mp)
        object.__setattr__(self, "target_tol", mp.mpf(2) ** (10 - self.precision_bits))

    @property
    def mp(self) -> MPContext:
        """The backing mpmath context (precision_bits + guard bits)."""
        return self._mp

    @property
    def dps(self) -> int:
        """Decimal digits carried by this context (excluding guard)."""
        return int(self.precision_bits / 3.3219280948873626) + 2

    def mpf(self, x):
        return self._mp.mpf(x)

    def mpc(self, re, im=0):
        return self._mp.mpc(re, im)

    def ulp(self, v) -> object:
        """Unit in the last place of v at the nominal precision (of 1 if v == 0)."""
        mag = abs(v)
        if mag == 0:
            return self._mp.mpf(2) ** (1 - self.precision_bits)
        e = self._mp.mag(mag)  # mag(x): smallest e with |x| <= 2**e
        return self._mp.mpf(2) ** (e - self.precision_bits)

    def nstr(self, v) -> str:
        """Decimal rendering at the context's full digit count."""
        return self._mp.nstr(v, self.dps, strip_zeros=False)


def cpow(base, expo, ctx: NumericContext):
    """x**s for real x > 0 and arbitrary complex s, as exp(s*log x)."""
    mp = ctx.mp
    b = mp.mpf(base)
    if not b > 0:
        raise DomainError("pow", "base must be positive")
    return mp.exp(mp.convert(expo) * mp.log(b))

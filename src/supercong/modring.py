"""Exact arithmetic in Z/p^e: canonical residues, rational reduction, and
the division-free hypergeometric kernel behind every truncated sum.

Everything is pure and immutable: a :class:`PrimeContext` is built once and
can be shared freely across threads and fork workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

from .errors import (
    BadExponent,
    CompositeModulus,
    MixedContext,
    NotInvertible,
    NotPIntegral,
    RangeError,
)

Rational = Union[Fraction, int]

# Deterministic Miller-Rabin witness set, valid for all n < 3.3e24 (in
# particular the whole sweep range below 2^64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeContext:
    """An odd prime p and an exponent e in {1, 2, 3}.

    The truncated sums need nothing beyond p and p^e (see :func:`hyper_sum`),
    and instances never mutate after construction.
    """

    def __init__(self, p: int, e: int) -> None:
        if not isinstance(e, int) or e not in (1, 2, 3):
            raise BadExponent(f"exponent must be 1, 2 or 3, got {e!r}")
        if not isinstance(p, int) or p == 2 or not is_prime(p):
            raise CompositeModulus(f"{p!r} is not an odd prime")
        self.p = p
        self.e = e
        self.modulus = p**e

    def residue(self, value: Rational) -> "ResidueZ":
        """Embed an integer or p-integral rational into Z/p^e."""
        if isinstance(value, int):
            return ResidueZ(value, self)
        return reduce_rational(value, self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrimeContext):
            return NotImplemented
        return self.p == other.p and self.e == other.e

    def __hash__(self) -> int:
        return hash((self.p, self.e))

    def __repr__(self) -> str:
        return f"PrimeContext(p={self.p}, e={self.e})"


def make_context(p: int, e: int) -> PrimeContext:
    """Build the immutable context for Z/p^e."""
    return PrimeContext(p, e)


def hyper_sum(
    c: int, factors: Sequence[Tuple[int, int]], d: int, n: int, ctx: PrimeContext
) -> int:
    """sum_{k=0}^{n} t_k mod p^e for t_0 = 1 and the term ratio
    t_k / t_{k-1} = c * prod_i (s_i k + r_i) / k^d, with n < p.

    ``c`` is an integer (typically a constant times a reduced x) and
    ``factors`` holds at most three integer pairs (s_i, r_i).  The kernel
    keeps the term numerator U, the common denominator D = (k!)^d and the
    accumulator N = D * (t_0 + ... + t_k), and inverts D once at the end.
    Every k <= n < p is a unit, and p-factors of the numerators are never
    divided out, so every step is exact mod p^e.  Once U == 0 every later
    term vanishes too, and the loop stops there.
    """
    if not 0 <= n < ctx.p:
        raise RangeError(f"hypergeometric sums run to n < {ctx.p}, got {n}")
    m = ctx.modulus
    (s1, f1), (s2, f2), (s3, f3) = (*factors, *((0, 1),) * (3 - len(factors)))
    s1, f1 = c * s1 % m, c * f1 % m  # fold c into the first factor
    u = den = acc = 1
    for k in range(1, n + 1):
        f1 += s1
        f2 += s2
        f3 += s3
        u = u * f1 * f2 * f3 % m
        if not u:
            break
        kd = k**d
        den = den * kd % m
        acc = (acc * kd + u) % m
    return acc * pow(den, -1, m) % m


@dataclass(frozen=True)
class ResidueZ:
    """An element of Z/p^e as its canonical integer in [0, p^e)."""

    value: int
    ctx: PrimeContext

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value % self.ctx.modulus)

    def _coerce(self, other) -> Optional[int]:
        if isinstance(other, ResidueZ):
            if other.ctx != self.ctx:
                raise MixedContext(f"cannot mix {self.ctx} with {other.ctx}")
            return other.value
        if isinstance(other, int):
            return other
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ResidueZ(self.value + v, self.ctx)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ResidueZ(self.value - v, self.ctx)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ResidueZ(v - self.value, self.ctx)

    def __neg__(self):
        return ResidueZ(-self.value, self.ctx)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ResidueZ(self.value * v, self.ctx)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        try:
            return ResidueZ(pow(self.value, k, self.ctx.modulus), self.ctx)
        except ValueError as exc:  # negative k on a non-unit
            raise NotInvertible(str(exc)) from None

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"ResidueZ({self.value} mod {self.ctx.p}^{self.ctx.e})"


def reduce_rational(q: Rational, ctx: PrimeContext) -> ResidueZ:
    """Reduce a p-integral rational to numerator * denominator^-1 mod p^e."""
    q = Fraction(q)
    if q.denominator % ctx.p == 0:
        raise NotPIntegral(f"{q} has denominator divisible by {ctx.p}")
    m = ctx.modulus
    return ResidueZ(q.numerator * pow(q.denominator, -1, m) % m, ctx)


def ap_of(a: Rational, ctx: PrimeContext) -> int:
    """The canonical residue of a mod p, in [0, p-1]."""
    a = Fraction(a)
    p = ctx.p
    if a.denominator % p == 0:
        raise NotPIntegral(f"{a} has denominator divisible by {p}")
    return a.numerator * pow(a.denominator, -1, p) % p

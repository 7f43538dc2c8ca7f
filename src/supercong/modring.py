"""Exact arithmetic in Z/p^e: canonical residues, the division-free
hypergeometric kernel behind every truncated sum, p-stripped valuations,
quadratic-residue machinery, and the quadratic extension F_p[sqrt(d)].

Everything is pure and immutable: a :class:`PrimeContext` is built once and
can be shared freely across threads and fork workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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

    The truncated sums need nothing beyond p and p^e (see :func:`hyper_sum`).
    The p-stripped factorial tables behind :meth:`fact` and the ``binomtab``
    helpers are built on first use: ``fact_units[k] * p**fact_valuations[k]
    == k! (mod p^e)`` for 0 <= k <= 2p-2, with every unit coprime to p and
    ``inv_fact_units[k]`` inverting the unit part.

    Instances never mutate after construction; derived tables are memoized
    idempotently, so sharing across parallel workers is safe.
    """

    def __init__(self, p: int, e: int) -> None:
        if not isinstance(e, int) or e not in (1, 2, 3):
            raise BadExponent(f"exponent must be 1, 2 or 3, got {e!r}")
        if not isinstance(p, int) or p == 2 or not is_prime(p):
            raise CompositeModulus(f"{p!r} is not an odd prime")
        self.p = p
        self.e = e
        self.modulus = p**e

    @cached_property
    def _factorials(self) -> tuple:
        """(units, valuations, inverse units) of k! for 0 <= k <= 2p-2."""
        p, m = self.p, self.modulus
        n_max = 2 * p - 2
        units = [1] * (n_max + 1)
        vals = [0] * (n_max + 1)
        u = 1
        v = 0
        for i in range(1, n_max + 1):
            f = i
            while f % p == 0:
                f //= p
                v += 1
            u = u * f % m
            units[i] = u
            vals[i] = v
        inv_units = [1] * (n_max + 1)
        inv = pow(u, -1, m)
        for i in range(n_max, 0, -1):
            inv_units[i] = inv
            f = i
            while f % p == 0:
                f //= p
            inv = inv * f % m
        return tuple(units), tuple(vals), tuple(inv_units)

    @property
    def fact_units(self) -> tuple:
        return self._factorials[0]

    @property
    def fact_valuations(self) -> tuple:
        return self._factorials[1]

    @property
    def inv_fact_units(self) -> tuple:
        return self._factorials[2]

    @cached_property
    def nonresidue(self) -> int:
        """Smallest positive quadratic non-residue mod p."""
        p = self.p
        d = 2
        while pow(d, (p - 1) // 2, p) != p - 1:
            d += 1
        return d

    @cached_property
    def fact_table(self) -> tuple["ValuedResidue", ...]:
        """k! for 0 <= k <= 2p-2, as p-stripped (unit, valuation) pairs."""
        return tuple(
            ValuedResidue(u, v, self)
            for u, v in zip(self.fact_units, self.fact_valuations)
        )

    def fact(self, k: int) -> "ValuedResidue":
        """k! as a ValuedResidue, for 0 <= k <= 2p-2."""
        if not 0 <= k <= 2 * self.p - 2:
            raise RangeError(f"factorial table covers 0..{2 * self.p - 2}, got {k}")
        return ValuedResidue(self.fact_units[k], self.fact_valuations[k], self)

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

    def inverse(self) -> "ResidueZ":
        return mod_inverse(self)

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"ResidueZ({self.value} mod {self.ctx.p}^{self.ctx.e})"


@dataclass(frozen=True)
class ValuedResidue:
    """unit * p^valuation with the unit kept coprime to p.

    Exact mod p^e whenever valuation < e; converting with valuation >= e
    collapses to 0.  The exact zero is the unique element with unit == 0
    (its valuation field carries no meaning), and it only arises when
    constructed explicitly, never from multiplying nonzero elements.
    """

    unit: int
    valuation: int
    ctx: PrimeContext

    @classmethod
    def from_int(cls, n: int, ctx: PrimeContext) -> "ValuedResidue":
        """Strip all p factors of an exact integer."""
        if n == 0:
            return cls(0, 0, ctx)
        p = ctx.p
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return cls(n % ctx.modulus, v, ctx)

    @classmethod
    def exact_zero(cls, ctx: PrimeContext) -> "ValuedResidue":
        return cls(0, 0, ctx)

    @property
    def is_zero(self) -> bool:
        return self.unit == 0

    def __mul__(self, other):
        if isinstance(other, int):
            other = ValuedResidue.from_int(other, self.ctx)
        if not isinstance(other, ValuedResidue):
            return NotImplemented
        if other.ctx != self.ctx:
            raise MixedContext(f"cannot mix {self.ctx} with {other.ctx}")
        if self.is_zero or other.is_zero:
            return ValuedResidue(0, 0, self.ctx)
        return ValuedResidue(
            self.unit * other.unit % self.ctx.modulus,
            self.valuation + other.valuation,
            self.ctx,
        )

    __rmul__ = __mul__

    def to_residue(self) -> ResidueZ:
        """Collapse into Z/p^e; valuation >= e maps to 0."""
        if self.is_zero or self.valuation >= self.ctx.e:
            return ResidueZ(0, self.ctx)
        return ResidueZ(self.unit * self.ctx.p**self.valuation, self.ctx)

    def __repr__(self) -> str:
        if self.is_zero:
            return "ValuedResidue(0)"
        return f"ValuedResidue({self.unit} * {self.ctx.p}^{self.valuation})"


@dataclass(frozen=True)
class QuadExtElem:
    """a0 + a1*sqrt(d) in F_p[sqrt(d)], for a quadratic non-residue d.

    Arithmetic reduces sqrt(d)*sqrt(d) -> d; the context must have e == 1.
    """

    a0: int
    a1: int
    d: int
    ctx: PrimeContext

    def __post_init__(self) -> None:
        if self.ctx.e != 1:
            raise BadExponent("quadratic-extension arithmetic lives mod p (e == 1)")
        p = self.ctx.p
        object.__setattr__(self, "a0", self.a0 % p)
        object.__setattr__(self, "a1", self.a1 % p)
        object.__setattr__(self, "d", self.d % p)

    def _check(self, other: "QuadExtElem") -> None:
        if self.ctx.p != other.ctx.p or self.d != other.d:
            raise MixedContext(
                f"cannot mix sqrt({self.d}) mod {self.ctx.p} "
                f"with sqrt({other.d}) mod {other.ctx.p}"
            )

    @property
    def is_zero(self) -> bool:
        return self.a0 == 0 and self.a1 == 0

    def __add__(self, other):
        if isinstance(other, QuadExtElem):
            self._check(other)
            return QuadExtElem(self.a0 + other.a0, self.a1 + other.a1, self.d, self.ctx)
        if isinstance(other, int):
            return QuadExtElem(self.a0 + other, self.a1, self.d, self.ctx)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QuadExtElem):
            self._check(other)
            return QuadExtElem(self.a0 - other.a0, self.a1 - other.a1, self.d, self.ctx)
        if isinstance(other, int):
            return QuadExtElem(self.a0 - other, self.a1, self.d, self.ctx)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return QuadExtElem(-self.a0, -self.a1, self.d, self.ctx)

    def __mul__(self, other):
        if isinstance(other, QuadExtElem):
            self._check(other)
            p = self.ctx.p
            return QuadExtElem(
                (self.a0 * other.a0 + self.a1 * other.a1 * self.d) % p,
                (self.a0 * other.a1 + self.a1 * other.a0) % p,
                self.d,
                self.ctx,
            )
        if isinstance(other, int):
            return QuadExtElem(self.a0 * other, self.a1 * other, self.d, self.ctx)
        return NotImplemented

    __rmul__ = __mul__

    def norm(self) -> int:
        """Field norm a0^2 - d*a1^2, multiplicative on F_p[sqrt(d)]."""
        return (self.a0 * self.a0 - self.d * self.a1 * self.a1) % self.ctx.p

    def __repr__(self) -> str:
        return f"QuadExtElem({self.a0} + {self.a1}*sqrt({self.d}) mod {self.ctx.p})"


def quadext_mul(x: QuadExtElem, y: QuadExtElem) -> QuadExtElem:
    """(a0 + a1 sqrt(d))(b0 + b1 sqrt(d)) over the same F_p[sqrt(d)]."""
    return x * y


def reduce_rational(q: Rational, ctx: PrimeContext) -> ResidueZ:
    """Reduce a p-integral rational to numerator * denominator^-1 mod p^e."""
    q = Fraction(q)
    if q.denominator % ctx.p == 0:
        raise NotPIntegral(f"{q} has denominator divisible by {ctx.p}")
    m = ctx.modulus
    return ResidueZ(q.numerator * pow(q.denominator, -1, m) % m, ctx)


def mod_inverse(r: ResidueZ) -> ResidueZ:
    """Multiplicative inverse in Z/p^e; requires gcd(value, p) == 1."""
    if r.value % r.ctx.p == 0:
        raise NotInvertible(f"{r.value} is divisible by {r.ctx.p}")
    return ResidueZ(pow(r.value, -1, r.ctx.modulus), r.ctx)


def legendre_symbol(t: ResidueZ) -> int:
    """Euler-criterion Legendre symbol of t mod p (0 iff p | t)."""
    p = t.ctx.p
    a = t.value % p
    if a == 0:
        return 0
    ls = pow(a, (p - 1) // 2, p)
    return -1 if ls == p - 1 else ls


def sqrt_mod_p(t: ResidueZ) -> Optional[ResidueZ]:
    """Deterministic square root mod p: the smaller of the two roots.

    Returns None for non-residues.  Tonelli-Shanks in the general case,
    with the p % 4 == 3 shortcut.
    """
    ctx = t.ctx
    if ctx.e != 1:
        raise BadExponent("square roots are a mod-p notion; use an e == 1 context")
    p = ctx.p
    a = t.value % p
    if a == 0:
        return ResidueZ(0, ctx)
    if legendre_symbol(t) != 1:
        return None
    if p % 4 == 3:
        s = pow(a, (p + 1) // 4, p)
    else:
        q, r = p - 1, 0
        while q % 2 == 0:
            q //= 2
            r += 1
        c = pow(ctx.nonresidue, q, p)
        s = pow(a, (q + 1) // 2, p)
        b = pow(a, q, p)
        while b != 1:
            bb = b
            i = 0
            while bb != 1:
                bb = bb * bb % p
                i += 1
            g = pow(c, 1 << (r - i - 1), p)
            s = s * g % p
            c = g * g % p
            b = b * c % p
            r = i
    return ResidueZ(min(s, p - s), ctx)

"""Independent references: the exact sums one Fraction at a time, exact
rational binomials, mod-p machinery for the squared Legendre evaluator, and
report text as ``json`` and ``csv`` write it.

:func:`exact_reduce_sum` adds the truncated sum term by term as reduced
Fractions and reduces it once mod p^e; the package's oracle reaches the same
residues from one gcd-free integer prefix pass over a whole prime list.
:func:`series_exact` does the same for any term-ratio spec, against which
the package evaluates a cached coefficient row by Horner's rule.

Quadratic-residue machinery, the quadratic extension F_p[sqrt(d)], the
three-term Legendre recurrence and P_n(sqrt(t)) by its even/odd
decomposition.  The package evaluates only P_n(sqrt(1+4x))^2, as the series
of one term-ratio spec (:func:`legendre_square_at_sqrt` below applies it to
a rational or integer x); these helpers reach the same values by other roads
(square roots, extension arithmetic, exact integer binomials), so the tests
can hold the kernel against them.  A residue mod p^e is a plain int, passed
with its context.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import List, Optional, Tuple, Union

from supercong.congruences import FamilyTag
from supercong.errors import BadExponent, NotPIntegral, NTooLarge
from supercong.legendre import legendre_square_spec
from supercong.modring import PrimeContext, Rational, Spec, reduce_rational


class MixedContext(Exception):
    """Extension elements over different primes or different sqrt(d)."""


def binom_frac(a: Rational, k: int) -> Fraction:
    """Exact C(a, k) for a rational (or integer) upper argument."""
    a = Fraction(a)
    num = Fraction(1)
    for i in range(k):
        num *= a - i
    return num / factorial(k)


def exact_reduce_sum(
    a: Rational, x: Rational, ctx: PrimeContext, which: Union[str, FamilyTag]
) -> int:
    """The designated truncated sum as one exact rational, then reduced mod
    p^e.  ``which`` is "core", "plain", or a FamilyTag (whose sum ignores ``a``)."""
    p = ctx.p
    x = Fraction(x)
    if x.denominator % p == 0:
        raise NotPIntegral(f"{x} has denominator divisible by {p}")
    total = Fraction(1)
    if isinstance(which, FamilyTag):
        xp = Fraction(1)
        for k in range(1, p):
            xp *= x
            total += which.numerator(k) * xp
    elif which in ("core", "plain"):
        a = Fraction(a)
        if a.denominator % p == 0:
            raise NotPIntegral(f"{a} has denominator divisible by {p}")
        c = Fraction(-1) - a
        b_a = Fraction(1)
        b_c = Fraction(1)
        xp = Fraction(1)
        for k in range(1, p):
            b_a = b_a * (a - k + 1) / k
            b_c = b_c * (c - k + 1) / k
            xp *= x
            t = b_a * b_c * xp
            if which == "core":
                t *= comb(2 * k, k)
            total += t
    else:
        raise ValueError(f"which must be 'core', 'plain' or a FamilyTag, got {which!r}")
    m = ctx.modulus
    return total.numerator * pow(total.denominator, -1, m) % m


def series_exact(spec: Spec, x: int, ctx: PrimeContext) -> int:
    """The series of a term-ratio spec (c, factors, d, n) at the integer x:
    sum_{k<=n} t_k x^k with t_0 = 1 and t_k / t_{k-1} =
    c * prod_i (s_i k + r_i) / k^d, added as exact Fractions and reduced
    once mod p^e."""
    c, factors, d, n = spec
    term = total = Fraction(1)
    for k in range(1, n + 1):
        for s, r in factors:
            term *= s * k + r
        term *= Fraction(c * x, k**d)
        total += term
    return reduce_rational(total, ctx)


def encode_report(records: List[dict]) -> Tuple[str, str]:
    """Records in list order as JSONL lines, ``json.dumps`` with sorted keys,
    and as CSV rows, ``csv.writer`` over the flat projection: parameters in
    the columns a, x, m, u, family and residues joined as name=value;..."""
    jsonl = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    rows = io.StringIO()
    csv.writer(rows).writerows(
        (r["theorem"], r["p"], r["e"],
         *(r["params"].get(n, "") for n in ("a", "x", "m", "u", "family")),
         r["hypothesis_holds"], r["conclusion_holds"], r["status"],
         ";".join(f"{k}={v}" for k, v in sorted(r["residues"].items())))
        for r in records
    )
    return jsonl, rows.getvalue()


def nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue mod p."""
    d = 2
    while pow(d, (p - 1) // 2, p) != p - 1:
        d += 1
    return d


def legendre_symbol(t: int, ctx: PrimeContext) -> int:
    """Euler-criterion Legendre symbol of t mod p (0 iff p | t)."""
    p = ctx.p
    a = t % p
    if a == 0:
        return 0
    ls = pow(a, (p - 1) // 2, p)
    return -1 if ls == p - 1 else ls


def sqrt_mod_p(t: int, ctx: PrimeContext) -> Optional[int]:
    """Deterministic square root mod p: the smaller of the two roots.

    Returns None for non-residues.  Tonelli-Shanks in the general case,
    with the p % 4 == 3 shortcut.
    """
    if ctx.e != 1:
        raise BadExponent("square roots are a mod-p notion; use an e == 1 context")
    p = ctx.p
    a = t % p
    if a == 0:
        return 0
    if legendre_symbol(a, ctx) != 1:
        return None
    if p % 4 == 3:
        s = pow(a, (p + 1) // 4, p)
    else:
        q, r = p - 1, 0
        while q % 2 == 0:
            q //= 2
            r += 1
        c = pow(nonresidue(p), q, p)
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
    return min(s, p - s)


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


def _check_degree(n: int, ctx: PrimeContext) -> None:
    if not 0 <= n <= ctx.p - 1:
        raise NTooLarge(f"degree must be in [0, {ctx.p - 1}], got {n}")


def legendre_square_at_sqrt(n: int, x: Rational, ctx: PrimeContext) -> int:
    """P_n(sqrt(1+4x))^2 mod p^e: the package's spec evaluated at the
    p-integral x reduced in ctx."""
    [[value]] = ctx.series([legendre_square_spec(n, ctx.p)], [reduce_rational(x, ctx)])
    return value


def legendre_eval_recurrence(
    n: int, x: Union[int, QuadExtElem], ctx: PrimeContext
) -> Union[int, QuadExtElem]:
    """P_n(x) by (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}.

    Every divisor 2..n stays below p, hence invertible; n >= p would force a
    division by p.  Works on ints mod p^e (any e), reduced into [0, p^e),
    and on F_p[sqrt(d)] elements, which reduce themselves.
    """
    _check_degree(n, ctx)
    m = ctx.modulus
    if isinstance(x, QuadExtElem):
        one, reduce = QuadExtElem(1, 0, x.d, ctx), lambda v: v
    else:
        one, reduce = 1, lambda v: v % m
    prev, cur = one, reduce(x)
    if n == 0:
        return prev
    for k in range(1, n):
        inv = pow(k + 1, -1, m)
        prev, cur = cur, reduce((x * cur * (2 * k + 1) - prev * k) * inv)
    return cur


def legendre_at_sqrt(n: int, t: int, ctx: PrimeContext) -> QuadExtElem:
    """P_n(sqrt(t)) in F_p or F_p[sqrt(t)], via the even/odd decomposition.

    P_n(sqrt(t)) = sqrt(t)^(n mod 2) * 2^-n *
                   sum_{k<=n/2} C(n,k) (-1)^k C(2n-2k, n) t^(n/2 - k).
    Lands in F_p when n is even or t is a residue (deterministic smaller
    root), else genuinely in the extension with d = t.
    """
    if ctx.e != 1:
        raise BadExponent("legendre_at_sqrt works in the e == 1 context")
    _check_degree(n, ctx)
    p = ctx.p
    tv = t % p
    h = n // 2
    g = sum(
        (-1) ** k * comb(n, k) * comb(2 * n - 2 * k, n) * pow(tv, h - k, p)
        for k in range(h + 1)
    )
    g = g * pow((p + 1) // 2, n, p) % p
    chi = legendre_symbol(tv, ctx)
    d = tv if chi == -1 else nonresidue(p)
    if n % 2 == 0:
        return QuadExtElem(g, 0, d, ctx)
    if chi == 0:
        return QuadExtElem(0, 0, d, ctx)
    if chi == 1:
        root = sqrt_mod_p(tv, ctx)
        assert root is not None
        return QuadExtElem(g * root, 0, d, ctx)
    return QuadExtElem(0, g, d, ctx)

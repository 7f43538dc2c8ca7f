"""Legendre polynomial evaluation mod p and mod p^e.

Four evaluators: the three-term recurrence, the shifted-argument closed form
(valid mod p^e through valued binomials), values at square roots in
F_p[sqrt(d)], and the squared value at sqrt(1+4x), which is a polynomial
identity and therefore the canonical mod-p^e evaluator (no roots needed).
The squared value runs on the division-free kernel
:func:`~supercong.modring.hyper_sum`; the other three read the context's
factorial tables.  An exact-rational coefficient oracle backs them all.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Union

from .errors import BadExponent, BoundExceeded, NTooLarge
from .modring import (
    PrimeContext,
    QuadExtElem,
    Rational,
    ResidueZ,
    hyper_sum,
    legendre_symbol,
    reduce_rational,
    sqrt_mod_p,
)

Element = Union[ResidueZ, QuadExtElem]

LEGENDRE_EXACT_BOUND = 64


def _one_like(x: Element) -> Element:
    if isinstance(x, QuadExtElem):
        return QuadExtElem(1, 0, x.d, x.ctx)
    return ResidueZ(1, x.ctx)


def _check_degree(n: int, ctx: PrimeContext) -> None:
    if not 0 <= n <= ctx.p - 1:
        raise NTooLarge(f"degree must be in [0, {ctx.p - 1}], got {n}")


def legendre_eval_recurrence(n: int, x: Element) -> Element:
    """P_n(x) by (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}.

    Every divisor 2..n stays below p, hence invertible; n >= p would force a
    division by p.  Works on residues (any e) and on F_p[sqrt(d)] elements.
    """
    ctx = x.ctx
    _check_degree(n, ctx)
    if n == 0:
        return _one_like(x)
    if n == 1:
        return x
    m = ctx.modulus
    fu, ifu = ctx.fact_units, ctx.inv_fact_units
    prev: Element = _one_like(x)
    cur: Element = x
    for k in range(1, n):
        inv = ifu[k + 1] * fu[k] % m  # 1/(k+1)
        prev, cur = cur, (x * cur * (2 * k + 1) - prev * k) * inv
    return cur


def legendre_eval_shifted(n: int, x: Element) -> Element:
    """P_n(x) = sum_k C(n,k) C(n+k,k) ((x-1)/2)^k, exact mod p^e.

    C(n+k,k) can hide one factor p once n+k >= p; it is applied from its
    stripped form, so the sum is exact for residues at any e <= 3.
    """
    ctx = x.ctx
    _check_degree(n, ctx)
    m, p, e = ctx.modulus, ctx.p, ctx.e
    fu, ifu = ctx.fact_units, ctx.inv_fact_units
    inv2 = (m + 1) // 2  # 1/2 mod p^e, m odd
    z = (x - 1) * inv2
    acc = _one_like(x)
    zpow = _one_like(x)
    for k in range(1, n + 1):
        zpow = zpow * z
        if n + k >= p:
            if e == 1:
                continue
            coeff = p
        else:
            coeff = 1
        ifk = ifu[k]
        coeff = coeff * fu[n + k] % m * ifk % m * ifk % m * ifu[n - k] % m
        acc = acc + zpow * coeff
    return acc


def legendre_at_sqrt(n: int, t: ResidueZ) -> QuadExtElem:
    """P_n(sqrt(t)) in F_p or F_p[sqrt(t)], via the even/odd decomposition.

    P_n(sqrt(t)) = sqrt(t)^(n mod 2) * 2^-n *
                   sum_{k<=n/2} C(n,k) (-1)^k C(2n-2k, n) t^(n/2 - k).
    Lands in F_p when n is even or t is a residue (deterministic smaller
    root), else genuinely in the extension with d = t.
    """
    ctx = t.ctx
    if ctx.e != 1:
        raise BadExponent("legendre_at_sqrt works in the e == 1 context")
    _check_degree(n, ctx)
    p = ctx.p
    fu, fv, ifu = ctx.fact_units, ctx.fact_valuations, ctx.inv_fact_units
    tv = t.value % p
    h = n // 2
    g = 0
    tpow = 1
    for k in range(h, -1, -1):  # exponent h-k grows as k walks down
        if fv[2 * n - 2 * k] == 0:  # else the term is 0 mod p
            u = fu[2 * n - 2 * k] * ifu[n] % p * ifu[n - 2 * k] % p
            u = u * fu[n] % p * ifu[k] % p * ifu[n - k] % p * tpow % p
            g = (g - u) if k & 1 else (g + u)
        tpow = tpow * tv % p
    g = g * pow((p + 1) // 2, n, p) % p
    chi = legendre_symbol(t)
    d = tv if chi == -1 else ctx.nonresidue
    if n % 2 == 0:
        return QuadExtElem(g, 0, d, ctx)
    if chi == 0:
        return QuadExtElem(0, 0, d, ctx)
    if chi == 1:
        root = sqrt_mod_p(t)
        assert root is not None
        return QuadExtElem(g * root.value, 0, d, ctx)
    return QuadExtElem(0, g, d, ctx)


def legendre_square_at_sqrt(
    n: int, x: Union[Rational, ResidueZ], ctx: Optional[PrimeContext] = None
) -> ResidueZ:
    """P_n(sqrt(1+4x))^2 = sum_k C(n,k) C(n+k,k) C(2k,k) x^k mod p^e.

    The right-hand side is a polynomial identity in x, so it evaluates the
    squared value exactly at any e <= 3 without lifting any square root.
    Its term ratio is 2(2k-1)(n-k+1)(n+k) x / k^3.
    """
    if isinstance(x, ResidueZ):
        ctx = x.ctx
        xh = x.value
    else:
        if ctx is None:
            raise TypeError("a context is required for rational x")
        xh = reduce_rational(x, ctx).value
    _check_degree(n, ctx)
    factors = ((2, -1), (-1, n + 1), (1, n))
    return ResidueZ(hyper_sum(2 * xh, factors, 3, n, ctx), ctx)


def legendre_exact(n: int, bound: int = LEGENDRE_EXACT_BOUND) -> List[Fraction]:
    """Exact rational coefficients of P_n, [c_0, ..., c_n], by recurrence."""
    if n < 0 or n > bound:
        raise BoundExceeded(f"degree must be in [0, {bound}], got {n}")
    if n == 0:
        return [Fraction(1)]
    prev = [Fraction(1)]
    cur = [Fraction(0), Fraction(1)]
    for k in range(1, n):
        nxt = [Fraction(0)] * (k + 2)
        for j, c in enumerate(cur):
            nxt[j + 1] = c * (2 * k + 1)
        for j, c in enumerate(prev):
            nxt[j] -= c * k
        inv = Fraction(1, k + 1)
        prev, cur = cur, [c * inv for c in nxt]
    return cur

"""Legendre polynomials mod p^e.

The squared value P_n(sqrt(1+4x))^2 is a polynomial identity in x, so
:func:`legendre_square_at_sqrt` evaluates it exactly mod p^e on the
division-free kernel :func:`~supercong.modring.hyper_sum`, without lifting
any square root.  :func:`legendre_exact` gives the exact rational
coefficients that the oracles compare against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Union

from .errors import BoundExceeded, NTooLarge
from .modring import PrimeContext, Rational, ResidueZ, hyper_sum, reduce_rational

LEGENDRE_EXACT_BOUND = 64


def _check_degree(n: int, ctx: PrimeContext) -> None:
    if not 0 <= n <= ctx.p - 1:
        raise NTooLarge(f"degree must be in [0, {ctx.p - 1}], got {n}")


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

"""Legendre polynomials mod p^e.

The squared value P_n(sqrt(1+4x))^2 is a polynomial identity in x, the
series of the term-ratio spec :func:`legendre_square_spec`, so a context's
``series`` evaluates it exactly mod p^e without lifting any square root.
:func:`legendre_exact` gives the exact rational coefficients that the
oracles compare against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from .errors import BoundExceeded, NTooLarge
from .modring import Spec

LEGENDRE_EXACT_BOUND = 64


def legendre_square_spec(n: int, p: int) -> Spec:
    """P_n(sqrt(1+4x))^2 = sum_{k<=n} C(n,k) C(n+k,k) C(2k,k) x^k, for a
    degree 0 <= n < p: term ratio 2(2k-1)(n-k+1)(n+k) / k^3."""
    if not 0 <= n <= p - 1:
        raise NTooLarge(f"degree must be in [0, {p - 1}], got {n}")
    return 2, ((2, -1), (-1, n + 1), (1, n)), 3, n


def legendre_exact(n: int) -> List[Fraction]:
    """Exact rational coefficients of P_n, [c_0, ..., c_n], by recurrence."""
    if not 0 <= n <= LEGENDRE_EXACT_BOUND:
        raise BoundExceeded(f"degree must be in [0, {LEGENDRE_EXACT_BOUND}], got {n}")
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

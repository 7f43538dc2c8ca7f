"""Exact ground truth on integers, independent of the modular pipeline.

The truncated sums come from one prefix pass per series: the exact partial
sum is kept as an integer pair N / D over the terms' common denominator, and
is read mod p^e at k = p - 1 for every prime asked for.  The lemmas are
polynomial identities of known degree in one variable, so agreement at one
more integer point than the degree proves them: the sides of the product-sum
identity and each term of its three-term recurrence certificate have degree
<= 2n in a, and the squared-Legendre expansion has degree n in x.  The
dictionary check compares both closed forms cross-multiplied to integers.
No floating point anywhere, and no computer-algebra dependency.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import comb, factorial, lcm
from typing import Dict, Iterable, Iterator, List, NamedTuple, Tuple, Union

from .congruences import FamilyTag
from .errors import BoundExceeded, NotPIntegral
from .legendre import legendre_exact
from .modring import PrimeContext, Rational

LEMMA_2_2_BOUND = 40
LEMMA_2_1_BOUND = 30
IDENTITY_1_7_BOUND = 200
REDUCE_P_BOUND = 512


def _pairs(a: int, n: int) -> List[int]:
    """[C(a,k) C(-1-a,k) for k = 0..n] at an integer a >= 0.  Each is an
    integer, since C(-1-a,k) = (-1)^k C(a+k,k); consecutive ones differ by
    the factor -(a-k+1)(a+k) / k^2."""
    row = [1]
    for k in range(1, n + 1):
        row.append(-row[-1] * (a - k + 1) * (a + k) // (k * k))
    return row


def _side(n: int, side: int, rows: List[List[int]]) -> Tuple[int, ...]:
    """Side 1 or side 2 of the convolution identity for n at each point
    whose pair row (of length > n) is given."""
    if side == 1:
        return tuple(sum(r[k] * r[n - k] for k in range(n + 1)) for r in rows)
    weights = [  # C(k, n-k) vanishes for 2k < n
        (k, (-1) ** (n - k) * comb(2 * k, k) * comb(k, n - k)) for k in range((n + 1) // 2, n + 1)
    ]
    return tuple(sum(w * r[k] for k, w in weights) for r in rows)


def lemma_2_2_sides(n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Both sides of the convolution identity at the points a = 0, ..., 2n.

    Side 1 convolves the C(a,k) C(-1-a,k) pairs; side 2 runs the
    C(2k,k)-weighted alternating form.  Both are polynomials of degree <= 2n
    in a, so equal values at these 2n + 1 points are a complete proof of the
    identity for this n.
    """
    if not 0 <= n <= LEMMA_2_2_BOUND:
        raise BoundExceeded(f"n must be in [0, {LEMMA_2_2_BOUND}], got {n}")
    rows = [_pairs(a, n) for a in range(2 * n + 1)]
    return _side(n, 1, rows), _side(n, 2, rows)


def _recurrence(n: int, a: int) -> Tuple[int, int, int]:
    """The certificate's coefficients n^3, q1 and q2 at the point a."""
    q1 = (2 * n - 1) * (n * n - n - 2 * a * (a + 1))
    q2 = (n - 1) * (2 * a + n) * (2 * a + 2 - n)
    return n**3, q1, q2


def zeilberger_certificate_check(n: int, side: int) -> bool:
    """Verify the certified three-term recurrence at n as a polynomial identity:

    n^3 S(n) = (2n-1)(n^2 - n - 2a(a+1)) S(n-1) + (n-1)(2a+n)(2a+2-n) S(n-2).

    Each of the three terms has degree <= 2n in a, so equality at the points
    a = 0, ..., 2n proves it.
    """
    if not 2 <= n <= LEMMA_2_2_BOUND:
        raise BoundExceeded(f"n must be in [2, {LEMMA_2_2_BOUND}], got {n}")
    if side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {side!r}")
    rows = [_pairs(a, n) for a in range(2 * n + 1)]
    s0, s1, s2 = (_side(m, side, rows) for m in (n, n - 1, n - 2))
    for a in range(2 * n + 1):
        c0, q1, q2 = _recurrence(n, a)
        if c0 * s0[a] != q1 * s1[a] + q2 * s2[a]:
            return False
    return True


def lemma_2_1_exact_check(n: int) -> bool:
    """Square P_n(y), substitute y^2 -> 1+4x, and compare the result with
    sum_k C(n,k) C(n+k,k) C(2k,k) x^k.

    Both sides have degree n in x, so equality at x = 0, ..., n proves it.
    """
    if not 0 <= n <= LEMMA_2_1_BOUND:
        raise BoundExceeded(f"n must be in [0, {LEMMA_2_1_BOUND}], got {n}")
    c = legendre_exact(n)
    den = lcm(*(q.denominator for q in c))
    c = [q.numerator * (den // q.denominator) for q in c]  # den * P_n, on integers
    sq = [0] * (2 * n + 1)
    for i, ci in enumerate(c):
        if ci:
            for j, cj in enumerate(c):
                sq[i + j] += ci * cj
    if any(sq[1::2]):  # parity must kill odd powers
        return False
    rhs = [comb(n, k) * comb(n + k, k) * comb(2 * k, k) for k in range(n + 1)]
    for x in range(n + 1):
        y2 = 1 + 4 * x
        lhs = sum(s * y2**t for t, s in enumerate(sq[::2]))
        if lhs != den * den * sum(r * x**k for k, r in enumerate(rhs)):
            return False
    return True


def _falling(r: int, s: int, k: int) -> int:
    """prod_{i<k} (-r - i s) = s^k k! C(-r/s, k), an integer."""
    out = 1
    for i in range(k):
        out *= -r - i * s
    return out


def identity_1_7_check(k: int) -> bool:
    """All four dictionary equalities at this k, on integers.

    C(-r1/s, k) C(-r2/s, k) = c / N^k holds iff the falling products satisfy
    prod (-r1 - i s) prod (-r2 - i s) N^k == c (s^k k!)^2.
    """
    if not 0 <= k <= IDENTITY_1_7_BOUND:
        raise BoundExceeded(f"k must be in [0, {IDENTITY_1_7_BOUND}], got {k}")
    c2 = comb(2 * k, k)
    c3 = comb(3 * k, k)
    c4 = comb(4 * k, 2 * k)
    c6 = comb(6 * k, 3 * k)
    return all(
        _falling(r1, s, k) * _falling(r2, s, k) * n**k == c * (s**k * factorial(k)) ** 2
        for r1, r2, s, n, c in (
            (1, 1, 2, 16, c2 * c2),
            (1, 2, 3, 27, c2 * c3),
            (1, 3, 4, 64, c2 * c4),
            (1, 5, 6, 432, c3 * c6),
        )
    )


def _terms(a: Fraction, x: Fraction, which: Union[str, FamilyTag]) -> Iterator[Tuple[int, int]]:
    """(step_k, T_k) for k = 1, 2, ...: the k-th term of the series is
    T_k / D_k with D_k = step_1 * ... * step_k.

    With x = n/d, a family term is N_f(k) n^k / d^k.  With a = u/v, the
    core and plain terms carry C(a,k) C(-1-a,k) = prod_{i<k} (u - iv)
    (-v - u - iv) / (v^2k k!^2), times C(2k,k) for core.
    """
    n, d = x.numerator, x.denominator
    nk = 1
    if isinstance(which, FamilyTag):
        for k in count(1):
            nk *= n
            yield d, which.numerator(k) * nk
    else:
        u, v = a.numerator, a.denominator
        central = 1
        for k in count(1):
            i = k - 1
            nk *= (u - i * v) * (-v - u - i * v) * n
            if which == "core":
                central = central * 2 * (2 * k - 1) // k
            yield v * v * k * k * d, central * nk


def exact_reduce_sums(
    a: Rational,
    x: Rational,
    which: Union[str, FamilyTag],
    primes: Iterable[int],
    e: int,
) -> Dict[int, int]:
    """Ground truth: the designated truncated sum as one exact rational,
    reduced mod p^e at every prime at once: {p: residue}.

    ``which`` is "core", "plain", or a FamilyTag (whose sum ignores ``a``).
    Primes above REDUCE_P_BOUND are refused.  One pass over k < max(primes)
    keeps the exact partial sum as the integer pair N / D, D the terms'
    common denominator, with no gcd; at k = p - 1 it reads N * D^-1 mod p^e.
    As in ``congruences.family_sums``, a prime dividing the denominator of x
    (or, for core and plain, of a) has no residue and is left out.
    Deliberately independent of the modular pipeline: integer binomial
    factors and one inversion per prime.
    """
    primes = set(primes)
    if primes and max(primes) > REDUCE_P_BOUND:
        raise BoundExceeded(f"exact summation is bounded at p <= {REDUCE_P_BOUND}")
    x = Fraction(x)
    dens = x.denominator
    if isinstance(which, FamilyTag):
        a = Fraction(0)
    elif which in ("core", "plain"):
        a = Fraction(a)
        dens *= a.denominator
    else:
        raise ValueError(f"which must be 'core', 'plain' or a FamilyTag, got {which!r}")
    usable = {p for p in primes if dens % p}
    out = {}
    num = den = 1
    for k, (step, t) in zip(range(1, max(usable, default=1)), _terms(a, x, which)):
        num = num * step + t
        den *= step
        p = k + 1
        if p in usable:
            if den % p == 0:  # cannot happen: den is a product of p-units
                raise NotPIntegral(f"the common denominator at k = {k} is divisible by {p}")
            m = p**e
            out[p] = num * pow(den, -1, m) % m
    return out


class ExactResidue(NamedTuple):
    """An exact sum mod p^e, as :func:`exact_reduce_sum` returns it."""

    value: int


def exact_reduce_sum(
    a: Rational, x: Rational, ctx: PrimeContext, which: Union[str, FamilyTag]
) -> ExactResidue:
    """:func:`exact_reduce_sums` at the context's one prime; NotPIntegral if
    p divides a denominator that the sum reads.  The record exists for the
    benchmark's output checks (``perfbench/checks.py``), which read its
    ``value`` field; it goes with this function once they read
    ``exact_reduce_sums(...)[p]`` (ROADMAP item 1)."""
    p = ctx.p
    sums = exact_reduce_sums(a, x, which, [p], ctx.e)
    if p not in sums:
        raise NotPIntegral(f"a = {a} or x = {x} has denominator divisible by {p}")
    return ExactResidue(sums[p])


# Deterministic parameter grids for the modular-vs-exact equivalence sweeps;
# combinations whose denominators vanish mod p are skipped per prime.
GRID_A = (
    Fraction(0),
    Fraction(1),
    Fraction(-1, 2),
    Fraction(-1, 3),
    Fraction(-1, 4),
    Fraction(-1, 6),
    Fraction(2, 3),
    Fraction(7, 5),
    Fraction(-9, 4),
    Fraction(5),
)
GRID_X = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 3),
    Fraction(2, 5),
    Fraction(-7, 4),
    Fraction(9, 8),
    Fraction(3),
    Fraction(-5, 6),
)

"""Exact arithmetic in Z/p^e on plain ints in [0, p^e): rational reduction
and the division-free hypergeometric kernel behind every truncated sum, as
the coefficient row of a series at one prime or as the sums to p - 1 of
several term ratios over one moduli tree of a whole prime list, each prime
read at its last term that can be nonzero mod p^e, and None where it
divides a ratio's denominator.

A :class:`PrimeContext` keeps the coefficient row of each series it meets
and evaluates rows at a whole argument vector in one packed big-int pass,
so every point of a parameter grid at one prime shares its rows.  Each
process or worker builds its own context.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import BadExponent, CompositeModulus, NotPIntegral, RangeError

Rational = Union[Fraction, int]

# A term-ratio spec (c, factors, d, n): the series sum_{k=0}^{n} t_k x^k with
# t_0 = 1 and t_k / t_{k-1} = c * prod_i (s_i k + r_i) / k^d (see hyper_terms).
Spec = Tuple[int, Tuple[Tuple[int, int], ...], int, int]

# Deterministic Miller-Rabin witness sets.  The first k primes as bases are
# exact for every n below psi_k, the smallest strong pseudoprime to all of
# them.  The full set, the first 13 primes, is exact below
# psi_13 = 3317044064679887385961981 > 3.3e24 (the first 12 are not:
# psi_12 = 318665857834031151167461 passes them).  Each tier
# (psi_k, first k primes) tests the n below its bound with fewer bases.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_TIERS = ((1_373_653, _MR_WITNESSES[:2]), (3_215_031_751, _MR_WITNESSES[:4]))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24),
    with the fewest bases of :data:`_MR_TIERS` that are exact for ``n``."""
    if n < 2:
        return False
    for bound, witnesses in _MR_TIERS:
        if n < bound:
            break
    else:
        witnesses = _MR_WITNESSES
    for q in witnesses:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in witnesses:
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
    """An odd prime p and an exponent e in {1, 2, 3}, with a cache of
    coefficient rows.

    :meth:`series` evaluates the coefficient rows (:func:`hyper_terms`) of
    several specs at a vector of x mod p^e; each row is built on first use
    and kept.  Every point of a grid at p evaluates the same few series at
    different x, so each row, O(p) ints, serves many points, and nothing is
    kept per x.  The cache belongs to the process that builds the context.
    """

    def __init__(self, p: int, e: int) -> None:
        if not isinstance(e, int) or e not in (1, 2, 3):
            raise BadExponent(f"exponent must be 1, 2 or 3, got {e!r}")
        if not isinstance(p, int) or p == 2 or not is_prime(p):
            raise CompositeModulus(f"{p!r} is not an odd prime")
        self.p = p
        self.e = e
        self.modulus = p**e
        self._rows: Dict[Spec, List[int]] = {}

    def series(self, specs: Sequence[Spec], xs: Sequence[int]) -> List[Sequence[int]]:
        """The series of each spec at each integer x of ``xs``, mod p^e:
        one sequence of values per spec, in the order of ``xs``.

        Several x are packed, each into a 64-bit slot of one big int: with
        P_k = sum_j (x_j^k mod p^e) 2^(64 j), a row's sums are the slots of
        sum_k t_k P_k, one pass over k for all rows.  A slot holds at most
        (K + 1) (p^e - 1)^2 for rows of at most K + 1 terms, which fits in
        64 bits up to p = 7129 at e = 2 and p = 563 at e = 3, so no slot
        carries into the next; the values stay packed, 8 bytes each, in an
        ``array("Q")``.  One x, or a bound past 64 bits, is evaluated by
        Horner's rule, x by x.
        """
        m = self.modulus
        if len(xs) > 1 and specs:
            rows = [self._row(spec) for spec in specs]
            terms = max(map(len, rows))
            if terms * (m - 1) ** 2 >> 64 == 0:
                # Imported here: a run that never packs should not pay for
                # it at start-up.
                from array import array

                order = sys.byteorder
                xs = [x % m for x in xs]
                powers = [1] * len(xs)
                accs = [int.from_bytes(array("Q", powers), order)] * len(rows)  # t_0 = 1
                for k in range(1, terms):
                    powers = [v * x % m for v, x in zip(powers, xs)]
                    pk = int.from_bytes(array("Q", powers), order)
                    accs = [a + row[k] * pk if k < len(row) else a for a, row in zip(accs, rows)]
                size = 8 * len(xs)
                return [array("Q", [v % m for v in memoryview(a.to_bytes(size, order)).cast("Q")])
                        for a in accs]
        out = []
        for spec in specs:
            row = self._row(spec)
            values = []
            for x in xs:
                x %= m
                acc = 0
                for t in reversed(row):
                    acc = (acc * x + t) % m
                values.append(acc)
            out.append(values)
        return out

    def _row(self, spec: Spec) -> List[int]:
        """The coefficient row of ``spec``, built on first use and kept."""
        row = self._rows.get(spec)
        if row is None:
            row = self._rows[spec] = hyper_terms(*spec, self)
        return row

    def __repr__(self) -> str:
        return f"PrimeContext(p={self.p}, e={self.e})"


def make_context(p: int, e: int) -> PrimeContext:
    """Build the context for Z/p^e."""
    return PrimeContext(p, e)


def hyper_terms(
    c: int, factors: Sequence[Tuple[int, int]], d: int, n: int, ctx: PrimeContext
) -> List[int]:
    """The terms [t_0, ..., t_K] mod p^e of the series
    sum_{k=0}^{n} t_k x^k, for t_0 = 1 and the term ratio
    t_k / t_{k-1} = c * prod_i (s_i k + r_i) / k^d, with n < p.

    ``c`` is an integer constant and ``factors`` holds at most three integer
    pairs (s_i, r_i).  The kernel keeps the term numerator U_k and the
    common denominator D = (k!)^d.  Every k <= n < p is a unit, and
    p-factors of the numerators are never divided out, so every step is
    exact mod p^e.  Once U == 0 every later term vanishes too, so the row
    ends there: K = n, or K = k - 1 for the first k with U_k == 0 mod p^e.
    D = (K!)^d is inverted once, and that inverse walked back to each
    (k!)^-d, so t_k = U_k (k!)^-d exactly.
    """
    if not 0 <= n < ctx.p:
        raise RangeError(f"hypergeometric sums run to n < {ctx.p}, got {n}")
    m = ctx.modulus
    (s1, f1), (s2, f2), (s3, f3) = (*factors, *((0, 1),) * (3 - len(factors)))
    s1, f1 = c * s1 % m, c * f1 % m  # fold c into the first factor
    row = [1]
    u = den = 1
    for k in range(1, n + 1):
        f1 += s1
        f2 += s2
        f3 += s3
        u = u * f1 * f2 * f3 % m
        if not u:
            break
        row.append(u)
        den = den * k**d % m
    inv = pow(den, -1, m)
    for k in range(len(row) - 1, 0, -1):
        row[k] = row[k] * inv % m
        inv = inv * k**d % m
    return row


def _moduli_tree(moduli: Sequence[int], lo: int, hi: int) -> tuple:
    """(product, left subtree, right subtree) over moduli[lo:hi], split at
    the midpoint; a leaf is (modulus,)."""
    if hi - lo == 1:
        return (moduli[lo],)
    mid = (lo + hi) // 2
    left = _moduli_tree(moduli, lo, mid)
    right = _moduli_tree(moduli, mid, hi)
    return left[0] * right[0], left, right


def _prime_power_tree(primes: Tuple[int, ...], e: int) -> tuple:
    """The moduli tree over p^e for an ascending list of odd primes."""
    for prev, p in zip((2, *primes), primes):
        if p <= prev or not is_prime(p):
            raise CompositeModulus(f"{p!r} is not an odd prime above {prev}")
    return _moduli_tree([p**e for p in primes], 0, len(primes))


def _readouts(primes: Sequence[int], e: int, factors: Sequence[Tuple[int, int]]) -> List[int]:
    """The index n(p) at which :func:`hyper_sums` reads each prime of an
    ascending list: no term past n(p) is nonzero mod p^e, and n(p) <= p - 1
    never decreases along the list.

    A factor s k + r with p not dividing s vanishes mod p at k = -r / s mod p.
    At each such root k in [1, p) the term numerator U_k gains a factor p,
    and U_k divides every later U, so every term from j_e on, the e-th
    smallest root counted once per factor, is 0 mod p^e: n(p) = j_e - 1, or
    p - 1 with fewer than e roots.  A p dividing num, a factor with p | s, a
    factor that is exactly 0 and p^2 dividing a factor at its root are left
    out: each could only end the nonzero terms sooner, and the partial sum
    is the same read anywhere in [n(p), p - 1].  That also lets each n(p)
    be raised to the one before it, so the readouts never decrease.

    A factor with no root in [1, p) reads p, as do e more columns, so the
    e-th smallest of a prime's roots is p with fewer than e of them.
    """
    roots = [[-r * pow(s, -1, p) % p or p if s % p else p for p in primes] for s, r in factors]
    return list(accumulate([sorted(js)[e - 1] - 1 for js in zip(*roots, *[primes] * e)], max))


def hyper_sums(
    ratios: Sequence[Tuple[int, int, Sequence[Tuple[int, int]], int]],
    primes: Sequence[int],
    e: int,
) -> List[List[Optional[int]]]:
    """sum_{k=0}^{p-1} t_k mod p^e for every ratio (num, den, factors, d) of
    ``ratios`` and every prime p of an ascending list, for t_0 = 1 and the
    term ratio t_k / t_{k-1} = num * prod_i (s_i k + r_i) / (den * k^d): one
    list per ratio in the order of ``primes``, None at each prime that
    divides that ratio's den.

    This is the sum of :func:`hyper_terms`'s row at n = p - 1 and x = 1 for
    all primes at once, with the constant c = num / den kept as two
    integers.  With D_k = den^k (k!)^d, the term is t_k = U_k / D_k and the
    partial sum t_0 + ... + t_k is N_k / D_k; the row vector (U, N) steps by
    [[a_k, a_k], [0, b_k]], with
    a_k = num * prod_i (s_i k + r_i) and b_k = den * k^d, so the product
    [[A, B], [0, D]] of the steps k = 1 .. n gives the partial sum
    (B + D) / D, and D is a unit when n < p and p does not divide den.  At a
    p that divides den only that last division is skipped: the product is
    read by every later prime, mod which den is a unit.
    Each prime is read at its n(p) (:func:`_readouts`): every term past it
    is 0 mod p^e, so that partial sum is the sum to p - 1, and at e = 2
    every family of ``congruences`` is read at (p - 1) / 2.  One leaf block
    multiplies the steps between the readouts of two consecutive primes; an
    accumulating remainder tree (Costa, Gerbicz and Harvey,
    arXiv:1209.3436) then reduces every prefix product mod its own p^e.
    That is O(log n) levels of big-integer products and remainders for n
    primes, in place of sum(p) Python steps.  The ratios share one checked
    moduli tree, which each walks once.

    A product of blocks is only ever read modulo the product of the moduli
    of the primes after it, so each node of the walk is passed that product
    and reduces the product of its blocks there once it outgrows it; an
    upper-triangular matrix [[a, b], [0, d]] is kept as the three ints a, b
    and d.
    """
    if not isinstance(e, int) or e not in (1, 2, 3):
        raise BadExponent(f"exponent must be 1, 2 or 3, got {e!r}")
    primes = tuple(primes)
    if not primes:
        return [[] for _ in ratios]
    tree = _prime_power_tree(primes, e)
    root = tree[0]
    outs = []
    for num, den, factors, d in ratios:
        (s1, r1), (s2, r2), (s3, r3) = (*factors, *((0, 1),) * (3 - len(factors)))
        stop = [n + 1 for n in _readouts(primes, e, factors)]
        out: List[Optional[int]] = [None] * len(primes)

        def walk(node: tuple, lo: int, hi: int, prefix: Tuple[int, int, int],
                 after: Optional[tuple]) -> Optional[Tuple[int, int, int]]:
            """Fill out[lo:hi] from the product of the blocks before lo,
            reduced mod node's modulus (the identity (1, 0, 1) if no block
            precedes).  Where a caller reads the product of blocks
            lo .. hi-1, ``after`` is the product of the moduli of the primes
            from hi on that it is read by, and the product is returned,
            reduced mod ``after`` once it outgrows it; else None.  ``after``
            is kept unformed, as the chain (bits, factor, rest) whose factors
            multiply to it and whose bits add up their bit lengths: it is
            formed only at the few nodes whose product has more bits than
            that.

            A leaf multiplies the steps after the previous prime's readout
            up to its own, none if the two are equal.  Its product is reduced
            mod the product of all moduli once it outgrows it: a long gap (a
            list that starts high) stays O(gap) steps on numbers below it,
            and a short one is never reduced (a reduced negative entry would
            be as long as the modulus)."""
            pa, pb, pd = prefix
            if hi - lo == 1:
                a, b, dd = 1, 0, 1
                for k in range(stop[lo - 1] if lo else 1, stop[lo]):
                    a *= num * (s1 * k + r1) * (s2 * k + r2) * (s3 * k + r3)
                    bk = den * k**d
                    b = a + b * bk
                    dd *= bk
                    if abs(a) > root or abs(dd) > root:
                        a, b, dd = a % root, b % root, dd % root
                m = node[0]
                pb, pd = (pa * b + pb * dd) % m, pd * dd % m
                if den % primes[lo]:
                    out[lo] = (pb + pd) * pow(pd, -1, m) % m
            else:
                mid = (lo + hi) // 2
                left, right = node[1], node[2]
                ml, mr = left[0], right[0]
                a, b, dd = walk(left, lo, mid, (pa % ml, pb % ml, pd % ml),
                                (mr.bit_length() + (after[0] if after else 0), mr, after))
                ha, hb, hd = a % mr, b % mr, dd % mr
                pa, pb, pd = pa % mr, pb % mr, pd % mr
                ha, hb, hd = pa * ha % mr, (pa * hb + pb * hd) % mr, pd * hd % mr
                rest = walk(right, mid, hi, (ha, hb, hd), after)
                if after is None:
                    return None
                ra, rb, rd = rest
                a, b, dd = a * ra, a * rb + b * rd, dd * rd
            if after is None:
                return None
            bits, n, rest = after
            if a.bit_length() > bits or dd.bit_length() > bits:
                while rest:
                    _, factor, rest = rest
                    n *= factor
                a, b, dd = a % n, b % n, dd % n
            return a, b, dd

        walk(tree, 0, len(primes), (1, 0, 1), None)
        outs.append(out)
    return outs


def reduce_rational(q: Rational, ctx: PrimeContext) -> int:
    """Reduce a p-integral rational to numerator * denominator^-1 mod p^e,
    the int in [0, p^e)."""
    q = Fraction(q)
    if q.denominator % ctx.p == 0:
        raise NotPIntegral(f"{q} has denominator divisible by {ctx.p}")
    m = ctx.modulus
    return q.numerator * pow(q.denominator, -1, m) % m


"""Binomial coefficients mod p^e as terms of the hypergeometric kernel,
against exact oracles, and the canonical residue of a mod p.

The kernel's coefficient row holds the terms t_0, ..., t_K of a series and
ends early only where every later term vanishes.  C(a, k), C(2k, k) and
(a)_k are the terms of series whose term ratios are (a-j+1)/j, 2(2j-1)/j
and (a+j-1), so the tests below check the kernel's exactness on single
binomial terms, including those that carry a factor p.
"""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from reference import binom_frac
from supercong.errors import NotPIntegral, RangeError
from supercong.modring import hyper_terms, make_context, reduce_rational


def kernel_term(c, factors, d, k, ctx) -> int:
    """t_k of the kernel's series mod p^e: the last entry of the row to k,
    or 0 where the row ends before k."""
    row = hyper_terms(c, factors, d, k, ctx)
    return row[k] if k < len(row) else 0


def binom_rational(a, k, ctx) -> int:
    """C(a, k) mod p^e for p-integral a and 0 <= k < p."""
    ah = reduce_rational(a, ctx)
    return kernel_term(1, ((-1, ah + 1),), 1, k, ctx)


def central_binom(k, ctx) -> int:
    """C(2k, k) mod p^e for 0 <= k < p."""
    return kernel_term(2, ((2, -1),), 1, k, ctx)


def pochhammer_rational(a, k, ctx) -> int:
    """Rising factorial (a)_k mod p^e for p-integral a and 0 <= k < p."""
    ah = reduce_rational(a, ctx)
    return kernel_term(1, ((1, ah - 1),), 0, k, ctx)


def exact_binom(a: Fraction, k: int) -> Fraction:
    """Independent falling-factorial oracle."""
    num = Fraction(1)
    for i in range(k):
        num *= a - i
    return num / factorial(k)


def exact_residue(a, k, ctx) -> int:
    """C(a, k) as one exact rational, reduced mod p^e."""
    return reduce_rational(binom_frac(a, k), ctx)


def valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_binom_rational_examples():
    ctx = make_context(7, 2)
    assert binom_rational(0, 3, ctx) == 0
    assert binom_rational(Fraction(9, 5), 0, ctx) == 1
    # (-1/2)(-3/2)/2 = 3/8, and 3/8 = 31 mod 49
    assert binom_rational(Fraction(-1, 2), 2, ctx) == 31
    assert binom_rational(Fraction(-1, 2), 2, ctx) == reduce_rational(Fraction(3, 8), ctx)


def test_binom_rational_guards():
    ctx = make_context(7, 2)
    with pytest.raises(RangeError):
        binom_rational(1, 7, ctx)
    with pytest.raises(RangeError):
        binom_rational(1, -1, ctx)
    with pytest.raises(NotPIntegral):
        binom_rational(Fraction(1, 7), 2, ctx)


def test_binom_rational_matches_exact_reduction():
    rng = random.Random(2024)
    for p in (5, 11, 13):
        for e in (1, 2, 3):
            ctx = make_context(p, e)
            for _ in range(25):
                dens = [d for d in range(1, 10) if d % p]
                a = Fraction(rng.randint(-30, 30), rng.choice(dens))
                k = rng.randrange(p)
                want = reduce_rational(exact_binom(a, k), ctx)
                assert binom_rational(a, k, ctx) == want, (p, e, a, k)


def test_binom_rational_integer_tops_match_comb():
    for p in (5, 13):
        ctx = make_context(p, 2)
        for a in range(p):
            for k in range(p):
                assert binom_rational(a, k, ctx) == comb(a, k) % ctx.modulus


def test_binom_rational_congruence_stability():
    rng = random.Random(5)
    for p, e in ((5, 2), (11, 1), (7, 3)):
        ctx = make_context(p, e)
        for _ in range(20):
            a = Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3]))
            k = rng.randrange(p)
            assert binom_rational(a, k, ctx) == binom_rational(a + p**e, k, ctx)


def test_pair_vanishing_in_upper_half():
    # p | C(a,k) C(-1-a,k) for (p+1)/2 <= k <= p-1
    rng = random.Random(17)
    for p in (7, 11, 13):
        ctx = make_context(p, 2)
        for _ in range(15):
            dens = [d for d in range(1, 10) if d % p]
            a = Fraction(rng.randint(-30, 30), rng.choice(dens))
            for k in range((p + 1) // 2, p):
                prod = exact_residue(a, k, ctx) * exact_residue(-1 - a, k, ctx)
                assert prod % p == 0, (p, a, k)


def test_reflection_identity():
    # C(-1-a, k) == (-1)^k C(a+k, k) exactly, hence as residues
    rng = random.Random(31)
    for p in (5, 11):
        ctx = make_context(p, 2)
        for _ in range(20):
            a = Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 4]))
            k = rng.randrange(p)
            lhs = exact_residue(-1 - a, k, ctx)
            rhs = exact_residue(a + k, k, ctx) * (-1) ** k % ctx.modulus
            assert lhs == rhs


def test_central_binom_examples():
    ctx = make_context(5, 2)
    assert central_binom(0, ctx) == 1
    assert central_binom(3, ctx) == 20  # C(6,3)
    assert central_binom(4, ctx) == 20  # C(8,4) = 70 = 20 mod 25
    with pytest.raises(RangeError):
        central_binom(5, ctx)


def test_central_binom_matches_comb_and_tracks_valuation():
    for p in (5, 11, 13):
        for e in (1, 2, 3):
            ctx = make_context(p, e)
            for k in range(p):
                n = comb(2 * k, k)
                assert central_binom(k, ctx) == n % ctx.modulus
                if k > (p - 1) // 2:
                    assert valuation(n, p) == 1


def test_ap_of_examples():
    ctx = make_context(7, 1)
    assert reduce_rational(Fraction(-1, 2), ctx) == 3
    assert reduce_rational(4, ctx) == 4
    assert reduce_rational(Fraction(-1, 3), ctx) == 2
    with pytest.raises(NotPIntegral):
        reduce_rational(Fraction(1, 7), ctx)


def test_pochhammer_matches_binomial_identity():
    # (a)_k = (-1)^k k! C(-a, k)
    rng = random.Random(99)
    for p in (5, 11):
        ctx = make_context(p, 2)
        m = ctx.modulus
        for _ in range(20):
            a = Fraction(rng.randint(-15, 15), rng.choice([1, 2, 3]))
            k = rng.randrange(p)
            lhs = pochhammer_rational(a, k, ctx)
            kfact = factorial(k)  # k < p, a unit
            rhs = (-1) ** k * kfact * binom_rational(-a, k, ctx) % m
            assert lhs == rhs

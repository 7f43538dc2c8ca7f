"""Context construction, rational reduction and the kernel; the reference
roots, residue symbols and F_p^2 of tests/reference.py."""

import random
from fractions import Fraction
from math import comb

import pytest

from reference import MixedContext, QuadExtElem, legendre_symbol, nonresidue, sqrt_mod_p
from supercong.errors import BadExponent, CompositeModulus, NotPIntegral, RangeError
from supercong import modring
from supercong.modring import (
    GridContext,
    hyper_sum,
    hyper_sums,
    hyper_terms,
    is_prime,
    make_context,
    reduce_rational,
)

SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29)


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(2000):
        assert is_prime(n) == trial(n), n


def test_is_prime_large_cases():
    assert is_prime(2**31 - 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert is_prime(99991)
    assert not is_prime(99991 * 99989)


def test_is_prime_small_witness_set_is_exact_below_its_bound(monkeypatch):
    # strong pseudoprimes to bases 2, 3, 5 and to bases 2, 3, 5, 7
    assert not is_prime(25326001)
    assert not is_prime(3215031751)
    small = [is_prime(n) for n in range(2 * 10**5)]
    monkeypatch.setattr(modring, "_MR_SMALL", modring._MR_WITNESSES)
    assert small == [is_prime(n) for n in range(2 * 10**5)]


def test_make_context_builds_factorial_tables():
    ctx = make_context(5, 2)
    assert ctx.modulus == 25


def test_make_context_rejects_bad_input():
    with pytest.raises(CompositeModulus):
        make_context(9, 2)
    with pytest.raises(CompositeModulus):
        make_context(2, 1)  # odd primes only
    with pytest.raises(BadExponent):
        make_context(5, 0)
    with pytest.raises(BadExponent):
        make_context(5, 4)


def test_hyper_sum_binomial_series_and_range():
    # sum_k C(n,k) x^k = (1+x)^n: ratio (n-k+1) x / k, one factor, d = 1
    for p, e in ((7, 1), (11, 2), (13, 3)):
        ctx = make_context(p, e)
        for n in range(p):
            for x in (0, 1, 3, p, p * p - 1):
                got = hyper_sum(x, ((-1, n + 1),), 1, n, ctx)
                assert got == pow(1 + x, n, ctx.modulus), (p, e, n, x)
    with pytest.raises(RangeError):
        hyper_sum(1, ((-1, 8),), 1, 7, make_context(7, 2))


def test_hyper_terms_are_the_kernel_series_without_x():
    # (1+x)^n: the terms C(n, k), units for n < p, so the row runs to n
    for p, e in ((7, 1), (11, 2), (13, 3)):
        ctx = make_context(p, e)
        for n in range(p):
            row = hyper_terms(1, ((-1, n + 1),), 1, n, ctx)
            assert row == [comb(n, k) % ctx.modulus for k in range(n + 1)]
    # C(2k, k), ratio 2(2k-1)/k: the numerator takes the factor 11 at k = 6,
    # so the row ends at k = 5 mod 11 and runs to n = 10 mod 11^2
    assert len(hyper_terms(2, ((2, -1),), 1, 10, make_context(11, 1))) == 6
    assert hyper_terms(2, ((2, -1),), 1, 10, make_context(11, 2)) == [
        comb(2 * k, k) % 121 for k in range(11)
    ]
    with pytest.raises(RangeError):
        hyper_terms(1, ((-1, 8),), 1, 7, make_context(7, 2))


def test_grid_context_series_equals_the_streaming_kernel():
    rng = random.Random(5)
    for p, e in ((5, 1), (13, 2), (31, 3)):
        grid, plain = GridContext(p, e), make_context(p, e)
        assert (grid.p, grid.e, grid.modulus) == (plain.p, plain.e, plain.modulus)
        for _ in range(200):
            factors = tuple(
                (rng.randint(-6, 6), rng.randint(-9, 9)) for _ in range(rng.randint(1, 3))
            )
            spec = (rng.randint(-9, 9), factors, rng.randint(1, 3), rng.randrange(p))
            x = rng.choice((0, 1, p, rng.randrange(-10**4, 10**4)))
            assert grid.series(spec, x) == plain.series(spec, x), (p, e, spec, x)


def test_hyper_sums_match_the_scalar_kernel():
    # random specs: one to three factors, d = 1..3, a constant num/den
    rng = random.Random(20261018)
    primes = [p for p in range(3, 400) if is_prime(p)]
    for _ in range(30):
        factors = tuple(
            (rng.randint(-6, 6), rng.randint(-9, 9)) for _ in range(rng.randint(1, 3))
        )
        d, e = rng.randint(1, 3), rng.choice((1, 2, 3))
        num, den = rng.randint(-50, 50), rng.choice((1, 2, 4, 8))
        got = hyper_sums(num, den, factors, d, primes, e)
        for p, value in zip(primes, got):
            ctx = make_context(p, e)
            c = reduce_rational(Fraction(num, den), ctx)
            assert value == hyper_sum(c, factors, d, p - 1, ctx), (factors, d, num, den, p, e)


def test_hyper_sums_on_lists_that_start_high():
    # one large prime, a narrow high range and a sparse list: each block
    # spans a long gap, which the batched pass must keep to O(gap) steps
    factors = ((2, -1), (3, -1), (3, -2))  # two_three, const 6
    cases = (([99991], 3),
             ([p for p in range(20000, 20300) if is_prime(p)], 2),
             ([5, 10007, 30011, 30013], 2))
    for num, den in ((6, 1458), (-42, 4)):  # x = 1/1458 and x = -7/4
        for primes, e in cases:
            got = hyper_sums(num, den, factors, 3, primes, e)
            for p, value in zip(primes, got):
                ctx = make_context(p, e)
                c = reduce_rational(Fraction(num, den), ctx)
                assert value == hyper_sum(c, factors, 3, p - 1, ctx), (num, p, e)


def test_hyper_sums_check_their_input():
    spec = (1, 1, ((1, 0),), 1)
    assert hyper_sums(*spec, [], 2) == []
    for primes in ([5, 3], [5, 5], [5, 9], [2, 5], [1, 5]):
        with pytest.raises(CompositeModulus):
            hyper_sums(*spec, primes, 2)
    with pytest.raises(NotPIntegral):
        hyper_sums(1, 15, ((1, 0),), 1, [3, 7], 2)
    for e in (0, 4):
        with pytest.raises(BadExponent):
            hyper_sums(*spec, [5], e)


def test_reduce_rational_examples():
    assert reduce_rational(Fraction(-1, 2), make_context(7, 2)) == 24
    assert reduce_rational(Fraction(3), make_context(5, 2)) == 3
    with pytest.raises(NotPIntegral):
        reduce_rational(Fraction(1, 5), make_context(5, 2))


def test_reduce_rational_is_a_ring_homomorphism():
    rng = random.Random(1001)
    for p in (5, 13, 29):
        for e in (1, 2, 3):
            ctx = make_context(p, e)
            m = ctx.modulus
            for _ in range(40):
                dens = [d for d in range(1, 12) if d % p]
                q1 = Fraction(rng.randint(-50, 50), rng.choice(dens))
                q2 = Fraction(rng.randint(-50, 50), rng.choice(dens))
                assert (
                    reduce_rational(q1 * q2, ctx)
                    == reduce_rational(q1, ctx) * reduce_rational(q2, ctx) % m
                )
                assert (
                    reduce_rational(q1 + q2, ctx)
                    == (reduce_rational(q1, ctx) + reduce_rational(q2, ctx)) % m
                )


def test_legendre_symbol_examples():
    ctx = make_context(7, 1)
    assert legendre_symbol(2, ctx) == 1  # 3^2 = 9 = 2
    assert legendre_symbol(3, ctx) == -1
    assert legendre_symbol(0, ctx) == 0


def test_legendre_symbol_matches_square_sets():
    for p in SMALL_PRIMES:
        ctx = make_context(p, 1)
        squares = {x * x % p for x in range(1, p)}
        for t in range(p):
            expected = 0 if t == 0 else (1 if t in squares else -1)
            assert legendre_symbol(t, ctx) == expected


def test_sqrt_mod_p_examples():
    ctx = make_context(7, 1)
    assert sqrt_mod_p(2, ctx) == 3  # roots 3 and 4
    assert sqrt_mod_p(0, ctx) == 0
    assert sqrt_mod_p(3, ctx) is None


def test_sqrt_mod_p_all_residues_small_primes():
    # hits both the p % 4 == 3 shortcut and the general iteration (13, 17, 29)
    for p in SMALL_PRIMES:
        ctx = make_context(p, 1)
        for t in range(p):
            s = sqrt_mod_p(t, ctx)
            if legendre_symbol(t, ctx) == -1:
                assert s is None
            else:
                assert s * s % p == t
                assert s <= p - s  # deterministic smaller root


def test_sqrt_mod_p_requires_e1():
    with pytest.raises(BadExponent):
        sqrt_mod_p(2, make_context(7, 2))


def test_quadext_defining_relation_and_identity():
    ctx = make_context(7, 1)
    root = QuadExtElem(0, 1, 3, ctx)
    sq = root * root
    assert (sq.a0, sq.a1) == (3, 0)
    one = QuadExtElem(1, 0, 3, ctx)
    x = QuadExtElem(4, 5, 3, ctx)
    assert one * x == x
    y = QuadExtElem(1, 1, 3, ctx)
    assert (y * y).a0 == 4 and (y * y).a1 == 2  # (1+sqrt3)^2 = 4 + 2 sqrt3


def test_quadext_mixing_and_e_guard():
    ctx = make_context(7, 1)
    with pytest.raises(MixedContext):
        QuadExtElem(1, 0, 3, ctx) * QuadExtElem(1, 0, 5, ctx)
    with pytest.raises(MixedContext):
        QuadExtElem(1, 0, 3, ctx) * QuadExtElem(1, 0, 3, make_context(11, 1))
    with pytest.raises(BadExponent):
        QuadExtElem(1, 0, 3, make_context(7, 2))


def test_quadext_algebraic_properties():
    rng = random.Random(42)
    for p in (7, 11, 19):
        ctx = make_context(p, 1)
        d = nonresidue(p)
        elems = [
            QuadExtElem(rng.randrange(p), rng.randrange(p), d, ctx) for _ in range(12)
        ]
        for i in range(0, 12, 3):
            x, y, z = elems[i], elems[i + 1], elems[i + 2]
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert (x * y).norm() == x.norm() * y.norm() % p
            assert x * (y + z) == x * y + x * z


def test_nonresidue_is_smallest():
    assert nonresidue(5) == 2
    assert nonresidue(7) == 3
    assert nonresidue(11) == 2
    assert nonresidue(17) == 3


def test_context_repr():
    assert "7" in repr(make_context(7, 2))

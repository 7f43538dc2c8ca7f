"""The squared Legendre evaluator against the exact oracle and the mod-p
references of tests/reference.py (recurrence, values at square roots)."""

import random
from fractions import Fraction

import pytest

from reference import (
    QuadExtElem,
    legendre_at_sqrt,
    legendre_eval_recurrence,
    legendre_square_at_sqrt,
    legendre_symbol,
    sqrt_mod_p,
)
from supercong.errors import BadExponent, BoundExceeded, NTooLarge
from supercong.legendre import legendre_exact
from supercong.modring import make_context, reduce_rational


def test_recurrence_base_cases_and_example():
    ctx = make_context(7, 1)
    x = 5
    assert legendre_eval_recurrence(0, x, ctx) == 1
    assert legendre_eval_recurrence(1, x, ctx) == x
    # P_2(2) = (3*4 - 1)/2 = 11/2 = 2 mod 7
    assert legendre_eval_recurrence(2, 2, ctx) == 2
    # P_n(1) = 1 and P_n(-1) = (-1)^n
    ctx = make_context(11, 1)
    for n in range(11):
        assert legendre_eval_recurrence(n, 1, ctx) == 1
    assert legendre_eval_recurrence(3, -1, ctx) == 10


def test_recurrence_rejects_large_degree():
    ctx = make_context(7, 1)
    with pytest.raises(NTooLarge):
        legendre_eval_recurrence(7, 1, ctx)
    with pytest.raises(NTooLarge):
        legendre_eval_recurrence(-1, 1, ctx)


def test_legendre_exact_coefficients():
    assert legendre_exact(0) == [Fraction(1)]
    assert legendre_exact(2) == [Fraction(-1, 2), Fraction(0), Fraction(3, 2)]
    assert legendre_exact(3) == [Fraction(0), Fraction(-3, 2), Fraction(0), Fraction(5, 2)]
    with pytest.raises(BoundExceeded):
        legendre_exact(65)


def eval_exact_mod(n, x, ctx):
    coeffs = legendre_exact(n)
    value = sum(c * Fraction(x) ** j for j, c in enumerate(coeffs))
    return reduce_rational(value, ctx)


def test_evaluator_agreement_mod_p():
    rng = random.Random(314)
    for p in (5, 11, 23):
        ctx = make_context(p, 1)
        for _ in range(25):
            n = rng.randrange(p)
            x = rng.randrange(p)
            r1 = legendre_eval_recurrence(n, x, ctx)
            r3 = eval_exact_mod(n, x, ctx)
            assert r1 == r3, (p, n, x)


def test_recurrence_agrees_at_higher_powers_too():
    rng = random.Random(4)
    ctx = make_context(13, 2)
    for _ in range(15):
        n = rng.randrange(13)
        x = rng.randrange(13**2)
        assert legendre_eval_recurrence(n, x, ctx) == eval_exact_mod(n, x, ctx)


def test_parity_property():
    rng = random.Random(88)
    for p in (7, 13):
        ctx = make_context(p, 2)
        for _ in range(20):
            n = rng.randrange(p)
            x = rng.randrange(p**2)
            lhs = legendre_eval_recurrence(n, -x, ctx)
            rhs = legendre_eval_recurrence(n, x, ctx) * (-1) ** n % ctx.modulus
            assert lhs == rhs


def test_mirror_congruence():
    # P_{p-1-n}(t) = P_n(t) mod p
    rng = random.Random(606)
    for p in (5, 11, 19):
        ctx = make_context(p, 1)
        for _ in range(25):
            n = rng.randrange(p)
            t = rng.randrange(p)
            assert legendre_eval_recurrence(p - 1 - n, t, ctx) == legendre_eval_recurrence(n, t, ctx)


def test_square_at_sqrt_examples():
    ctx = make_context(11, 2)
    for n in range(11):
        assert legendre_square_at_sqrt(n, 0, ctx) == 1
    # n = 1: P_1(sqrt(1+4x))^2 = 1 + 4x
    for x in (0, 1, 5, Fraction(3, 7)):
        want = reduce_rational(1 + 4 * Fraction(x), ctx)
        assert legendre_square_at_sqrt(1, x, ctx) == want
    # P_2(sqrt(5))^2 = ((3*5-1)/2)^2 = 49
    assert legendre_square_at_sqrt(2, 1, ctx) == 49


def test_square_at_sqrt_matches_exact_square():
    rng = random.Random(2718)
    for p, e in ((5, 1), (7, 2), (11, 3)):
        ctx = make_context(p, e)
        for _ in range(20):
            n = rng.randrange(p)
            x = Fraction(rng.randint(-10, 10), rng.choice([1, 2, 3]))
            coeffs = legendre_exact(n)
            # exact P_n(y)^2 with y^2 = 1 + 4x; fixed parity kills the cross term
            y2 = 1 + 4 * x
            even = sum(c * y2 ** (j // 2) for j, c in enumerate(coeffs) if j % 2 == 0)
            odd = sum(c * y2 ** ((j - 1) // 2) for j, c in enumerate(coeffs) if j % 2 == 1)
            square = even * even + y2 * odd * odd
            want = reduce_rational(square, ctx)
            assert legendre_square_at_sqrt(n, x, ctx) == want, (p, e, n, x)


def test_square_at_sqrt_consistent_with_recurrence_at_rational_roots():
    for p in (7, 13, 19):
        ctx = make_context(p, 1)
        for n in range(p):
            for x in range(p):
                t = (1 + 4 * x) % p
                s = sqrt_mod_p(t, ctx)
                if s is None:
                    continue
                lhs = legendre_square_at_sqrt(n, x, ctx)
                pn = legendre_eval_recurrence(n, s, ctx)
                assert lhs == pn * pn % p, (p, n, x)


def test_at_sqrt_examples():
    ctx = make_context(7, 1)
    e = legendre_at_sqrt(2, 1, ctx)
    assert (e.a0, e.a1) == (1, 0)  # P_2(1) = 1
    # P_1(sqrt(t)) = sqrt(t); t = 3 is a non-residue mod 7
    e = legendre_at_sqrt(1, 3, ctx)
    assert (e.a0, e.a1, e.d) == (0, 1, 3)
    # P_2(sqrt(3)) = (3*3 - 1)/2 = 4 in F_p
    e = legendre_at_sqrt(2, 3, ctx)
    assert (e.a0, e.a1) == (4, 0)
    # t = 2 is a residue: P_1(sqrt(2)) = smaller root 3
    e = legendre_at_sqrt(1, 2, ctx)
    assert (e.a0, e.a1) == (3, 0)
    with pytest.raises(BadExponent):
        legendre_at_sqrt(1, 3, make_context(7, 2))


def test_at_sqrt_agrees_with_quadext_recurrence():
    # for non-residue t, run the recurrence directly on sqrt(t) in F_p[sqrt(t)]
    for p in (7, 11, 13):
        ctx = make_context(p, 1)
        for t in range(1, p):
            if legendre_symbol(t, ctx) != -1:
                continue
            root = QuadExtElem(0, 1, t, ctx)
            for n in range(p):
                assert legendre_at_sqrt(n, t, ctx) == legendre_eval_recurrence(n, root, ctx)


def test_at_sqrt_agrees_on_residues():
    for p in (7, 13):
        ctx = make_context(p, 1)
        for t in range(p):
            s = sqrt_mod_p(t, ctx)
            if s is None:
                continue
            for n in range(p):
                got = legendre_at_sqrt(n, t, ctx)
                want = legendre_eval_recurrence(n, s, ctx)
                assert got.a1 == 0 and got.a0 == want


def test_at_sqrt_square_maps_back_to_square_evaluator():
    # legendre_at_sqrt(n, t)^2 lands in F_p and equals
    # legendre_square_at_sqrt(n, (t-1)/4)
    for p in (7, 11):
        ctx = make_context(p, 1)
        for t in range(p):
            for n in range(p):
                elem = legendre_at_sqrt(n, t, ctx)
                sq = elem * elem
                assert sq.a1 == 0
                want = legendre_square_at_sqrt(n, Fraction(t - 1, 4), ctx)
                assert sq.a0 == want, (p, t, n)


def test_squares_detect_zeros():
    # in F_p and F_p^2, y^2 = 0 iff y = 0: the square evaluator vanishes
    # exactly where the extension value does
    hits = 0
    for p in (7, 11, 13):
        ctx = make_context(p, 1)
        for n in range(p):
            for x in range(p):
                sq_zero = legendre_square_at_sqrt(n, x, ctx) == 0
                elem = legendre_at_sqrt(n, (1 + 4 * x) % p, ctx)
                assert sq_zero == elem.is_zero, (p, n, x)
                hits += sq_zero
    assert hits > 0  # the sweep must actually exercise true zeros

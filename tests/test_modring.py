"""Context construction, rational reduction and the kernel; the reference
roots, residue symbols and F_p^2 of tests/reference.py."""

import random
from fractions import Fraction
from math import comb

import pytest

from reference import (
    MixedContext,
    QuadExtElem,
    legendre_symbol,
    nonresidue,
    series_exact,
    sqrt_mod_p,
)
from supercong.errors import BadExponent, CompositeModulus, NotPIntegral, RangeError
from supercong import modring
from supercong.congruences import FamilyTag
from supercong.modring import (
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
    # strong pseudoprime to the first 12 primes as bases
    assert not is_prime(318665857834031151167461)


def test_is_prime_small_witness_set_is_exact_below_its_bound(monkeypatch):
    # strong pseudoprimes to bases 2, 3; to 2, 3, 5; to 2, 3, 5, 7; and to
    # the first 12 primes
    for n in (1373653, 25326001, 3215031751, 318665857834031151167461):
        assert not is_prime(n)
    tiers = modring._MR_TIERS
    monkeypatch.setattr(modring, "_MR_TIERS", ())
    full = [is_prime(n) for n in range(2 * 10**5)]
    for bound, witnesses in tiers:
        monkeypatch.setattr(modring, "_MR_TIERS", ((bound + 1, witnesses),))
        # the tier's bases pass its bound, so the tier stops there
        assert is_prime(bound)
        assert full == [is_prime(n) for n in range(2 * 10**5)]


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
                got = ctx.series([(1, ((-1, n + 1),), 1, n)], [x])
                assert got == [[pow(1 + x, n, ctx.modulus)]], (p, e, n, x)
    with pytest.raises(RangeError):
        make_context(7, 2).series([(1, ((-1, 8),), 1, 7)], [1])


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


def test_series_equals_the_exact_sum():
    # each spec is evaluated at two x, the second on the row the first cached
    rng = random.Random(5)
    for p, e in ((5, 1), (13, 2), (31, 3)):
        ctx = make_context(p, e)
        assert (ctx.p, ctx.e, ctx.modulus) == (p, e, p**e)
        for _ in range(200):
            factors = tuple(
                (rng.randint(-6, 6), rng.randint(-9, 9)) for _ in range(rng.randint(1, 3))
            )
            spec = (rng.randint(-9, 9), factors, rng.randint(1, 3), rng.randrange(p))
            for x in (rng.choice((0, 1, p)), rng.randrange(-10**4, 10**4)):
                assert ctx.series([spec], [x]) == [[series_exact(spec, x, ctx)]], (p, e, spec, x)


def _horner(row, x, m):
    acc = 0
    for t in reversed(row):
        acc = (acc * x + t) % m
    return acc


@pytest.mark.parametrize("p, e, bits", [(5, 1, 7), (13, 2, 19), (31, 3, 35), (7129, 2, 64),
                                        (563, 3, 64), (7151, 2, 65), (569, 3, 65),
                                        (9001, 2, 66), (701, 3, 67)])
def test_series_packs_vectors_of_every_length_into_slots_of_every_width(p, e, bits):
    # Rows of p terms bound a slot by p (p^e - 1)^2: 65 bits first at
    # p = 7151, e = 2 and p = 569, e = 3.  The alternating row t_k = (-1)^k
    # at x = -1 fills a slot with about (p/2) (p^e - 1)^2, which carries
    # past 64 bits at the last two.  Past 64 bits, series evaluates the
    # vector x by x.
    ctx = make_context(p, e)
    m = ctx.modulus
    assert (p * (m - 1) ** 2).bit_length() == bits
    rng = random.Random(p)
    geometric, alternating = (1, (), 0, p - 1), (-1, (), 0, p - 1)
    short = (2, ((2, -1),), 1, min(p - 1, 20))
    specs = [geometric, alternating, (rng.randint(-9, 9), ((1, 2), (-1, 3)), 2, rng.randrange(p)),
             short]
    rows = [hyper_terms(*spec, ctx) for spec in specs]
    assert len(rows[0]) == len(rows[1]) == p
    slot = sum(t * pow(m - 1, k, m) for k, t in enumerate(rows[1]))
    assert (slot >> 64 > 0) == (bits > 65)
    for n in (1, 2, 40):
        xs = [-1, 0, m, *(rng.randrange(-m, 2 * m) for _ in range(n))][:n]
        got = [list(values) for values in ctx.series(specs, xs)]
        assert got == [[_horner(row, x, m) for x in xs] for row in rows], n
    # the exact sums: few points, as the Fractions of series_exact grow with k
    xs = [3, -1, m - 2]
    assert [list(v) for v in ctx.series([geometric, alternating, short], xs)] == [
        [series_exact(spec, x, ctx) for x in xs] for spec in (geometric, alternating, short)]


def test_series_builds_each_row_once_per_context(monkeypatch):
    built = []
    real = modring.hyper_terms

    def counted(*args):
        built.append(args[-1])
        return real(*args)

    monkeypatch.setattr(modring, "hyper_terms", counted)
    specs = [(1, ((-1, 11),), 1, 10), (2, ((2, -1),), 1, 10)]
    first, second = make_context(11, 2), make_context(11, 2)
    for ctx in (first, first, second):
        for spec in specs:
            for x in range(-3, 30, 4):
                assert ctx.series([spec], [x]) == [[series_exact(spec, x, ctx)]], (spec, x)
    assert built == [first, first, second, second]


def test_hyper_sums_match_the_scalar_kernel():
    # random specs: one to three factors, d = 1..3, a constant num/den
    rng = random.Random(20261018)
    primes = [p for p in range(3, 400) if is_prime(p)]
    specs = []
    for _ in range(30):
        factors = tuple(
            (rng.randint(-6, 6), rng.randint(-9, 9)) for _ in range(rng.randint(1, 3))
        )
        d, e = rng.randint(1, 3), rng.choice((1, 2, 3))
        num, den = rng.randint(-50, 50), rng.choice((1, 2, 4, 8))
        specs.append((num, den, factors, d, e))
    # and the cases the readout leaves out or counts more than once: an
    # exactly zero factor (-k + 4 at k = 4), cube's triple root at e = 3,
    # num divisible by p = 7, and a factor 6k - 1 with no root mod 3
    specs += [(3, 1, ((-1, 4), (2, -1)), 2, 2),
              (8, 1, ((2, -1),) * 3, 3, 3),
              (14, 4, ((2, -1), (3, -1)), 2, 2),
              (1, 1, ((6, -1), (2, -1)), 1, 2)]
    for e in (1, 2, 3):  # one call per e over the specs at that e
        group = [spec for spec in specs if spec[-1] == e]
        sums = hyper_sums([spec[:4] for spec in group], primes, e)
        for (num, den, factors, d, _), got in zip(group, sums, strict=True):
            for p, value in zip(primes, got):
                ctx = make_context(p, e)
                c = reduce_rational(Fraction(num, den), ctx)
                assert [[value]] == ctx.series([(c, factors, d, p - 1)], [1]), (
                    factors, d, num, den, p, e)


def test_readouts_stop_at_the_last_term_that_can_be_nonzero():
    primes = [p for p in range(5, 3000) if is_prime(p)]
    for f in FamilyTag:
        assert modring._readouts(primes, 2, f.factors) == [(p - 1) // 2 for p in primes], f
    two_three = FamilyTag.TWO_THREE.factors
    assert modring._readouts(primes, 3, two_three) == [(2 * p - 1) // 3 for p in primes]
    # factors with no root in [1, p): a constant, k (its root is 0) and
    # 5k + 1 at p = 5
    for listed, factors in ((primes, ((0, 1),)), (primes, ((1, 0),)), ([5], ((5, 1),))):
        assert modring._readouts(listed, 1, factors) == [p - 1 for p in listed]
    # any factors from any ascending list: never decreasing, never past p - 1
    rng = random.Random(20261020)
    for _ in range(30):
        factors = tuple(
            (rng.randint(-6, 6), rng.randint(-9, 9)) for _ in range(rng.randint(1, 3))
        )
        listed = sorted(rng.sample([3, *primes[:200]], 40))
        reads = modring._readouts(listed, rng.choice((1, 2, 3)), factors)
        assert all(n <= p - 1 for n, p in zip(reads, listed)), factors
        assert reads == sorted(reads), factors


def test_hyper_sums_on_lists_that_start_high():
    # one large prime, a narrow high range and a sparse list: each block
    # spans a long gap, which the batched pass must keep to O(gap) steps
    factors = ((2, -1), (3, -1), (3, -2))  # two_three, const 6
    cases = (([99991], 3),
             ([p for p in range(20000, 20300) if is_prime(p)], 2),
             ([5, 10007, 30011, 30013], 2))
    for num, den in ((6, 1458), (-42, 4)):  # x = 1/1458 and x = -7/4
        for primes, e in cases:
            [got] = hyper_sums([(num, den, factors, 3)], primes, e)
            for p, value in zip(primes, got):
                ctx = make_context(p, e)
                c = reduce_rational(Fraction(num, den), ctx)
                assert [[value]] == ctx.series([(c, factors, 3, p - 1)], [1]), (num, p, e)


def test_hyper_sums_check_their_input():
    spec = (1, 1, ((1, 0),), 1)
    assert hyper_sums([spec], [], 2) == [[]]
    for primes in ([5, 3], [5, 5], [5, 9], [2, 5], [1, 5]):
        with pytest.raises(CompositeModulus):
            hyper_sums([spec], primes, 2)
    # a prime dividing the denominator has no residue, and the list goes on
    [[none, value]] = hyper_sums([(1, 15, ((1, 0),), 1)], [3, 7], 2)
    assert none is None and value is not None
    for e in (0, 4):
        with pytest.raises(BadExponent):
            hyper_sums([spec], [5], e)


def test_hyper_sums_read_none_exactly_where_a_prime_divides_den():
    primes = [3, 5, 7, 11]
    for e in (1, 2, 3):
        [got] = hyper_sums([(1, 15, ((1, 0),), 1)], primes, e)
        assert got[:2] == [None, None], e
        for p, value in zip(primes[2:], got[2:]):
            ctx = make_context(p, e)
            c = reduce_rational(Fraction(1, 15), ctx)
            assert [[value]] == ctx.series([(c, ((1, 0),), 1, p - 1)], [1]), (p, e)


def test_one_hyper_sums_call_equals_one_call_per_ratio():
    # dens divisible by primes of the list, at its start, middle and end
    rng = random.Random(20261021)
    primes = [p for p in range(3, 600) if is_prime(p)]
    ratios = [(rng.randint(-50, 50), rng.choice((1, 3, 4, 15, 7 * 101, 593)),
               tuple((rng.randint(-6, 6), rng.randint(-9, 9))
                     for _ in range(rng.randint(1, 3))), rng.randint(1, 3))
              for _ in range(12)]
    for e in (1, 2, 3):
        assert hyper_sums(ratios, primes, e) == [hyper_sums([r], primes, e)[0] for r in ratios]
    assert hyper_sums([], primes, 2) == []


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

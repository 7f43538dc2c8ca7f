"""Property tests: every truncated sum on the hypergeometric kernel equals
the exact rational sum reduced once mod p^e, and the oracle's prefix pass
equals the Fraction-per-step reference.

Draws are derandomized and bounded, so the suite stays deterministic.
"""

from fractions import Fraction
from math import comb, prod

from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import legendre_square_at_sqrt
from supercong.cli import primes_in_range
from supercong.congruences import FamilyTag, core_sum, family_sum, family_sums, plain_sum
from supercong.modring import hyper_terms, make_context, reduce_rational
from supercong.oracle import exact_reduce_sum, exact_reduce_sums

PRIMES = primes_in_range(3, 199)

bounded = settings(max_examples=100, derandomize=True, deadline=None)


def p_integral(draw, ctx):
    """A rational whose denominator is coprime to p; the numerator is
    sometimes a multiple of p, so p-factors enter the terms early."""
    den = draw(st.integers(1, 60).filter(lambda d: d % ctx.p))
    num = draw(st.integers(-10**4, 10**4) | st.integers(-50, 50).map(lambda t: t * ctx.p))
    return Fraction(num, den)


@st.composite
def sum_cases(draw):
    ctx = make_context(draw(st.sampled_from(PRIMES)), draw(st.sampled_from((1, 2, 3))))
    return ctx, p_integral(draw, ctx), p_integral(draw, ctx)


@bounded
@given(sum_cases())
def test_core_and_plain_sums_match_exact(case):
    ctx, a, x = case
    assert core_sum(a, x, ctx) == exact_reduce_sum(a, x, ctx, "core").value
    assert plain_sum(a, x, ctx) == exact_reduce_sum(a, x, ctx, "plain").value


@bounded
@given(sum_cases())
def test_family_sums_match_exact(case):
    ctx, _, x = case
    for f in FamilyTag:
        assert family_sum(f, x, ctx) == exact_reduce_sum(0, x, ctx, f).value, f


@bounded
@given(
    st.lists(st.sampled_from(PRIMES), max_size=4),
    st.sampled_from((1, 2, 3)),
    st.sampled_from(list(FamilyTag)),
    st.fractions(min_value=-10**4, max_value=10**4, max_denominator=60)
    | st.integers(-20, 20).map(lambda t: Fraction(1155 * t)),  # 1155 = 3*5*7*11
)
def test_batched_family_sums_match_exact(primes, e, f, x):
    """One pass over a prime list; primes dividing x's denominator are left out."""
    want = {
        p: exact_reduce_sum(0, x, make_context(p, e), f).value
        for p in primes
        if x.denominator % p
    }
    assert family_sums(f, x, primes, e) == want


@st.composite
def prefix_cases(draw):
    """A prime list with duplicates in any order, an exponent, a series, and
    a and x that may be negative, with numerators and denominators that are
    sometimes multiples of listed primes."""
    primes = draw(st.lists(st.sampled_from(PRIMES[:18]), min_size=1, max_size=6))
    e = draw(st.sampled_from((1, 2, 3)))
    which = draw(st.sampled_from(("core", "plain", *FamilyTag)))
    listed = st.sampled_from((1, 1, *primes))

    def rational():
        num = draw(st.integers(-10**3, 10**3)) * draw(listed)
        return Fraction(num, draw(st.integers(1, 12)) * draw(listed))

    return primes, e, which, rational(), rational()


@bounded
@given(prefix_cases())
def test_prefix_pass_matches_the_fraction_reference(case):
    primes, e, which, a, x = case
    got = exact_reduce_sums(a, x, which, primes, e)
    dens = x.denominator * (a.denominator if which in ("core", "plain") else 1)
    unusable = {p for p in primes if dens % p == 0}
    assert set(got) == set(primes) - unusable
    for p, value in got.items():
        assert value == reference.exact_reduce_sum(a, x, make_context(p, e), which), p


@bounded
@given(sum_cases(), st.integers(0, 198))
def test_legendre_square_matches_exact(case, n):
    ctx, _, x = case
    n %= ctx.p
    exact = sum(comb(n, k) * comb(n + k, k) * comb(2 * k, k) * x**k for k in range(n + 1))
    assert legendre_square_at_sqrt(n, x, ctx) == reduce_rational(exact, ctx)


@st.composite
def term_specs(draw):
    """A context and a random term-ratio spec (c, factors, d, n); constants
    are sometimes multiples of p, so numerators vanish mod p^e early."""
    ctx = make_context(draw(st.sampled_from(PRIMES)), draw(st.sampled_from((1, 2, 3))))
    p = ctx.p
    small = st.integers(-9, 9) | st.integers(-3, 3).map(lambda t: t * p)
    factors = draw(st.lists(st.tuples(st.integers(-6, 6), small), min_size=1, max_size=3))
    spec = (draw(small), tuple(factors), draw(st.integers(1, 3)), draw(st.integers(0, p - 1)))
    return ctx, spec


def _dot(row, x, ctx):
    m = ctx.modulus
    return sum(t * pow(x, k, m) for k, t in enumerate(row)) % m


@bounded
@given(term_specs(), st.integers(-10**4, 10**4))
def test_hyper_terms_sum_to_the_kernel_and_end_where_it_stops(case, x):
    ctx, (c, factors, d, n) = case
    row = hyper_terms(c, factors, d, n, ctx)
    assert _dot(row, x, ctx) == reference.series_exact((c, factors, d, n), x, ctx)
    u, end = 1, n + 1
    for k in range(1, n + 1):
        u = u * c * prod(s * k + r for s, r in factors) % ctx.modulus
        if not u:
            end = k
            break
    assert len(row) == end


@bounded
@given(sum_cases())
def test_hyper_terms_rows_match_exact(case):
    """Core, plain and family rows, each at the reduced x, against the exact
    rational sums."""
    ctx, a, x = case
    p = ctx.p
    ah = reduce_rational(a, ctx)
    xh = reduce_rational(x, ctx)
    pair = ((-1, ah + 1), (-1, -ah))
    core = hyper_terms(2, ((2, -1), *pair), 3, p - 1, ctx)
    assert _dot(core, xh, ctx) == exact_reduce_sum(a, x, ctx, "core").value
    plain = hyper_terms(1, pair, 2, p - 1, ctx)
    assert _dot(plain, xh, ctx) == exact_reduce_sum(a, x, ctx, "plain").value
    for f in FamilyTag:
        row = hyper_terms(f.const, f.factors, 3, p - 1, ctx)
        assert _dot(row, xh, ctx) == exact_reduce_sum(0, x, ctx, f).value, f


@st.composite
def packed_cases(draw):
    """A context, specs on it with the full-length geometric and alternating
    rows first, and an argument vector of any length.  At e = 3 a slot needs
    64, 65 and 67 bits at p = 563, 569 and 701, where series packs, and
    then evaluates x by x; at 701 the alternating row at x = -1 would carry
    past 64 bits."""
    wide = st.sampled_from(((563, 3), (569, 3), (701, 3)))
    ctx = make_context(*draw(st.tuples(st.sampled_from(PRIMES), st.sampled_from((1, 2, 3)))
                             | wide))
    p = ctx.p
    small = st.integers(-9, 9)
    factors = st.lists(st.tuples(st.integers(-6, 6), small), min_size=1, max_size=3)
    others = st.tuples(small, factors.map(tuple), st.integers(1, 3), st.integers(0, p - 1))
    specs = [(1, (), 0, p - 1), (-1, (), 0, p - 1), *draw(st.lists(others, max_size=2))]
    xs = draw(st.lists(st.integers(-10**9, 10**9) | st.just(-1), min_size=1, max_size=12))
    return ctx, specs, xs


@bounded
@given(packed_cases())
def test_series_of_a_vector_is_the_exact_sum_at_each_x(case):
    ctx, specs, xs = case
    got = [list(values) for values in ctx.series(specs, xs)]
    assert got == [[reference.series_exact(spec, x, ctx) for x in xs] for spec in specs]

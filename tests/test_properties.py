"""Property tests: every truncated sum on the hypergeometric kernel equals
the exact rational sum reduced once mod p^e.

Draws are derandomized and bounded, so the suite stays deterministic.
"""

from fractions import Fraction
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from supercong.cli import primes_in_range
from supercong.congruences import FamilyTag, core_sum, family_sum, family_sums, plain_sum
from supercong.legendre import legendre_square_at_sqrt
from supercong.modring import make_context, reduce_rational
from supercong.oracle import exact_reduce_sum

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
    assert core_sum(a, x, ctx) == exact_reduce_sum(a, x, ctx, "core")
    assert plain_sum(a, x, ctx) == exact_reduce_sum(a, x, ctx, "plain")


@bounded
@given(sum_cases())
def test_family_sums_match_exact(case):
    ctx, _, x = case
    for f in FamilyTag:
        assert family_sum(f, x, ctx) == exact_reduce_sum(0, x, ctx, f), f


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


@bounded
@given(sum_cases(), st.integers(0, 198))
def test_legendre_square_matches_exact(case, n):
    ctx, _, x = case
    n %= ctx.p
    exact = sum(comb(n, k) * comb(n + k, k) * comb(2 * k, k) * x**k for k in range(n + 1))
    assert legendre_square_at_sqrt(n, x, ctx) == reduce_rational(exact, ctx)

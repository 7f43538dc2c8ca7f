"""Exact oracles: the lemmas by point evaluation and the ground-truth sum
reduction by one prefix pass."""

import random
from fractions import Fraction

import pytest

from reference import binom_frac
from supercong import oracle
from supercong.congruences import FamilyTag, core_sum, family_sum, plain_sum
from supercong.errors import BoundExceeded, NotPIntegral
from supercong.modring import make_context
from supercong.oracle import (
    GRID_A,
    GRID_X,
    REDUCE_P_BOUND,
    _falling,
    exact_reduce_sum,
    exact_reduce_sums,
    identity_1_7_check,
    lemma_2_1_exact_check,
    lemma_2_2_check,
)


def test_binom_frac_matches_comb_and_handles_rationals():
    from math import comb

    for a in range(8):
        for k in range(8):
            assert binom_frac(a, k) == comb(a, k)
    assert binom_frac(Fraction(-1, 2), 2) == Fraction(3, 8)
    assert binom_frac(Fraction(-1, 3), 1) == Fraction(-1, 3)


def _pair(a, k):
    return binom_frac(a, k) * binom_frac(-1 - a, k)


def _sides(n):
    """Both sides at n from pair rows to k = n at the points a = 0, ..., 2n."""
    rows = [oracle._pairs(a, n) for a in range(2 * n + 1)]
    return oracle._side(n, 1, rows), oracle._side(n, 2, rows)


def test_lemma_2_2_sides_small_cases():
    assert _sides(0) == ((1,), (1,))
    # S(1) = -2a(a+1) at a = 0, 1, 2
    assert _sides(1) == ((0, -4, -12), (0, -4, -12))
    s1, s2 = _sides(5)
    want = tuple(sum(_pair(a, k) * _pair(a, 5 - k) for k in range(6)) for a in range(11))
    assert s1 == s2 == want
    with pytest.raises(BoundExceeded):
        lemma_2_2_check(41)


def test_lemma_2_2_sides_equal_up_to_15():
    assert lemma_2_2_check(15) is None
    for n in range(16):
        assert len(_sides(n)[0]) == 2 * n + 1


def test_sides_read_only_the_first_n_plus_1_pair_entries():
    """The shared rows: a side at n on rows to k = n_max equals the side on
    rows to k = n, at the first 2n + 1 points."""
    for n_max in range(13):
        rows = [oracle._pairs(a, n_max) for a in range(2 * n_max + 1)]
        for n in range(n_max + 1):
            for side in (1, 2):
                assert oracle._side(n, side, rows)[: 2 * n + 1] == _sides(n)[side - 1], (n, n_max)


def test_zeilberger_certificate():
    assert lemma_2_2_check(11) is None


def test_points_reject_a_wrong_certificate(monkeypatch):
    """q1's factor (2n-1) replaced by (2n+1): the points must see it, on
    either side."""
    right = oracle._recurrence

    def wrong(n, a):
        c0, q1, q2 = right(n, a)
        return c0, q1 // (2 * n - 1) * (2 * n + 1), q2

    monkeypatch.setattr(oracle, "_recurrence", wrong)
    assert lemma_2_2_check(5) == "recurrence certificate fails at n=2 side 1"
    rows = [oracle._pairs(a, 5) for a in range(11)]
    side_2 = [oracle._side(n, 2, rows) for n in range(6)]
    assert not all(oracle._certificate_holds(n, side_2[n], side_2[n - 1], side_2[n - 2])
                   for n in range(2, 6))


def test_lemma_2_1_exact_small_cases():
    for n in range(13):
        assert lemma_2_1_exact_check(n), n
    with pytest.raises(BoundExceeded):
        lemma_2_1_exact_check(31)


def test_identity_1_7_small_cases():
    assert identity_1_7_check(0)
    assert identity_1_7_check(1)
    assert identity_1_7_check(100)
    with pytest.raises(BoundExceeded):
        identity_1_7_check(201)


def test_identity_1_7_reads_the_family_table(monkeypatch):
    monkeypatch.setattr(FamilyTag.TWO_THREE, "scale", 26)
    assert not identity_1_7_check(2)


def test_falling_products_are_scaled_rational_binomials():
    from math import factorial

    for r, s in ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 6), (5, 6)):
        for k in range(25):
            assert _falling(r, s, k) == binom_frac(Fraction(-r, s), k) * s**k * factorial(k)


def test_exact_reduce_sum_cases():
    ctx = make_context(5, 2)
    assert exact_reduce_sum(Fraction(2, 3), 0, ctx, "core").value == 1
    assert exact_reduce_sum(Fraction(-1, 2), Fraction(1, 64), ctx, "core").value == core_sum(
        Fraction(-1, 2), Fraction(1, 64), ctx
    )
    assert exact_reduce_sum(0, Fraction(1, 108), ctx, FamilyTag.TWO_THREE).value == 0
    with pytest.raises(NotPIntegral):
        exact_reduce_sum(Fraction(1, 5), 1, ctx, "core")
    with pytest.raises(NotPIntegral):
        exact_reduce_sum(1, Fraction(1, 5), ctx, "plain")
    with pytest.raises(ValueError):
        exact_reduce_sum(1, 1, ctx, "family")
    with pytest.raises(BoundExceeded):
        exact_reduce_sum(1, 1, make_context(521, 1), "core")


def test_exact_reduce_sums_reads_every_usable_prime_from_one_pass():
    a, x = Fraction(1, 3), Fraction(-2, 5)
    got = exact_reduce_sums(a, x, "core", [13, 3, 7, 5, 13, 7], 2)
    assert list(got) == [7, 13]  # 3 divides a's and 5 x's denominator
    for p, value in got.items():
        assert value == exact_reduce_sum(a, x, make_context(p, 2), "core").value
    assert list(exact_reduce_sums(a, x, FamilyTag.CUBE, [7, 3, 5], 1)) == [3, 7]
    assert exact_reduce_sums(a, x, "plain", [], 3) == {}
    with pytest.raises(BoundExceeded):
        exact_reduce_sums(a, x, "core", [3, REDUCE_P_BOUND + 1], 1)
    with pytest.raises(ValueError):
        exact_reduce_sums(a, x, "family", [3], 1)


def test_oracle_equivalence_small_grid():
    for p in (3, 5, 13):
        for e in (1, 2, 3):
            ctx = make_context(p, e)
            for x in GRID_X[:5]:
                if x.denominator % p == 0:
                    continue
                for f in FamilyTag:
                    assert family_sum(f, x, ctx) == exact_reduce_sum(0, x, ctx, f).value
                for a in GRID_A[:5]:
                    if a.denominator % p == 0:
                        continue
                    assert core_sum(a, x, ctx) == exact_reduce_sum(a, x, ctx, "core").value
                    assert plain_sum(a, x, ctx) == exact_reduce_sum(a, x, ctx, "plain").value


def test_grids_have_ten_entries():
    assert len(GRID_A) == 10 and len(GRID_X) == 10

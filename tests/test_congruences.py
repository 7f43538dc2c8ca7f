"""Truncated sums, the family dictionary, and every theorem checker."""

import json
import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from reference import binom_frac
from supercong.congruences import (
    STATEMENTS,
    FamilyTag,
    _report,
    check_corollary_2_2,
    check_corollary_2_3,
    check_identity_1_3,
    check_rodriguez_villegas,
    check_theorem_2_1,
    check_theorem_2_2,
    check_theorem_2_3,
    check_theorem_2_4,
    core_sum,
    explore_remark_2_3,
    family_sum,
    family_sums,
    format_rational,
    plain_sum,
    points,
)
from supercong.errors import (
    BadExponent,
    ExcludedValue,
    NotPIntegral,
    RangeError,
)
from supercong.cli import primes_in_range, run_checks
from supercong.modring import make_context, reduce_rational
from supercong.oracle import exact_reduce_sum, exact_reduce_sums


def test_every_sum_is_a_plain_int():
    primes = (3, 5, 7, 13, 29, 47)
    args = ((2, -3), (Fraction(-1, 3), Fraction(5, 7)), (Fraction(7, 5), 4))
    for e in (1, 2, 3):
        for a, x in args:
            want = {which: exact_reduce_sums(a, x, which, primes, e)
                    for which in ("core", "plain", *FamilyTag)}
            for p in primes:
                ctx = make_context(p, e)
                sums = (("core", core_sum, a), ("plain", plain_sum, a),
                        *((f, family_sum, f) for f in FamilyTag))
                for which, fn, first in sums:
                    if p not in want[which]:  # p divides a denominator it reads
                        continue
                    v = fn(first, x, ctx)
                    assert type(v) is int and 0 <= v < p**e, (which, p, e, a, x)
                    assert v == want[which][p], (which, p, e, a, x)
                for q in (a, x):
                    q = Fraction(q)
                    if q.denominator % p:
                        v = reduce_rational(q, ctx)
                        assert type(v) is int and 0 <= v < p**e, (p, e, q)
                        assert (v * q.denominator - q.numerator) % p**e == 0, (p, e, q)


def test_core_sum_trivial_cases():
    ctx = make_context(11, 2)
    assert core_sum(Fraction(3, 4), 0, ctx) == 1
    assert core_sum(0, Fraction(5, 7), ctx) == 1
    with pytest.raises(NotPIntegral):
        core_sum(Fraction(1, 11), 1, ctx)


def test_core_sum_vanishing_instance():
    # the a = -1/3, x = 1/4 instance is the 108-family congruence at p = 2 mod 3
    assert core_sum(Fraction(-1, 3), Fraction(1, 4), make_context(5, 2)) == 0


def test_plain_sum_cases():
    ctx = make_context(7, 1)
    assert plain_sum(Fraction(-1, 2), 0, ctx) == 1
    assert plain_sum(0, Fraction(2, 3), ctx) == 1
    want = exact_reduce_sum(Fraction(-1, 2), 1, ctx, "plain").value
    assert plain_sum(Fraction(-1, 2), 1, ctx) == want


def test_family_sum_trivial_and_vanishing():
    ctx = make_context(5, 2)
    for f in FamilyTag:
        assert family_sum(f, 0, ctx) == 1
    assert family_sum(FamilyTag.TWO_THREE, Fraction(1, 108), ctx) == 0
    assert family_sum(FamilyTag.TWO_FOUR, Fraction(1, 256), ctx) == 0


def test_family_tags_carry_the_dictionary():
    assert FamilyTag.CUBE.a == Fraction(-1, 2) and FamilyTag.CUBE.scale == 16
    assert FamilyTag.TWO_THREE.a == Fraction(-1, 3) and FamilyTag.TWO_THREE.scale == 27
    assert FamilyTag.TWO_FOUR.a == Fraction(-1, 4) and FamilyTag.TWO_FOUR.scale == 64
    assert FamilyTag.THREE_SIX.a == Fraction(-1, 6) and FamilyTag.THREE_SIX.scale == 432


def test_dictionary_family_equals_scaled_core():
    rng = random.Random(1729)
    primes = (5, 7, 11, 13, 17, 19, 23)
    for f in FamilyTag:
        for _ in range(20):
            p = rng.choice(primes)
            e = rng.choice((1, 2, 3))
            ctx = make_context(p, e)
            dens = [d for d in range(1, 10) if d % p]
            x = Fraction(rng.randint(-20, 20), rng.choice(dens))
            assert family_sum(f, x, ctx) == core_sum(f.a, f.scale * x, ctx), (f, p, e, x)


def test_family_both_paths_agree():
    # the modular kernel against exact rational summation, reduced once
    rng = random.Random(23)
    for _ in range(30):
        p = rng.choice((3, 5, 7, 13, 29))
        e = rng.choice((1, 2, 3))
        ctx = make_context(p, e)
        dens = [d for d in range(1, 10) if d % p]
        x = Fraction(rng.randint(-30, 30), rng.choice(dens))
        for f in FamilyTag:
            assert family_sum(f, x, ctx) == exact_reduce_sum(0, x, ctx, f).value, (f, p, e, x)


def test_sums_match_exact_oracle():
    rng = random.Random(404)
    for _ in range(25):
        p = rng.choice((3, 5, 7, 11, 13))
        e = rng.choice((1, 2, 3))
        ctx = make_context(p, e)
        dens = [d for d in range(1, 8) if d % p]
        a = Fraction(rng.randint(-15, 15), rng.choice(dens))
        x = Fraction(rng.randint(-15, 15), rng.choice(dens))
        assert core_sum(a, x, ctx) == exact_reduce_sum(a, x, ctx, "core").value
        assert plain_sum(a, x, ctx) == exact_reduce_sum(a, x, ctx, "plain").value


def test_tail_terms_vanish_mod_p2():
    # every core term with k > (p-1)/2 is 0 mod p^2: p | C(2k,k) and
    # p | C(a,k) C(-1-a,k)
    rng = random.Random(808)
    for p in (7, 11, 13):
        ctx = make_context(p, 2)
        for _ in range(10):
            dens = [d for d in range(1, 8) if d % p]
            a = Fraction(rng.randint(-20, 20), rng.choice(dens))
            for k in range((p + 1) // 2, p):
                term = reduce_rational(
                    comb(2 * k, k) * binom_frac(a, k) * binom_frac(-1 - a, k), ctx
                )
                assert term == 0, (p, a, k)


# ---------------------------------------------------------------------------
# Records

def _status_rule(hypothesis, conclusion):
    if not hypothesis:
        return "vacuous"
    return "verified" if conclusion else "FAILED"


def test_report_status_rule():
    for hypothesis, conclusion, status in [
        (True, True, "verified"),
        (True, False, "FAILED"),
        (False, True, "vacuous"),
        (False, False, "vacuous"),
    ]:
        r = _report("thm2.1", 7, {"a": "0"}, hypothesis, conclusion, {"sum": 1})
        assert r == {
            "theorem": "thm2.1", "p": 7, "e": 1, "params": {"a": "0"},
            "hypothesis_holds": hypothesis, "conclusion_holds": conclusion,
            "residues": {"sum": 1}, "status": status,
        }
    r = check_theorem_2_1(0, 3, make_context(7, 1))
    assert r["status"] == "verified" and r["hypothesis_holds"] and r["conclusion_holds"]


@pytest.mark.parametrize("theorem", [t for t, spec in STATEMENTS.items() if spec.params])
def test_every_grid_record_has_the_status_of_its_booleans(theorem):
    chunks = run_checks(theorem, primes_in_range(3, 13), exhaustive=True, jobs=1,
                        formats=("jsonl",))
    records = [json.loads(line) for c in chunks for line in c.jsonl.splitlines()]
    assert records
    for r in records:
        assert r["status"] == _status_rule(r["hypothesis_holds"], r["conclusion_holds"]), r


def test_format_rational_round_trip():
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    assert format_rational(Fraction(4)) == "4"
    assert Fraction(format_rational(Fraction(-22, 7))) == Fraction(-22, 7)


# ---------------------------------------------------------------------------
# Checkers

def test_check_theorem_2_1_examples():
    ctx = make_context(7, 1)
    r = check_theorem_2_1(0, 5, ctx)
    assert r["status"] == "verified"
    assert r["residues"]["sum"] == 1 and r["residues"]["legendre_sq"] == 1
    assert check_theorem_2_1(Fraction(-1, 2), Fraction(1, 4), ctx)["status"] == "verified"
    with pytest.raises(BadExponent):
        check_theorem_2_1(0, 0, make_context(7, 2))


def test_check_theorem_2_1_random_small_sweep():
    rng = random.Random(11)
    for p in (3, 5, 11, 17, 29):
        ctx = make_context(p, 1)
        for _ in range(30):
            dens = [d for d in range(1, 8) if d % p]
            a = Fraction(rng.randint(-20, 20), rng.choice(dens))
            x = Fraction(rng.randint(-20, 20), rng.choice(dens))
            assert check_theorem_2_1(a, x, ctx)["status"] == "verified", (p, a, x)


def test_check_theorem_2_2_examples():
    ctx = make_context(11, 2)
    r = check_theorem_2_2(Fraction(5, 3), 0, ctx)
    assert r["status"] == "verified" and r["residues"]["plain_sum_sq"] == 1
    assert check_theorem_2_2(Fraction(-1, 4), 3, ctx)["status"] == "verified"
    assert check_theorem_2_2(Fraction(-1, 3), Fraction(1, 2), ctx)["status"] == "verified"


def test_check_theorem_2_3_examples():
    ctx = make_context(5, 2)
    # hypothesis-true instance: core_sum(-1/3, 1/4) is the 108-family congruence
    r = check_theorem_2_3(Fraction(-1, 3), 4, ctx)
    assert r["status"] == "verified"
    assert r["hypothesis_holds"] and r["conclusion_holds"]
    r = check_theorem_2_3(0, 3, ctx)
    assert r["status"] == "vacuous" and r["residues"]["sum_mod_p2"] == 1
    with pytest.raises(ExcludedValue):
        check_theorem_2_3(1, 10, ctx)
    with pytest.raises(NotPIntegral):
        check_theorem_2_3(1, Fraction(2, 5), ctx)


def test_check_theorem_2_3_checks_m_before_a():
    # both parameters are bad at p = 5; m's error comes first
    ctx = make_context(5, 2)
    with pytest.raises(ExcludedValue):
        check_theorem_2_3(Fraction(1, 5), 10, ctx)
    with pytest.raises(NotPIntegral, match="2/5"):
        check_theorem_2_3(Fraction(1, 5), Fraction(2, 5), ctx)


def test_check_theorem_2_3_exhaustive_tiny():
    for p in (5, 7, 11):
        ctx = make_context(p, 2)
        for a in range(p):
            for m in range(1, p):
                assert check_theorem_2_3(a, m, ctx)["status"] != "FAILED", (p, a, m)


def test_check_corollary_2_2_families():
    ctx = make_context(5, 2)
    # the 108-instance of the TWO_THREE family is hypothesis-true at p = 5
    r = check_corollary_2_2(FamilyTag.TWO_THREE, 108, ctx)
    assert r["status"] == "verified" and r["params"]["family"] == "two_three"
    for f in FamilyTag:
        for m in (1, 2, 3, 4, 7, 9):
            # skip the ramified class m = 4*scale mod p, where the stated
            # implication genuinely breaks (see the dedicated test below)
            if m % 5 == 4 * f.scale % 5:
                continue
            assert check_corollary_2_2(f, m, ctx)["status"] != "FAILED"
    with pytest.raises(ExcludedValue):
        check_corollary_2_2(FamilyTag.CUBE, 5, ctx)


def test_check_corollary_2_2_reports_ramified_failure_honestly():
    # sum_k C(2k,k)^2 C(3k,k)/3^k = 281285/9 over k < 5: it is 0 mod 5 but
    # 15 mod 25 (the square root behind the implication leaves Z_p when
    # 1 - 4*scale/m = 0 mod p without vanishing exactly).  The checker must
    # report that, not mask it.
    r = check_corollary_2_2(FamilyTag.TWO_THREE, 3, make_context(5, 2))
    assert r["status"] == "FAILED"
    assert r["hypothesis_holds"] and not r["conclusion_holds"]
    assert r["residues"]["sum_mod_p2"] == 15


def test_check_theorem_2_4_examples():
    # u = -1/2 in part i reproduces the 1/1458 congruence for p = 5 mod 6
    for p in (5, 11, 17, 23):
        ctx = make_context(p, 2)
        r = check_theorem_2_4("i", Fraction(-1, 2), ctx)
        assert r["status"] == "verified", p
        assert r["hypothesis_holds"] and r["conclusion_holds"]
    r = check_theorem_2_4("i", 0, make_context(7, 2))
    assert r["status"] == "vacuous"
    with pytest.raises(ExcludedValue):
        check_theorem_2_4("i", Fraction(1, 4), make_context(7, 2))
    with pytest.raises(ExcludedValue):
        check_theorem_2_4("i", Fraction(1, 16), make_context(7, 2))
    with pytest.raises(ExcludedValue):
        check_theorem_2_4("ii", Fraction(-1, 3), make_context(7, 2))
    with pytest.raises(ValueError):
        check_theorem_2_4("iii", 1, make_context(7, 2))


def test_check_theorem_2_4_exhaustive_tiny():
    for p in (5, 7, 13):
        ctx = make_context(p, 2)
        for part in ("i", "ii"):
            for u in range(p):
                try:
                    r = check_theorem_2_4(part, u, ctx)
                except ExcludedValue:
                    continue
                assert r["status"] != "FAILED", (p, part, u)


def test_check_rodriguez_villegas_classes():
    reports = {r["params"]["family"]: r for r in check_rodriguez_villegas([5])}
    assert reports["two_three"]["status"] == "verified"   # 5 = 2 mod 3
    assert reports["two_four"]["status"] == "verified"    # 5 mod 8 in {5, 7}
    assert reports["three_six"]["status"] == "vacuous"    # 5 = 1 mod 4
    reports = {r["params"]["family"]: r for r in check_rodriguez_villegas([7])}
    assert reports["two_three"]["status"] == "vacuous"    # 7 = 1 mod 3
    assert reports["two_four"]["status"] == "verified"    # 7 mod 8 = 7
    assert reports["three_six"]["status"] == "verified"   # 7 = 3 mod 4
    with pytest.raises(RangeError):
        check_rodriguez_villegas([3])


def test_check_corollary_2_3_examples():
    first, second = check_corollary_2_3([5])
    assert first["status"] == "verified" and first["params"]["x"] == "1/1458"
    assert second["status"] == "vacuous"  # 3375 shares the factor 5; skipped
    first, second = check_corollary_2_3([7])
    assert first["status"] == "vacuous" and second["status"] == "vacuous"
    first, second = check_corollary_2_3([11])
    assert first["status"] == "verified" and second["status"] == "verified"
    with pytest.raises(RangeError):
        check_corollary_2_3([3])


def test_check_identity_1_3_examples():
    assert check_identity_1_3(64, make_context(7, 2))["status"] == "verified"
    assert check_identity_1_3(1, make_context(5, 2))["status"] == "verified"
    assert check_identity_1_3(Fraction(-3, 7), make_context(11, 2))["status"] == "verified"
    with pytest.raises(RangeError):
        check_identity_1_3(1, make_context(3, 2))
    with pytest.raises(ExcludedValue):
        check_identity_1_3(7, make_context(7, 2))


def test_explore_remark_2_3():
    [r] = explore_remark_2_3([5])
    assert r["e"] == 3 and r["p"] == 5
    assert "sum_mod_p3" in r["residues"]
    assert r["residues"]["sum_mod_p3"] == 0  # recorded, expected by the conjecture
    assert explore_remark_2_3([11])[0]["residues"]["sum_mod_p3"] == 0
    # 7 = 1 mod 6 is outside the remark's class: a vacuous record, as in eq1.2
    [r] = explore_remark_2_3([7])
    assert not r["hypothesis_holds"] and r["status"] == "vacuous"
    assert set(r["residues"]) == {"sum_mod_p3"}


def test_corollary_2_1_zero_propagation():
    # if the core sum vanishes mod p, both extension values vanish
    from reference import legendre_at_sqrt

    hits = 0
    for p in (5, 7, 11, 13):
        ctx = make_context(p, 1)
        for a in range(p):
            for x in range(p):
                if core_sum(a, x, ctx) != 0:
                    continue
                hits += 1
                n = a
                t = (1 - 4 * x) % p
                assert legendre_at_sqrt(n, t, ctx).is_zero
                assert legendre_at_sqrt(p - 1 - n, t, ctx).is_zero
    assert hits > 0


# The arguments the checkers sum at, plus values whose numerator (5/7 at p = 5,
# -7/4 at p = 7) or denominator (1/108, 1/1458, 1/3375 at p = 3 and 5, 5/7
# at p = 7) is divisible by a prime of the list.
GATE_X = tuple(Fraction(x) for x in (
    0, 1, -1, Fraction(1, 108), Fraction(1, 256), Fraction(1, 1728),
    Fraction(1, 1458), Fraction(1, 3375), Fraction(5, 7), Fraction(-7, 4),
))
GATE_PRIMES = primes_in_range(3, 3000)


@pytest.mark.parametrize("e", (1, 2, 3))
@pytest.mark.parametrize("f", list(FamilyTag))
def test_family_sums_equal_the_scalar_kernel(f, e):
    contexts = [make_context(p, e) for p in GATE_PRIMES]
    for x in GATE_X:
        want = {
            ctx.p: family_sum(f, x, ctx)
            for ctx in contexts
            if x.denominator % ctx.p
        }
        assert family_sums(f, x, GATE_PRIMES, e) == want, (f, e, x)


def test_family_sums_on_empty_and_one_prime_lists():
    for f in FamilyTag:
        assert family_sums(f, Fraction(5, 7), [], 2) == {}
        assert family_sums(f, Fraction(5, 7), [7], 2) == {}  # 7 is skipped
        for p in (3, 5, 2999):
            ctx = make_context(p, 3)
            want = family_sum(f, Fraction(5, 7), ctx)
            assert family_sums(f, Fraction(5, 7), [p], 3) == {p: want}


# ---------------------------------------------------------------------------
# The lift's one failure class, over every residue pair mod p^2

@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_thm2_3_lift_fails_exactly_on_its_class_over_all_residues_mod_p2(p):
    # Mod p the core sum at 1/m is P_<a>(sqrt(1 - 4/m))^2 (thm2.1), which at
    # m = 4 mod p is P_<a>(0)^2: zero exactly for odd <a>_p.  The lift to
    # p^2 then fails unless 1 - 4/m vanishes exactly mod p^2.
    q = p * p
    ctx = make_context(p, 2)
    failed = {(a, m) for a in range(q) for m in range(q)
              if m % p and check_theorem_2_3(a, m, ctx)["status"] == "FAILED"}
    assert failed == {(a, m) for a in range(q) for m in range(q)
                      if a % p % 2 and m % p == 4 % p and m != 4}
    assert len(failed) == (p - 1) // 2 * p * (p - 1)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_cor2_2_lift_fails_exactly_on_its_class_over_all_residues_mod_p2(p):
    # Each family sum is the core sum at (a_f, scale_f x), so the class is
    # thm2.3's with <a_f>_p and 4 scale_f in place of <a>_p and 4.
    q = p * p
    ctx = make_context(p, 2)
    failed = {(f, m) for f in FamilyTag for m in range(q)
              if m % p and check_corollary_2_2(f, m, ctx)["status"] == "FAILED"}
    odd = [f for f in FamilyTag if reduce_rational(f.a, make_context(p, 1)) % 2]
    assert failed == {(f, m) for f in odd for m in range(q)
                      if m % p == 4 * f.scale % p and m != 4 * f.scale % q}
    assert len(failed) == len(odd) * (p - 1)


def test_a_grid_reads_each_row_of_sums_only_when_it_is_reached():
    """At the first row of thm2.3's grid at p = 211, the sums of all 211
    rows are held packed, 8 bytes each, not as 44,310 Python ints (about 40
    bytes each with their list slots)."""
    p = 211
    ctx = make_context(p, 2)
    axes = {"a": sorted((str(a), a) for a in range(p)),
            "m": sorted((str(m), m) for m in range(1, p))}
    list(points("thm2.3", ctx, axes))  # the context keeps the coefficient rows
    tracemalloc.start()
    try:
        rows = points("thm2.3", ctx, axes)
        before = tracemalloc.get_traced_memory()[0]
        next(rows)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 16 * p * (p - 1)

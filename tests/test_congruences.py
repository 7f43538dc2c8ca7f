"""Truncated sums, the family dictionary, and every statement through `check`
and `fixed_records`."""

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
    _cases,
    check,
    core_sum,
    family_sum,
    fixed_records,
    fixed_sums,
    plain_sum,
    points,
    record,
)
from supercong.errors import (
    BadExponent,
    ExcludedValue,
    NotPIntegral,
    RangeError,
)
from supercong import modring
from supercong.cli import primes_in_range, run_checks
from supercong.modring import hyper_sums, make_context, reduce_rational
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
        r = record("thm2.1", 7, (("0", "3"), hypothesis, conclusion, (1, 2, 3)))
        assert r == {
            "theorem": "thm2.1", "p": 7, "e": 1, "params": {"a": "0", "x": "3"},
            "hypothesis_holds": hypothesis, "conclusion_holds": conclusion,
            "residues": {"sum": 1, "legendre_sq": 2, "legendre_sq_mirror": 3},
            "status": status,
        }
    r = check("thm2.1", make_context(7, 1), a=0, x=3)
    assert r["status"] == "verified" and r["hypothesis_holds"] and r["conclusion_holds"]


def test_a_record_point_with_a_value_too_many_raises():
    # such as a prime passed as a parameter: it must not vanish from the record
    for theorem, params in (("thm2.1", ("0", "3", "7")), ("eq1.2", ("two_three", "1/108", "7"))):
        with pytest.raises(ValueError):
            record(theorem, 7, (params, True, False, (1, 2, 3)))


@pytest.mark.parametrize("theorem", [t for t, spec in STATEMENTS.items() if spec.params])
def test_every_grid_record_has_the_status_of_its_booleans(theorem):
    chunks = run_checks(theorem, primes_in_range(3, 13), exhaustive=True, jobs=1,
                        formats=("jsonl",))
    records = [json.loads(line) for c in chunks for line in c.jsonl.splitlines()]
    assert records
    for r in records:
        assert r["status"] == _status_rule(r["hypothesis_holds"], r["conclusion_holds"]), r


def test_format_rational_round_trip():
    assert str(Fraction(-1, 3)) == "-1/3"
    assert str(Fraction(4)) == "4"
    assert Fraction(str(Fraction(-22, 7))) == Fraction(-22, 7)


# ---------------------------------------------------------------------------
# Checkers

def test_check_theorem_2_1_examples():
    ctx = make_context(7, 1)
    r = check("thm2.1", ctx, a=0, x=5)
    assert r["status"] == "verified"
    assert r["residues"]["sum"] == 1 and r["residues"]["legendre_sq"] == 1
    assert check("thm2.1", ctx, a=Fraction(-1, 2), x=Fraction(1, 4))["status"] == "verified"
    with pytest.raises(BadExponent):
        check("thm2.1", make_context(7, 2), a=0, x=0)


def test_check_theorem_2_1_random_small_sweep():
    rng = random.Random(11)
    for p in (3, 5, 11, 17, 29):
        ctx = make_context(p, 1)
        for _ in range(30):
            dens = [d for d in range(1, 8) if d % p]
            a = Fraction(rng.randint(-20, 20), rng.choice(dens))
            x = Fraction(rng.randint(-20, 20), rng.choice(dens))
            assert check("thm2.1", ctx, a=a, x=x)["status"] == "verified", (p, a, x)


def test_check_theorem_2_2_examples():
    ctx = make_context(11, 2)
    r = check("thm2.2", ctx, a=Fraction(5, 3), x=0)
    assert r["status"] == "verified" and r["residues"]["plain_sum_sq"] == 1
    assert check("thm2.2", ctx, a=Fraction(-1, 4), x=3)["status"] == "verified"
    assert check("thm2.2", ctx, a=Fraction(-1, 3), x=Fraction(1, 2))["status"] == "verified"


def test_check_theorem_2_3_examples():
    ctx = make_context(5, 2)
    # hypothesis-true instance: core_sum(-1/3, 1/4) is the 108-family congruence
    r = check("thm2.3", ctx, a=Fraction(-1, 3), m=4)
    assert r["status"] == "verified"
    assert r["hypothesis_holds"] and r["conclusion_holds"]
    r = check("thm2.3", ctx, a=0, m=3)
    assert r["status"] == "vacuous" and r["residues"]["sum_mod_p2"] == 1
    with pytest.raises(ExcludedValue):
        check("thm2.3", ctx, a=1, m=10)
    with pytest.raises(NotPIntegral):
        check("thm2.3", ctx, a=1, m=Fraction(2, 5))


def test_check_theorem_2_3_checks_m_before_a():
    # both parameters are bad at p = 5; m's error comes first
    ctx = make_context(5, 2)
    with pytest.raises(ExcludedValue):
        check("thm2.3", ctx, a=Fraction(1, 5), m=10)
    with pytest.raises(NotPIntegral, match="2/5"):
        check("thm2.3", ctx, a=Fraction(1, 5), m=Fraction(2, 5))


def test_check_theorem_2_3_exhaustive_tiny():
    for p in (5, 7, 11):
        ctx = make_context(p, 2)
        for a in range(p):
            for m in range(1, p):
                assert check("thm2.3", ctx, a=a, m=m)["status"] != "FAILED", (p, a, m)


def test_check_corollary_2_2_families():
    ctx = make_context(5, 2)
    # the 108-instance of the TWO_THREE family is hypothesis-true at p = 5
    r = check("cor2.2", ctx, family=FamilyTag.TWO_THREE, m=108)
    assert r["status"] == "verified" and r["params"]["family"] == "two_three"
    for f in FamilyTag:
        for m in (1, 2, 3, 4, 7, 9):
            # skip the ramified class m = 4*scale mod p, where the stated
            # implication genuinely breaks (see the dedicated test below)
            if m % 5 == 4 * f.scale % 5:
                continue
            assert check("cor2.2", ctx, family=f, m=m)["status"] != "FAILED"
    with pytest.raises(ExcludedValue):
        check("cor2.2", ctx, family=FamilyTag.CUBE, m=5)


def test_check_corollary_2_2_reports_ramified_failure_honestly():
    # sum_k C(2k,k)^2 C(3k,k)/3^k = 281285/9 over k < 5: it is 0 mod 5 but
    # 15 mod 25 (the square root behind the implication leaves Z_p when
    # 1 - 4*scale/m = 0 mod p without vanishing exactly).  The checker must
    # report that, not mask it.
    r = check("cor2.2", make_context(5, 2), family=FamilyTag.TWO_THREE, m=3)
    assert r["status"] == "FAILED"
    assert r["hypothesis_holds"] and not r["conclusion_holds"]
    assert r["residues"]["sum_mod_p2"] == 15


def test_check_theorem_2_4_examples():
    # u = -1/2 in part i reproduces the 1/1458 congruence for p = 5 mod 6
    for p in (5, 11, 17, 23):
        ctx = make_context(p, 2)
        r = check("thm2.4i", ctx, u=Fraction(-1, 2))
        assert r["status"] == "verified", p
        assert r["hypothesis_holds"] and r["conclusion_holds"]
    r = check("thm2.4i", make_context(7, 2), u=0)
    assert r["status"] == "vacuous"
    with pytest.raises(ExcludedValue):
        check("thm2.4i", make_context(7, 2), u=Fraction(1, 4))
    with pytest.raises(ExcludedValue):
        check("thm2.4i", make_context(7, 2), u=Fraction(1, 16))
    with pytest.raises(ExcludedValue):
        check("thm2.4ii", make_context(7, 2), u=Fraction(-1, 3))
    with pytest.raises(ValueError):
        check("thm2.4iii", make_context(7, 2), u=1)


def test_check_theorem_2_4_exhaustive_tiny():
    for p in (5, 7, 13):
        ctx = make_context(p, 2)
        for part in ("i", "ii"):
            for u in range(p):
                try:
                    r = check(f"thm2.4{part}", ctx, u=u)
                except ExcludedValue:
                    continue
                assert r["status"] != "FAILED", (p, part, u)


def test_check_rodriguez_villegas_classes():
    reports = {r["params"]["family"]: r for r in fixed_records("eq1.2", [5])}
    assert reports["two_three"]["status"] == "verified"   # 5 = 2 mod 3
    assert reports["two_four"]["status"] == "verified"    # 5 mod 8 in {5, 7}
    assert reports["three_six"]["status"] == "vacuous"    # 5 = 1 mod 4
    reports = {r["params"]["family"]: r for r in fixed_records("eq1.2", [7])}
    assert reports["two_three"]["status"] == "vacuous"    # 7 = 1 mod 3
    assert reports["two_four"]["status"] == "verified"    # 7 mod 8 = 7
    assert reports["three_six"]["status"] == "verified"   # 7 = 3 mod 4
    with pytest.raises(RangeError):
        fixed_records("eq1.2", [3])


def test_check_corollary_2_3_examples():
    first, second = fixed_records("cor2.3", [5])
    assert first["status"] == "verified" and first["params"]["x"] == "1/1458"
    assert second["status"] == "vacuous"  # 3375 shares the factor 5; skipped
    first, second = fixed_records("cor2.3", [7])
    assert first["status"] == "vacuous" and second["status"] == "vacuous"
    first, second = fixed_records("cor2.3", [11])
    assert first["status"] == "verified" and second["status"] == "verified"
    with pytest.raises(RangeError):
        fixed_records("cor2.3", [3])


def test_check_identity_1_3_examples():
    assert check("eq1.3", make_context(7, 2), m=64)["status"] == "verified"
    assert check("eq1.3", make_context(5, 2), m=1)["status"] == "verified"
    assert check("eq1.3", make_context(11, 2), m=Fraction(-3, 7))["status"] == "verified"
    with pytest.raises(RangeError):
        check("eq1.3", make_context(3, 2), m=1)
    with pytest.raises(ExcludedValue):
        check("eq1.3", make_context(7, 2), m=7)


def test_explore_remark_2_3():
    [r] = fixed_records("remark2.3", [5])
    assert r["e"] == 3 and r["p"] == 5
    assert "sum_mod_p3" in r["residues"]
    assert r["residues"]["sum_mod_p3"] == 0  # recorded, expected by the conjecture
    assert fixed_records("remark2.3", [11])[0]["residues"]["sum_mod_p3"] == 0
    # 7 = 1 mod 6 is outside the remark's class: a vacuous record, as in eq1.2
    [r] = fixed_records("remark2.3", [7])
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
    # the family at each x is the ratio f.const * x, kept over x's own
    # denominator: None exactly where p divides it
    contexts = [make_context(p, e) for p in GATE_PRIMES]
    ratios = [(f.const * x.numerator, x.denominator, f.factors, 3) for x in GATE_X]
    for x, got in zip(GATE_X, hyper_sums(ratios, GATE_PRIMES, e)):
        want = [family_sum(f, x, ctx) if x.denominator % ctx.p else None for ctx in contexts]
        assert got == want, (f, e, x)


def test_fixed_sums_build_one_moduli_tree_per_list_of_usable_primes(monkeypatch):
    built = []
    real = modring._prime_power_tree

    def counted(primes, e):
        built.append((primes, e))
        return real(primes, e)

    monkeypatch.setattr(modring, "_prime_power_tree", counted)
    # eq1.2's scales are prime to every p >= 5; cor2.3's 3375 is divisible
    # by 5, which reads None in the one tree over every prime
    for theorem, hi in (("eq1.2", 2000), ("cor2.3", 400)):
        primes = primes_in_range(5, hi)
        e = STATEMENTS[theorem].e
        want = [hyper_sums([(f.const, scale, f.factors, 3)], primes, e)[0]
                for f, scale, _, _ in _cases(theorem)]
        built.clear()
        assert fixed_sums(theorem, primes) == want, theorem
        assert len(built) == 1, theorem
    assert want[1][0] is None and None not in want[0] + want[1][1:]


def test_family_sums_on_empty_and_one_prime_lists():
    for f in FamilyTag:
        ratio = (f.const * 5, 7, f.factors, 3)  # x = 5/7
        assert hyper_sums([ratio], [], 2) == [[]]
        assert hyper_sums([ratio], [7], 2) == [[None]]  # 7 divides the denominator
        for p in (3, 5, 2999):
            ctx = make_context(p, 3)
            want = family_sum(f, Fraction(5, 7), ctx)
            assert hyper_sums([ratio], [p], 3) == [[want]]


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
              if m % p and check("thm2.3", ctx, a=a, m=m)["status"] == "FAILED"}
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
              if m % p and check("cor2.2", ctx, family=f, m=m)["status"] == "FAILED"}
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

"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance here is exact (residue equality) except the soft performance
budget of criterion 11.
"""

import random
import time
import warnings
from fractions import Fraction

from supercong.congruences import (
    FamilyTag,
    check,
    core_sum,
    family_sum,
    fixed_records,
    plain_sum,
)
from supercong.cli import primes_in_range, run_exploration
from supercong.errors import ExcludedValue
from supercong.modring import hyper_sums, make_context
from supercong.oracle import (
    GRID_A,
    GRID_X,
    exact_reduce_sum,
    identity_1_7_check,
    lemma_2_1_exact_check,
    lemma_2_2_check,
)


def _announce(num: int, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS -- {detail}")


def test_criterion_01_rodriguez_villegas_classes():
    t0 = time.perf_counter()
    in_class = 0
    for r in fixed_records("eq1.2", primes_in_range(5, 1999)):
        assert r["status"] != "FAILED", r
        if r["hypothesis_holds"]:
            assert r["residues"]["sum_mod_p2"] == 0, r
            in_class += 1
    assert in_class > 400
    _announce(1, f"eq1.2: {in_class} in-class sums exactly 0 mod p^2 for 3 < p < 2000 "
                 f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_02_theorem_2_2_random_triples():
    t0 = time.perf_counter()
    rng = random.Random(20260810)
    primes = primes_in_range(3, 499)
    checked = 0
    while checked < 200:
        p = rng.choice(primes)
        dens = [d for d in range(1, 10) if d % p]
        a = Fraction(rng.randint(-30, 30), rng.choice(dens))
        x = Fraction(rng.randint(-30, 30), rng.choice(dens))
        r = check("thm2.2", make_context(p, 2), a=a, x=x)
        assert r["status"] == "verified", (p, a, x, r["residues"])
        checked += 1
    _announce(2, f"thm2.2: 200 random (a, x, p<500) triples exact mod p^2 "
                 f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_03_theorem_2_3_exhaustive():
    t0 = time.perf_counter()
    checked = lifted = 0
    for p in primes_in_range(5, 97):
        ctx = make_context(p, 2)
        for a in range(p):
            for m in range(1, p):
                r = check("thm2.3", ctx, a=a, m=m)
                assert r["status"] != "FAILED", (p, a, m, r["residues"])
                checked += 1
                lifted += r["status"] == "verified"
    _announce(3, f"thm2.3: exhaustive {checked} (a, m) pairs over 3 < p <= 97, "
                 f"{lifted} hypothesis-true, zero failed lifts "
                 f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_04_theorem_2_1_exhaustive():
    t0 = time.perf_counter()
    checked = 0
    for p in primes_in_range(3, 99):
        ctx = make_context(p, 1)
        for a in range(p):
            for x in range(p):
                r = check("thm2.1", ctx, a=a, x=x)
                assert r["status"] == "verified", (p, a, x, r["residues"])
                checked += 1
    _announce(4, f"thm2.1: triple congruence exact for all {checked} (a, x) pairs, "
                 f"p < 100 ({time.perf_counter() - t0:.1f}s)")


def test_criterion_05_theorem_2_4_exhaustive():
    t0 = time.perf_counter()
    checked = 0
    for p in primes_in_range(5, 61):
        ctx = make_context(p, 2)
        for part in ("i", "ii"):
            for u in range(p):
                try:
                    r = check(f"thm2.4{part}", ctx, u=u)
                except ExcludedValue:
                    continue
                assert r["status"] != "FAILED", (p, part, u, r["residues"])
                checked += 1
    _announce(5, f"thm2.4(i)+(ii): exhaustive u sweeps, 3 < p <= 61, {checked} checks, "
                 f"zero failed implications ({time.perf_counter() - t0:.1f}s)")


def test_criterion_06_corollary_2_3_classes():
    t0 = time.perf_counter()
    first = second = 0
    primes = primes_in_range(5, 1999)
    reports = fixed_records("cor2.3", primes)
    for p, r1458, r3375 in zip(primes, reports[::2], reports[1::2]):
        if p % 6 == 5:
            assert r1458["status"] == "verified" and r1458["residues"]["sum_mod_p2"] == 0, p
            first += 1
        if p % 15 in (11, 14):
            assert r3375["status"] == "verified" and r3375["residues"]["sum_mod_p2"] == 0, p
            second += 1
    _announce(6, f"cor2.3: 1458-sum 0 mod p^2 at {first} primes (5 mod 6), "
                 f"3375-sum 0 at {second} primes (11,14 mod 15), p < 2000 "
                 f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_07_identity_1_3_random_m():
    t0 = time.perf_counter()
    rng = random.Random(13)
    checked = 0
    for p in primes_in_range(5, 499):
        ctx = make_context(p, 2)
        done = 0
        while done < 20:
            num = rng.randint(-10**4, 10**4)
            den = rng.randint(1, 30)
            if num == 0 or num % p == 0 or den % p == 0:
                continue
            r = check("eq1.3", ctx, m=Fraction(num, den))
            assert r["status"] == "verified", (p, num, den, r["residues"])
            done += 1
        checked += done
    _announce(7, f"eq1.3: cube-family sum equals squared Legendre value mod p^2 for "
                 f"{checked} random m over 3 < p < 500 ({time.perf_counter() - t0:.1f}s)")


def test_criterion_08a_lemma_2_2_identity_and_certificate():
    t0 = time.perf_counter()
    assert lemma_2_2_check(40) is None
    _announce(8, f"oracle lemma2.2: polynomial identity and recurrence certificate "
                 f"exact for all n <= 40 ({time.perf_counter() - t0:.1f}s)")


def test_criterion_08b_lemma_2_1_exact():
    t0 = time.perf_counter()
    for n in range(31):
        assert lemma_2_1_exact_check(n), n
    _announce(8, f"oracle lemma2.1: squared-value expansion exact for all n <= 30 "
                 f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_08c_identity_1_7_exact():
    t0 = time.perf_counter()
    for k in range(201):
        assert identity_1_7_check(k), k
    _announce(8, f"oracle eq1.7: all four dictionary equalities exact for k <= 200 "
                 f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_08d_modular_vs_exact_equivalence():
    t0 = time.perf_counter()
    compared = 0
    for p in primes_in_range(3, 97):
        for e in (1, 2, 3):
            ctx = make_context(p, e)
            for x in GRID_X:
                if x.denominator % p == 0:
                    continue
                for f in FamilyTag:
                    assert family_sum(f, x, ctx) == exact_reduce_sum(0, x, ctx, f).value
                    compared += 1
                for a in GRID_A:
                    if a.denominator % p == 0:
                        continue
                    assert core_sum(a, x, ctx) == exact_reduce_sum(a, x, ctx, "core").value
                    assert plain_sum(a, x, ctx) == exact_reduce_sum(a, x, ctx, "plain").value
                    compared += 2
    _announce(8, f"oracle reduce-equivalence: {compared} modular values match exact "
                 f"rational reduction, p <= 97, e in {{1,2,3}} "
                 f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_09_family_dictionary():
    t0 = time.perf_counter()
    rng = random.Random(1707)
    for f in FamilyTag:
        # the core route needs a_f in Z_p, so p must not divide its denominator
        usable = [p for p in primes_in_range(3, 199) if f.a.denominator % p]
        for _ in range(50):
            p = rng.choice(usable)
            e = rng.choice((1, 2, 3))
            ctx = make_context(p, e)
            dens = [d for d in range(1, 12) if d % p]
            x = Fraction(rng.randint(-40, 40), rng.choice(dens))
            assert family_sum(f, x, ctx) == core_sum(f.a, f.scale * x, ctx), (f, p, e, x)
    _announce(9, f"dictionary: family_sum == core_sum via the (a, scale) map, "
                 f"4 families x 50 random (x, p, e) ({time.perf_counter() - t0:.1f}s)")


def test_criterion_10_remark_2_3_exploration():
    t0 = time.perf_counter()
    sums = run_exploration(primes_in_range(5, 999))
    reports = fixed_records("remark2.3", [p for p, _ in sums])
    assert [(r["p"], r["residues"]["sum_mod_p3"]) for r in reports] == sums
    assert all(r["e"] == 3 and "sum_mod_p3" in r["residues"] for r in reports)
    vanishing = [r for r in reports if r["residues"]["sum_mod_p3"] == 0]
    surfaced = [r for r in reports if r["residues"]["sum_mod_p3"] != 0]
    for r in surfaced:  # prominent, but never a failure: conjecture status
        print(f"\n*** REMARK 2.3 NON-VANISHING at p={r['p']}: "
              f"residue {r['residues']['sum_mod_p3']} mod {r['p']}^3 ***")
        warnings.warn(f"remark2.3 non-vanishing at p={r['p']}")
    _announce(10, f"remark2.3: {len(vanishing)}/{len(reports)} residues vanish mod p^3 "
                  f"for p = 5 mod 6, p < 1000 (recorded, not asserted) "
                  f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_11_performance_soft_full_sweep():
    primes = primes_in_range(3, 10**5 - 1)
    t0 = time.perf_counter()
    f = FamilyTag.TWO_THREE  # at x = 1/1458
    [sums] = hyper_sums([(f.const, 1458, f.factors, 3)], primes, 2)
    wall = time.perf_counter() - t0
    # 1458 = 2 * 3^6: every prime but 3 has a residue
    assert [p for p, r in zip(primes, sums) if r is not None] == [p for p in primes if p != 3]
    # free correctness at scale: the 5 mod 6 class must vanish (cor2.3)
    for p, residue in zip(primes, sums):
        if p % 6 == 5:
            assert residue == 0, (p, residue)
    # one pass in this process: the wall itself is held to the budget
    detail = (f"full two_three sweep at e=2 over {len(primes)} primes < 1e5: "
              f"{wall:.1f}s wall in one process (budget 300s, soft)")
    if wall > 300:
        warnings.warn("soft performance budget exceeded: " + detail)
        print(f"\nACCEPTANCE 11: SOFT-FAIL -- {detail}")
    else:
        _announce(11, detail)

"""Truncated binomial-product sums over Z/p^e and the congruence checkers.

Every sum is a term-ratio spec (constant, linear factors in k, power of k in
the denominator, last index) evaluated at one reduced x by its context's
``series``: on a plain :class:`~supercong.modring.PrimeContext` that is one
streaming :func:`~supercong.modring.hyper_sum`, on a
:class:`~supercong.modring.GridContext` a dot product of the spec's cached
coefficient row with x's cached power row.  A family sum at a fixed x runs
on :func:`~supercong.modring.hyper_sums` for a whole prime list at once.

Checkers take integer parameters without a Fraction round trip, reduce
every parameter once, and wrap the sums into plain dict records whose status
follows one fixed rule (:func:`_report`); explicit parameters and grid
points go through the same checker, on the two kinds of context.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import comb
from typing import Dict, Iterable, List, Tuple

from .errors import (
    BadExponent,
    ExcludedU,
    RangeError,
    WrongResidueClass,
    ZeroM,
)
from .legendre import legendre_square_spec
from .modring import (
    PrimeContext,
    Rational,
    ResidueZ,
    Spec,
    ap_of,
    hyper_sums,
    reduce_rational,
)


class FamilyTag(enum.Enum):
    """The four binomial-product families with their parameter dictionary.

    Each family numerator equals C(2k,k) C(a,k) C(-1-a,k) scale^k for its
    (a, scale) pair, which is what makes family_sum(f, x) == core_sum(a_f,
    scale_f * x) a cross-check between two independent computation paths.
    ``const`` and ``factors`` give the term ratio N_f(k) / N_f(k-1) =
    const * prod (s k + r) / k^3, from cancelling the even factorial factors.
    """

    CUBE = ("cube", Fraction(-1, 2), 16, 8, ((2, -1), (2, -1), (2, -1)))
    TWO_THREE = ("two_three", Fraction(-1, 3), 27, 6, ((2, -1), (3, -1), (3, -2)))
    TWO_FOUR = ("two_four", Fraction(-1, 4), 64, 8, ((4, -1), (2, -1), (4, -3)))
    THREE_SIX = ("three_six", Fraction(-1, 6), 432, 8, ((6, -1), (6, -3), (6, -5)))

    def __init__(self, label: str, a: Fraction, scale: int, const: int,
                 factors: Tuple[Tuple[int, int], ...]) -> None:
        self.label = label
        self.a = a
        self.scale = scale
        self.const = const
        self.factors = factors

    def numerator(self, k: int) -> int:
        """Exact integer numerator of the k-th term."""
        if self is FamilyTag.CUBE:
            return comb(2 * k, k) ** 3
        if self is FamilyTag.TWO_THREE:
            return comb(2 * k, k) ** 2 * comb(3 * k, k)
        if self is FamilyTag.TWO_FOUR:
            return comb(2 * k, k) ** 2 * comb(4 * k, 2 * k)
        return comb(2 * k, k) * comb(3 * k, k) * comb(6 * k, 3 * k)


def _residue(q: Rational, ctx: PrimeContext) -> int:
    """q mod p^e; NotPIntegral if p divides its denominator."""
    if isinstance(q, int):
        return q % ctx.modulus
    return reduce_rational(q, ctx).value


def _core_spec(ah: int, p: int) -> Spec:
    """C(2k,k) C(a,k) C(-1-a,k) for a = ah mod p^e: term ratio
    2(2k-1)(a-k+1)(-a-k) / k^3.  At e == 1 the tail k > (p-1)/2 vanishes
    (p | 2k-1 at k = (p+1)/2), and the series stops there."""
    return 2, ((2, -1), (-1, ah + 1), (-1, -ah)), 3, p - 1


def _plain_spec(ah: int, p: int) -> Spec:
    """C(a,k) C(-1-a,k): term ratio (a-k+1)(-a-k) / k^2."""
    return 1, ((-1, ah + 1), (-1, -ah)), 2, p - 1


def _family_spec(f: FamilyTag, p: int) -> Spec:
    """N_f(k) from the family's term ratio.  The p-factors of the numerator
    accumulate in the term numerator, which stays 0 once they reach p^e, so
    the series stops there."""
    return f.const, f.factors, 3, p - 1


def core_sum(a: Rational, x: Rational, ctx: PrimeContext) -> ResidueZ:
    """sum_{k=0}^{p-1} C(2k,k) C(a,k) C(-1-a,k) x^k mod p^e."""
    spec = _core_spec(_residue(a, ctx), ctx.p)
    return ResidueZ(ctx.series(spec, _residue(x, ctx)), ctx)


def plain_sum(a: Rational, x: Rational, ctx: PrimeContext) -> ResidueZ:
    """sum_{k=0}^{p-1} C(a,k) C(-1-a,k) x^k mod p^e."""
    spec = _plain_spec(_residue(a, ctx), ctx.p)
    return ResidueZ(ctx.series(spec, _residue(x, ctx)), ctx)


def family_sum(f: FamilyTag, x: Rational, ctx: PrimeContext) -> ResidueZ:
    """sum_{k=0}^{p-1} N_f(k) x^k mod p^e."""
    return ResidueZ(ctx.series(_family_spec(f, ctx.p), _residue(x, ctx)), ctx)


def family_sums(
    f: FamilyTag, x: Rational, primes: Iterable[int], e: int
) -> Dict[int, int]:
    """:func:`family_sum` at one x for every prime at once: {p: residue}.

    Primes dividing the denominator of x have no residue and are left out.
    """
    x = Fraction(x)
    usable = sorted({p for p in primes if x.denominator % p})
    c = f.const * x
    sums = hyper_sums(c.numerator, c.denominator, f.factors, 3, usable, e)
    return dict(zip(usable, sums))


# ---------------------------------------------------------------------------
# Check reports

def _report(
    theorem: str,
    p: int,
    e: int,
    params: Dict[str, str],
    hypothesis: bool,
    conclusion: bool,
    residues: Dict[str, int],
) -> dict:
    """One checker outcome as a plain record.

    ``status`` is forced by the two booleans: FAILED iff the hypothesis holds
    and the conclusion does not, vacuous iff the hypothesis fails.  Rational
    parameters are serialized as "num/den" strings for lossless round-trips.
    """
    return {
        "theorem": theorem,
        "p": p,
        "e": e,
        "params": params,
        "hypothesis_holds": hypothesis,
        "conclusion_holds": conclusion,
        "residues": residues,
        "status": ("verified" if conclusion else "FAILED") if hypothesis else "vacuous",
    }


def format_rational(q: Rational) -> str:
    if isinstance(q, int):
        return str(q)
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _require_e(ctx: PrimeContext, e: int) -> None:
    if ctx.e != e:
        raise BadExponent(f"this check runs at e == {e}, got context {ctx}")


def _unit_m(m: Rational, ctx: PrimeContext) -> int:
    """m mod p^e, for m a unit mod p: NotPIntegral if p divides its
    denominator, ZeroM if p divides its numerator."""
    mh = _residue(m, ctx)
    if mh % ctx.p == 0:
        raise ZeroM(f"m = {format_rational(m)} vanishes mod {ctx.p}")
    return mh


# ---------------------------------------------------------------------------
# Checkers

def check_theorem_2_1(a: Rational, x: Rational, ctx: PrimeContext) -> dict:
    """Triple congruence mod p: the truncated core sum equals the squared
    Legendre value at sqrt(1-4x) for both the index <a>_p and its mirror."""
    _require_e(ctx, 1)
    p = ctx.p
    n = ap_of(a, ctx)
    xh = _residue(x, ctx)
    s = ctx.series(_core_spec(n, p), xh)
    r1 = ctx.series(legendre_square_spec(n, p), -xh)
    r2 = ctx.series(legendre_square_spec(p - 1 - n, p), -xh)
    return _report(
        "thm2.1",
        p,
        1,
        {"a": format_rational(a), "x": format_rational(x)},
        True,
        s == r1 == r2,
        {"sum": s, "legendre_sq": r1, "legendre_sq_mirror": r2},
    )


def check_theorem_2_2(a: Rational, x: Rational, ctx: PrimeContext) -> dict:
    """Squared plain sum against the core sum at x(1-x), mod p^2."""
    _require_e(ctx, 2)
    p, m = ctx.p, ctx.modulus
    ah = _residue(a, ctx)
    xh = _residue(x, ctx)
    lhs = ctx.series(_plain_spec(ah, p), xh) ** 2 % m
    rhs = ctx.series(_core_spec(ah, p), xh * (1 - xh))
    return _report(
        "thm2.2",
        p,
        2,
        {"a": format_rational(a), "x": format_rational(x)},
        True,
        lhs == rhs,
        {"plain_sum_sq": lhs, "core_sum": rhs},
    )


def check_theorem_2_3(a: Rational, m: Rational, ctx: PrimeContext) -> dict:
    """Vanishing mod p of the core sum at 1/m must lift to vanishing mod p^2."""
    _require_e(ctx, 2)
    x = pow(_unit_m(m, ctx), -1, ctx.modulus)
    s = ctx.series(_core_spec(_residue(a, ctx), ctx.p), x)
    hyp = s % ctx.p == 0
    return _report(
        "thm2.3",
        ctx.p,
        2,
        {"a": format_rational(a), "m": format_rational(m)},
        hyp,
        s == 0,
        {"sum_mod_p2": s, "sum_mod_p": s % ctx.p},
    )


def check_corollary_2_2(
    f: FamilyTag, m: Rational, ctx: PrimeContext
) -> dict:
    """The mod-p to mod-p^2 lift for one binomial-product family at 1/m."""
    _require_e(ctx, 2)
    x = pow(_unit_m(m, ctx), -1, ctx.modulus)
    s = ctx.series(_family_spec(f, ctx.p), x)
    hyp = s % ctx.p == 0
    return _report(
        "cor2.2",
        ctx.p,
        2,
        {"family": f.label, "m": format_rational(m)},
        hyp,
        s == 0,
        {"sum_mod_p2": s, "sum_mod_p": s % ctx.p},
    )


_EXCLUDED_U = {
    "i": (Fraction(1, 4), Fraction(1, 16)),
    "ii": (Fraction(-1, 3), Fraction(-1, 27)),
}


def excluded_u(part: str, p: int) -> Dict[int, Fraction]:
    """The classes of u mod p that part ``part`` of thm2.4 excludes, each
    with the first value it stands for.  A value with p in its denominator
    has no class mod p."""
    out: Dict[int, Fraction] = {}
    for r in _EXCLUDED_U[part]:
        if r.denominator % p:
            out.setdefault(r.numerator * pow(r.denominator, -1, p) % p, r)
    return out


def check_theorem_2_4(part: str, u: Rational, ctx: PrimeContext) -> dict:
    """The two rational-argument implications between family sums.

    Part i: vanishing mod p at u^2/(1-4u)^3 forces vanishing mod p^2 at
    -u/(1-16u)^3 (family C(2k,k)^2 C(3k,k)), for u outside {1/4, 1/16} mod p.
    Part ii: same with C(2k,k)^2 C(4k,2k), arguments u^3/(1+3u)^4 and
    u/(1+27u)^4, excluding u in {-1/3, -1/27} mod p.  Outside the excluded
    classes every denominator of the two arguments is a unit mod p.
    """
    _require_e(ctx, 2)
    if part not in _EXCLUDED_U:
        raise ValueError(f"part must be 'i' or 'ii', got {part!r}")
    p, m = ctx.p, ctx.modulus
    uh = _residue(u, ctx)
    r = excluded_u(part, p).get(uh % p)
    if r is not None:
        raise ExcludedU(f"u = {format_rational(u)} is congruent to {r} mod {p}")
    if part == "i":
        tag = FamilyTag.TWO_THREE
        hyp_x = uh**2 * pow(1 - 4 * uh, -3, m)
        con_x = -uh * pow(1 - 16 * uh, -3, m)
    else:
        tag = FamilyTag.TWO_FOUR
        hyp_x = uh**3 * pow(1 + 3 * uh, -4, m)
        con_x = uh * pow(1 + 27 * uh, -4, m)
    hyp_val = ctx.series(_family_spec(tag, p), hyp_x) % p
    con_val = ctx.series(_family_spec(tag, p), con_x)
    return _report(
        f"thm2.4{part}",
        p,
        2,
        {"u": format_rational(u)},
        hyp_val == 0,
        con_val == 0,
        {"hypothesis_sum_mod_p": hyp_val, "conclusion_sum_mod_p2": con_val},
    )


def _above_3(primes: Iterable[int]) -> List[int]:
    primes = list(primes)
    if any(p <= 3 for p in primes):
        raise RangeError("stated for p > 3")
    return primes


def check_rodriguez_villegas(primes: Iterable[int]) -> List[dict]:
    """The three residue-class zero congruences mod p^2, for every prime.

    C(2k,k)^2 C(3k,k)/108^k for p = 2 mod 3; C(2k,k)^2 C(4k,2k)/256^k for
    p = 5, 7 mod 8; C(2k,k) C(3k,k) C(6k,3k)/1728^k for p = 3 mod 4.  The sum
    is evaluated for every prime; out-of-class instances come back vacuous.
    Reports run prime by prime, three per prime.
    """
    primes = _above_3(primes)
    cases = (
        (FamilyTag.TWO_THREE, 108, lambda p: p % 3 == 2),
        (FamilyTag.TWO_FOUR, 256, lambda p: p % 8 in (5, 7)),
        (FamilyTag.THREE_SIX, 1728, lambda p: p % 4 == 3),
    )
    sums = [family_sums(tag, Fraction(1, scale), primes, 2) for tag, scale, _ in cases]
    return [
        _report(
            "eq1.2",
            p,
            2,
            {"family": tag.label, "x": f"1/{scale}"},
            in_class(p),
            s[p] == 0,
            {"sum_mod_p2": s[p]},
        )
        for p in primes
        for (tag, scale, in_class), s in zip(cases, sums)
    ]


def check_corollary_2_3(primes: Iterable[int]) -> List[dict]:
    """The two derived zero congruences for the C(2k,k)^2 C(3k,k) family:
    1/1458 vanishes mod p^2 when p = 5 mod 6, 1/3375 when p = 11, 14 mod 15.
    Two reports per prime, in that order."""
    primes = _above_3(primes)
    cases = ((1458, lambda p: p % 6 == 5), (3375, lambda p: p % 15 in (11, 14)))
    sums = [family_sums(FamilyTag.TWO_THREE, Fraction(1, scale), primes, 2)
            for scale, _ in cases]
    out = []
    for p in primes:
        for (scale, in_class), s in zip(cases, sums):
            params = {"family": FamilyTag.TWO_THREE.label, "x": f"1/{scale}"}
            if p not in s:  # 1/scale not p-integral; never in class then
                out.append(_report("cor2.3", p, 2, params, False, True, {}))
            else:
                out.append(_report("cor2.3", p, 2, params, in_class(p), s[p] == 0,
                                   {"sum_mod_p2": s[p]}))
    return out


def check_identity_1_3(m: Rational, ctx: PrimeContext) -> dict:
    """C(2k,k)^3/m^k summed mod p^2 against the squared Legendre value
    P_{(p-1)/2}(sqrt(1-64/m))^2."""
    _require_e(ctx, 2)
    p = ctx.p
    if p <= 3:
        raise RangeError("stated for p > 3")
    x = pow(_unit_m(m, ctx), -1, ctx.modulus)
    lhs = ctx.series(_family_spec(FamilyTag.CUBE, p), x)
    rhs = ctx.series(legendre_square_spec((p - 1) // 2, p), -16 * x)
    return _report(
        "eq1.3",
        p,
        2,
        {"m": format_rational(m)},
        True,
        lhs == rhs,
        {"family_sum": lhs, "legendre_sq": rhs},
    )


def explore_remark_2_3(primes: Iterable[int]) -> List[dict]:
    """Evaluate the 1/1458 family sum mod p^3 for primes p = 5 mod 6 and
    record whether it vanishes, one report per prime.  Conjecture-grade:
    callers surface non-vanishing records but never turn them into failures."""
    primes = list(primes)
    for p in primes:
        if p % 6 != 5:
            raise WrongResidueClass(f"p = {p} is not 5 mod 6")
    sums = family_sums(FamilyTag.TWO_THREE, Fraction(1, 1458), primes, 3)
    return [
        _report(
            "remark2.3",
            p,
            3,
            {"family": FamilyTag.TWO_THREE.label, "x": "1/1458"},
            True,
            sums[p] == 0,
            {"sum_mod_p3": sums[p]},
        )
        for p in primes
    ]

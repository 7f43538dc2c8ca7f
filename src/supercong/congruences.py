"""Truncated binomial-product sums over Z/p^e and the congruence checkers.

Every sum is a term-ratio spec (constant, linear factors in k, power of k in
the denominator, last index) evaluated at one reduced x by its context's
``series``: on a plain :class:`~supercong.modring.PrimeContext` that is one
streaming :func:`~supercong.modring.hyper_sum`, on a
:class:`~supercong.modring.GridContext` a dot product of the spec's cached
coefficient row with x's cached power row.  A family sum at a fixed x runs
on :func:`~supercong.modring.hyper_sums` for a whole prime list at once.

One table, :data:`STATEMENTS`, states each statement once: its exponent,
smallest prime, parameters with their excluded values, checker and, for a
statement at fixed arguments, its cases.  Everything else reads its row:
:func:`applies`, the one rule for a parameter at a prime; :func:`_require`,
the checkers' guard on the context; and :func:`_report`, which wraps the
sums into plain dict records whose status follows one fixed rule.
Checkers take integer parameters without a Fraction round trip and reduce
every parameter once; explicit parameters and grid points go through the
same checker, on the two kinds of context.  thm2.3 and cor2.2 share one
lift check, and one evaluator builds the records of eq1.2, cor2.3 and
remark 2.3 from their cases.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import comb
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .errors import BadExponent, ExcludedU, RangeError, ZeroM
from .legendre import legendre_square_spec
from .modring import (
    PrimeContext,
    Rational,
    Spec,
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
    return reduce_rational(q, ctx)


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


def core_sum(a: Rational, x: Rational, ctx: PrimeContext) -> int:
    """sum_{k=0}^{p-1} C(2k,k) C(a,k) C(-1-a,k) x^k mod p^e."""
    return ctx.series(_core_spec(_residue(a, ctx), ctx.p), _residue(x, ctx))


def plain_sum(a: Rational, x: Rational, ctx: PrimeContext) -> int:
    """sum_{k=0}^{p-1} C(a,k) C(-1-a,k) x^k mod p^e."""
    return ctx.series(_plain_spec(_residue(a, ctx), ctx.p), _residue(x, ctx))


def family_sum(f: FamilyTag, x: Rational, ctx: PrimeContext) -> int:
    """sum_{k=0}^{p-1} N_f(k) x^k mod p^e."""
    return ctx.series(_family_spec(f, ctx.p), _residue(x, ctx))


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
    params: Dict[str, str],
    hypothesis: bool,
    conclusion: bool,
    residues: Dict[str, int],
) -> dict:
    """One checker outcome as a plain record, at the statement's e.

    ``status`` is forced by the two booleans: FAILED iff the hypothesis holds
    and the conclusion does not, vacuous iff the hypothesis fails.  Rational
    parameters are serialized as "num/den" strings for lossless round-trips.
    """
    return {
        "theorem": theorem,
        "p": p,
        "e": STATEMENTS[theorem].e,
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


def _require(theorem: str, ctx: PrimeContext) -> None:
    """BadExponent unless ctx has the statement's e; RangeError below its
    smallest prime."""
    row = STATEMENTS[theorem]
    if ctx.e != row.e:
        raise BadExponent(f"this check runs at e == {row.e}, got context {ctx}")
    if ctx.p < row.min_p:
        raise RangeError(f"stated for p >= {row.min_p}")


# ---------------------------------------------------------------------------
# Statements

class Statement(NamedTuple):
    """One statement: a ``check`` id, or remark2.3.

    Its records have exponent ``e``, and it covers the primes p >= ``min_p``.
    ``params`` maps each parameter, in CLI order, to the values it excludes,
    and ``check(ctx, *params)`` gives the records at one parameter tuple.  A
    statement at fixed arguments has no ``params`` but ``cases`` (family,
    scale, modulus, classes), each claiming that the family sum at x =
    1/scale vanishes mod p^e for p mod modulus in classes; its
    ``check(primes)`` gives the records for a whole prime list in one pass.
    ``check`` looks up ``check_*`` on this module at call time, so rebinding
    one reaches its row.
    """

    e: int
    min_p: int
    params: Dict[str, Tuple[Fraction, ...]]
    check: Callable[..., List[dict]]
    cases: Tuple[Tuple[FamilyTag, int, int, Tuple[int, ...]], ...] = ()


# The paper's p ∤ m, and the u at which a thm2.4 argument has p in its denominator.
_M = {"m": (Fraction(0),)}
_X_1458 = (FamilyTag.TWO_THREE, 1458, 6, (5,))
STATEMENTS: Dict[str, Statement] = {
    "thm2.1": Statement(1, 3, {"a": (), "x": ()},
                        lambda ctx, a, x: [check_theorem_2_1(a, x, ctx)]),
    "thm2.2": Statement(2, 3, {"a": (), "x": ()},
                        lambda ctx, a, x: [check_theorem_2_2(a, x, ctx)]),
    "thm2.3": Statement(2, 3, {"a": (), **_M}, lambda ctx, a, m: [check_theorem_2_3(a, m, ctx)]),
    "thm2.4i": Statement(2, 3, {"u": (Fraction(1, 4), Fraction(1, 16))},
                         lambda ctx, u: [check_theorem_2_4("i", u, ctx)]),
    "thm2.4ii": Statement(2, 3, {"u": (Fraction(-1, 3), Fraction(-1, 27))},
                          lambda ctx, u: [check_theorem_2_4("ii", u, ctx)]),
    "cor2.2": Statement(2, 3, _M, lambda ctx, m: [check_corollary_2_2(f, m, ctx)
                                                  for f in FamilyTag]),
    "cor2.3": Statement(2, 5, {}, lambda primes: check_corollary_2_3(primes),
                        (_X_1458, (FamilyTag.TWO_THREE, 3375, 15, (11, 14)))),
    # Rodriguez-Villegas's three residue-class zero congruences
    "eq1.2": Statement(2, 5, {}, lambda primes: check_rodriguez_villegas(primes),
                       ((FamilyTag.TWO_THREE, 108, 3, (2,)),
                        (FamilyTag.TWO_FOUR, 256, 8, (5, 7)),
                        (FamilyTag.THREE_SIX, 1728, 4, (3,)))),
    "eq1.3": Statement(2, 5, _M, lambda ctx, m: [check_identity_1_3(m, ctx)]),
    "remark2.3": Statement(3, 5, {}, lambda primes: explore_remark_2_3(primes), (_X_1458,)),
}


def _excluded_class(theorem: str, name: str, q: Rational, p: int) -> Optional[Fraction]:
    """The first excluded value of ``name`` congruent to the p-integral q mod
    p, or None.  No q is congruent to a value with p in its denominator."""
    n, d = q.numerator, q.denominator
    for r in STATEMENTS[theorem].params[name]:
        if (n * r.denominator - r.numerator * d) % p == 0:
            return r
    return None


def applies(theorem: str, name: str, q: Rational, p: int) -> bool:
    """The one rule for a parameter at a prime: ``name`` = q applies at p iff
    p does not divide its denominator and it is in no excluded class."""
    return q.denominator % p != 0 and _excluded_class(theorem, name, q, p) is None


def inapplicable(theorem: str, p: int, params: Dict[str, Rational]) -> Optional[dict]:
    """The vacuous record, with no residues, of explicit ``params`` at a
    prime where one of them does not apply; None where all apply."""
    if all(applies(theorem, n, q, p) for n, q in params.items()):
        return None
    return _report(theorem, p, {n: format_rational(q) for n, q in params.items()},
                   False, True, {})


def _admitted(theorem: str, name: str, q: Rational, ctx: PrimeContext) -> int:
    """Parameter ``name`` = q mod p^e: NotPIntegral if p divides its
    denominator, ZeroM (m) or ExcludedU (u) if it is in an excluded class."""
    qh = _residue(q, ctx)
    r = _excluded_class(theorem, name, qh, ctx.p)
    if r is not None:
        raise (ZeroM if name == "m" else ExcludedU)(
            f"{name} = {format_rational(q)} is congruent to {format_rational(r)} mod {ctx.p}")
    return qh


# ---------------------------------------------------------------------------
# Checkers

def check_theorem_2_1(a: Rational, x: Rational, ctx: PrimeContext) -> dict:
    """Triple congruence mod p: the truncated core sum equals the squared
    Legendre value at sqrt(1-4x) for both the index <a>_p and its mirror."""
    _require("thm2.1", ctx)
    p = ctx.p
    n = _residue(a, ctx)
    xh = _residue(x, ctx)
    s = ctx.series(_core_spec(n, p), xh)
    r1 = ctx.series(legendre_square_spec(n, p), -xh)
    r2 = ctx.series(legendre_square_spec(p - 1 - n, p), -xh)
    return _report(
        "thm2.1",
        p,
        {"a": format_rational(a), "x": format_rational(x)},
        True,
        s == r1 == r2,
        {"sum": s, "legendre_sq": r1, "legendre_sq_mirror": r2},
    )


def check_theorem_2_2(a: Rational, x: Rational, ctx: PrimeContext) -> dict:
    """Squared plain sum against the core sum at x(1-x), mod p^2."""
    _require("thm2.2", ctx)
    p, m = ctx.p, ctx.modulus
    ah = _residue(a, ctx)
    xh = _residue(x, ctx)
    lhs = ctx.series(_plain_spec(ah, p), xh) ** 2 % m
    rhs = ctx.series(_core_spec(ah, p), xh * (1 - xh))
    return _report(
        "thm2.2",
        p,
        {"a": format_rational(a), "x": format_rational(x)},
        True,
        lhs == rhs,
        {"plain_sum_sq": lhs, "core_sum": rhs},
    )


def _lift(theorem: str, params: Dict[str, str], spec: Callable[[], Spec],
          m: Rational, ctx: PrimeContext) -> dict:
    """The abstract's lift at 1/m for the series ``spec()``, built once m has
    passed its checks: vanishing mod p must lift to vanishing mod p^2."""
    _require(theorem, ctx)
    x = pow(_admitted(theorem, "m", m, ctx), -1, ctx.modulus)
    s = ctx.series(spec(), x)
    return _report(theorem, ctx.p, params, s % ctx.p == 0, s == 0,
                   {"sum_mod_p2": s, "sum_mod_p": s % ctx.p})


def check_theorem_2_3(a: Rational, m: Rational, ctx: PrimeContext) -> dict:
    """The core sum at 1/m: vanishing mod p lifts to mod p^2."""
    return _lift("thm2.3", {"a": format_rational(a), "m": format_rational(m)},
                 lambda: _core_spec(_residue(a, ctx), ctx.p), m, ctx)


def check_corollary_2_2(f: FamilyTag, m: Rational, ctx: PrimeContext) -> dict:
    """The same lift for one binomial-product family at 1/m."""
    return _lift("cor2.2", {"family": f.label, "m": format_rational(m)},
                 lambda: _family_spec(f, ctx.p), m, ctx)


def check_theorem_2_4(part: str, u: Rational, ctx: PrimeContext) -> dict:
    """The two rational-argument implications between family sums.

    Part i: vanishing mod p at u^2/(1-4u)^3 forces vanishing mod p^2 at
    -u/(1-16u)^3 (family C(2k,k)^2 C(3k,k)).  Part ii: same with
    C(2k,k)^2 C(4k,2k), arguments u^3/(1+3u)^4 and u/(1+27u)^4.  Outside
    the classes of u that each part's row of :data:`STATEMENTS` excludes,
    every denominator of the two arguments is a unit mod p.
    """
    if part not in ("i", "ii"):
        raise ValueError(f"part must be 'i' or 'ii', got {part!r}")
    theorem = f"thm2.4{part}"
    _require(theorem, ctx)
    p, m = ctx.p, ctx.modulus
    uh = _admitted(theorem, "u", u, ctx)
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
        theorem,
        p,
        {"u": format_rational(u)},
        hyp_val == 0,
        con_val == 0,
        {"hypothesis_sum_mod_p": hyp_val, "conclusion_sum_mod_p2": con_val},
    )


def check_identity_1_3(m: Rational, ctx: PrimeContext) -> dict:
    """C(2k,k)^3/m^k summed mod p^2 against the squared Legendre value
    P_{(p-1)/2}(sqrt(1-64/m))^2."""
    _require("eq1.3", ctx)
    p = ctx.p
    x = pow(_admitted("eq1.3", "m", m, ctx), -1, ctx.modulus)
    lhs = ctx.series(_family_spec(FamilyTag.CUBE, p), x)
    rhs = ctx.series(legendre_square_spec((p - 1) // 2, p), -16 * x)
    return _report(
        "eq1.3",
        p,
        {"m": format_rational(m)},
        True,
        lhs == rhs,
        {"family_sum": lhs, "legendre_sq": rhs},
    )


# ---------------------------------------------------------------------------
# Statements at fixed arguments

def _fixed_argument(theorem: str, primes: Iterable[int]) -> List[dict]:
    """A statement's records, per prime in list order and per case in table
    order, from one :func:`family_sums` pass per case.  A prime dividing the
    scale gets a vacuous record with no residues; at any other, the class
    test is the hypothesis and "the sum vanishes mod p^e" the conclusion."""
    row = STATEMENTS[theorem]
    primes = list(primes)
    if any(p < row.min_p for p in primes):
        raise RangeError(f"stated for p >= {row.min_p}")
    sums = [family_sums(f, Fraction(1, scale), primes, row.e) for f, scale, _, _ in row.cases]
    return [
        _report(theorem, p, {"family": f.label, "x": f"1/{scale}"},
                *((p % mod in classes, s[p] == 0, {f"sum_mod_p{row.e}": s[p]}) if p in s
                  else (False, True, {})))
        for p in primes for (f, scale, mod, classes), s in zip(row.cases, sums)
    ]


def check_rodriguez_villegas(primes: Iterable[int]) -> List[dict]:
    """eq1.2 over a prime list: three records per prime."""
    return _fixed_argument("eq1.2", primes)


def check_corollary_2_3(primes: Iterable[int]) -> List[dict]:
    """cor2.3 over a prime list: two records per prime."""
    return _fixed_argument("cor2.3", primes)


def explore_remark_2_3(primes: Iterable[int]) -> List[dict]:
    """remark2.3 over a prime list: one record per prime, vacuous outside its
    class."""
    return _fixed_argument("remark2.3", primes)

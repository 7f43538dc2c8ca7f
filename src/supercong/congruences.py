"""Truncated binomial-product sums over Z/p^e and the congruence checkers.

Every sum is a term-ratio spec (constant, linear factors in k, power of k in
the denominator, last index) evaluated by
:meth:`~supercong.modring.PrimeContext.series`: the spec's coefficient row,
built once per context, evaluated at a whole vector of reduced x at once.
A family sum at a fixed x runs on :func:`~supercong.modring.hyper_sums` for
a whole prime list at once.

One table, :data:`STATEMENTS`, states each statement once: its exponent,
smallest prime, parameters with their excluded values and either, for a
statement with parameters, its :class:`Series` (which series it sums at
which arguments, and its verdict on the sums), or, for a statement at fixed
arguments, its cases and checker.  Everything else reads its row:
:func:`applies`, the one rule for a parameter at a prime; :func:`_require`,
the checkers' guard on the context; :func:`points`, which sums a
statement's grid at one prime, each distinct series once at its whole
argument vector, and yields it row by row, each row as columns that the
statement's verdict computes from columns of sums; and :func:`_report`,
which wraps a point into a plain dict record whose status follows one fixed
rule, :data:`STATUS`.  A checker is the grid of one point, so explicit
parameters, grids and checker calls share one path.  One evaluator builds
the records of eq1.2, cor2.3 and remark 2.3 from their cases.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import comb
from operator import eq, not_
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .errors import BadExponent, ExcludedValue, RangeError
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
    [[s]] = ctx.series([_core_spec(_residue(a, ctx), ctx.p)], [_residue(x, ctx)])
    return s


def plain_sum(a: Rational, x: Rational, ctx: PrimeContext) -> int:
    """sum_{k=0}^{p-1} C(a,k) C(-1-a,k) x^k mod p^e."""
    [[s]] = ctx.series([_plain_spec(_residue(a, ctx), ctx.p)], [_residue(x, ctx)])
    return s


def family_sum(f: FamilyTag, x: Rational, ctx: PrimeContext) -> int:
    """sum_{k=0}^{p-1} N_f(k) x^k mod p^e."""
    [[s]] = ctx.series([_family_spec(f, ctx.p)], [_residue(x, ctx)])
    return s


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

# A record's status, STATUS[hypothesis][conclusion]: FAILED iff the
# hypothesis holds and the conclusion does not, vacuous iff the hypothesis
# fails.
STATUS = (("vacuous", "vacuous"), ("FAILED", "verified"))


def _report(
    theorem: str,
    p: int,
    params: Dict[str, str],
    hypothesis: bool,
    conclusion: bool,
    residues: Dict[str, int],
) -> dict:
    """One checker outcome as a plain record, at the statement's e, with the
    status :data:`STATUS` gives its two booleans.  Rational parameters are
    serialized as "num/den" strings for lossless round-trips.
    """
    return {
        "theorem": theorem,
        "p": p,
        "e": STATEMENTS[theorem].e,
        "params": params,
        "hypothesis_holds": hypothesis,
        "conclusion_holds": conclusion,
        "residues": residues,
        "status": STATUS[hypothesis][conclusion],
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

# One value of an axis: its string form in records, and the residue mod p^e
# (a FamilyTag on the family axis) that the series read.
AxisValue = Tuple[str, object]
# One point of a grid: its parameter strings, hypothesis, conclusion and
# residues, the names of both in the order record_names gives.
Point = Tuple[Tuple[str, ...], bool, bool, Tuple[int, ...]]
# A grid row, a spec-axis value at every argument: its spec-axis strings (none
# without that axis), then Columns in argument-axis order: hypotheses,
# conclusions and one column per residue.
Columns = Tuple[List[bool], List[bool], Tuple[Sequence[int], ...]]
Row = Tuple[Tuple[str, ...], List[bool], List[bool], Tuple[Sequence[int], ...]]


class Series(NamedTuple):
    """What a statement with parameters sums at one prime, and its verdict.

    The statement's last parameter is its argument axis (x, m or u).
    ``spec`` names its spec axis: "a", or "family", whose values ``values``
    holds by label; or it is None, and the one value is None.  At a
    spec-axis value v and an argument residue r the statement sums the
    series ``specs(v, p)[i]`` at ``args(r, p^e)[i]`` for each i.  Over a
    row, ``verdict(sums, p, p^e)`` takes one column of sums per i and gives
    the columns of hypotheses, conclusions and residues, the residues in
    the order of the names ``residues``.
    """

    spec: Optional[str]
    specs: Callable[[object, int], Tuple[Spec, ...]]
    args: Callable[[int, int], Tuple[int, ...]]
    verdict: Callable[[Sequence[Sequence[int]], int, int], Columns]
    residues: Tuple[str, ...]
    values: Tuple[AxisValue, ...] = (("", None),)


class Statement(NamedTuple):
    """One statement: a ``check`` id, or remark2.3.

    Its records have exponent ``e``, and it covers the primes p >= ``min_p``.
    ``params`` maps each parameter, in CLI order, to the values it excludes,
    and ``series`` states what the statement sums at one prime and its
    verdict.  A statement at fixed arguments has no ``params`` but ``cases``
    (family, scale, modulus, classes), each claiming that the family sum at
    x = 1/scale vanishes mod p^e for p mod modulus in classes; its
    ``check(primes)`` gives the records for a whole prime list in one pass.
    ``check`` looks up ``check_*`` on this module at call time, so rebinding
    one reaches its row.
    """

    e: int
    min_p: int
    params: Dict[str, Tuple[Fraction, ...]]
    check: Optional[Callable[[List[int]], List[dict]]] = None
    cases: Tuple[Tuple[FamilyTag, int, int, Tuple[int, ...]], ...] = ()
    series: Optional[Series] = None


def _inverse(r: int, mod: int) -> Tuple[int]:
    """The argument 1/m at the residue r of m."""
    return (pow(r, -1, mod),)


def _lift(sums: Sequence[Sequence[int]], p: int, mod: int) -> Columns:
    """The abstract's lift: vanishing mod p must lift to vanishing mod p^2."""
    [s] = sums
    low = list(map(p.__rmod__, s))
    return list(map(not_, low)), list(map(not_, s)), (s, low)


def _implication(sums: Sequence[Sequence[int]], p: int, mod: int) -> Columns:
    """thm2.4: the first sum vanishing mod p forces the second to vanish mod
    p^2."""
    h, c = sums
    low = list(map(p.__rmod__, h))
    return list(map(not_, low)), list(map(not_, c)), (low, c)


def _squared_plain_sum(sums: Sequence[Sequence[int]], p: int, mod: int) -> Columns:
    """thm2.2: the squared plain sum equals the core sum."""
    plain, core = sums
    square = [v * v % mod for v in plain]
    return [True] * len(core), list(map(eq, square, core)), (square, core)


def _equal(sums: Sequence[Sequence[int]], p: int, mod: int) -> Columns:
    """An identity: every sum is the same residue."""
    first, *rest = sums
    same = list(map(all, zip(*[map(eq, first, other) for other in rest])))
    return [True] * len(first), same, sums


# The paper's p ∤ m, and the u at which a thm2.4 argument has p in its denominator.
_M = {"m": (Fraction(0),)}
_LIFT = ("sum_mod_p2", "sum_mod_p")
_IMPLICATION = ("hypothesis_sum_mod_p", "conclusion_sum_mod_p2")
_X_1458 = (FamilyTag.TWO_THREE, 1458, 6, (5,))
STATEMENTS: Dict[str, Statement] = {
    # core sum at x; P_<a>(sqrt(1-4x))^2 and its mirror index at x
    "thm2.1": Statement(
        1, 3, {"a": (), "x": ()},
        series=Series("a", lambda n, p: (_core_spec(n, p), legendre_square_spec(n, p),
                                         legendre_square_spec(p - 1 - n, p)),
                      lambda x, mod: (x, -x, -x), _equal,
                      ("sum", "legendre_sq", "legendre_sq_mirror"))),
    # plain sum at x, core sum at x(1-x)
    "thm2.2": Statement(
        2, 3, {"a": (), "x": ()},
        series=Series("a", lambda a, p: (_plain_spec(a, p), _core_spec(a, p)),
                      lambda x, mod: (x, x * (1 - x)), _squared_plain_sum,
                      ("plain_sum_sq", "core_sum"))),
    "thm2.3": Statement(
        2, 3, {"a": (), **_M},
        series=Series("a", lambda a, p: (_core_spec(a, p),), _inverse, _lift, _LIFT)),
    "thm2.4i": Statement(
        2, 3, {"u": (Fraction(1, 4), Fraction(1, 16))},
        series=Series(None, lambda _, p: (_family_spec(FamilyTag.TWO_THREE, p),) * 2,
                      lambda u, mod: (u**2 * pow(1 - 4 * u, -3, mod),
                                      -u * pow(1 - 16 * u, -3, mod)),
                      _implication, _IMPLICATION)),
    "thm2.4ii": Statement(
        2, 3, {"u": (Fraction(-1, 3), Fraction(-1, 27))},
        series=Series(None, lambda _, p: (_family_spec(FamilyTag.TWO_FOUR, p),) * 2,
                      lambda u, mod: (u**3 * pow(1 + 3 * u, -4, mod),
                                      u * pow(1 + 27 * u, -4, mod)),
                      _implication, _IMPLICATION)),
    "cor2.2": Statement(
        2, 3, _M,
        series=Series("family", lambda f, p: (_family_spec(f, p),), _inverse, _lift, _LIFT,
                      tuple(sorted((f.label, f) for f in FamilyTag)))),
    "cor2.3": Statement(2, 5, {}, lambda primes: check_corollary_2_3(primes),
                        (_X_1458, (FamilyTag.TWO_THREE, 3375, 15, (11, 14)))),
    # Rodriguez-Villegas's three residue-class zero congruences
    "eq1.2": Statement(2, 5, {}, lambda primes: check_rodriguez_villegas(primes),
                       ((FamilyTag.TWO_THREE, 108, 3, (2,)),
                        (FamilyTag.TWO_FOUR, 256, 8, (5, 7)),
                        (FamilyTag.THREE_SIX, 1728, 4, (3,)))),
    # the cube family at 1/m; P_{(p-1)/2}(sqrt(1-64/m))^2
    "eq1.3": Statement(
        2, 5, _M,
        series=Series(None, lambda _, p: (_family_spec(FamilyTag.CUBE, p),
                                          legendre_square_spec((p - 1) // 2, p)),
                      lambda r, mod: (pow(r, -1, mod), -16 * pow(r, -1, mod)), _equal,
                      ("family_sum", "legendre_sq"))),
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
    denominator, ExcludedValue if it is in an excluded class."""
    qh = _residue(q, ctx)
    r = _excluded_class(theorem, name, qh, ctx.p)
    if r is not None:
        raise ExcludedValue(
            f"{name} = {format_rational(q)} is congruent to {format_rational(r)} mod {ctx.p}")
    return qh


def record_names(theorem: str) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The parameter and residue names of a statement's records, in record
    order: the spec axis, if any, then the argument axis."""
    row = STATEMENTS[theorem]
    *_, arg = row.params
    spec = row.series.spec
    return ((spec, arg) if spec else (arg,)), row.series.residues


def points(theorem: str, ctx: PrimeContext, axes: Dict[str, Sequence[AxisValue]]
           ) -> Iterator[Row]:
    """The rows of a statement's parameter grid at ctx's prime: one per
    spec-axis value, in the order of ``axes``, each with its columns in the
    order of the argument axis.

    ``axes`` holds each parameter's values and may hold the spec axis.  The
    spec-axis name sorts before the argument-axis name in every row, so
    axes sorted by string give report order.  Each distinct series is
    summed once, at its whole argument vector, by one
    :meth:`~supercong.modring.PrimeContext.series` call per vector; a row's
    packed sums are read only when the row is reached.
    """
    row = STATEMENTS[theorem]
    series = row.series
    *_, arg = row.params
    p, mod = ctx.p, ctx.modulus
    spec_axis = axes.get(series.spec, series.values)
    arg_axis = axes[arg]
    if not arg_axis:
        return
    # the argument vector of each series slot; equal vectors share one index
    vectors: Dict[Tuple[int, ...], int] = {}
    slots = [vectors.setdefault(xs, len(vectors))
             for xs in zip(*(series.args(r, mod) for _, r in arg_axis))]
    specs = [series.specs(v, p) for _, v in spec_axis]
    wanted: List[Dict[Spec, None]] = [{} for _ in vectors]
    for row_specs in specs:
        for spec, j in zip(row_specs, slots):
            wanted[j][spec] = None
    sums: Dict[Tuple[Spec, int], Sequence[int]] = {}
    for j, (xs, want) in enumerate(zip(vectors, wanted)):
        sums.update(zip([(spec, j) for spec in want], ctx.series(list(want), xs)))
    verdict = series.verdict
    for (s, _), row_specs in zip(spec_axis, specs):
        yield ((s,) if series.spec else (),
               *verdict([sums[key] for key in zip(row_specs, slots)], p, mod))


def record(theorem: str, p: int, point: Point) -> dict:
    """The plain record of one point of a :func:`points` row."""
    params, hypothesis, conclusion, residues = point
    names, residue_names = record_names(theorem)
    return _report(theorem, p, dict(zip(names, params)), hypothesis, conclusion,
                   dict(zip(residue_names, residues)))


# ---------------------------------------------------------------------------
# Checkers: one point of each statement's grid

def _one_point(theorem: str, ctx: PrimeContext, params: Dict[str, Rational],
               axes: Optional[Dict[str, Sequence[AxisValue]]] = None) -> dict:
    """The record of one parameter tuple, through :func:`points`, after the
    statement's guard on ctx.  The parameters are admitted last first, so
    an argument's error comes before a's."""
    _require(theorem, ctx)
    axes = dict(axes or {})
    for name, q in reversed(params.items()):
        axes[name] = [(format_rational(q), _admitted(theorem, name, q, ctx))]
    [(head, [hypothesis], [conclusion], residues)] = points(theorem, ctx, axes)
    *_, arg = params.values()
    return record(theorem, ctx.p, ((*head, format_rational(arg)), hypothesis, conclusion,
                                   tuple(c[0] for c in residues)))


def check_theorem_2_1(a: Rational, x: Rational, ctx: PrimeContext) -> dict:
    """Triple congruence mod p: the truncated core sum equals the squared
    Legendre value at sqrt(1-4x) for both the index <a>_p and its mirror."""
    return _one_point("thm2.1", ctx, {"a": a, "x": x})


def check_theorem_2_2(a: Rational, x: Rational, ctx: PrimeContext) -> dict:
    """Squared plain sum against the core sum at x(1-x), mod p^2."""
    return _one_point("thm2.2", ctx, {"a": a, "x": x})


def check_theorem_2_3(a: Rational, m: Rational, ctx: PrimeContext) -> dict:
    """The core sum at 1/m: vanishing mod p lifts to mod p^2."""
    return _one_point("thm2.3", ctx, {"a": a, "m": m})


def check_corollary_2_2(f: FamilyTag, m: Rational, ctx: PrimeContext) -> dict:
    """The same lift for one binomial-product family at 1/m."""
    return _one_point("cor2.2", ctx, {"m": m}, {"family": [(f.label, f)]})


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
    return _one_point(f"thm2.4{part}", ctx, {"u": u})


def check_identity_1_3(m: Rational, ctx: PrimeContext) -> dict:
    """C(2k,k)^3/m^k summed mod p^2 against the squared Legendre value
    P_{(p-1)/2}(sqrt(1-64/m))^2."""
    return _one_point("eq1.3", ctx, {"m": m})


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

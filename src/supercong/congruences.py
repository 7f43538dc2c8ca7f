"""Truncated binomial-product sums over Z/p^e and the congruence checkers.

Every sum is a term-ratio spec (constant, linear factors in k, power of k in
the denominator, last index) evaluated by
:meth:`~supercong.modring.PrimeContext.series`: the spec's coefficient row,
built once per context, evaluated at a whole vector of reduced x at once.
The family sums of a statement at fixed arguments run on one
:func:`~supercong.modring.hyper_sums` call for a whole prime list at once.

One table, :data:`STATEMENTS`, states each statement once: its exponent,
smallest prime, parameters with their excluded values and either, for a
statement with parameters, its :class:`Series` (which series it sums at
which arguments, and its verdict on the sums), or, for a statement at fixed
arguments, its cases.  Everything else reads its row: :func:`applies`, the
one rule for a parameter at a prime; :func:`_require`, the guard on a
context; :func:`points`, which sums a statement's grid at one prime, each
distinct series once at its whole argument vector, and yields it row by
row, each row as columns that the statement's verdict computes from columns
of sums; and :func:`record`, the one builder of a plain dict record, whose
status follows one fixed rule, :data:`STATUS`.  A statement at fixed
arguments (eq1.2, cor2.3, remark 2.3) sums all of its cases over the whole
prime list in that one call (:func:`fixed_sums`) and gives its verdict as
one row per case along the primes, cases in report order
(:func:`fixed_columns`).

There is one library entry per kind of statement: :func:`check`, the record
of one point of a statement with parameters, a grid of one point on the
path the CLI's grids and explicit parameters run; and
:func:`fixed_records`, the records of a statement at fixed arguments over a
prime list, built from its rows.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import comb
from operator import and_, eq, not_
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .errors import BadExponent, ExcludedValue, RangeError
from .legendre import legendre_square_spec
from .modring import PrimeContext, Rational, Spec, hyper_sums, reduce_rational


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


# ---------------------------------------------------------------------------
# Check reports

# A record's status, STATUS[hypothesis][conclusion]: FAILED iff the
# hypothesis holds and the conclusion does not, vacuous iff the hypothesis
# fails.
STATUS = (("vacuous", "vacuous"), ("FAILED", "verified"))


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
# A row, the points along one axis: its constant parameter strings, then
# Columns along the axis: hypotheses, conclusions and one column per residue.
# A grid row is a spec-axis value (its string, none without that axis) along
# the argument axis; a case of a statement at fixed arguments is (family, x)
# along the primes, its one residue column None at a prime with no residue.
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
    x = 1/scale vanishes mod p^e for p mod modulus in classes.
    """

    e: int
    min_p: int
    params: Dict[str, Tuple[Fraction, ...]]
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
    first, other, *rest = sums
    same = map(eq, first, other)
    for other in rest:
        same = map(and_, same, map(eq, first, other))
    return [True] * len(first), list(same), sums


# The paper's p ∤ m, and the u at which a thm2.4 argument has p in its denominator.
_M = {"m": (Fraction(0),)}
_LIFT = ("sum_mod_p2", "sum_mod_p")
_IMPLICATION = ("hypothesis_sum_mod_p", "conclusion_sum_mod_p2")
_X_1458 = (FamilyTag.TWO_THREE, 1458, 6, (5,))
STATEMENTS: Dict[str, Statement] = {
    # Triple congruence mod p: the core sum at x equals the squared Legendre
    # value P_<a>(sqrt(1-4x))^2 at both the index <a>_p and its mirror.
    "thm2.1": Statement(
        1, 3, {"a": (), "x": ()},
        series=Series("a", lambda n, p: (_core_spec(n, p), legendre_square_spec(n, p),
                                         legendre_square_spec(p - 1 - n, p)),
                      lambda x, mod: (x, -x, -x), _equal,
                      ("sum", "legendre_sq", "legendre_sq_mirror"))),
    # The squared plain sum at x equals the core sum at x(1-x) mod p^2.
    "thm2.2": Statement(
        2, 3, {"a": (), "x": ()},
        series=Series("a", lambda a, p: (_plain_spec(a, p), _core_spec(a, p)),
                      lambda x, mod: (x, x * (1 - x)), _squared_plain_sum,
                      ("plain_sum_sq", "core_sum"))),
    # The core sum at 1/m: vanishing mod p lifts to mod p^2.
    "thm2.3": Statement(
        2, 3, {"a": (), **_M},
        series=Series("a", lambda a, p: (_core_spec(a, p),), _inverse, _lift, _LIFT)),
    # Vanishing mod p at u^2/(1-4u)^3 forces vanishing mod p^2 at
    # -u/(1-16u)^3, for the family C(2k,k)^2 C(3k,k).  Outside the excluded
    # classes of u, every denominator of the two arguments is a unit mod p.
    "thm2.4i": Statement(
        2, 3, {"u": (Fraction(1, 4), Fraction(1, 16))},
        series=Series(None, lambda _, p: (_family_spec(FamilyTag.TWO_THREE, p),) * 2,
                      lambda u, mod: (u**2 * pow(1 - 4 * u, -3, mod),
                                      -u * pow(1 - 16 * u, -3, mod)),
                      _implication, _IMPLICATION)),
    # The same with C(2k,k)^2 C(4k,2k) at u^3/(1+3u)^4 and u/(1+27u)^4.
    "thm2.4ii": Statement(
        2, 3, {"u": (Fraction(-1, 3), Fraction(-1, 27))},
        series=Series(None, lambda _, p: (_family_spec(FamilyTag.TWO_FOUR, p),) * 2,
                      lambda u, mod: (u**3 * pow(1 + 3 * u, -4, mod),
                                      u * pow(1 + 27 * u, -4, mod)),
                      _implication, _IMPLICATION)),
    # The lift of thm2.3 for each binomial-product family at 1/m.
    "cor2.2": Statement(
        2, 3, _M,
        series=Series("family", lambda f, p: (_family_spec(f, p),), _inverse, _lift, _LIFT,
                      tuple(sorted((f.label, f) for f in FamilyTag)))),
    # The 1/1458 and 1/3375 class congruences: two records per prime.
    "cor2.3": Statement(2, 5, {}, (_X_1458, (FamilyTag.TWO_THREE, 3375, 15, (11, 14)))),
    # Rodriguez-Villegas's three residue-class zero congruences: three
    # records per prime.
    "eq1.2": Statement(2, 5, {}, ((FamilyTag.TWO_THREE, 108, 3, (2,)),
                                  (FamilyTag.TWO_FOUR, 256, 8, (5, 7)),
                                  (FamilyTag.THREE_SIX, 1728, 4, (3,)))),
    # The cube family C(2k,k)^3 at 1/m equals the squared Legendre value
    # P_{(p-1)/2}(sqrt(1-64/m))^2 mod p^2.
    "eq1.3": Statement(
        2, 5, _M,
        series=Series(None, lambda _, p: (_family_spec(FamilyTag.CUBE, p),
                                          legendre_square_spec((p - 1) // 2, p)),
                      lambda r, mod: (pow(r, -1, mod), -16 * pow(r, -1, mod)), _equal,
                      ("family_sum", "legendre_sq"))),
    # The 1/1458 congruence mod p^3: one record per prime, vacuous outside
    # its class.
    "remark2.3": Statement(3, 5, {}, (_X_1458,)),
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


def _admitted(theorem: str, name: str, q: Rational, ctx: PrimeContext) -> int:
    """Parameter ``name`` = q mod p^e: NotPIntegral if p divides its
    denominator, ExcludedValue if it is in an excluded class."""
    qh = _residue(q, ctx)
    r = _excluded_class(theorem, name, qh, ctx.p)
    if r is not None:
        raise ExcludedValue(f"{name} = {q} is congruent to {r} mod {ctx.p}")
    return qh


def record_names(theorem: str) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The parameter and residue names of a statement's records, in record
    order: the spec axis, if any, then the argument axis; at fixed
    arguments, the family and x, and the sum mod p^e."""
    row = STATEMENTS[theorem]
    if row.series is None:
        return ("family", "x"), (f"sum_mod_p{row.e}",)
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
    """The plain record of one point at p, at the statement's e, with the
    status :data:`STATUS` gives its two booleans: a point of a :func:`points`
    row, or of a case of :func:`fixed_columns` with its residue, if any.
    Rational parameters are serialized as "num/den" strings for lossless
    round-trips."""
    params, hypothesis, conclusion, residues = point
    names, residue_names = record_names(theorem)
    return {
        "theorem": theorem,
        "p": p,
        "e": STATEMENTS[theorem].e,
        "params": dict(zip(names, params, strict=True)),
        "hypothesis_holds": hypothesis,
        "conclusion_holds": conclusion,
        "residues": dict(zip(residue_names, residues)),
        "status": STATUS[hypothesis][conclusion],
    }


def check(theorem: str, ctx: PrimeContext, **params: object) -> dict:
    """The record of one point of a statement with parameters at ctx's
    prime: a grid of one point through :func:`points`.

    ``params`` are named as :func:`record_names` names them; cor2.2's
    family takes a :class:`FamilyTag`, the others a rational.  An unknown
    id, a statement at fixed arguments and a wrong set of names raise
    ValueError; then the statement's guard on ctx runs, and the parameters
    are admitted last first, so an argument's error comes before a's.
    """
    row = STATEMENTS.get(theorem)
    if row is None:
        raise ValueError(f"unknown statement {theorem!r}")
    if row.series is None:
        raise ValueError(f"{theorem} is a statement at fixed arguments: use fixed_records")
    names, _ = record_names(theorem)
    if set(params) != set(names):
        raise ValueError(f"{theorem} takes {', '.join(names)}, got {', '.join(params)}")
    _require(theorem, ctx)
    axes = {}
    for name in reversed(names):
        q = params[name]
        axes[name] = [(str(q), _admitted(theorem, name, q, ctx))
                      if name in row.params else (q.label, q)]
    [(head, [hypothesis], [conclusion], residues)] = points(theorem, ctx, axes)
    [(arg, _)] = axes[names[-1]]
    return record(theorem, ctx.p, ((*head, arg), hypothesis, conclusion,
                                   tuple(c[0] for c in residues)))


# ---------------------------------------------------------------------------
# Statements at fixed arguments

# One case of a statement at fixed arguments: (family, scale, modulus, classes).
Case = Tuple[FamilyTag, int, int, Tuple[int, ...]]


def _cases(theorem: str) -> List[Case]:
    """A statement's cases in report order: by family label, then by x as a
    string."""
    return sorted(STATEMENTS[theorem].cases, key=lambda c: (c[0].label, f"1/{c[1]}"))


def fixed_sums(theorem: str, primes: Sequence[int]) -> List[List[Optional[int]]]:
    """The family sum at x = 1/scale of each case of a statement at fixed
    arguments, in report order, over an ascending prime list: one
    :func:`~supercong.modring.hyper_sums` call over the cases' term ratios,
    which share its one moduli tree.  Each case gets its residues mod p^e
    in the order of ``primes``, None at a prime that divides the scale."""
    row = STATEMENTS[theorem]
    if any(p < row.min_p for p in primes):
        raise RangeError(f"stated for p >= {row.min_p}")
    ratios = [(c.numerator, c.denominator, f.factors, 3)
              for f, scale, _, _ in _cases(theorem) for c in [Fraction(f.const, scale)]]
    return hyper_sums(ratios, primes, row.e)


def fixed_columns(theorem: str, primes: Sequence[int],
                  sums: Sequence[Sequence[Optional[int]]]) -> List[Row]:
    """Each case, in report order, as a row along ``primes`` from its
    ``sums`` (:func:`fixed_sums`).  A prime dividing the scale has no
    residue and a vacuous record; at any other, the class test is the
    hypothesis and "the sum vanishes mod p^e" the conclusion."""
    out = []
    for (f, scale, mod, classes), residues in zip(_cases(theorem), sums):
        out.append(((f.label, f"1/{scale}"),
                    [r is not None and p % mod in classes for p, r in zip(primes, residues)],
                    list(map(not_, residues)), (residues,)))
    return out


def fixed_records(theorem: str, primes: Iterable[int]) -> List[dict]:
    """The records of a statement at fixed arguments over an ascending prime
    list, per prime in list order and per case in report order, from the
    rows of :func:`fixed_columns`."""
    if STATEMENTS[theorem].series is not None:
        raise ValueError(f"{theorem} is a statement with parameters: use check")
    primes = list(primes)
    columns = fixed_columns(theorem, primes, fixed_sums(theorem, primes))
    return [record(theorem, p, (params, h[i], c[i], () if r[i] is None else (r[i],)))
            for i, p in enumerate(primes) for params, h, c, (r,) in columns]

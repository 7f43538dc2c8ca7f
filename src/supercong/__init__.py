"""Verification engine for binomial-sum supercongruences mod p^2 and p^3.

Exact arithmetic over Z/p^e, one division-free kernel for the truncated
hypergeometric sums sum_k C(2k,k) C(a,k) C(-1-a,k) x^k and for Legendre
polynomials mod p, checkers for the associated congruence statements, exact
big-rational oracles, and a prime-sweeping CLI.
"""

from .binomtab import ap_of, binom_int_valued, binom_rational, central_binom, pochhammer_rational
from .congruences import (
    CheckReport,
    FamilyTag,
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
    plain_sum,
)
from .errors import (
    BadExponent,
    BoundExceeded,
    CompositeModulus,
    ExcludedU,
    KTooLarge,
    MixedContext,
    NotInvertible,
    NotPIntegral,
    NTooLarge,
    RangeError,
    SupercongError,
    WrongResidueClass,
    ZeroM,
)
from .legendre import (
    legendre_at_sqrt,
    legendre_eval_recurrence,
    legendre_eval_shifted,
    legendre_exact,
    legendre_square_at_sqrt,
)
from .modring import (
    PrimeContext,
    QuadExtElem,
    ResidueZ,
    ValuedResidue,
    hyper_sum,
    is_prime,
    legendre_symbol,
    make_context,
    mod_inverse,
    quadext_mul,
    reduce_rational,
    sqrt_mod_p,
)
from .oracle import (
    RatPoly,
    binom_frac,
    exact_reduce_sum,
    identity_1_7_check,
    lemma_2_1_exact_check,
    lemma_2_2_sides,
    zeilberger_certificate_check,
)

__version__ = "0.1.0"

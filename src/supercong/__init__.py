"""Verification engine for binomial-sum supercongruences mod p^2 and p^3.

Exact arithmetic over Z/p^e, one division-free kernel for the truncated
hypergeometric sums sum_k C(2k,k) C(a,k) C(-1-a,k) x^k and for the squared
Legendre values P_n(sqrt(1+4x))^2 mod p^e, checkers for the associated
congruence statements, exact integer oracles, and a prime-sweeping CLI
driven by one statement table.
"""

from .congruences import (
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
    family_sums,
    plain_sum,
)
from .errors import (
    BadExponent,
    BoundExceeded,
    CompositeModulus,
    ExcludedValue,
    NotPIntegral,
    NTooLarge,
    RangeError,
    SupercongError,
)
from .legendre import legendre_exact, legendre_square_spec
from .modring import (
    PrimeContext,
    hyper_sums,
    hyper_terms,
    is_prime,
    make_context,
    reduce_rational,
)
from .oracle import (
    exact_reduce_sum,
    exact_reduce_sums,
    identity_1_7_check,
    lemma_2_1_exact_check,
    lemma_2_2_check,
)

__version__ = "0.1.0"

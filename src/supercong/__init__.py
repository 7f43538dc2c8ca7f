"""Verification engine for binomial-sum supercongruences mod p^2 and p^3.

Exact arithmetic over Z/p^e, one division-free kernel for the truncated
hypergeometric sums sum_k C(2k,k) C(a,k) C(-1-a,k) x^k and for the squared
Legendre values P_n(sqrt(1+4x))^2 mod p^e, one checker per kind of
congruence statement (``check`` for one point of a statement with
parameters, ``fixed_records`` for a statement at fixed arguments over a
prime list), exact integer oracles (``supercong.oracle``, which only the
``oracle`` command loads), and a prime-sweeping CLI driven by one statement
table.
"""

from .congruences import (
    FamilyTag,
    check,
    core_sum,
    family_sum,
    fixed_records,
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

__version__ = "0.1.0"

"""Exact-integer Menon identities with k-th power gcds.

Everything here is computable two ways: brute-force summation over
reduced residue sets, and closed multiplicative forms evaluated from
prime factorizations.  The two routes are kept independent so each one
checks the other.
"""

from .arith import (
    MultiplicativeFunction,
    PrimeLocalValue,
    cohen_phi,
    cohen_phi_bruteforce,
    cohen_phi_rule,
    d_s,
    d_s_k,
    d_s_k_rule,
    d_s_rule,
    divisor_count,
    divisor_count_rule,
    euler_phi,
    euler_phi_rule,
    eval_multiplicative,
    gcd,
    gcd_pow_k,
    largest_kth_power_divisor,
    local_values,
    pillai,
    pillai_bruteforce,
    pillai_rule,
)
from .batch import BatchRow, SpfSieve, batch_table, build_sieve
from .factor import Factorization, divisors, factorize, is_prime
from .limits import (
    DEFAULT_MAX_ITERATIONS,
    U128_MAX,
    ResourceLimitError,
    Uint128OverflowError,
)
from .menon import (
    IdentityReport,
    MenonParams,
    menon_closed_form,
    menon_sum_bruteforce,
    menon_sum_over,
    menon_sums,
    verify_identity,
    verify_menon_multiplicativity,
    verify_prime_power,
    verify_rao_precondition,
    verify_unit_translation,
)
from .residues import ResidueSet, crt_combine, is_kth_power_coprime, standard_residue_set

__version__ = "0.1.0"

__all__ = [
    "BatchRow",
    "DEFAULT_MAX_ITERATIONS",
    "Factorization",
    "IdentityReport",
    "MenonParams",
    "MultiplicativeFunction",
    "PrimeLocalValue",
    "ResidueSet",
    "ResourceLimitError",
    "SpfSieve",
    "U128_MAX",
    "Uint128OverflowError",
    "batch_table",
    "build_sieve",
    "cohen_phi",
    "cohen_phi_bruteforce",
    "cohen_phi_rule",
    "crt_combine",
    "d_s",
    "d_s_k",
    "d_s_k_rule",
    "d_s_rule",
    "divisor_count",
    "divisor_count_rule",
    "divisors",
    "euler_phi",
    "euler_phi_rule",
    "eval_multiplicative",
    "factorize",
    "gcd",
    "gcd_pow_k",
    "is_kth_power_coprime",
    "is_prime",
    "largest_kth_power_divisor",
    "local_values",
    "menon_closed_form",
    "menon_sum_bruteforce",
    "menon_sum_over",
    "menon_sums",
    "pillai",
    "pillai_bruteforce",
    "pillai_rule",
    "standard_residue_set",
    "verify_identity",
    "verify_menon_multiplicativity",
    "verify_prime_power",
    "verify_rao_precondition",
    "verify_unit_translation",
]

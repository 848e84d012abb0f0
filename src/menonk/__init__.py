"""Exact-integer Menon identities with k-th power gcds.

Everything here is computable two ways: brute-force summation over
reduced residue sets, and closed multiplicative forms evaluated from
prime factorizations.  The two routes are kept independent so each one
checks the other.

The package exports the names the README's examples use and the error
types of ``menonk.limits``; everything else is imported from its
submodule (``menonk.arith``, ``menonk.batch``, ``menonk.factor``,
``menonk.limits``, ``menonk.menon``, ``menonk.residues``).
"""

from .arith import cohen_phi, gcd_pow_k, pillai
from .limits import ResourceLimitError, Uint128OverflowError
from .menon import menon_closed_form, menon_sum_bruteforce

__version__ = "0.1.0"

__all__ = [
    "ResourceLimitError",
    "Uint128OverflowError",
    "cohen_phi",
    "gcd_pow_k",
    "menon_closed_form",
    "menon_sum_bruteforce",
    "pillai",
]

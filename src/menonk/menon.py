"""Menon sums: direct summation, closed form, and identity verifiers.

The central quantity is

    M(m, s, k) = sum over a in a k-th power reduced residue set mod m
                 of (a - s, m**k)_k

which equals d_s_k(m, s, k) * phi_k(m) for every integer s and all
positive integers m, k.  ``menon_sums`` evaluates the sum literally for
many shifts at once (``menon_sum_bruteforce`` is its one-shift case);
``menon_closed_form`` evaluates the product side from the factorization
alone.  The verify_* helpers return verdicts instead of
asserting so callers can report a counterexample (which would mean an
implementation bug, not a false identity) with full context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator

from .arith import (
    cohen_phi,
    d_s_k,
    gcd_pow_k,
    largest_kth_power_divisor,
)
from .factor import is_prime
from .limits import checked_mul, checked_pow
from .residues import _gcd_table, standard_residue_set

__all__ = [
    "MenonParams",
    "IdentityReport",
    "menon_sum_over",
    "menon_sums",
    "menon_sum_bruteforce",
    "menon_closed_form",
    "verify_identity",
    "verify_rao_precondition",
    "verify_unit_translation",
    "verify_menon_multiplicativity",
    "verify_prime_power",
]


@dataclass(frozen=True)
class MenonParams:
    """One identity instance: modulus m >= 1, any integer shift s, power k >= 1."""

    m: int
    s: int
    k: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        checked_pow(self.m, self.k, "m^k")

    @property
    def modulus(self) -> int:
        return self.m**self.k


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of one identity instance plus the verdict."""

    params: MenonParams
    lhs: int
    rhs: int
    holds: bool


def menon_sum_over(elements: Iterable[int], params: MenonParams) -> int:
    """Sum of (a - s, m**k)_k over the given residue representatives.

    Congruence invariance of (., m**k)_k makes the result identical for
    every reduced residue set of the same modulus, so callers may pass
    shifted representatives.
    """
    mk, s, k = params.modulus, params.s, params.k
    _gcd, _kth = math.gcd, largest_kth_power_divisor
    return sum(_kth(_gcd(a - s, mk), k) for a in elements)


def menon_sums(
    m: int, k: int, shifts: Iterable[int], max_iterations: int | None = None
) -> Iterator[int]:
    """M(m, s, k) for each s in ``shifts``, in order, by direct summation.

    The table t[x] = (x, m**k)_k over the classes x mod m**k and the mask
    of the reduced classes are built once, here; each sum is then taken
    lazily.  The term for a is t[(a - s) mod m**k], so M(m, s, k) sums t
    under the mask rotated left by s mod m**k: every element of the
    standard residue set still contributes its own term.
    """
    table, mask = _gcd_table(m, k, max_iterations)
    mk = len(table)
    return (sum(compress(table, mask[r:] + mask[:r])) for r in (s % mk for s in shifts))


def menon_sum_bruteforce(params: MenonParams, max_iterations: int | None = None) -> int:
    """M(m, s, k) by direct summation over the standard residue set."""
    (total,) = menon_sums(params.m, params.k, (params.s,), max_iterations)
    return total


def menon_closed_form(params: MenonParams) -> int:
    """M(m, s, k) = d_s_k(m, s, k) * phi_k(m); factorization only, no loops."""
    return checked_mul(
        d_s_k(params.m, params.s, params.k),
        cohen_phi(params.m, params.k),
        "d_s_k(m) * phi_k(m)",
    )


def verify_identity(params: MenonParams, max_iterations: int | None = None) -> IdentityReport:
    """Evaluate both routes and report whether they agree (they must)."""
    lhs = menon_sum_bruteforce(params, max_iterations)
    rhs = menon_closed_form(params)
    return IdentityReport(params, lhs, rhs, lhs == rhs)


def verify_rao_precondition(params: MenonParams) -> bool:
    """True iff s and m**k are k-th power coprime.

    When true, d_s_k(m, s, k) = d(m), so the closed form specializes to
    d(m) * phi_k(m).
    """
    return gcd_pow_k(params.s, params.modulus, params.k) == 1


def verify_unit_translation(
    params: MenonParams, l: int, max_iterations: int | None = None
) -> bool:
    """Check sum (a*l - s, m**k)_k = sum (a - s, m**k)_k for (l, m) = 1.

    Multiplying a reduced residue set by a unit permutes its classes, so
    equality must hold; False signals a bug.
    """
    if math.gcd(l, params.m) != 1:
        raise ValueError(f"l = {l} is not coprime to m = {params.m}")
    residues = standard_residue_set(params.m, params.k, max_iterations)
    scaled = [a * l for a in residues.elements]
    return menon_sum_over(scaled, params) == menon_sum_over(residues.elements, params)


def verify_menon_multiplicativity(
    m1: int, m2: int, s: int, k: int, max_iterations: int | None = None
) -> bool:
    """Check M(m1*m2, s, k) = M(m1, s, k) * M(m2, s, k) for coprime m1, m2."""
    if m1 < 1 or m2 < 1:
        raise ValueError("moduli must be positive integers")
    if math.gcd(m1, m2) != 1:
        raise ValueError(f"moduli {m1} and {m2} are not coprime")
    combined = menon_sum_bruteforce(MenonParams(m1 * m2, s, k), max_iterations)
    part1 = menon_sum_bruteforce(MenonParams(m1, s, k), max_iterations)
    part2 = menon_sum_bruteforce(MenonParams(m2, s, k), max_iterations)
    return combined == part1 * part2


def verify_prime_power(
    p: int, v: int, s: int, k: int, max_iterations: int | None = None
) -> bool:
    """Check the prime-power case M(p**v, s, k) = d_s_k(p**v) * phi_k(p**v).

    Exercises both local branches: p**k dividing s (local factor 1) and
    not (local factor v + 1).
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if v < 1:
        raise ValueError("v must be a positive integer")
    params = MenonParams(p**v, s, k)
    return menon_sum_bruteforce(params, max_iterations) == menon_closed_form(params)

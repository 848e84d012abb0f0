"""Menon sums: direct summation, closed form, and lemma verifiers.

The central quantity is

    M(m, s, k) = sum over a in a k-th power reduced residue set mod m
                 of (a - s, m**k)_k

which equals d_s_k(m, s, k) * phi_k(m) for every integer s and all
positive integers m, k.  Every function here takes the modulus, s and
k as plain integers.  ``menon_sums`` evaluates the sum literally for
many shifts at once (``menon_sum_bruteforce`` is its one-shift case);
``menon_closed_form`` evaluates the product side from the factorization
alone.  The verify_* helpers check the lemmas of the proof (unit
translation, multiplicativity, prime powers) and return verdicts instead
of asserting, so callers can report a counterexample (which would mean
an implementation bug, not a false identity) with full context.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Iterable, Iterator

from .arith import cohen_phi, d_s_k, kth_gcd_classes, kth_unit_mask, largest_kth_power_divisor
from .factor import is_prime
from .limits import checked_mul, checked_pow
from .residues import standard_residue_set

__all__ = [
    "menon_sum_over",
    "menon_sums",
    "menon_sum_bruteforce",
    "menon_closed_form",
    "verify_unit_translation",
    "verify_menon_multiplicativity",
    "verify_prime_power",
]


def menon_sum_over(elements: Iterable[int], m: int, s: int, k: int) -> int:
    """Sum of (a - s, m**k)_k over the given residue representatives.

    Congruence invariance of (., m**k)_k makes the result identical for
    every reduced residue set of the same modulus, so callers may pass
    shifted representatives.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive integers")
    mk = checked_pow(m, k, "m^k")
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
    standard residue set still contributes its own term.  The table is
    refused, before anything is allocated, by kth_gcd_classes' gate.
    """
    table = list(kth_gcd_classes(m, k, max_iterations))
    mask = bytes(kth_unit_mask(table))
    mk = len(table)
    return (sum(compress(table, mask[r:] + mask[:r])) for r in (s % mk for s in shifts))


def menon_sum_bruteforce(m: int, s: int, k: int, max_iterations: int | None = None) -> int:
    """M(m, s, k) by direct summation over the standard residue set."""
    (total,) = menon_sums(m, k, (s,), max_iterations)
    return total


def menon_closed_form(m: int, s: int, k: int) -> int:
    """M(m, s, k) = d_s_k(m, s, k) * phi_k(m); factorization only, no loops."""
    # cohen_phi goes first: it refuses m**k past 2^128 before anything factors m.
    phi_k = cohen_phi(m, k)
    return checked_mul(d_s_k(m, s, k), phi_k, "d_s_k(m) * phi_k(m)")


def verify_unit_translation(
    m: int, s: int, k: int, l: int, max_iterations: int | None = None
) -> bool:
    """Check sum (a*l - s, m**k)_k = sum (a - s, m**k)_k for (l, m) = 1.

    Multiplying a reduced residue set by a unit permutes its classes, so
    equality must hold; False signals a bug.
    """
    if math.gcd(l, m) != 1:
        raise ValueError(f"l = {l} is not coprime to m = {m}")
    residues = standard_residue_set(m, k, max_iterations)
    scaled = [a * l for a in residues.elements]
    return menon_sum_over(scaled, m, s, k) == menon_sum_over(residues.elements, m, s, k)


def verify_menon_multiplicativity(
    m1: int, m2: int, s: int, k: int, max_iterations: int | None = None
) -> bool:
    """Check M(m1*m2, s, k) = M(m1, s, k) * M(m2, s, k) for coprime m1, m2."""
    if m1 < 1 or m2 < 1:
        raise ValueError("moduli must be positive integers")
    if math.gcd(m1, m2) != 1:
        raise ValueError(f"moduli {m1} and {m2} are not coprime")
    combined = menon_sum_bruteforce(m1 * m2, s, k, max_iterations)
    part1 = menon_sum_bruteforce(m1, s, k, max_iterations)
    part2 = menon_sum_bruteforce(m2, s, k, max_iterations)
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
    q = checked_pow(p, v, "p^v")
    return menon_sum_bruteforce(q, s, k, max_iterations) == menon_closed_form(q, s, k)

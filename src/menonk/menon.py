"""Menon sums: direct summation, closed forms, and lemma verifiers.

The central quantity is

    M(m, s, k) = sum over a in a k-th power reduced residue set mod m
                 of (a - s, m**k)_k

which equals d_s_k(m, s, k) * phi_k(m) for every integer s and all
positive integers m, k.  The one-shift functions here take the
modulus, s and k as plain integers; the many-shift ones take m, k and
the shifts: any iterable, or for ``menon_sums``, whose tables depend
on how many there are, a sequence.  ``menon_sums`` evaluates the sum
literally for many shifts at once (``menon_sum_bruteforce`` is its
one-shift case): it reads the reduced classes, each divisor's stride
and its weight from ``kth_reduced_mask`` once, counts each short
stride's classes into a table by residue once, and then, for each
shift, reads those tables, counts the reduced classes along each
other stride and weighs each count.
``menon_closed_forms`` evaluates the product side for the same shifts
from the factorization alone (``menon_closed_form`` is its one-shift
case): it reads ``factorize(m)`` once and evaluates ``cohen_phi_rule``
over it once, then multiplies ``d_s_k_rule`` over it for each shift; these are the
rules the scalar ``cohen_phi`` and ``d_s_k`` evaluate.  Each route does
its per-modulus work once.  ``menon_sum_over`` sums over
representatives the caller gives: it reads one table of (x, m**k)_k
over the classes mod m**k from ``kth_gcd_classes``, so, like the other
literal sums, it never reads ``factorize``.  The verify_* helpers
check the lemmas of the proof (unit translation, multiplicativity,
prime powers), each across two literal sums or the two routes, and
return verdicts instead of asserting, so callers can report a
counterexample (which would mean an implementation bug, not a
false identity) with full context.
"""

from __future__ import annotations

import math
from array import array
from itertools import compress, starmap
from operator import mul
from typing import Iterable, Iterator, Sequence

from . import arith
from .arith import cohen_phi_rule, d_s_k_rule, eval_multiplicative, kth_reduced_mask
from .factor import is_prime
from .limits import U128_MAX, check_power, ensure_u128

__all__ = [
    "menon_sum_over",
    "menon_sums",
    "menon_sum_bruteforce",
    "menon_closed_forms",
    "menon_closed_form",
    "verify_unit_translation",
    "verify_menon_multiplicativity",
    "verify_prime_power",
]


def menon_sum_over(elements: Iterable[int], m: int, s: int, k: int) -> int:
    """Sum of (a - s, m**k)_k over the given residue representatives.

    Congruence invariance of (., m**k)_k makes the result identical for
    every reduced residue set of the same modulus, so callers may pass
    shifted representatives.  The values come from one table of
    (x, m**k)_k over the classes x mod m**k, 4 bytes a class, read off
    kth_gcd_classes.  The caller already holds the elements, so the
    table is capped by the class bound alone: past it, or past 2^128,
    it is refused before any element is read.
    """
    table = array("I", arith.kth_gcd_classes(m, k, U128_MAX))
    mk = len(table)
    return sum(table[(a - s) % mk] for a in elements)


def menon_sums(
    m: int, k: int, shifts: Sequence[int], max_iterations: int | None = None
) -> Iterator[int]:
    """M(m, s, k) for each s in ``shifts``, in order, by direct count.

    The mask of the reduced classes mod m**k, and the stride d**k and
    weight phi_k(d) of each divisor d > 1 of m, come once, here, from
    kth_reduced_mask; each sum is then taken lazily.  The divisors d of
    m with d**k | a - s are exactly those of D, where
    D**k = (a - s, m**k)_k.  So N[d], the number of reduced a with
    d**k | a - s, is the mask counted along the stride
    mask[s mod d**k :: d**k], and
    M(m, s, k) = sum over D of D**k * #{reduced a : (a - s, m**k)_k = D**k}
    is sum phi_k(d) * N[d] over m's divisors, since phi_k is the Moebius
    transform of the values d**k.  Divisor 1 has weight 1 and counts
    every reduced class.

    N[d] depends on s only through s mod q, q = d**k.  So a stride with
    q <= len(shifts) and q * q <= m**k is counted once, here, into a
    table of q counts, one a residue r, read off mask[r :: q]: it reads
    m**k bytes, no more than counting it a shift would, and holds no
    more counts than one of its slices holds bytes.  The smallest
    stride, strides[0] = p**k for m's least prime p, passes whenever
    any stride does, and N[1], the reduced classes, is the sum of its
    table; with no table, N[1] is the whole mask counted.  Each shift
    then reads one count from each table and counts mask[s mod q :: q]
    for each other stride, m**k / q bytes, in C, and takes one dot
    product.  With T tables, the call reads T * m**k bytes and each
    shift the sum of m**k / q over the other strides; with none, the
    call reads the m**k bytes of N[1] and each shift
    m**k * (sigma_{-k}(m) - 1).  The mask is refused, before anything
    is allocated, by the class gate.
    """
    mask, strides, weights = kth_reduced_mask(m, k, max_iterations)
    n, mk = len(shifts), len(mask)
    # A stride q is tabled when q <= n and q * q <= m**k.  The smallest one comes
    # first in the lattice's order, so if it is not tabled, none is.
    if not strides or strides[0] > n or strides[0] ** 2 > mk:
        reduced = mask.count(1)

        def total(s: int) -> int:
            return reduced + sum(map(mul, [mask[s % q :: q].count(1) for q in strides], weights))

        return map(total, shifts)

    pairs = [
        (q, [mask[r::q].count(1) for r in range(q)] if q <= n and q * q <= mk else None)
        for q in strides
    ]
    reduced = sum(pairs[0][1])

    def total_tabled(s: int) -> int:
        counts = [t[s % q] if t else mask[s % q :: q].count(1) for q, t in pairs]
        return reduced + sum(map(mul, counts, weights))

    return map(total_tabled, shifts)


def menon_sum_bruteforce(m: int, s: int, k: int, max_iterations: int | None = None) -> int:
    """M(m, s, k) literally, over the standard residue set: menon_sums at one shift."""
    (total,) = menon_sums(m, k, (s,), max_iterations)
    return total


def menon_closed_forms(m: int, k: int, shifts: Iterable[int]) -> Iterator[int]:
    """M(m, s, k) = d_s_k(m, s, k) * phi_k(m) for each s in ``shifts``, in order.

    Here, at the call, m and k are checked by ``limits.check_power``, as
    cohen_phi checks them, before anything factors m, and
    ``factorize(m)`` is read once and phi_k(m) evaluated over it once.
    Each product is then taken lazily: d_s_k_rule(s, k) over the same
    factorization, times phi_k(m).  d_s_k(m) <= d(m), so only the
    product needs a domain check.
    """
    check_power(m, k)
    # Looked up through arith at call time, where the scalar closed forms look it up too.
    pairs = arith.factorize(m)
    phi_k = eval_multiplicative(cohen_phi_rule(k), pairs)

    def closed(s: int) -> int:
        d = math.prod(starmap(d_s_k_rule(s, k), pairs))
        return ensure_u128(d * phi_k, "d_s_k(m) * phi_k(m)")

    return map(closed, shifts)


def menon_closed_form(m: int, s: int, k: int) -> int:
    """M(m, s, k) from the closed forms: menon_closed_forms at one shift."""
    (total,) = menon_closed_forms(m, k, (s,))
    return total


def verify_unit_translation(m: int, s: int, k: int, l: int) -> bool:
    """Check sum (a*l - s, m**k)_k = M(m, s, k) for (l, m) = 1.

    Multiplying a reduced residue set by a unit permutes its classes, so
    equality must hold; False signals a bug.  The reduced classes are
    read off kth_reduced_mask's mask (the default cap gates it) and
    scaled by l lazily; ``menon_sum_over`` sums the scaled classes from
    its gcd table, and ``menon_sum_bruteforce`` gives M(m, s, k) from its
    strided counts, so two literal sums are compared.  It holds the mask
    and the gcd table, about 7 bytes a class.
    """
    if math.gcd(l, m) != 1:
        raise ValueError(f"l = {l} is not coprime to m = {m}")
    mask = kth_reduced_mask(m, k)[0]
    scaled = (a * l for a in compress(range(len(mask)), mask))
    return menon_sum_over(scaled, m, s, k) == menon_sum_bruteforce(m, s, k)


def verify_menon_multiplicativity(m1: int, m2: int, s: int, k: int) -> bool:
    """Check M(m1*m2, s, k) = M(m1, s, k) * M(m2, s, k) for coprime m1, m2."""
    if m1 < 1 or m2 < 1:
        raise ValueError("moduli must be positive integers")
    if math.gcd(m1, m2) != 1:
        raise ValueError(f"moduli {m1} and {m2} are not coprime")
    combined = menon_sum_bruteforce(m1 * m2, s, k)
    part1 = menon_sum_bruteforce(m1, s, k)
    part2 = menon_sum_bruteforce(m2, s, k)
    return combined == part1 * part2


def verify_prime_power(p: int, v: int, s: int, k: int) -> bool:
    """Check the prime-power case M(p**v, s, k) = d_s_k(p**v) * phi_k(p**v).

    Exercises both local branches: p**k dividing s (local factor 1) and
    not (local factor v + 1).
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    q = check_power(p, v)
    return menon_sum_bruteforce(q, s, k) == menon_closed_form(q, s, k)

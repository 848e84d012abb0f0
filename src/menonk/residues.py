"""k-th power reduced residue sets and their coprime-modulus composition.

A k-th power reduced set of residues modulo m holds phi_k(m) integers,
one from each congruence class modulo m**k whose members satisfy
(a, m**k)_k = 1.  Membership is a class property: (a, m**k)_k only
depends on a mod m**k, so any system of representatives works; this
module canonicalizes to representatives in [1, m**k], ascending.  A set
is the tuple of its members; the caller holds m and k beside it.  The
standard set and ``check_reduced_set`` both read the mask of reduced
classes from ``arith.kth_reduced_mask``, never ``factorize`` or the
closed ``cohen_phi``.  ``check_reduced_set`` marks each member's class
in that mask, so it holds about a byte a class and no set of the members.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress
from typing import Sequence

from .arith import kth_reduced_mask
from .limits import U128_MAX, check_classes

__all__ = [
    "check_reduced_set",
    "standard_residue_set",
    "crt_combine",
]


def check_reduced_set(elements: Sequence[int], m: int, k: int) -> None:
    """Raise ValueError unless elements are a k-th power reduced residue set mod m.

    Everything is read off kth_reduced_mask's mask of the reduced
    classes mod m**k: the count first, then one pass over the members,
    in order, that refuses a member whose class is not reduced and
    marks each one it accepts 2.  With the count right, a reduced class
    left at 1 means some class was hit twice.  The caller already holds
    the elements, so the mask is capped by the class bound alone.
    """
    mask = kth_reduced_mask(m, k, U128_MAX)[0]
    mk, expected = len(mask), mask.count(1)
    if len(elements) != expected:
        raise ValueError(f"expected phi_k({m}) = {expected} elements, found {len(elements)}")
    for a in elements:
        x = a % mk
        if not mask[x]:
            raise ValueError(f"{a} is not k-th power coprime to {mk}")
        mask[x] = 2
    if mask.count(1):
        raise ValueError("elements are not pairwise incongruent mod m^k")


# maxsize=0 keeps no set (nothing asks for the same one twice) but keeps
# cache_info(), which bench/worker.py reads.
@lru_cache(maxsize=0)
def _standard_elements(m: int, k: int, max_iterations: int | None) -> tuple[int, ...]:
    """The members of [1, m**k], read off kth_reduced_mask's mask of the reduced classes."""
    mask = kth_reduced_mask(m, k, max_iterations)[0]
    # a in [1, m**k] lies in class a mod m**k: classes 1, ..., m**k - 1, then 0.
    return tuple(compress(range(1, len(mask) + 1), mask[1:] + mask[:1]))


def standard_residue_set(m: int, k: int, max_iterations: int | None = None) -> tuple[int, ...]:
    """The canonical set: every a in [1, m**k] with (a, m**k)_k = 1, ascending."""
    return _standard_elements(m, k, max_iterations)


def crt_combine(
    a1: Sequence[int], m1: int, a2: Sequence[int], m2: int, k: int
) -> tuple[int, ...]:
    """Compose residue sets for coprime moduli m1, m2 into one for m1*m2.

    The combined representatives are x1*m2**k + x2*m1**k over all pairs,
    reduced into [1, (m1*m2)**k] and sorted; they land in
    |a1|*|a2| = phi_k(m1*m2) pairwise distinct classes.  Like every
    literal pass, it is refused by ``limits.check_classes`` (default
    cap) before any pair is formed.
    """
    if math.gcd(m1, m2) != 1:
        raise ValueError(f"moduli {m1} and {m2} are not coprime")
    # There are at most (m1*m2)**k pairs, so the class gate bounds them.
    mk = check_classes(m1 * m2, k, None, f"combining residues mod ({m1}*{m2})^{k}")
    m1k, m2k = m1**k, m2**k
    return tuple(sorted((x1 * m2k + x2 * m1k - 1) % mk + 1 for x1 in a1 for x2 in a2))

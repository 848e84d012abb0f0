"""k-th power reduced residue sets and their coprime-modulus composition.

A k-th power reduced set of residues modulo m holds phi_k(m) integers,
one from each congruence class modulo m**k whose members satisfy
(a, m**k)_k = 1.  Membership is a class property: (a, m**k)_k only
depends on a mod m**k, so any system of representatives works; this
module canonicalizes to representatives in [1, m**k], ascending.  The
standard set and ``ResidueSet.validate`` both read the mask of reduced
classes from ``arith.kth_reduced_mask``, never ``factorize`` or the
closed ``cohen_phi``.  ``validate`` marks each member's class in that
mask, so it holds about a byte a class and no set of the members.
``ResidueSet`` is a plain immutable record with ``__slots__``: its fields
are read-only, and it compares and hashes by value.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress

from .arith import kth_reduced_mask
from .limits import U128_MAX, check_classes

__all__ = [
    "ResidueSet",
    "standard_residue_set",
    "crt_combine",
]


class ResidueSet:
    """phi_k(m) representatives, k-th power coprime to m**k, ascending.

    Immutable: setting or deleting a field raises AttributeError.  Two
    sets are equal, and hash alike, when m, k and elements are.
    """

    __slots__ = ("m", "k", "elements")
    m: int
    k: int
    elements: tuple[int, ...]

    def __init__(self, m: int, k: int, elements: tuple[int, ...]) -> None:
        # The slots are filled past the read-only __setattr__ below.
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "elements", elements)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"ResidueSet is read-only: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"ResidueSet is read-only: cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not through __setattr__.
        return self.__class__, (self.m, self.k, self.elements)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m, self.k, self.elements) == (other.m, other.k, other.elements)

    def __hash__(self) -> int:
        return hash((self.m, self.k, self.elements))

    def __repr__(self) -> str:
        return f"ResidueSet(m={self.m!r}, k={self.k!r}, elements={self.elements!r})"

    def __len__(self) -> int:
        return len(self.elements)

    def validate(self) -> None:
        """Raise ValueError unless all reduced-residue-set invariants hold.

        Everything is read off kth_reduced_mask's mask of the reduced
        classes mod m**k: the count first, then one pass over the
        members, in order, that refuses a member whose class is not
        reduced and marks each one it accepts 2.  With the count right,
        a reduced class left at 1 means some class was hit twice.  The
        caller already holds the elements, so the mask is capped by the
        class bound alone.
        """
        mask = kth_reduced_mask(self.m, self.k, U128_MAX)[0]
        mk, expected = len(mask), mask.count(1)
        if len(self.elements) != expected:
            raise ValueError(
                f"expected phi_k({self.m}) = {expected} elements, "
                f"found {len(self.elements)}"
            )
        for a in self.elements:
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


def standard_residue_set(m: int, k: int, max_iterations: int | None = None) -> ResidueSet:
    """The canonical set: every a in [1, m**k] with (a, m**k)_k = 1."""
    return ResidueSet(m, k, _standard_elements(m, k, max_iterations))


def crt_combine(a1: ResidueSet, a2: ResidueSet) -> ResidueSet:
    """Compose residue sets for coprime moduli m1, m2 into one for m1*m2.

    The combined representatives are a1*m2**k + a2*m1**k over all pairs,
    reduced into [1, (m1*m2)**k]; they land in |a1|*|a2| = phi_k(m1*m2)
    pairwise distinct classes.  Like every literal pass, it is refused
    by ``limits.check_classes`` (default cap) before any pair is formed.
    """
    if a1.k != a2.k:
        raise ValueError(f"mismatched powers k = {a1.k} and k = {a2.k}")
    if math.gcd(a1.m, a2.m) != 1:
        raise ValueError(f"moduli {a1.m} and {a2.m} are not coprime")
    k = a1.k
    # There are at most (m1*m2)**k pairs, so the class gate bounds them.
    mk = check_classes(a1.m * a2.m, k, None, f"combining residues mod ({a1.m}*{a2.m})^{k}")
    m1k, m2k = a1.m**k, a2.m**k
    combined = sorted(
        (x1 * m2k + x2 * m1k - 1) % mk + 1
        for x1 in a1.elements
        for x2 in a2.elements
    )
    return ResidueSet(a1.m * a2.m, k, tuple(combined))

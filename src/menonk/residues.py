"""k-th power reduced residue sets and their coprime-modulus composition.

A k-th power reduced set of residues modulo m holds phi_k(m) integers,
one from each congruence class modulo m**k whose members satisfy
(a, m**k)_k = 1.  Membership is a class property: (a, m**k)_k only
depends on a mod m**k, so any system of representatives works; this
module canonicalizes to representatives in [1, m**k], ascending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

from .arith import cohen_phi, gcd_pow_k, kth_gcd_classes, kth_unit_mask
from .limits import checked_mul, checked_pow

__all__ = [
    "ResidueSet",
    "standard_residue_set",
    "crt_combine",
]


@dataclass(frozen=True)
class ResidueSet:
    """phi_k(m) representatives, k-th power coprime to m**k, ascending."""

    m: int
    k: int
    elements: tuple[int, ...]

    @property
    def modulus(self) -> int:
        """m**k, the modulus the congruence classes live in."""
        return checked_pow(self.m, self.k, "m^k")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def classes(self) -> frozenset[int]:
        """The residue classes mod m**k, as canonical representatives in [0, m**k)."""
        mk = self.modulus
        return frozenset(a % mk for a in self.elements)

    def validate(self) -> None:
        """Raise ValueError unless all reduced-residue-set invariants hold."""
        mk = self.modulus
        expected = cohen_phi(self.m, self.k)
        if len(self.elements) != expected:
            raise ValueError(
                f"expected phi_k({self.m}) = {expected} elements, "
                f"found {len(self.elements)}"
            )
        for a in self.elements:
            if gcd_pow_k(a, mk, self.k) != 1:
                raise ValueError(f"{a} is not k-th power coprime to {mk}")
        if len(self.classes()) != len(self.elements):
            raise ValueError("elements are not pairwise incongruent mod m^k")


# maxsize=0 keeps no set (nothing asks for the same one twice) but keeps
# cache_info(), which bench/worker.py reads.
@lru_cache(maxsize=0)
def _standard_elements(m: int, k: int, max_iterations: int | None) -> tuple[int, ...]:
    mask = bytes(kth_unit_mask(kth_gcd_classes(m, k, max_iterations)))
    # a in [1, m**k] lies in class a mod m**k: classes 1, ..., m**k - 1, then 0.
    return tuple(compress(range(1, len(mask) + 1), mask[1:] + mask[:1]))


def standard_residue_set(m: int, k: int, max_iterations: int | None = None) -> ResidueSet:
    """The canonical set: every a in [1, m**k] with (a, m**k)_k = 1."""
    return ResidueSet(m, k, _standard_elements(m, k, max_iterations))


def crt_combine(a1: ResidueSet, a2: ResidueSet) -> ResidueSet:
    """Compose residue sets for coprime moduli m1, m2 into one for m1*m2.

    The combined representatives are a1*m2**k + a2*m1**k over all pairs,
    reduced into [1, (m1*m2)**k]; they land in |a1|*|a2| = phi_k(m1*m2)
    pairwise distinct classes.
    """
    if a1.k != a2.k:
        raise ValueError(f"mismatched powers k = {a1.k} and k = {a2.k}")
    if math.gcd(a1.m, a2.m) != 1:
        raise ValueError(f"moduli {a1.m} and {a2.m} are not coprime")
    k = a1.k
    m1k = checked_pow(a1.m, k, "m1^k")
    m2k = checked_pow(a2.m, k, "m2^k")
    mk = checked_mul(m1k, m2k, "(m1*m2)^k")
    combined = sorted(
        (x1 * m2k + x2 * m1k - 1) % mk + 1
        for x1 in a1.elements
        for x2 in a2.elements
    )
    return ResidueSet(a1.m * a2.m, k, tuple(combined))

import math
import random

import pytest

from menonk.arith import cohen_phi, gcd_pow_k
from menonk.limits import ResourceLimitError, Uint128OverflowError
from menonk.residues import (
    ResidueSet,
    _standard_elements,
    crt_combine,
    is_kth_power_coprime,
    standard_residue_set,
)


def test_standard_set_examples():
    assert standard_residue_set(12, 1).elements == (1, 5, 7, 11)
    s42 = standard_residue_set(4, 2)
    assert s42.elements == tuple(a for a in range(1, 17) if a % 4 != 0)
    assert len(s42) == 12
    one = standard_residue_set(1, 3)
    assert one.elements == (1,)


def test_standard_sets_are_not_kept():
    # a set can hold up to 2^25 elements, and nothing asks for the same one twice
    _standard_elements.cache_clear()
    assert standard_residue_set(12, 2) == standard_residue_set(12, 2)
    info = _standard_elements.cache_info()
    assert info.currsize == 0 and info.misses == 2


def test_standard_set_invariants():
    for m in range(1, 25):
        for k in (1, 2):
            rs = standard_residue_set(m, k)
            rs.validate()
            assert len(rs) == cohen_phi(m, k)
            assert list(rs.elements) == sorted(rs.elements)


def test_standard_set_cap():
    with pytest.raises(ResourceLimitError):
        standard_residue_set(11, 8)
    with pytest.raises(ResourceLimitError):
        standard_residue_set(100, 1, max_iterations=50)


def test_validate_catches_bad_sets():
    with pytest.raises(ValueError):
        ResidueSet(12, 1, (1, 5, 7)).validate()  # wrong cardinality
    with pytest.raises(ValueError):
        ResidueSet(12, 1, (1, 5, 7, 10)).validate()  # 10 not coprime
    with pytest.raises(ValueError):
        ResidueSet(12, 1, (1, 5, 7, 17)).validate()  # 17 = 5 mod 12


def test_crt_combine_small_example():
    combined = crt_combine(standard_residue_set(3, 1), standard_residue_set(4, 1))
    combined.validate()
    assert combined.m == 12 and combined.k == 1
    assert len(combined) == 4
    assert combined.classes() == standard_residue_set(12, 1).classes()


def test_crt_combine_with_unit_modulus():
    base = standard_residue_set(5, 2)
    combined = crt_combine(standard_residue_set(1, 2), base)
    combined.validate()
    assert combined.m == 5 and len(combined) == len(base)
    assert combined.classes() == base.classes()


def test_crt_combine_k2_example():
    combined = crt_combine(standard_residue_set(2, 2), standard_residue_set(3, 2))
    combined.validate()
    assert len(combined) == cohen_phi(2, 2) * cohen_phi(3, 2) == 3 * 8
    assert combined.classes() == standard_residue_set(6, 2).classes()


def test_crt_combine_matches_standard_classes_grid():
    for m1 in range(1, 13):
        for m2 in range(1, 13):
            if math.gcd(m1, m2) != 1:
                continue
            for k in (1, 2):
                combined = crt_combine(
                    standard_residue_set(m1, k), standard_residue_set(m2, k)
                )
                combined.validate()
                assert combined.classes() == standard_residue_set(m1 * m2, k).classes()


def test_crt_combine_domain_errors():
    with pytest.raises(ValueError):
        crt_combine(standard_residue_set(4, 1), standard_residue_set(6, 1))
    with pytest.raises(ValueError):
        crt_combine(standard_residue_set(3, 1), standard_residue_set(4, 2))
    with pytest.raises(Uint128OverflowError):
        crt_combine(
            ResidueSet(2**40, 3, (1,)),  # hand-built; only moduli matter here
            ResidueSet(3**40, 3, (1,)),
        )


def test_is_kth_power_coprime_examples():
    assert is_kth_power_coprime(4, 2, 3)  # (4, 8)_3 = 1
    assert not is_kth_power_coprime(12, 4, 2)  # (12, 16)_2 = 4
    assert is_kth_power_coprime(1, 10**6, 2)
    assert is_kth_power_coprime(0, 1, 5)
    assert not is_kth_power_coprime(0, 2, 5)


def test_membership_stability_under_shifts():
    rng = random.Random(41)
    for m, k in [(12, 1), (4, 2), (9, 2), (5, 3)]:
        rs = standard_residue_set(m, k)
        mk = rs.modulus
        for a in rs.elements:
            q = rng.randrange(-10, 11)
            assert gcd_pow_k(a + q * mk, mk, k) == 1

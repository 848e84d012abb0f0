import math
import random
import time
import tracemalloc

import pytest

from menonk.arith import cohen_phi, gcd_pow_k
from menonk.limits import ResourceLimitError, Uint128OverflowError
from menonk.residues import (
    _standard_elements,
    check_reduced_set,
    crt_combine,
    standard_residue_set,
)


def test_standard_set_examples():
    assert standard_residue_set(12, 1) == (1, 5, 7, 11)
    s42 = standard_residue_set(4, 2)
    assert s42 == tuple(a for a in range(1, 17) if a % 4 != 0)
    assert len(s42) == 12
    assert standard_residue_set(1, 3) == (1,)


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
            check_reduced_set(rs, m, k)
            assert len(rs) == cohen_phi(m, k)
            assert list(rs) == sorted(rs)


def test_standard_set_cap():
    with pytest.raises(ResourceLimitError):
        standard_residue_set(11, 8)
    with pytest.raises(ResourceLimitError):
        standard_residue_set(100, 1, max_iterations=50)


def test_validate_catches_bad_sets():
    with pytest.raises(ValueError, match="expected phi_k"):
        check_reduced_set((1, 5, 7), 12, 1)  # wrong cardinality
    with pytest.raises(ValueError, match="10 is not k-th power coprime to 12"):
        check_reduced_set((1, 5, 7, 10), 12, 1)  # 10 not coprime
    with pytest.raises(ValueError, match="not pairwise incongruent"):
        check_reduced_set((1, 5, 7, 17), 12, 1)  # 17 = 5 mod 12
    # the messages keep their order: a repeat before a non-member reports the non-member
    with pytest.raises(ValueError, match="10 is not k-th power coprime to 12"):
        check_reduced_set((1, 1, 5, 10), 12, 1)
    with pytest.raises(ValueError, match="not pairwise incongruent"):
        check_reduced_set((1, 5, 7, 13), 12, 1)  # 13 = 1 mod 12
    check_reduced_set((13, -7, 7, 11), 12, 1)  # shifted representatives


@pytest.mark.parametrize("m, k", [(999983, 1), (1000, 2)])
def test_validate_holds_only_the_mask(m, k):
    # the mask takes a byte a class; a set of the members' classes took about 71
    rs = standard_residue_set(m, k)
    tracemalloc.start()
    try:
        check_reduced_set(rs, m, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * m**k, peak / m**k


def test_crt_combine_small_example():
    combined = crt_combine(standard_residue_set(3, 1), 3, standard_residue_set(4, 1), 4, 1)
    check_reduced_set(combined, 12, 1)
    assert combined == standard_residue_set(12, 1)


def test_crt_combine_with_unit_modulus():
    base = standard_residue_set(5, 2)
    combined = crt_combine(standard_residue_set(1, 2), 1, base, 5, 2)
    check_reduced_set(combined, 5, 2)
    assert combined == base


def test_crt_combine_k2_example():
    combined = crt_combine(standard_residue_set(2, 2), 2, standard_residue_set(3, 2), 3, 2)
    check_reduced_set(combined, 6, 2)
    assert len(combined) == cohen_phi(2, 2) * cohen_phi(3, 2) == 3 * 8
    assert combined == standard_residue_set(6, 2)


def test_crt_combine_matches_standard_classes_grid():
    for m1 in range(1, 13):
        for m2 in range(1, 13):
            if math.gcd(m1, m2) != 1:
                continue
            for k in (1, 2):
                combined = crt_combine(
                    standard_residue_set(m1, k), m1, standard_residue_set(m2, k), m2, k
                )
                check_reduced_set(combined, m1 * m2, k)
                assert combined == standard_residue_set(m1 * m2, k)


def test_crt_combine_domain_errors():
    with pytest.raises(ValueError, match="moduli 4 and 6 are not coprime"):
        crt_combine(standard_residue_set(4, 1), 4, standard_residue_set(6, 1), 6, 1)
    with pytest.raises(Uint128OverflowError):
        crt_combine((1,), 2**40, (1,), 3**40, 3)  # only the moduli matter here
    # m = 0 would otherwise reach a reduction mod 0**k
    for m, k in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="m and k must be positive integers"):
            crt_combine((1,), m, (1,), 1, k)


def test_crt_combine_is_gated_before_pairing():
    # 3600**2 classes are over the default cap; 8.3 * 10**6 pairs would be formed otherwise.
    a1, a2 = standard_residue_set(400, 2), standard_residue_set(9, 2)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"\(400\*9\)\^2"):
        crt_combine(a1, 400, a2, 9, 2)
    assert time.perf_counter() - start < 0.5


def test_membership_stability_under_shifts():
    rng = random.Random(41)
    for m, k in [(12, 1), (4, 2), (9, 2), (5, 3)]:
        rs = standard_residue_set(m, k)
        mk = m**k
        for a in rs:
            q = rng.randrange(-10, 11)
            assert gcd_pow_k(a + q * mk, mk, k) == 1

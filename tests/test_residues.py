import copy
import math
import pickle
import random
import time
import tracemalloc

import pytest

from menonk.arith import cohen_phi, gcd_pow_k
from menonk.limits import ResourceLimitError, Uint128OverflowError
from menonk.residues import (
    ResidueSet,
    _standard_elements,
    crt_combine,
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


def test_residue_set_is_a_read_only_value():
    rs = ResidueSet(12, 1, (1, 5, 7, 11))
    same = ResidueSet(m=12, k=1, elements=(1, 5, 7, 11))
    assert hash(rs) == hash(same) and {rs: "x"}[same] == "x"
    assert len({rs, same, standard_residue_set(12, 1)}) == 1
    assert rs != ResidueSet(12, 2, rs.elements) and rs != (12, 1, rs.elements)
    for name in ("m", "k", "elements", "other"):
        with pytest.raises(AttributeError):
            setattr(rs, name, 0)
        with pytest.raises(AttributeError):
            delattr(rs, name)
    assert rs == same and len(rs) == 4
    assert repr(rs) == "ResidueSet(m=12, k=1, elements=(1, 5, 7, 11))"
    assert copy.copy(rs) == pickle.loads(pickle.dumps(rs)) == rs


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
    with pytest.raises(ValueError, match="expected phi_k"):
        ResidueSet(12, 1, (1, 5, 7)).validate()  # wrong cardinality
    with pytest.raises(ValueError, match="10 is not k-th power coprime to 12"):
        ResidueSet(12, 1, (1, 5, 7, 10)).validate()  # 10 not coprime
    with pytest.raises(ValueError, match="not pairwise incongruent"):
        ResidueSet(12, 1, (1, 5, 7, 17)).validate()  # 17 = 5 mod 12
    # the messages keep their order: a repeat before a non-member reports the non-member
    with pytest.raises(ValueError, match="10 is not k-th power coprime to 12"):
        ResidueSet(12, 1, (1, 1, 5, 10)).validate()
    with pytest.raises(ValueError, match="not pairwise incongruent"):
        ResidueSet(12, 1, (1, 5, 7, 13)).validate()  # 13 = 1 mod 12
    ResidueSet(12, 1, (13, -7, 7, 11)).validate()  # shifted representatives


@pytest.mark.parametrize("m, k", [(999983, 1), (1000, 2)])
def test_validate_holds_only_the_mask(m, k):
    # the mask takes a byte a class; a set of the members' classes took about 71
    rs = standard_residue_set(m, k)
    tracemalloc.start()
    try:
        rs.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * m**k, peak / m**k


def test_crt_combine_small_example():
    combined = crt_combine(standard_residue_set(3, 1), standard_residue_set(4, 1))
    combined.validate()
    assert combined.m == 12 and combined.k == 1
    assert len(combined) == 4
    assert combined.elements == standard_residue_set(12, 1).elements


def test_crt_combine_with_unit_modulus():
    base = standard_residue_set(5, 2)
    combined = crt_combine(standard_residue_set(1, 2), base)
    combined.validate()
    assert combined.m == 5 and len(combined) == len(base)
    assert combined.elements == base.elements


def test_crt_combine_k2_example():
    combined = crt_combine(standard_residue_set(2, 2), standard_residue_set(3, 2))
    combined.validate()
    assert len(combined) == cohen_phi(2, 2) * cohen_phi(3, 2) == 3 * 8
    assert combined.elements == standard_residue_set(6, 2).elements


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
                assert combined.elements == standard_residue_set(m1 * m2, k).elements


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
    # m = 0 would otherwise reach a reduction mod 0**k
    for m, k in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="m and k must be positive integers"):
            crt_combine(ResidueSet(m, k, (1,)), ResidueSet(1, k, (1,)))


def test_crt_combine_is_gated_before_pairing():
    # 3600**2 classes are over the default cap; 8.3 * 10**6 pairs would be formed otherwise.
    a1, a2 = standard_residue_set(400, 2), standard_residue_set(9, 2)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"\(400\*9\)\^2"):
        crt_combine(a1, a2)
    assert time.perf_counter() - start < 0.5


def test_membership_stability_under_shifts():
    rng = random.Random(41)
    for m, k in [(12, 1), (4, 2), (9, 2), (5, 3)]:
        rs = standard_residue_set(m, k)
        mk = m**k
        for a in rs.elements:
            q = rng.randrange(-10, 11)
            assert gcd_pow_k(a + q * mk, mk, k) == 1

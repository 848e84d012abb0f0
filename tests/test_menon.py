import math
import random

import pytest

from menonk.arith import cohen_phi, d_s, divisor_count, euler_phi
from menonk.limits import ResourceLimitError, Uint128OverflowError
from menonk.menon import (
    MenonParams,
    menon_closed_form,
    menon_sum_bruteforce,
    menon_sum_over,
    menon_sums,
    verify_identity,
    verify_menon_multiplicativity,
    verify_prime_power,
    verify_rao_precondition,
    verify_unit_translation,
)
from menonk.residues import standard_residue_set


def test_params_validation():
    MenonParams(1, -10, 3)
    with pytest.raises(ValueError):
        MenonParams(0, 1, 1)
    with pytest.raises(ValueError):
        MenonParams(4, 1, 0)
    with pytest.raises(Uint128OverflowError):
        MenonParams(2**65, 0, 2)
    assert MenonParams(4, 1, 2).modulus == 16


def test_brute_force_worked_sums():
    assert menon_sum_bruteforce(MenonParams(12, 1, 1)) == 24
    assert menon_sum_bruteforce(MenonParams(12, 2, 1)) == 8
    assert menon_sum_bruteforce(MenonParams(4, 1, 2)) == 36
    assert menon_sum_bruteforce(MenonParams(4, 12, 2)) == 12


def test_brute_force_prime_family():
    for p in (2, 3, 5, 7, 11, 13, 31, 97):
        assert menon_sum_bruteforce(MenonParams(p, 1, 1)) == 2 * p - 2


def test_closed_form_examples():
    assert menon_closed_form(MenonParams(12, 1, 1)) == 24
    assert menon_closed_form(MenonParams(12, 2, 1)) == 8
    assert menon_closed_form(MenonParams(4, 12, 2)) == 12
    assert menon_closed_form(MenonParams(4, 1, 2)) == 36


def test_closed_form_specializations():
    # k = 1 gives d_s(m)*phi(m); s = 1 further collapses to d(m)*phi(m)
    rng = random.Random(50)
    for _ in range(200):
        m = rng.randrange(1, 400)
        s = rng.randrange(-30, 31)
        assert menon_closed_form(MenonParams(m, s, 1)) == d_s(m, s) * euler_phi(m)
        assert menon_closed_form(MenonParams(m, 1, 1)) == divisor_count(m) * euler_phi(m)


def test_s_zero_degenerate_case():
    for m in (1, 2, 6, 12, 36):
        for k in (1, 2):
            assert menon_sum_bruteforce(MenonParams(m, 0, k)) == cohen_phi(m, k)
            assert menon_closed_form(MenonParams(m, 0, k)) == cohen_phi(m, k)


def test_modulus_one():
    for s in (-3, 0, 1, 9):
        for k in (1, 2, 5):
            report = verify_identity(MenonParams(1, s, k))
            assert report.holds and report.lhs == report.rhs == 1


def test_verify_identity_report_fields():
    report = verify_identity(MenonParams(12, 1, 1))
    assert report.lhs == report.rhs == 24
    assert report.holds is True
    assert report.holds == (report.lhs == report.rhs)
    assert report.params == MenonParams(12, 1, 1)


def test_verify_identity_cap():
    with pytest.raises(ResourceLimitError):
        verify_identity(MenonParams(11, 8, 8))
    with pytest.raises(ResourceLimitError):
        menon_sum_bruteforce(MenonParams(100, 1, 1), max_iterations=50)


def test_rao_precondition():
    assert verify_rao_precondition(MenonParams(4, 1, 2)) is True
    assert verify_rao_precondition(MenonParams(4, 12, 2)) is False
    assert verify_rao_precondition(MenonParams(9, 0, 1)) is False
    assert verify_rao_precondition(MenonParams(1, 0, 1)) is True
    # when it holds, the closed form is d(m)*phi_k(m)
    rng = random.Random(51)
    for _ in range(200):
        m = rng.randrange(1, 80)
        s = rng.randrange(-40, 41)
        k = rng.randrange(1, 3)
        params = MenonParams(m, s, k)
        if verify_rao_precondition(params):
            assert menon_closed_form(params) == divisor_count(m) * cohen_phi(m, k)


def test_unit_translation():
    assert verify_unit_translation(MenonParams(12, 1, 1), 5)
    assert verify_unit_translation(MenonParams(12, 1, 1), 1)
    assert verify_unit_translation(MenonParams(4, 12, 2), 3)
    with pytest.raises(ValueError):
        verify_unit_translation(MenonParams(12, 1, 1), 4)


def test_unit_translation_sampled():
    rng = random.Random(52)
    done = 0
    while done < 60:
        m = rng.randrange(1, 40)
        k = rng.randrange(1, 3)
        if m**k > 2500:
            continue
        l = rng.randrange(-30, 31)
        if l == 0 or math.gcd(l, m) != 1:
            continue
        s = rng.randrange(-25, 26)
        assert verify_unit_translation(MenonParams(m, s, k), l), (m, s, k, l)
        done += 1


def test_multiplicativity():
    assert verify_menon_multiplicativity(3, 4, 1, 1)
    assert verify_menon_multiplicativity(1, 9, 4, 1)
    assert verify_menon_multiplicativity(4, 9, 2, 1)
    with pytest.raises(ValueError):
        verify_menon_multiplicativity(6, 4, 1, 1)


def test_prime_power_cases():
    assert verify_prime_power(2, 2, 1, 2)  # p^k does not divide s
    assert verify_prime_power(2, 2, 12, 2)  # p^k divides s
    assert verify_prime_power(3, 2, 9, 1)  # p | s with k = 1
    with pytest.raises(ValueError):
        verify_prime_power(6, 2, 1, 1)
    with pytest.raises(ValueError):
        verify_prime_power(5, 0, 1, 1)


def test_sum_independent_of_residue_representatives():
    rng = random.Random(53)
    for m, k in [(12, 1), (15, 1), (4, 2), (6, 2), (3, 3)]:
        base = standard_residue_set(m, k)
        mk = base.modulus
        for s in (-7, -1, 0, 1, 2, 25):
            params = MenonParams(m, s, k)
            shifted = [a + rng.randrange(-5, 6) * mk for a in base.elements]
            assert menon_sum_over(shifted, params) == menon_sum_bruteforce(params)


def test_menon_sums_match_the_per_element_loop():
    for k, m_max in ((1, 40), (2, 20), (3, 8)):
        for m in range(1, m_max + 1):
            mk = m**k
            shifts = [0, 1, -1, 13, -13, mk, 2 * mk + 3, 2**200, -(2**200)]
            elements = standard_residue_set(m, k).elements
            expected = [menon_sum_over(elements, MenonParams(m, s, k)) for s in shifts]
            assert list(menon_sums(m, k, shifts)) == expected, (m, k)


def test_menon_sums_checks_before_summing():
    with pytest.raises(ValueError):
        menon_sums(0, 1, [1])
    with pytest.raises(Uint128OverflowError):
        menon_sums(2**65, 2, [1])
    with pytest.raises(ResourceLimitError):
        menon_sums(100, 1, [1], max_iterations=50)


def test_identity_holds_on_sampled_grid():
    rng = random.Random(54)
    for _ in range(300):
        k = rng.choice((1, 2, 3))
        m = rng.randrange(1, {1: 300, 2: 60, 3: 15}[k] + 1)
        s = rng.randrange(-25, 26)
        report = verify_identity(MenonParams(m, s, k))
        assert report.holds, (m, s, k, report)

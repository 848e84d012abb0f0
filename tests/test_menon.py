import math
import random
import time
import tracemalloc
from array import array
from fractions import Fraction
from functools import partial
from itertools import compress

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from menonk import arith, factor, menon
from menonk.arith import (
    cohen_phi,
    cohen_phi_bruteforce,
    d_s,
    d_s_k,
    divisor_count,
    euler_phi,
    gcd_pow_k,
    kth_gcd_classes,
    pillai,
    pillai_bruteforce,
)
from menonk.batch import batch_table
from menonk.limits import U128_MAX, ResourceLimitError, Uint128OverflowError
from menonk.menon import (
    menon_closed_form,
    menon_closed_forms,
    menon_sum_bruteforce,
    menon_sum_over,
    menon_sums,
)
from menonk.residues import check_reduced_set, crt_combine, standard_residue_set


def test_brute_force_worked_sums():
    assert menon_sum_bruteforce(12, 1, 1) == 24
    assert menon_sum_bruteforce(12, 2, 1) == 8
    assert menon_sum_bruteforce(4, 1, 2) == 36
    assert menon_sum_bruteforce(4, 12, 2) == 12


def test_brute_force_prime_family():
    for p in (2, 3, 5, 7, 11, 13, 31, 97):
        assert menon_sum_bruteforce(p, 1, 1) == 2 * p - 2


def test_closed_form_examples():
    assert menon_closed_form(12, 1, 1) == 24
    assert menon_closed_form(12, 2, 1) == 8
    assert menon_closed_form(4, 12, 2) == 12
    assert menon_closed_form(4, 1, 2) == 36


def test_closed_form_specializations():
    # k = 1 gives d_s(m)*phi(m); s = 1 further collapses to d(m)*phi(m)
    rng = random.Random(50)
    for _ in range(200):
        m = rng.randrange(1, 400)
        s = rng.randrange(-30, 31)
        assert menon_closed_form(m, s, 1) == d_s(m, s) * euler_phi(m)
        assert menon_closed_form(m, 1, 1) == divisor_count(m) * euler_phi(m)


def test_closed_form_is_the_product_of_the_scalar_closed_forms():
    # menon_closed_forms evaluates both rules over one factorization: it must give what
    # the scalar closed forms give, shift by shift.  menon_closed_form is its one-shift case.
    for m in range(1, 61):
        for k in (1, 2, 3):
            shifts = [*range(-40, 41), 0, 2**200, -(2**200), -(6**k * 5**k), m**k]
            expected = [d_s_k(m, s, k) * cohen_phi(m, k) for s in shifts]
            assert list(menon_closed_forms(m, k, shifts)) == expected, (m, k)
            assert [menon_closed_form(m, s, k) for s in shifts] == expected, (m, k)
    # The scalar closed forms, the many-shift closed route (even with no shift) and the
    # literal gate share one domain check: each refuses these pairs with the same words.
    refusals = {
        (2**64, 2): (Uint128OverflowError, f"m^k = {2**64}^2 is outside [0, 2^128)"),
        (0, 2): (ValueError, "m and k must be positive integers"),
        (4, 0): (ValueError, "m and k must be positive integers"),
        (0, 0): (ValueError, "m and k must be positive integers"),
    }
    for (m, k), (error, message) in refusals.items():
        calls = [
            partial(cohen_phi, m, k),
            partial(pillai, m, k),
            partial(menon_closed_forms, m, k, ()),
            partial(arith.kth_reduced_mask, m, k),
            *(partial(menon_closed_form, m, s, k) for s in (0, 1, 2**200)),
        ]
        for call in calls:
            with pytest.raises(error) as refused:
                call()
            assert type(refused.value) is error and str(refused.value) == message, (call, m, k)


def test_s_zero_degenerate_case():
    for m in (1, 2, 6, 12, 36):
        for k in (1, 2):
            assert menon_sum_bruteforce(m, 0, k) == cohen_phi(m, k)
            assert menon_closed_form(m, 0, k) == cohen_phi(m, k)


def test_modulus_one():
    for s in (-3, 0, 1, 9):
        for k in (1, 2, 5):
            assert menon_sum_bruteforce(1, s, k) == menon_closed_form(1, s, k) == 1


def test_verify_identity_cap():
    with pytest.raises(ResourceLimitError):
        menon_sum_bruteforce(11, 8, 8)
    with pytest.raises(ResourceLimitError):
        menon_sum_bruteforce(100, 1, 1, max_iterations=50)


def test_rao_precondition():
    # when (s, m**k)_k = 1, the closed form is d(m)*phi_k(m)
    rng = random.Random(51)
    for _ in range(200):
        m = rng.randrange(1, 80)
        s = rng.randrange(-40, 41)
        k = rng.randrange(1, 3)
        if gcd_pow_k(s, m**k, k) == 1:
            assert menon_closed_form(m, s, k) == divisor_count(m) * cohen_phi(m, k)


def unit_translated_sum(m, s, k, l):
    """menon_sum_over the mask's reduced classes, each scaled by l as it is read."""
    mask = arith.kth_reduced_mask(m, k)[0]
    return menon_sum_over((a * l for a in compress(range(len(mask)), mask)), m, s, k)


def test_unit_translation():
    # A unit l permutes the reduced classes, so the two literal sums agree.
    assert unit_translated_sum(12, 1, 1, 5) == menon_sum_bruteforce(12, 1, 1) == 24
    assert unit_translated_sum(12, 1, 1, 1) == 24
    assert unit_translated_sum(4, 12, 2, 3) == menon_sum_bruteforce(4, 12, 2) == 12
    # l = 4 is no unit mod 12: 1, 5, 7, 11 go to 4, 8, 4, 8, and the sum is not M(12, 1, 1).
    assert unit_translated_sum(12, 1, 1, 4) == 8


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
        assert unit_translated_sum(m, s, k, l) == menon_sum_bruteforce(m, s, k), (m, s, k, l)
        done += 1


@pytest.mark.parametrize("m, k", [(99991, 1), (300, 2)])
def test_unit_translation_holds_the_mask_and_the_table(m, k):
    # a byte a class for the mask and 4 for the gcd table, with no set of the members
    tracemalloc.start()
    try:
        assert unit_translated_sum(m, 5, k, 7) == menon_sum_bruteforce(m, 5, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * m**k, peak / m**k


def test_multiplicativity():
    for m1, m2, s in ((3, 4, 1), (1, 9, 4), (4, 9, 2)):
        product = menon_sum_bruteforce(m1, s, 1) * menon_sum_bruteforce(m2, s, 1)
        assert menon_sum_bruteforce(m1 * m2, s, 1) == product, (m1, m2, s)
    # 6 and 4 are not coprime: M(24, 1, 1) = 8 * 8, but M(6, 1, 1) * M(4, 1, 1) = 8 * 6.
    split = menon_sum_bruteforce(6, 1, 1) * menon_sum_bruteforce(4, 1, 1)
    assert menon_sum_bruteforce(24, 1, 1) == 64 != split == 48


def test_prime_power_cases():
    for p, v, s, k in (
        (2, 2, 1, 2),  # p^k does not divide s
        (2, 2, 12, 2),  # p^k divides s
        (3, 2, 9, 1),  # p | s with k = 1
        # v = 1, the paper's base case, on both local branches
        (3, 1, 9, 2),  # 3^2 | 9: local factor 1
        (3, 1, 1, 2),  # 3^2 does not divide 1: local factor 2
    ):
        assert menon_sum_bruteforce(p**v, s, k) == menon_closed_form(p**v, s, k), (p, v, s, k)


def test_sum_independent_of_residue_representatives():
    rng = random.Random(53)
    for m, k in [(12, 1), (15, 1), (4, 2), (6, 2), (3, 3)]:
        base = standard_residue_set(m, k)
        mk = m**k
        for s in (-7, -1, 0, 1, 2, 25):
            shifted = [a + rng.randrange(-5, 6) * mk for a in base]
            assert menon_sum_over(shifted, m, s, k) == menon_sum_bruteforce(m, s, k)


def test_menon_sums_match_the_per_element_loop():
    for k, m_max in ((1, 40), (2, 20), (3, 8)):
        for m in range(1, m_max + 1):
            mk = m**k
            shifts = [0, 1, -1, 13, -13, mk, 2 * mk + 3, 2**200, -(2**200)]
            elements = standard_residue_set(m, k)
            expected = [menon_sum_over(elements, m, s, k) for s in shifts]
            assert list(menon_sums(m, k, shifts)) == expected, (m, k)


def rotated_sum(table, mask, s):
    """M(m, s, k) as the sum of t[(a - s) mod m**k] over the reduced a: the mask rotated left by s."""
    r = s % len(table)
    return sum(compress(table, mask[r:] + mask[:r]))


@pytest.mark.parametrize(
    "m, k",
    [(210, 1), (2310, 1), (30030, 1), (720720, 1), (5184, 1), (210, 2), (720, 2), (360, 2), (60, 3)],
)
def test_menon_sums_match_the_rotated_table_sum(m, k):
    # Four to six primes, and 5184 = 2^6 3^4 and 720 = 2^4 3^2 5 for high exponents: the
    # weights' differences run over every step of the lattice, and a shift counts d(m) - 1 strides.
    mk = m**k
    table = array("I", kth_gcd_classes(m, k))
    mask = bytes(t == 1 for t in table)
    shifts = [0, 1, -1, mk, 2 * mk + 3, 2**200, -(2**200), 6**k * 5**k]
    assert list(menon_sums(m, k, shifts)) == [rotated_sum(table, mask, s) for s in shifts]


def test_menon_sums_build_no_gcd_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("menon_sums built a gcd table")

    monkeypatch.setattr(arith, "_kth_block", no_table)
    for m, k in ((360, 2), (720, 1), (60, 3)):
        shifts = range(-3, 4)
        assert list(menon_sums(m, k, shifts)) == [menon_closed_form(m, s, k) for s in shifts]


def test_no_literal_entry_point_reads_factorize(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorize({n}) read by the literal route")

    literals = (
        lambda: list(kth_gcd_classes(360, 1)),
        lambda: arith.kth_reduced_mask(360, 1),
        lambda: list(menon_sums(360, 1, range(-3, 4))),
        lambda: arith.cohen_phi_bruteforce(60, 2),
        lambda: arith.pillai_bruteforce(60, 2),
        lambda: menon_sum_bruteforce(60, 4, 2),
        lambda: standard_residue_set(60, 2),
        lambda: menon_sum_over(standard_residue_set(60, 2), 60, 4, 2),
        lambda: check_reduced_set(standard_residue_set(60, 2), 60, 2),
        lambda: crt_combine(standard_residue_set(4, 2), 4, standard_residue_set(15, 2), 15, 2),
    )
    expected = [literal() for literal in literals]
    monkeypatch.setattr(arith, "factorize", refuse)
    assert [literal() for literal in literals] == expected


def test_false_factorization_leaves_the_literal_checkers_exact(monkeypatch):
    # Were every n prime, (x, 12**2)_2 would be read as 1 or 144, and the sum as 96.
    monkeypatch.setattr(arith, "factorize", lambda n: ((n, 1),))
    residues = standard_residue_set(12, 2)
    assert menon_sum_over(residues, 12, 2, 2) == 576 == menon_sum_bruteforce(12, 2, 2)
    check_reduced_set(residues, 12, 2)  # counted against the mask, not the closed phi_2(12), here 143
    assert len(residues) == 96
    assert unit_translated_sum(12, 2, 2, 5) == 576
    assert menon_closed_form(12, 2, 2) != 576  # only the closed route believes the lie


def test_menon_sums_checks_before_summing():
    with pytest.raises(ValueError):
        menon_sums(0, 1, [1])
    with pytest.raises(Uint128OverflowError):
        menon_sums(2**65, 2, [1])
    with pytest.raises(ResourceLimitError):
        menon_sums(100, 1, [1], max_iterations=50)


def test_menon_closed_forms_factor_once_at_the_call(monkeypatch):
    # m^k is checked and m factored at the call, before any shift is drawn; each value
    # is then taken lazily from that one factorization.
    calls, drawn = [], []

    def shifts():
        for s in range(-3, 4):
            drawn.append(s)
            yield s

    expected = [d_s_k(360, s, 2) * cohen_phi(360, 2) for s in range(-3, 4)]
    monkeypatch.setattr(arith, "factorize", lambda n: calls.append(n) or factor.factorize(n))
    with pytest.raises(Uint128OverflowError, match=r"^m\^k = "):
        menon_closed_forms(2**128, 1, shifts())
    assert calls == [] and drawn == []
    values = menon_closed_forms(360, 2, shifts())
    assert calls == [360] and drawn == []
    assert list(values) == expected
    assert calls == [360] and drawn == list(range(-3, 4))
    assert list(menon_closed_forms(12, 2, ())) == []


class _TallyMask(bytearray):
    """A reduced-class mask that adds up the lengths of the slices read from it."""

    read = 0

    def __getitem__(self, key):
        item = super().__getitem__(key)
        if isinstance(key, slice):
            self.read += len(item)
        return item


def _tallying(masks):
    """kth_reduced_mask, but its mask tallies the slices read, and each mask is kept in ``masks``."""

    def tallying(m, k, max_iterations=None):
        mask, strides, weights = arith.kth_reduced_mask(m, k, max_iterations)
        masks.append(_TallyMask(mask))
        return masks[-1], strides, weights

    return tallying


_TALLY_CASES = [(1, 1), (1, 3), (7, 1), (7, 2), (2**5, 1), (2**5, 2), (720720, 1)]
_TALLY_CASES += [(m, k) for k in (1, 2, 3) for m in range(1, 25)]


def test_menon_sum_bruteforce_reads_sigma_minus_k_bytes(monkeypatch):
    # One shift tables no stride: each divisor d > 1 of m counts one stride of
    # m**k / d**k bytes, m**k * (sigma_{-k}(m) - 1) bytes in all.
    masks = []
    monkeypatch.setattr(menon, "kth_reduced_mask", _tallying(masks))
    for m, k in _TALLY_CASES:
        expected = m**k * (sum(Fraction(1, d**k) for d in sympy.divisors(m)) - 1)
        for s in (0, 1, -1, m**k, -(2**200)):
            menon_sum_bruteforce(m, s, k)
            assert masks[-1].read == expected, (m, s, k)


@pytest.mark.parametrize("count", [5, 61])
def test_menon_sums_read_each_table_once_and_the_other_strides_a_shift(monkeypatch, count):
    # A stride q = d**k with q <= len(shifts) and q * q <= m**k is tabled at the call, q
    # slices of m**k bytes in all; each shift then counts m**k / q bytes for each other
    # stride.  Nothing more is read before a sum is drawn.
    masks = []
    monkeypatch.setattr(menon, "kth_reduced_mask", _tallying(masks))
    for m, k in _TALLY_CASES:
        mk = m**k
        shifts = [0, 1, -1, mk, -(2**200)] + list(range(2, count - 3))
        strides = [d**k for d in sympy.divisors(m)[1:]]
        tabled = [q for q in strides if q <= count and q * q <= mk]
        per_shift = sum(mk // q for q in strides if q not in tabled)
        sums = menon_sums(m, k, shifts)
        assert masks[-1].read == len(tabled) * mk, (m, k)
        for n, _ in enumerate(sums, 1):
            assert masks[-1].read == len(tabled) * mk + n * per_shift, (m, k, n)
        # No more than counting every stride at every shift would read.
        assert masks[-1].read <= count * sum(mk // q for q in strides), (m, k)


def _strided_sums(m, k, shifts):
    """M(m, s, k) for each shift, every stride counted again at every shift."""
    mask, strides, weights = arith.kth_reduced_mask(m, k)
    return [
        mask.count(1) + sum(w * mask[s % q :: q].count(1) for q, w in zip(strides, weights))
        for s in shifts
    ]


@pytest.mark.parametrize(
    "m, k",
    [(m, k) for m in (1, 7, 2**5, 12, 180) for k in (1, 2, 3)] + [(720720, 1)],
)
def test_menon_sums_agree_on_both_sides_of_the_table_rule(m, k):
    # Shift lists one shorter than, as long as, and one longer than the smallest
    # stride p**k: that stride is tabled from the second on, where q * q <= m**k
    # lets it.  Each list repeats a shift, is unsorted and holds m**k, +-2**200
    # and negatives.
    rng = random.Random(m * 10 + k)
    mk = m**k
    q0 = min(sympy.primefactors(m), default=2) ** k
    for count in (q0 - 1, q0, q0 + 1):
        shifts = [mk, -(2**200), 2**200, -1, 0][: max(count - 1, 1)]
        while len(shifts) < count - 1:
            shifts.append(rng.randrange(-3 * mk - 5, 3 * mk + 5))
        shifts = (shifts + shifts[:1])[:count]  # the first shift again, past one shift
        rng.shuffle(shifts)
        expected = _strided_sums(m, k, shifts)
        assert list(menon_sums(m, k, shifts)) == expected, (m, k, count)
        assert expected == list(menon_closed_forms(m, k, shifts)), (m, k, count)


def test_menon_sums_hold_under_three_bytes_a_class():
    # The mask is a byte a class.  The tables hold at most sqrt(m) counts each, and the
    # other strides' slices, taken one at a time, under sqrt(m) bytes each.
    m = 720720
    tracemalloc.start()
    try:
        sums = list(menon_sums(m, 1, range(-5000, 5000)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * m, peak / m
    assert sums[::1000] == [menon_closed_form(m, s, 1) for s in range(-5000, 5000, 1000)]


def test_params_validation():
    for route in (menon_sum_bruteforce, menon_closed_form, partial(menon_sum_over, [1])):
        for m, k in ((0, 1), (4, 0)):
            with pytest.raises(ValueError):
                route(m, 1, k)
        with pytest.raises(Uint128OverflowError):
            route(2**65, 0, 2)
    with pytest.raises(Uint128OverflowError, match=r"^m\^k = "):
        menon_closed_form(2**128, 1, 1)  # refused on m**k, before factorize sees m
    assert menon_sum_bruteforce(1, -10, 3) == menon_closed_form(1, -10, 3) == 1


def test_identity_holds_on_sampled_grid():
    rng = random.Random(54)
    for _ in range(300):
        k = rng.choice((1, 2, 3))
        m = rng.randrange(1, {1: 300, 2: 60, 3: 15}[k] + 1)
        s = rng.randrange(-25, 26)
        assert menon_sum_bruteforce(m, s, k) == menon_closed_form(m, s, k), (m, s, k)


@settings(derandomize=True, deadline=2000, max_examples=150)
@given(
    m=st.integers(1, 60),
    s=st.integers(-(2**200), 2**200),
    k=st.sampled_from((1, 2)),
)
@example(m=36, s=0, k=2)
@example(m=1, s=-(2**200), k=2)
def test_identity_holds_at_huge_shifts(m, s, k):
    assert menon_sum_bruteforce(m, s, k) == menon_closed_form(m, s, k)


# factorize splits these off in milliseconds and leaves the one large prime
# whole, so no example waits on the elliptic curves for a hard composite.
# Those are drawn in test_factor.py; factor._ECM_BUDGET bounds each one at
# 2^22 modular reductions, and a 32-bit factor next to a 95-bit prime took
# 2-92 ms over ten draws.
_SMOOTH_PRIMES = (2, 3, 5, 7, 251, 65521, 1000003)
_MAX_MODULUS = 2**128 + 2**20


@st.composite
def moduli_up_to_2_128(draw):
    """m <= 2^128 + 2^20 with at most one prime factor above 2^32."""
    m = draw(st.one_of(st.just(1), st.integers(2**32, _MAX_MODULUS).map(sympy.prevprime)))
    for p in draw(st.lists(st.sampled_from(_SMOOTH_PRIMES), max_size=3, unique=True)):
        q = p ** draw(st.integers(1, 64))
        if m * q <= _MAX_MODULUS:
            m *= q
    return m


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    m=moduli_up_to_2_128(),
    s=st.one_of(st.just(0), st.integers(-(2**200), 2**200)),
    k=st.one_of(st.integers(1, 4), st.integers(1, 10**9)),
)
@example(m=1, s=0, k=10**9)
@example(m=2**128 - 1, s=0, k=1)
@example(m=2**127 - 1, s=-1, k=1)
@example(m=2**128, s=1, k=1)
@example(m=_MAX_MODULUS, s=2**200, k=10**9)
def test_closed_forms_answer_or_refuse_at_the_domain_edges(m, s, k):
    for f in (
        lambda: euler_phi(m),
        lambda: divisor_count(m),
        lambda: d_s(m, s),
        lambda: cohen_phi(m, k),
        lambda: d_s_k(m, s, k),
        lambda: pillai(m, k),
        lambda: menon_closed_form(m, s, k),
    ):
        try:
            value = f()
        except (ValueError, Uint128OverflowError):
            continue
        assert 0 <= value <= U128_MAX


def _literal_edge_calls(m, s, k):
    """The literal public API at (m, s, k): residue sets, oracles, batch_table, the literal sum."""
    return (
        lambda: standard_residue_set(m, k),
        lambda: check_reduced_set((1,), m, k),
        lambda: menon_sum_over([1], m, s, k),
        lambda: cohen_phi_bruteforce(m, k),
        lambda: pillai_bruteforce(m, k),
        lambda: list(batch_table(m, s, k, True)),
        lambda: crt_combine(standard_residue_set(m, k), m, standard_residue_set(1, k), 1, k),
        lambda: menon_sum_bruteforce(m, s, k),
    )


_M1_ANSWERS = ((1,), None, 1, 1, 1, [(1, 1, 1, 1, 1, 1, True)], (1,), 1)


@pytest.mark.parametrize(
    "calls, outcome",
    [
        *((_literal_edge_calls(1, s, 10**9), _M1_ANSWERS) for s in (2**200, -(2**200), 0)),
        (_literal_edge_calls(2, 2**200, 10**9), Uint128OverflowError),
        (_literal_edge_calls(2**128, 2**200, 1), Uint128OverflowError),
        # a prime: the class gate refuses it before trial division, which would not end
        (_literal_edge_calls(2**127 - 1, 2**200, 1), ResourceLimitError),
        # inside 2^128 but past the class bound, which alone caps the checks of a held set
        (_literal_edge_calls(2**40, 0, 3), ResourceLimitError),
        ((lambda: batch_table(10**9, 1, 1),), ResourceLimitError),  # the sieve bound
    ],
    ids=[
        "m=1,s=2^200", "m=1,s=-2^200", "m=1,s=0", "m=2,k=10^9", "m=2^128", "m=2^127-1",
        "m=2^40,k=3", "sieve",
    ],
)
def test_literal_api_answers_or_refuses_at_the_domain_edges(calls, outcome):
    start = time.perf_counter()
    if isinstance(outcome, tuple):
        assert [call() for call in calls] == list(outcome)
    else:
        for call in calls:
            with pytest.raises(outcome):
                call()
    # no class past m = 1's is visited, so each case takes milliseconds
    assert time.perf_counter() - start < 1.0


def test_held_set_refusal_names_a_literal_pass():
    with pytest.raises(ResourceLimitError) as info:
        menon_sum_over([1], 2**40, 0, 3)
    message = str(info.value)
    assert message.startswith(f"a literal pass over the classes mod {2**40}^3 needs")
    assert "enumerating" not in message

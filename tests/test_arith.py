import itertools
import math
import random
import time
import tracemalloc
from array import array

import pytest

from menonk import arith, factor
from menonk.arith import (
    cohen_phi,
    cohen_phi_bruteforce,
    cohen_phi_rule,
    d_s,
    d_s_k,
    d_s_k_rule,
    divisor_count,
    euler_phi,
    eval_multiplicative,
    gcd_pow_k,
    kth_gcd_classes,
    kth_reduced_mask,
    largest_kth_power_divisor,
    pillai,
    pillai_bruteforce,
    pillai_rule,
)
from menonk.factor import factorize
from menonk.limits import (
    MAX_TABLE_CLASSES,
    U128_MAX,
    ResourceLimitError,
    Uint128OverflowError,
    bounded_pow,
    check_power,
    ensure_u128,
)
from menonk.menon import menon_sums, verify_menon_multiplicativity


def kth_power_gcd_direct(a: int, b: int, k: int) -> int:
    """Independent oracle: enumerate every t**k up to b and test divisibility."""
    best = 1
    t = 1
    while t**k <= b:
        tk = t**k
        if b % tk == 0 and (a == 0 or abs(a) % tk == 0):
            best = tk
        t += 1
    return best


def test_gcd_pow_k_examples():
    assert gcd_pow_k(4, 8, 3) == 1
    assert gcd_pow_k(8, 27, 3) == 1
    assert gcd_pow_k(12, 16, 2) == 4
    assert gcd_pow_k(0, 16, 2) == 16
    assert gcd_pow_k(-12, 16, 2) == 4
    assert gcd_pow_k(7, 1, 4) == 1
    assert gcd_pow_k(1, 10**12, 2) == 1
    assert gcd_pow_k(0, 1, 5) == 1
    assert gcd_pow_k(0, 32, 5) == 32


def test_gcd_pow_k_reduces_to_gcd_at_k_one():
    rng = random.Random(31)
    for _ in range(200):
        a = rng.randrange(-500, 501)
        b = rng.randrange(1, 500)
        expected = b if a == 0 else math.gcd(a, b)
        assert gcd_pow_k(a, b, 1) == expected


def test_gcd_pow_k_matches_direct_enumeration():
    rng = random.Random(32)
    for _ in range(300):
        a = rng.randrange(-2000, 2001)
        b = rng.randrange(1, 2000)
        k = rng.randrange(1, 5)
        assert gcd_pow_k(a, b, k) == kth_power_gcd_direct(a, b, k), (a, b, k)


def test_gcd_pow_k_shift_invariance():
    # (a + q*m**k, m**k)_k = (a, m**k)_k for any q
    rng = random.Random(33)
    for _ in range(200):
        m = rng.randrange(1, 40)
        k = rng.randrange(1, 4)
        mk = m**k
        a = rng.randrange(-1000, 1001)
        q = rng.randrange(-20, 21)
        assert gcd_pow_k(a + q * mk, mk, k) == gcd_pow_k(a, mk, k)


def test_gcd_pow_k_multiplicative_in_modulus():
    # (a, (m1*m2)**k)_k = (a, m1**k)_k * (a, m2**k)_k for coprime m1, m2
    rng = random.Random(34)
    done = 0
    while done < 200:
        m1 = rng.randrange(1, 50)
        m2 = rng.randrange(1, 50)
        if math.gcd(m1, m2) != 1:
            continue
        k = rng.randrange(1, 4)
        a = rng.randrange(-10**6, 10**6) or 1
        lhs = gcd_pow_k(a, (m1 * m2) ** k, k)
        assert lhs == gcd_pow_k(a, m1**k, k) * gcd_pow_k(a, m2**k, k)
        done += 1


def test_gcd_pow_k_domain_errors():
    with pytest.raises(ValueError):
        gcd_pow_k(4, 8, 0)
    with pytest.raises(ValueError):
        gcd_pow_k(4, 0, 2)
    with pytest.raises(ValueError):
        gcd_pow_k(4, -8, 2)


def test_largest_kth_power_divisor_matches_enumeration():
    rng = random.Random(35)
    for _ in range(200):
        n = rng.randrange(1, 5000)
        k = rng.randrange(1, 5)
        best = 1
        t = 1
        while t**k <= n:
            if n % t**k == 0:
                best = t**k
            t += 1
        assert largest_kth_power_divisor(n, k) == best, (n, k)


def test_euler_phi_examples():
    assert euler_phi(12) == 4
    assert euler_phi(1) == 1
    for p in (2, 3, 5, 7, 97):
        assert euler_phi(p) == p - 1


def test_euler_phi_matches_count():
    for m in range(1, 200):
        assert euler_phi(m) == sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)


def test_cohen_phi_examples():
    assert cohen_phi(4, 2) == 12
    for j in range(1, 7):
        assert cohen_phi(2**j, 2) == 3 * 4 ** (j - 1)
    assert cohen_phi(1, 5) == 1


def test_cohen_phi_reduces_to_euler_phi():
    for m in range(1, 150):
        assert cohen_phi(m, 1) == euler_phi(m)


def test_cohen_phi_matches_bruteforce():
    for m in range(1, 80):
        for k in (1, 2):
            assert cohen_phi(m, k) == cohen_phi_bruteforce(m, k), (m, k)
    for m in range(1, 15):
        assert cohen_phi(m, 3) == cohen_phi_bruteforce(m, 3), m


def test_cohen_phi_bruteforce_examples():
    assert cohen_phi_bruteforce(4, 2) == 12
    assert cohen_phi_bruteforce(1, 3) == 1
    assert cohen_phi_bruteforce(12, 1) == 4


def test_cohen_phi_multiplicative():
    rng = random.Random(36)
    done = 0
    while done < 100:
        m1 = rng.randrange(1, 60)
        m2 = rng.randrange(1, 60)
        if math.gcd(m1, m2) != 1:
            continue
        k = rng.randrange(1, 4)
        assert cohen_phi(m1 * m2, k) == cohen_phi(m1, k) * cohen_phi(m2, k)
        done += 1


def test_cohen_phi_overflow_and_cap():
    with pytest.raises(Uint128OverflowError):
        cohen_phi(2**65, 2)
    with pytest.raises(ResourceLimitError):
        cohen_phi_bruteforce(11, 8)
    # explicit cap override
    with pytest.raises(ResourceLimitError):
        cohen_phi_bruteforce(10, 1, max_iterations=5)
    assert cohen_phi_bruteforce(10, 1, max_iterations=10) == 4
    # the smallest cap there is still admits the one class mod 1
    assert cohen_phi_bruteforce(1, 1, max_iterations=1) == 1
    # 2^26 classes are over MAX_TABLE_CLASSES, whatever the cap
    with pytest.raises(ResourceLimitError, match="over the bound"):
        cohen_phi_bruteforce(2**13, 2, max_iterations=10**40)


def test_divisor_count_examples():
    assert divisor_count(12) == 6
    assert divisor_count(4) == 3
    assert divisor_count(1) == 1


def test_d_s_examples():
    assert d_s(12, 1) == 6
    assert d_s(12, 2) == 2
    assert d_s(12, 3) == 3
    assert d_s(7, 0) == 1
    assert d_s(1, 0) == 1


def test_d_s_symmetry_and_coprime_collapse():
    rng = random.Random(37)
    for _ in range(200):
        m = rng.randrange(1, 400)
        s = rng.randrange(-50, 51)
        assert d_s(m, s) == d_s(m, -s)
        if math.gcd(s, m) == 1:
            assert d_s(m, s) == divisor_count(m)


def test_d_s_matches_divisor_filter():
    for m in range(1, 100):
        for s in (-6, -1, 0, 1, 2, 3, 4, 12):
            expected = sum(1 for d in range(1, m + 1) if m % d == 0 and math.gcd(d, s) == 1)
            assert d_s(m, s) == expected, (m, s)


def test_d_s_k_examples():
    assert d_s_k(4, 12, 2) == 1
    assert d_s_k(4, 1, 2) == 3
    assert d_s_k(12, 2, 1) == 2
    assert d_s_k(9, 0, 2) == 1


def test_bounded_pow_edges():
    assert bounded_pow(2, 10, 1024) == 1024
    assert bounded_pow(2, 11, 1024) is None
    assert bounded_pow(2, 127, U128_MAX) == check_power(2, 127) == 2**127
    assert bounded_pow(2, 128, U128_MAX) is None
    assert bounded_pow(3, 80, U128_MAX) == check_power(3, 80) == 3**80
    assert bounded_pow(3, 81, U128_MAX) is None  # passes the bit-length screen
    assert bounded_pow(3, 10**18, 10) is None
    assert bounded_pow(1, 10**18, 1) == 1
    assert bounded_pow(0, 5, 0) == 0
    with pytest.raises(Uint128OverflowError):
        check_power(3, 81)
    # past 4300 digits str(int) refuses; the overflow is still reported as one, and no
    # power far past the domain is built: (2^(10^6))^(10^6) would have 10^12 bits
    for huge in (
        lambda: eval_multiplicative(pillai_rule(10**4), factorize(3)),
        lambda: ensure_u128(10**3000 * 10**3000),
        lambda: check_power(10**5000, 2),
        lambda: check_power(2**10**6, 10**6),
    ):
        start = time.perf_counter()
        with pytest.raises(Uint128OverflowError):
            huge()
        assert time.perf_counter() - start < 1
    # messages spell a value of up to 1024 bits in decimal, and only the bit length past that
    with pytest.raises(Uint128OverflowError, match=f"^x = {2**1023} is outside"):
        ensure_u128(2**1023, "x")
    with pytest.raises(Uint128OverflowError, match="^x = <1025-bit integer> is outside"):
        ensure_u128(2**1024, "x")


def test_d_s_k_huge_k_decided_without_the_power():
    # p^k > |s| > 0 cannot divide s; 3^(10^8) is never built.
    assert d_s_k(3, 1, 10**8) == 2
    assert eval_multiplicative(d_s_k_rule(1, 10**8), factorize(3)) == 2
    # every p^k divides 0
    assert d_s_k(9, 0, 10**8) == 1
    assert eval_multiplicative(d_s_k_rule(0, 10**8), factorize(9)) == 1
    # the screen's edge: 2^100 has bit length 101
    assert d_s_k(2, 2**100, 100) == d_s_k(2, -(2**100), 100) == 1
    assert d_s_k(2, 2**100, 101) == eval_multiplicative(d_s_k_rule(2**100, 101), factorize(2)) == 2
    # p | s passes the one-modulo screen, then p^k > |s| still decides it
    assert d_s_k(2, 2, 10**8) == 2
    assert eval_multiplicative(d_s_k_rule(6, 10**8), factorize(3)) == 2
    assert eval_multiplicative(d_s_k_rule(0, 1), factorize(5)) == 1


def test_closed_form_domain_errors():
    # the k = 1 names route through the k-th power forms and keep their domain
    closed_forms = {
        "euler_phi": lambda m, k: euler_phi(m),
        "cohen_phi": cohen_phi,
        "divisor_count": lambda m, k: divisor_count(m),
        "d_s": lambda m, k: d_s(m, 3),
        "d_s_k": lambda m, k: d_s_k(m, 3, k),
        "pillai": pillai,
    }
    for name, f in closed_forms.items():
        with pytest.raises(ValueError):
            f(0, 1)
        with pytest.raises(Uint128OverflowError):
            f(2**128, 1)
        assert f(1, 1) == 1, name
    for f in (cohen_phi, closed_forms["d_s_k"], pillai):
        with pytest.raises(ValueError):
            f(5, 0)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: largest_kth_power_divisor(0, 2), id="kth_divisor_n0"),
        pytest.param(lambda: largest_kth_power_divisor(4, 0), id="kth_divisor_k0"),
        pytest.param(lambda: cohen_phi_rule(0), id="cohen_phi_rule_k0"),
        pytest.param(lambda: d_s_k_rule(1, 0), id="d_s_k_rule_k0"),
        pytest.param(lambda: pillai_rule(0), id="pillai_rule_k0"),
        pytest.param(lambda: check_power(-2, 3), id="check_power_negative_base"),
        pytest.param(lambda: cohen_phi_bruteforce(4, 1, max_iterations=0), id="bruteforce_cap0"),
        pytest.param(lambda: verify_menon_multiplicativity(0, 1, 0, 1), id="multiplicativity_m0"),
    ],
)
def test_library_refusals(call):
    with pytest.raises(ValueError):
        call()


def test_d_s_k_reduces_to_d_s():
    rng = random.Random(38)
    for _ in range(200):
        m = rng.randrange(1, 300)
        s = rng.randrange(-40, 41)
        assert d_s_k(m, s, 1) == d_s(m, s)


def test_pillai_examples():
    assert pillai(4, 2) == 40
    assert pillai(1, 3) == 1
    for p in (2, 3, 7, 13):
        assert pillai(p, 1) == 2 * p - 1
    assert pillai(12, 1) == 40


def test_pillai_prime_power_closed_form():
    for p in (2, 3, 5):
        for v in range(1, 5):
            for k in (1, 2):
                expected = (v + 1) * p ** (v * k) - v * p ** ((v - 1) * k)
                assert pillai(p**v, k) == expected, (p, v, k)


def test_pillai_matches_bruteforce():
    for m in range(1, 60):
        for k in (1, 2):
            assert pillai(m, k) == pillai_bruteforce(m, k), (m, k)
    for m in range(1, 12):
        assert pillai(m, 3) == pillai_bruteforce(m, 3), m


def test_pillai_factorizes_m_once():
    # 812 divisors and a cofactor above the trial bound: factoring each m/d is slow.
    m = 3**28 * 5**6 * 251 * 12330546079
    factor._factor_pairs.cache_clear()
    value = pillai(m, 1)
    assert factor._factor_pairs.cache_info().misses == 1
    assert value == eval_multiplicative(pillai_rule(1), factorize(m))


def test_pillai_bruteforce_examples():
    assert pillai_bruteforce(4, 2) == 40
    assert pillai_bruteforce(1, 1) == 1
    assert pillai_bruteforce(12, 1) == 40


def test_pillai_cap():
    with pytest.raises(ResourceLimitError):
        pillai_bruteforce(10, 8)
    with pytest.raises(ResourceLimitError, match="over the bound"):
        pillai_bruteforce(2**13, 2, max_iterations=10**40)


def test_kth_gcd_classes_match_gcd_pow_k():
    for k, m_max in ((1, 30), (2, 30), (3, 10)):
        for m in range(1, m_max + 1):
            mk = m**k
            classes = list(kth_gcd_classes(m, k))
            assert len(classes) == mk
            assert all(classes[x] == gcd_pow_k(x, mk, k) for x in range(mk)), (m, k)
    with pytest.raises(ValueError):
        kth_gcd_classes(0, 1)
    with pytest.raises(ValueError):
        kth_gcd_classes(3, 0)
    with pytest.raises(Uint128OverflowError):
        kth_gcd_classes(2**64, 2)
    # refused when called, not when first read
    with pytest.raises(ResourceLimitError, match="over the cap"):
        kth_gcd_classes(10, 2, max_iterations=99)


def test_oracles_stream_the_classes():
    # 10^6 classes each; a list of them alone would take several MiB
    for oracle, closed_form in ((cohen_phi_bruteforce, cohen_phi), (pillai_bruteforce, pillai)):
        tracemalloc.start()
        try:
            assert oracle(1000, 2) == closed_form(1000, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (oracle.__name__, peak)


def prime_steps(divisors: list[int], primes: tuple[int, ...]) -> list[tuple[int, int]]:
    """Every (i, j) with divisors[j] = p * divisors[i], by p in order, then i ascending."""
    pairs = [(i, j) for i, d in enumerate(divisors) for j, e in enumerate(divisors)]
    return [(i, j) for p in primes for i, j in pairs if divisors[j] == p * divisors[i]]


def assert_divisibility_order(divisors: list[int]) -> None:
    """d | D puts d no later than D: the order _kth_block's last stroke relies on."""
    for i, d in enumerate(divisors):
        assert all(e % d for e in divisors[:i]), (d, divisors)


def test_kth_gcd_classes_cross_blocks():
    # 90,000 classes: one full block, then a partial one
    m, k = 300, 2
    mk = m**k
    assert mk > arith._BLOCK and mk % arith._BLOCK
    classes = list(kth_gcd_classes(m, k))
    assert len(classes) == mk
    assert all(classes[x] == gcd_pow_k(x, mk, k) for x in range(mk))
    mask, strides, weights = kth_reduced_mask(m, k)
    assert list(mask) == [t == 1 for t in classes]
    _, _, divisors, steps = arith._literal_lattice(m, k, None)
    assert sorted(divisors) == [d for d in range(1, m + 1) if m % d == 0]
    assert_divisibility_order(divisors)
    assert steps == prime_steps(divisors, (2, 3, 5))
    # One stride d**k and one weight phi_k(d) for each divisor d > 1, in lattice order.
    assert strides == [d**k for d in divisors[1:]]
    assert weights == [cohen_phi(d, k) for d in divisors[1:]]


def test_literal_pass_takes_no_gcd_per_class(monkeypatch):
    calls = 0
    gcd = math.gcd

    def counting_gcd(*args):
        nonlocal calls
        calls += 1
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", counting_gcd)
    assert list(menon_sums(180, 2, range(-2, 3))) == [d_s_k(180, s, 2) * cohen_phi(180, 2) for s in range(-2, 3)]
    assert len(list(kth_gcd_classes(180, 2))) == 180**2
    assert calls < 100, calls


@pytest.mark.parametrize(
    "m, lie",
    [
        (15, ((15, 1),)),  # a composite passed off as prime
        (9, ((3, 1), (3, 1))),  # a repeated prime
        (9, ((-3, 2),)),  # p < 2
        (12, ((2, 2), (3, 2))),  # a product other than m
        (8, ((2, 10**9),)),  # an exponent no power of m can hold: refused before 2**v is built
        (6, ((2, 1), (3, 0), (3, 1))),  # a zero exponent
    ],
)
def test_literal_pass_checks_the_factorization(monkeypatch, m, lie):
    # The literal route makes m's factorization itself, so a lie from factorize cannot reach it.
    literals = (
        lambda: list(kth_gcd_classes(m, 2)),
        lambda: kth_reduced_mask(m, 2),
        lambda: list(menon_sums(m, 2, range(-2, 3))),
        lambda: cohen_phi_bruteforce(m, 2),
        lambda: pillai_bruteforce(m, 2),
    )
    expected = [literal() for literal in literals]
    monkeypatch.setattr(arith, "factorize", lambda n: lie if n == m else factorize(n))
    assert [literal() for literal in literals] == expected


def test_literal_pairs_match_factorize():
    # 5791 is the largest prime the gate lets trial division reach, 33554393 the largest prime below 2**25.
    for m in [*range(1, 10**4 + 1), 2**25, 5791**2, 33554393, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19]:
        pairs = factorize(m)
        powers = ([p**e for e in range(v + 1)] for p, v in pairs)
        divisors = sorted(math.prod(es) for es in itertools.product(*powers))
        mk, primes, lattice_divisors, steps = arith._literal_lattice(m, 1, MAX_TABLE_CLASSES)
        # The divisors of m, once right, fix its (p, v) pairs.
        assert (mk, primes, sorted(lattice_divisors)) == (m, [p for p, _ in pairs], divisors), m
        if m in (1, 2, 12, 360, 2**25, 5791**2, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19):
            assert_divisibility_order(lattice_divisors)
            assert steps == prime_steps(lattice_divisors, tuple(primes)), m
    # 240 divisors over six primes
    _, _, divisors, steps = arith._literal_lattice(720720, 1, None)
    assert sorted(divisors) == [d for d in range(1, 720721) if 720720 % d == 0]
    assert_divisibility_order(divisors)
    assert steps == prime_steps(divisors, (2, 3, 5, 7, 11, 13))


class _TallyBytes(bytearray):
    """A mask whose repeat records the bytes it fills and whose stores record the entries each writes."""

    filled = 0

    def __mul__(self, n):
        out = _TallyBytes(bytearray.__mul__(self, n))
        out.filled, out.stores = len(out), []
        return out

    def __setitem__(self, key, value):
        self.stores.append(len(value) if isinstance(key, slice) else 1)
        bytearray.__setitem__(self, key, value)


class _TallyArray(array):
    """_TallyBytes for the gcd table's blocks."""

    filled = 0

    def __mul__(self, n):
        out = _TallyArray(self.typecode, array.__mul__(self, n))
        out.filled, out.stores = len(out), []
        return out

    def __setitem__(self, key, value):
        self.stores.append(len(value) if isinstance(key, slice) else 1)
        array.__setitem__(self, key, value)


# m^k past the class gate (720720 at k >= 2) is left out.
_SIEVE_CASES = [(m, k) for m in (1, 7, 2**5, 720720) for k in (1, 2, 3) if m**k <= MAX_TABLE_CLASSES]
_SIEVE_CASES += [(m, k) for k in (1, 2, 3) for m in range(2, 25)]


def test_kth_reduced_mask_writes_exact_counts(monkeypatch):
    # One repeat fills the m**k bytes, then one store a prime zeroes its m**k / p**k classes:
    # a per-class loop would store one entry at a time.
    monkeypatch.setattr(arith, "bytearray", _TallyBytes, raising=False)
    for m, k in _SIEVE_CASES:
        mask, _, _ = kth_reduced_mask(m, k)
        assert mask.filled == len(mask) == m**k, (m, k)
        assert mask.stores == [m**k // p**k for p, _ in factorize(m)], (m, k)
        assert mask.count(1) == cohen_phi(m, k), (m, k)


def test_kth_blocks_write_exact_counts(monkeypatch):
    # Each block of n classes is filled once, then each divisor d > 1 of m, in lattice
    # order, stores its multiples of d**k in the block in one stroke.  Over the stream that
    # is sum_{d | m} m**k / d**k entries.
    blocks = []
    block = arith._kth_block

    def recording(divisors, k, offset, n):
        blocks.append((offset, n, block(divisors, k, offset, n)))
        return blocks[-1][2]

    monkeypatch.setattr(arith, "array", _TallyArray)
    monkeypatch.setattr(arith, "_kth_block", recording)
    for m, k in _SIEVE_CASES:
        blocks.clear()
        mk, _, divisors, _ = arith._literal_lattice(m, k, None)
        assert sum(kth_gcd_classes(m, k)) == pillai(m, k), (m, k)
        assert [o for o, _, _ in blocks] == list(range(0, mk, arith._BLOCK)), (m, k)
        for offset, n, table in blocks:
            assert table.filled == len(table) == n, (m, k, offset)
            strokes = [len(range(-offset % d**k, n, d**k)) for d in divisors[1:]]
            assert table.stores == strokes, (m, k, offset)
        written = sum(table.filled + sum(table.stores) for _, _, table in blocks)
        assert written == sum(mk // d**k for d in divisors), (m, k)


def test_literal_gate_runs_before_trial_division():
    # Trial division of the prime 2**127 - 1 would not end; the class gate refuses it first.
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        kth_reduced_mask(2**127 - 1, 1, max_iterations=10**40)
    assert time.perf_counter() - start < 1.0


def test_eval_multiplicative_examples():
    assert eval_multiplicative(d_s_k_rule(12, 2), factorize(4)) == 1
    assert eval_multiplicative(cohen_phi_rule(1), factorize(12)) == 4
    assert eval_multiplicative(d_s_k_rule(1, 1), factorize(1)) == 1
    # the exact edge: phi_128(2) = 2^128 - 1 is built from 2^128 and stays in the domain
    assert eval_multiplicative(cohen_phi_rule(128), ((2, 1),)) == 2**128 - 1
    assert eval_multiplicative(pillai_rule(127), ((2, 1),)) == 2**128 - 1
    # a local factor past 2^128 is refused before its power is built
    start = time.perf_counter()
    for rule in (pillai_rule(10**9), cohen_phi_rule(10**9)):
        with pytest.raises(Uint128OverflowError):
            rule(3, 1)
    assert time.perf_counter() - start < 1.0


def test_rules_match_direct_functions():
    rng = random.Random(39)
    for _ in range(150):
        m = rng.randrange(1, 500)
        s = rng.randrange(-30, 31)
        k = rng.randrange(1, 4)
        assert eval_multiplicative(cohen_phi_rule(1), factorize(m)) == euler_phi(m)
        assert eval_multiplicative(cohen_phi_rule(k), factorize(m)) == cohen_phi(m, k)
        assert eval_multiplicative(d_s_k_rule(1, 1), factorize(m)) == divisor_count(m)
        assert eval_multiplicative(d_s_k_rule(s, 1), factorize(m)) == d_s(m, s)
        assert eval_multiplicative(d_s_k_rule(s, k), factorize(m)) == d_s_k(m, s, k)
        assert eval_multiplicative(pillai_rule(k), factorize(m)) == pillai(m, k)


def test_rules_are_multiplicative():
    # f(m1*m2) = f(m1)*f(m2) on sampled coprime pairs, straight from the product over (p, v) pairs
    rng = random.Random(40)
    rules = [
        cohen_phi_rule(1),
        cohen_phi_rule(2),
        d_s_k_rule(1, 1),
        d_s_k_rule(6, 1),
        d_s_k_rule(12, 2),
        pillai_rule(2),
    ]
    done = 0
    while done < 100:
        m1 = rng.randrange(1, 80)
        m2 = rng.randrange(1, 80)
        if math.gcd(m1, m2) != 1:
            continue
        for rule in rules:
            f = lambda m: eval_multiplicative(rule, factorize(m))  # noqa: E731
            assert f(m1 * m2) == f(m1) * f(m2), (rule.__name__, m1, m2)
            assert f(1) == 1
            # eval_multiplicative checks the domain once, at the end: sound only if no factor shrinks
            assert all(rule(p, v) >= 1 for p, v in factorize(m1 * m2)), (rule.__name__, m1, m2)
        done += 1

import math
import random
import time

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from menonk import factor, gcd_pow_k
from menonk.factor import (
    _MR_BASES,
    _MR_PROVEN_BOUND,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    factorize,
    is_prime,
)
from menonk.limits import U128_MAX, ResourceLimitError, Uint128OverflowError


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_examples():
    assert is_prime(2) is True
    assert is_prime(1) is False
    assert is_prime(12) is False
    assert is_prime(0) is False


def test_is_prime_matches_trial_division():
    for n in range(0, 3000):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_matches_trial_division_sampled():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randrange(1, 10**7)
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_large_anchors():
    # Mersenne numbers beyond the proven Miller-Rabin bound force the
    # strong Lucas path.
    assert is_prime(2**89 - 1)
    assert is_prime(2**107 - 1)
    assert is_prime(2**127 - 1)
    assert not is_prime(2**101 - 1)
    assert not is_prime((2**89 - 1) * (2**13 - 1))
    assert not is_prime((2**61 - 1) ** 2)


def test_is_prime_strong_lucas_rejects_psi13():
    # psi_13 = 1287836182261 * 2575672364521 is the least strong pseudoprime to
    # every base in _MR_BASES, and the bound itself: only the Lucas stage refuses it.
    n = 3317044064679887385961981
    assert n == 1287836182261 * 2575672364521 == _MR_PROVEN_BOUND
    assert all(_strong_probable_prime(n, b) for b in _MR_BASES)
    assert is_prime(n) is False


def test_strong_lucas_stage_on_its_own():
    # The least strong Lucas pseudoprimes (OEIS A217255) pass the stage, so
    # they pin the Selfridge parameter search; Miller-Rabin refuses them.
    for n in (5459, 5777, 10877, 16109, 18971):
        assert _strong_lucas_probable_prime(n), n
        assert not is_prime(n), n
    # The early exits: a perfect square, then a D with Jacobi symbol 0 (35 = 5 * 7).
    assert not _strong_lucas_probable_prime(10007**2)
    assert not _strong_lucas_probable_prime(35)
    for n in (2**89 - 1, 2**107 - 1, 2**127 - 1):
        assert n > _MR_PROVEN_BOUND
        assert _strong_lucas_probable_prime(n) and is_prime(n), n


def test_is_prime_matches_sympy_sampled():
    rng = random.Random(555)
    for bits in (50, 80, 110, 127):
        for _ in range(40):
            n = rng.getrandbits(bits) | 1
            assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_rejects_out_of_domain():
    with pytest.raises(Uint128OverflowError):
        is_prime(U128_MAX + 1)


def test_factorize_examples():
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(1) == ()
    assert factorize(16) == ((2, 4),)


def test_factorize_invariants_sampled():
    rng = random.Random(4242)
    samples = [rng.randrange(2, 10**9) for _ in range(200)]
    samples += [2**64 - 1, 10**18 + 9, (2**31 - 1) * (2**61 - 1)]
    for n in samples:
        fac = factorize(n)
        primes = [p for p, _ in fac]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)
        assert all(is_prime(p) for p in primes)
        assert all(v >= 1 for _, v in fac)
        assert math.prod(p**v for p, v in fac) == n


def test_factorize_at_the_trial_bound():
    # 9973 is the last prime trial division reaches; 10007 the first that the curves must split off.
    for n in (
        9973**2,
        9973 * 10007,
        10007**2,
        10007**4,
        10007**3 * (2**61 - 1),
        2**7 * 9973**3 * 10007**2,
        97 * 101,
        101**2,
        (2**31 - 1) ** 2 * 10007,
        # x-only curves cannot split p**2 (the gcd comes out as n), so these
        # take the perfect-power step, whole or after a split.
        (2**61 - 1) ** 2,
        (2**31 - 1) ** 3,
        10007**2 * (2**61 - 1),
        # The largest prime below 9973**2, which trial division proves; the
        # smallest above it, which only is_prime can; and the first times 2.
        99_460_723,
        99_460_747,
        2 * 99_460_723,
    ):
        assert factorize(n) == tuple(sorted(sympy.factorint(n).items())), n


@pytest.mark.parametrize("e", range(2, 10))
def test_factorize_largest_prime_power_below_2_128(e, monkeypatch):
    # The perfect-power step reads r off isqrt (e = 2) or a rounded float root and tries r
    # alone; at the top of the domain a root off by one would leave p**e to the curves.
    # The curves are refused, so every e is pinned by the step itself, not by the clock.
    def no_curve(*args):
        raise AssertionError("the perfect-power step left p**e to the curves")

    p = sympy.prevprime(sympy.integer_nthroot(2**128 - 1, e)[0] + 1)
    assert p**e < 2**128 <= sympy.nextprime(p) ** e
    factor._factor_pairs.cache_clear()
    monkeypatch.setattr(factor, "_ladder", no_curve)
    start = time.perf_counter()
    assert factorize(p**e) == ((p, e),)
    assert time.perf_counter() - start < 1


def test_sieve_matches_a_naive_reference_at_its_edges():
    # The sieve strikes only the primes it reads off its own sieve of isqrt(limit):
    # pin the recursion's base (limits 0..3) and every limit next to a prime square.
    naive = [next((d for d in range(2, math.isqrt(j) + 1) if j % d == 0), j) for j in range(20_001)]
    squares = [p * p + e for p in range(2, 100) if is_prime(p) for e in (-1, 0, 1)]
    for limit in [*range(401), *squares, 20_000]:
        assert factor.smallest_prime_factors(limit).tolist() == naive[: limit + 1], limit
    assert len(factor._SMALL_PRIMES) == 1229 and factor._SMALL_PRIMES[-1] == 9973


def test_trial_division_proves_its_last_cofactor(monkeypatch):
    # Trial division stops at the first prime p with p*p above the cofactor, which is
    # then 1 or a prime: below 9973**2 neither is_prime nor the seeded curves run.
    def refuse(*args):
        raise AssertionError(f"trial division handed on {args}")

    factor._factor_pairs.cache_clear()
    monkeypatch.setattr(factor, "is_prime", refuse)
    monkeypatch.setattr(factor.random, "Random", refuse)
    spf = factor.smallest_prime_factors(20_000)
    for n in range(1, 20_001):
        expected: dict[int, int] = {}
        j = n
        while j > 1:
            expected[spf[j]] = expected.get(spf[j], 0) + 1
            j //= spf[j]
        assert factorize(n) == tuple(expected.items()), n
    assert factorize(99_460_723) == ((99_460_723, 1),)
    assert factorize(2 * 99_460_723) == ((2, 1), (99_460_723, 1))
    with pytest.raises(AssertionError, match="trial division handed on"):
        factorize(99_460_747)


def test_factorize_deterministic():
    n = (10**9 + 7) * (10**9 + 9) * 97
    assert factorize(n) == factorize(n) == ((97, 1), (10**9 + 7, 1), (10**9 + 9, 1))
    # From a cold cache the seeded curves are drawn again: the same factor comes
    # out of the splitter after the same number of reductions.
    n = (2**31 - 1) * (10**9 + 7) * (2**40 - 87)
    first = factorize(n)
    factor._factor_pairs.cache_clear()
    assert factorize(n) == first == tuple(sorted(sympy.factorint(n).items()))
    runs = [factor._ecm_split(n, random.Random(factor._ECM_SEED), 1 << 22) for _ in range(2)]
    assert runs[0] == runs[1] and runs[0][1] < 1 << 22


def test_factorize_domain_errors():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-12)
    with pytest.raises(Uint128OverflowError):
        factorize(U128_MAX + 2)


def test_factorize_balanced_95_bit_semiprimes():
    # The curves must find a 47-bit factor; the other is 48 bits.
    for p, q in ((74851659936101, 272981738224691), (121646081938081, 266546221531409)):
        n = p * q
        assert (p.bit_length(), q.bit_length(), n.bit_length()) == (47, 48, 95)
        assert factorize(n) == tuple(sorted(sympy.factorint(n).items())) == ((p, 1), (q, 1))


def test_normalize_gives_x_over_z_or_a_factor():
    rng = random.Random(19)
    p, q = 1000003, 2**61 - 1
    n = p * q
    points = [(rng.randrange(n), rng.randrange(1, n)) for _ in range(40)]
    points = [(x, z) for x, z in points if math.gcd(z, n) == 1]
    assert factor._normalize(points, n) == ([x * pow(z, -1, n) % n for x, z in points], 1)
    assert factor._normalize([], n) == ([], 1)
    # One Z on a multiple of p: no quotients, and the gcd that comes back splits off p.
    points[17] = (points[17][0], p * rng.randrange(1, q))
    assert factor._normalize(points, n) == ([], p)


def test_stage2_covers_every_prime_without_a_list():
    assert len(factor._BABIES) == 24 and all(math.gcd(j, factor._D) == 1 for j in factor._BABIES)
    for b1 in (150, 1000, 9000):
        # The giant steps _ecm_split takes for B1 = b1 and B2 = 50*b1.
        i_lo, i_hi = (b1 + factor._D // 2) // factor._D, (50 * b1 + factor._D // 2) // factor._D
        covered = {
            i * factor._D + sign * j
            for i in range(i_lo, i_hi + 1)
            for j in factor._BABIES
            for sign in (-1, 1)
        }
        assert set(sympy.primerange(b1 + 1, 50 * b1 + 1)) <= covered


class CountingModulus(int):
    """A modulus that counts the reductions taken by it."""

    count = 0

    def __rmod__(self, other):
        self.count += 1
        return int.__rmod__(self, other)


def test_ecm_charge_bounds_the_reductions():
    # Each curve is charged before it runs, so the charges must cover every % by n.
    for n in ((2**30 - 35) * (2**61 - 1), 74851659936101 * 272981738224691, 1000003 * 1000033):
        modulus = CountingModulus(n)
        factors, left = factor._ecm_split(modulus, random.Random(factor._ECM_SEED), 1 << 30)
        assert math.prod(factors) == n and 1 < min(factors)
        assert 0 < modulus.count <= (1 << 30) - left


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.lists(st.integers(2**13, 2**40 - 1).map(sympy.nextprime), min_size=2, max_size=3))
def test_factorize_hard_composites(primes):
    n = math.prod(primes)
    assert factorize(n) == tuple(sorted(sympy.factorint(n).items())), primes


def test_ecm_budget_refuses_the_hard_semiprime(monkeypatch):
    # Two primes of 61 and 64 bits: the seeded curves split them only after
    # about 14.0 million reductions, past the default 2^22, let alone 2^16.
    hard = (2**61 - 1) * (2**64 - 59)
    monkeypatch.setattr(factor, "_ECM_BUDGET", 1 << 16)
    start = time.perf_counter()
    message = f"ECM found no factor of {hard} within 65536 modular reductions"
    with pytest.raises(ResourceLimitError, match=f"^{message}$"):
        gcd_pow_k(0, hard, 2)
    assert time.perf_counter() - start < 1


def test_ecm_refusal_is_not_cached(monkeypatch):
    n = (2**30 - 35) * (2**61 - 1)  # a 30-bit factor: six curves, 24,856 reductions; 4096 runs one
    with monkeypatch.context() as patch:
        patch.setattr(factor, "_ECM_BUDGET", 1 << 12)
        message = f"ECM found no factor of {n} within 4096 modular reductions"
        with pytest.raises(ResourceLimitError, match=f"^{message}$"):
            factorize(n)
    assert factorize(n) == ((2**30 - 35, 1), (2**61 - 1, 1))


def test_ladder_matches_an_addition_chain():
    # The ladder's last swap is taken for odd j >= 3 only: every j up to 39 must give
    # the x-coordinates of jP and (j+1)P that one xadd a step gives.
    p = 2**61 - 1
    rng = random.Random(23)
    a24, x0 = rng.randrange(2, p), rng.randrange(2, p)
    point = (x0, 1)
    s, d = (x0 + 1) ** 2 % p, (x0 - 1) ** 2 % p
    chain = [None, point, (s * d % p, (s - d) * (d + a24 * (s - d)) % p)]  # chain[j] = jP
    while len(chain) <= 40:
        chain.append(factor._xadd(chain[-1], point, chain[-2], p))

    def x(q):
        return q[0] * pow(q[1], -1, p) % p

    for j in range(1, 40):
        lo, hi = factor._ladder(j, point, a24, p)
        assert (x(lo), x(hi)) == (x(chain[j]), x(chain[j + 1])), j


def test_ecm_resieve_matches_the_small_primes(monkeypatch):
    # Past _TRIAL_BOUND each curve sieves its own stage-1 primes.  With the bound
    # lowered to 100 every curve does, and must draw the same curves to the same end.
    semiprimes = ((2**30 - 35) * (2**61 - 1), 1000003 * 1000033, 10007 * (2**61 - 1))
    default = [factor._ecm_split(n, random.Random(factor._ECM_SEED), 1 << 22) for n in semiprimes]
    sieves, sieve = [], factor.smallest_prime_factors
    monkeypatch.setattr(factor, "smallest_prime_factors", lambda n: sieves.append(n) or sieve(n))
    monkeypatch.setattr(factor, "_TRIAL_BOUND", 100)
    resieved = [factor._ecm_split(n, random.Random(factor._ECM_SEED), 1 << 22) for n in semiprimes]
    assert resieved == default and len(sieves) >= len(semiprimes)

import math
import random

import pytest
import sympy

from menonk.factor import factorize, is_prime
from menonk.limits import U128_MAX, Uint128OverflowError


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


def test_factorize_deterministic():
    n = (10**9 + 7) * (10**9 + 9) * 97
    assert factorize(n) == factorize(n) == ((97, 1), (10**9 + 7, 1), (10**9 + 9, 1))


def test_factorize_domain_errors():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-12)
    with pytest.raises(Uint128OverflowError):
        factorize(U128_MAX + 2)

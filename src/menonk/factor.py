"""Exact factorization and primality for moduli-scale integers.

The pipeline is deterministic end to end: trial division by the primes
up to a fixed bound, read off ``smallest_prime_factors`` (the one sieve,
which ``batch`` also tabulates with; the same primes screen
``is_prime``), Miller-Rabin over a witness set proven complete below
3.317e24, a strong Lucas test for anything larger (no counterexample to
the combined test is known anywhere, let alone below 2^128), and a
Brent-cycle rho splitter driven by a fixed-seed generator so repeated
calls factor identically.  Each factorization may spend at most
``_RHO_BUDGET`` modular squarings in rho; past that it refuses with
``ResourceLimitError`` instead of running without bound.
"""

from __future__ import annotations

import math
import random
from array import array
from functools import lru_cache

from .limits import ResourceLimitError, ensure_u128

__all__ = ["is_prime", "factorize", "smallest_prime_factors"]


def smallest_prime_factors(limit: int) -> array:
    """spf with spf[j] the smallest prime factor of j, for 2 <= j <= limit (spf[0:2] = 0, 1).

    Each d <= isqrt(limit), in descending order, strikes d over the
    multiples j >= d*d.  The last stroke on a composite j therefore comes
    from the least d with d | j and d*d <= j, which is j's smallest prime;
    strokes from composite d are overwritten, so no prime list is needed.
    """
    spf = array("I", range(limit + 1))
    for d in range(math.isqrt(limit), 1, -1):
        spf[d * d :: d] = array("I", [d]) * len(range(d * d, limit + 1, d))
    return spf


_TRIAL_BOUND = 10_000
_SMALL_PRIMES = tuple(p for p, q in enumerate(smallest_prime_factors(_TRIAL_BOUND)) if p == q > 1)

# Strong-pseudoprime witness set proven complete below this bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981

_RHO_SEED = 0x5EED
# Modular squarings one factorization may spend in rho.  Over the bench's
# compute-factor calls the most any rho call took was 220,926 (p99 198,654).
_RHO_BUDGET = 1 << 22


def _strong_probable_prime(n: int, base: int) -> bool:
    # n odd, n > 2
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    # n odd positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    # n odd, no small prime factors; Selfridge parameter search needs
    # perfect squares rejected first or the search never terminates.
    if math.isqrt(n) ** 2 == n:
        return False
    d_param = 5
    while True:
        j = _jacobi(d_param % n, n)
        if j == -1:
            break
        if j == 0:
            return False
        d_param = -d_param - 2 if d_param > 0 else -d_param + 2
    q_param = (1 - d_param) // 4

    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s

    inv2 = (n + 1) // 2  # inverse of 2 modulo odd n
    u, v, qk = 0, 2, 1  # U_0, V_0, Q^0
    for bit in bin(d)[2:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            # index k -> k+1 with P = 1
            u, v = (u + v) * inv2 % n, (d_param * u + v) * inv2 % n
            qk = qk * q_param % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality for the whole unsigned 128-bit domain.

    Proven exact below 3.317e24 (fixed Miller-Rabin witness set); above
    that the witnesses are combined with a strong Lucas test, for which
    no composite passing both is known.  Never consults a random source.
    """
    if n < 2:
        return False
    ensure_u128(n, "n")
    for p in _SMALL_PRIMES[:25]:  # primes below 100
        if n % p == 0:
            return n == p
    if n < 101 * 101:
        return True
    if not all(_strong_probable_prime(n, b) for b in _MR_BASES):
        return False
    if n < _MR_PROVEN_BOUND:
        return True
    return _strong_lucas_probable_prime(n)


def _brent_rho(n: int, rng: random.Random, budget: int) -> tuple[int, int]:
    """A nontrivial factor of odd composite n with no tiny prime factors, and the budget left.

    The budget counts modular squarings; each block is charged before it
    runs, so the per-squaring loops count nothing.
    """
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            budget = _charge(budget, r, n)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                block = min(m, r - k)
                budget = _charge(budget, block, n)
                for _ in range(block):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                budget = _charge(budget, 1, n)
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g, budget


def _charge(budget: int, squarings: int, n: int) -> int:
    if squarings > budget:
        raise ResourceLimitError(
            f"rho found no factor of {n} within {_RHO_BUDGET} modular squarings"
        )
    return budget - squarings


@lru_cache(maxsize=1 << 16)
def _factor_pairs(n: int) -> tuple[tuple[int, int], ...]:
    counts: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    if n > 1:
        # Popping rho's d first draws the seeded rng in a fixed, depth-first order.
        rng = random.Random(_RHO_SEED)
        budget = _RHO_BUDGET
        work = [n]
        while work:
            n = work.pop()
            if is_prime(n):
                counts[n] = counts.get(n, 0) + 1
            else:
                d, budget = _brent_rho(n, rng, budget)
                work += (n // d, d)
    return tuple(sorted(counts.items()))


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (p, v) with p**v || n >= 1, primes ascending; factorize(1) is ().

    Raises ResourceLimitError if rho spends ``_RHO_BUDGET`` squarings on n.
    """
    if n == 0:
        raise ValueError("0 has no prime factorization")
    if n < 0:
        raise ValueError("factorize requires a positive integer")
    ensure_u128(n, "n")
    return _factor_pairs(n)

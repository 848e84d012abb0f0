"""Exact factorization and primality for moduli-scale integers.

The pipeline is deterministic end to end: trial division by 2, 3, 5 and
a mod-30 wheel up to a fixed bound, a Miller-Rabin pass over a witness
set proven complete below 3.317e24, a strong Lucas test for anything
larger (no counterexample to the combined test is known anywhere, let
alone below 2^128), and a Brent-cycle rho splitter driven by a
fixed-seed generator so repeated calls factor identically.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

from .limits import ensure_u128

__all__ = ["is_prime", "factorize"]


def _sieve_primes(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return tuple(i for i, f in enumerate(flags) if f)


_SMALL_PRIMES = _sieve_primes(1000)

# Gaps between consecutive integers coprime to 30, starting from 7.
_WHEEL_GAPS = (4, 2, 4, 2, 4, 6, 2, 6)
_TRIAL_BOUND = 10_000

# Strong-pseudoprime witness set proven complete below this bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981

_RHO_SEED = 0x5EED


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


def _brent_rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of odd composite n with no tiny prime factors."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _split(n: int, counts: dict[int, int], rng: random.Random) -> None:
    if n == 1:
        return
    if is_prime(n):
        counts[n] = counts.get(n, 0) + 1
        return
    d = _brent_rho(n, rng)
    _split(d, counts, rng)
    _split(n // d, counts, rng)


@lru_cache(maxsize=1 << 16)
def _factor_pairs(n: int) -> tuple[tuple[int, int], ...]:
    counts: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    c, i = 7, 0
    while c <= _TRIAL_BOUND and c * c <= n:
        while n % c == 0:
            counts[c] = counts.get(c, 0) + 1
            n //= c
        c += _WHEEL_GAPS[i]
        i = (i + 1) & 7
    if n > 1:
        _split(n, counts, random.Random(_RHO_SEED))
    return tuple(sorted(counts.items()))


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (p, v) with p**v || n >= 1, primes ascending; factorize(1) is ()."""
    if n == 0:
        raise ValueError("0 has no prime factorization")
    if n < 0:
        raise ValueError("factorize requires a positive integer")
    ensure_u128(n, "n")
    return _factor_pairs(n)

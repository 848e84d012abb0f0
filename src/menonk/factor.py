"""Exact factorization and primality for moduli-scale integers.

The pipeline is deterministic end to end: trial division by the primes
up to a fixed bound, read off ``smallest_prime_factors`` (the one sieve,
which ``batch`` also tabulates with; the same primes screen ``is_prime``
and give stage 1 below its primes).  Trial division stops at the first
prime p with p*p above the cofactor, which is then 1 or a prime, proven
by the division itself: every n below 9973**2 is factored this way.
Only a cofactor left after every prime up to the bound goes on to
Miller-Rabin over a witness set proven complete below 3.317e24, a strong
Lucas test for anything larger (no counterexample to the combined test
is known anywhere, let alone below 2^128), a perfect-power check, and
Lenstra's elliptic-curve method (Montgomery curves, Suyama's
parametrisation, stage 1 and a baby-step giant-step stage 2 on
normalized x-coordinates, which needs no prime list) drawing its curves
from a fixed-seed generator, so repeated calls factor identically.  Each
factorization may spend at most ``_ECM_BUDGET`` modular reductions on
curves; past that it refuses with ``ResourceLimitError`` instead of
running without bound.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from functools import lru_cache

from .limits import ResourceLimitError, ensure_u128

__all__ = ["is_prime", "factorize", "smallest_prime_factors"]


def smallest_prime_factors(limit: int) -> array:
    """spf with spf[j] the smallest prime factor of j, for 2 <= j <= limit (spf[0:2] = 0, 1).

    Each prime p <= isqrt(limit), read off this sieve of isqrt(limit) and
    taken in descending order, strikes p over the multiples j >= p*p.  The
    last stroke on a composite j therefore comes from the least prime p
    with p | j and p*p <= j, which is j's smallest prime.
    """
    spf = array("I", range(limit + 1))
    root = math.isqrt(limit)
    if root > 1:  # isqrt(1) = 1: below 4 no j is composite, and the recursion ends
        small = smallest_prime_factors(root)
        for p in range(root, 1, -1):
            if small[p] == p:
                spf[p * p :: p] = array("I", [p]) * len(range(p * p, limit + 1, p))
    return spf


_TRIAL_BOUND = 10_000
_SMALL_PRIMES = tuple(p for p, q in enumerate(smallest_prime_factors(_TRIAL_BOUND)) if p == q > 1)

# Strong-pseudoprime witness set proven complete below this bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981

_ECM_SEED = 0x5EED
# Modular reductions one factorization may spend on elliptic curves.  Over
# the bench's compute-factor splits the most any was charged was 192,532
# (median 15,176, p99 123,804), 21 times under this bound.
_ECM_BUDGET = 1 << 22
_D = 210  # stage 2's giant step: each prime p > D/2 is i*D +- j for one of the 24 _BABIES j
_BABIES = tuple(j for j in range(1, _D // 2, 2) if math.gcd(j, _D) == 1)


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

    A prime below 100 that divides n settles it; every other n, however
    small, goes to the fixed Miller-Rabin witness set, proven exact below
    3.317e24.  Above that the witnesses are combined with a strong Lucas
    test, for which no composite passing both is known.  Never consults
    a random source.
    """
    if n < 2:
        return False
    ensure_u128(n, "n")
    for p in _SMALL_PRIMES[:25]:  # primes below 100
        if n % p == 0:
            return n == p
    if not all(_strong_probable_prime(n, b) for b in _MR_BASES):
        return False
    if n < _MR_PROVEN_BOUND:
        return True
    return _strong_lucas_probable_prime(n)


def _ladder(k: int, p: tuple[int, int], a24: int, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(k*P, (k+1)*P) in x-only coordinates (X, Z), for k >= 1.

    4 reductions, then 8 for each bit of k after the leading one.  The
    doubling and the addition are written out here: calling ``_xadd``
    costs about a fifth more a bit.
    """
    x, z = p
    x1, z1 = p
    s, d = (x + z) ** 2 % n, (x - z) ** 2 % n
    x2, z2 = s * d % n, (s - d) * (d + a24 * (s - d)) % n
    swapped = "0"
    for bit in bin(k)[3:]:
        if bit != swapped:
            x1, z1, x2, z2 = x2, z2, x1, z1
            swapped = bit
        s, d = x1 + z1, x1 - z1
        u, v = (x2 - z2) * s % n, (x2 + z2) * d % n
        x2, z2 = z * (u + v) ** 2 % n, x * (u - v) ** 2 % n
        s, d = s * s % n, d * d % n
        x1, z1 = s * d % n, (s - d) * (d + a24 * (s - d)) % n
    if swapped == "1":
        x1, z1, x2, z2 = x2, z2, x1, z1
    return (x1, z1), (x2, z2)


def _xadd(p: tuple[int, int], q: tuple[int, int], diff: tuple[int, int], n: int) -> tuple[int, int]:
    """P + Q from P, Q and P - Q: 4 reductions."""
    u, v = (p[0] - p[1]) * (q[0] + q[1]) % n, (p[0] + p[1]) * (q[0] - q[1]) % n
    return diff[1] * (u + v) ** 2 % n, diff[0] * (u - v) ** 2 % n


def _normalize(points: list[tuple[int, int]], n: int) -> tuple[list[int], int]:
    """([X/Z mod n for each point (X, Z)], 1), or ([], g) if g = gcd(prod Z, n) > 1.

    Montgomery's simultaneous inversion: one ``pow(-1)`` and 3 reductions a point.
    """
    prefix = [1]
    for _, z in points:
        prefix.append(prefix[-1] * z % n)
    g = math.gcd(prefix[-1], n)
    if g > 1:
        return [], g
    inv, xs = pow(prefix[-1], -1, n), [0] * len(points)
    for t in range(len(points) - 1, -1, -1):
        xs[t], inv = points[t][0] * inv * prefix[t] % n, inv * points[t][1] % n
    return xs, 1


def _ecm_split(n: int, rng: random.Random, budget: int) -> tuple[list[int], int]:
    """Factors > 1 with product n, for odd composite n with no prime below _TRIAL_BOUND, and the budget left.

    A perfect power r**e comes back as e copies of r (on x-only curves
    the gcd for p**2 comes out as n itself).  Any other n goes to
    Lenstra's elliptic-curve method on Montgomery curves with Suyama's
    parametrisation, B1 growing 10% a curve and B2 = 50*B1.  The budget
    counts modular reductions; each curve is charged its bound before it runs.
    """
    for e in range(2, 10):  # n < 2^128 has no prime below 10^4, so e <= 9
        r = math.isqrt(n) if e == 2 else round(n ** (1 / e))  # exact: r < 2^43 for e >= 3
        if r**e == n:
            return [r] * e, budget
    b1 = 150.0  # above D/2, so the giant steps start at i = 1
    while True:
        primes = _SMALL_PRIMES
        if b1 >= _TRIAL_BOUND:
            primes = [p for p, q in enumerate(smallest_prime_factors(int(b1))) if p == q > 1]
        k = math.prod(p ** int(math.log(b1, p)) for p in primes[: bisect_right(primes, b1)])
        i_lo, i_hi = (int(b1) + _D // 2) // _D, (int(50 * b1) + _D // 2) // _D
        # The ladders, 32 a giant (step, normalization, a reduction a term), 4 a baby and 300 fixed.
        cost = 8 * (k.bit_length() + i_hi.bit_length()) + 32 * (i_hi - i_lo + 1) + 4 * len(_BABIES) + 300
        if cost > budget:
            raise ResourceLimitError(f"ECM found no factor of {n} within {_ECM_BUDGET} modular reductions")
        budget -= cost
        sigma = rng.randrange(6, n - 1)
        u, v = (sigma * sigma - 5) % n, 4 * sigma % n
        den = 16 * u**3 * v**4 % n  # (A+2)/4 and the starting x are over den
        xs, g = _normalize([((v - u) ** 3 * (3 * u + v) * v**3, den), (16 * u**6 * v, den)], n)
        if g == 1:
            a24, x0 = xs
            q, _ = _ladder(k, (x0, 1), a24, n)
            g = math.gcd(q[1], n)
            if g == 1:
                # Stage 2: if Q's order modulo a prime p | n divides i*D +- j, p | x(i*D*Q) - x(j*Q).
                q2, q3 = _ladder(2, q, a24, n)
                odd = [q, q3]  # j*Q for odd j < D/2
                while len(odd) < _D // 4:
                    odd.append(_xadd(odd[-1], q2, odd[-2], n))
                dq, _ = _ladder(_D, q, a24, n)
                giants = list(_ladder(i_lo, dq, a24, n))  # i*D*Q for i_lo <= i <= i_hi
                while len(giants) <= i_hi - i_lo:
                    giants.append(_xadd(giants[-1], dq, giants[-2], n))
                xs, g = _normalize([odd[j // 2] for j in _BABIES] + giants, n)
                quads = list(zip(*[iter(xs[: len(_BABIES)])] * 4))  # four terms share a reduction
                for xg in xs[len(_BABIES) :]:
                    for a, b, c, d in quads:
                        g = g * ((xg - a) * (xg - b) * (xg - c) * (xg - d)) % n
                g = math.gcd(g, n)
        if 1 < g < n:
            return [g, n // g], budget
        b1 *= 1.1


@lru_cache(maxsize=1 << 16)
def _factor_pairs(n: int) -> tuple[tuple[int, int], ...]:
    counts: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            # No prime below p divides n < p*p, so n is 1 or a prime: the division proves it.
            if n > 1:
                counts[n] = 1
            return tuple(counts.items())
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    if n > 1:
        # Popping the last factor first draws the seeded rng in a fixed, depth-first order.
        rng = random.Random(_ECM_SEED)
        budget = _ECM_BUDGET
        work = [n]
        while work:
            n = work.pop()
            if is_prime(n):
                counts[n] = counts.get(n, 0) + 1
            else:
                factors, budget = _ecm_split(n, rng, budget)
                work += factors
    return tuple(sorted(counts.items()))


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (p, v) with p**v || n >= 1, primes ascending; factorize(1) is ().

    Raises ResourceLimitError if the curves spend ``_ECM_BUDGET`` reductions on n.
    """
    if n < 1:
        raise ValueError("factorize requires a positive integer")
    ensure_u128(n, "n")
    return _factor_pairs(n)

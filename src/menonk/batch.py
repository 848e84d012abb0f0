"""Bulk tabulation over m in [1, N] backed by a smallest-prime-factor sieve.

The sieve is linear (every composite is struck exactly once, by its
smallest prime factor), so construction is O(N) and the factorization
of any m <= N falls out by repeated spf division with no trial division
per row.  Each column multiplies arith's prime-power rule over the
row's (p, v) pairs, so the table and the scalar functions share one
definition per closed form.  The Pillai column takes that multiplicative
route rather than arith.pillai's divisor sum, giving the table an
independent path to cross-check.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator

from .arith import cohen_phi_rule, d_s_k_rule, pillai_rule
from .factor import Factorization
from .limits import (
    ResourceLimitError,
    check_classes,
    checked_mul,
    checked_pow,
    resolve_max_iterations,
)
from .menon import MenonParams, menon_sum_bruteforce

__all__ = ["SpfSieve", "BatchRow", "build_sieve", "batch_table"]

# Pure-Python linear sieving tops out around here before both time and
# the 4-byte-per-entry table become unreasonable at desk scale.
_MAX_SIEVE_LIMIT = 50_000_000


@dataclass
class SpfSieve:
    """spf[m] is the smallest prime factor of m, for 2 <= m <= limit."""

    limit: int
    spf: array

    def smallest_prime_factor(self, m: int) -> int:
        if m < 2 or m > self.limit:
            raise ValueError(f"m = {m} outside sieve range [2, {self.limit}]")
        return self.spf[m]

    def is_prime(self, m: int) -> bool:
        return m >= 2 and self.smallest_prime_factor(m) == m

    def factorization(self, m: int) -> Factorization:
        """Factorization of 1 <= m <= limit by repeated spf division."""
        if m < 1 or m > self.limit:
            raise ValueError(f"m = {m} outside sieve range [1, {self.limit}]")
        return Factorization(tuple(self._pairs(m)))

    def _pairs(self, m: int) -> list[tuple[int, int]]:
        """The (p, v) with p**v || m, primes ascending; unchecked, [] for m = 1."""
        spf = self.spf
        pairs = []
        while m > 1:
            p = spf[m]
            v = 0
            while m % p == 0:
                m //= p
                v += 1
            pairs.append((p, v))
        return pairs


def build_sieve(limit: int) -> SpfSieve:
    """Linear smallest-prime-factor sieve up to ``limit`` (>= 2)."""
    if limit < 2:
        raise ValueError("sieve limit must be at least 2")
    if limit > _MAX_SIEVE_LIMIT:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds the memory budget ({_MAX_SIEVE_LIMIT})"
        )
    spf = array("I", [0]) * (limit + 1)
    primes = []
    for i in range(2, limit + 1):
        si = spf[i]
        if si == 0:
            spf[i] = si = i
            primes.append(i)
        for p in primes:
            if p > si or i * p > limit:
                break
            spf[i * p] = p
    return SpfSieve(limit, spf)


@dataclass(frozen=True)
class BatchRow:
    """One tabulated modulus: closed forms, plus brute-force check on request.

    menon_rhs is always d_s_k * phi_k; menon_lhs and verified are None
    unless the table was built with brute force enabled.
    """

    m: int
    phi_k: int
    d_s_k: int
    pillai_k: int
    menon_lhs: int | None
    menon_rhs: int
    verified: bool | None


def batch_table(
    n: int,
    s: int,
    k: int,
    with_bruteforce: bool = False,
    max_iterations: int | None = None,
    sieve: SpfSieve | None = None,
) -> Iterator[BatchRow]:
    """Stream BatchRows for m = 1..n, factorizations served by the sieve.

    Arguments are validated (and the sieve built) up front; the rows
    themselves are generated lazily in ascending m.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    checked_pow(n, k, "n^k")
    if with_bruteforce:
        _check_bruteforce_budget(n, k, max_iterations)
    if sieve is None and n >= 2:
        sieve = build_sieve(n)
    elif sieve is not None and sieve.limit < n:
        raise ValueError(f"sieve limit {sieve.limit} is below n = {n}")
    return _rows(n, s, k, with_bruteforce, max_iterations, sieve)


def _check_bruteforce_budget(n: int, k: int, max_iterations: int | None) -> None:
    """Refuse brute-force columns if row m = n fails the class gate or the total is over the cap.

    The total, sum of m**k over m <= n, stops as soon as it passes the
    cap, after at most min(n, cap + 1) terms.
    """
    check_classes(n, k, max_iterations, f"brute-forcing m = {n} at k = {k}")
    cap = resolve_max_iterations(max_iterations)
    total = 0
    for m in range(1, n + 1):
        total += m**k
        if total > cap:
            raise ResourceLimitError(
                f"brute-forcing m = 1..{n} at k = {k} needs more iterations than the cap of {cap}"
            )


def _rows(
    n: int,
    s: int,
    k: int,
    with_bruteforce: bool,
    max_iterations: int | None,
    sieve: SpfSieve | None,
) -> Iterator[BatchRow]:
    phi_rule = cohen_phi_rule(k).prime_power
    dsk_rule = d_s_k_rule(s, k).prime_power
    pil_rule = pillai_rule(k).prime_power
    for m in range(1, n + 1):
        phi_k = dsk = pil = 1
        for p, v in sieve._pairs(m) if m >= 2 else ():
            phi_k = checked_mul(phi_k, phi_rule(p, v), "phi_k")
            dsk *= dsk_rule(p, v)
            pil = checked_mul(pil, pil_rule(p, v), "P_k")
        rhs = checked_mul(dsk, phi_k, "d_s_k * phi_k")
        lhs = None
        verified = None
        if with_bruteforce:
            lhs = menon_sum_bruteforce(MenonParams(m, s, k), max_iterations)
            verified = lhs == rhs
        yield BatchRow(m, phi_k, dsk, pil, lhs, rhs, verified)

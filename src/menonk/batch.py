"""Bulk tabulation over m in [1, N] backed by a smallest-prime-factor sieve.

The sieve is ``factor.smallest_prime_factors``, the one sieve in the
package: fewer than N ln(N) / 2 array writes, all by C-level slice
assignments rather than a Python loop per entry.  The rows then turn
that array in place, by more slice strokes, into the prime-power chain:
q[m] is the power of m's smallest prime that exactly divides m, so
m, m // q[m], ... walks m's prime powers with no division loop per row
and no second array.  Every column is multiplicative, so a row is the
product of its prime-power rules (arith's ``cohen_phi_rule``,
``d_s_k_rule`` and ``pillai_rule``, each written once) along that
chain.  Rule values are cached for the powers of the primes up to
isqrt(N) and for the larger primes up to N // 8, which recur.  The
Pillai column takes that multiplicative route rather than
arith.pillai's divisor sum.  No command compares the two; only the
tests do (``test_batch`` and the fault matrix in ``test_cli``), so the
table prints the column unchecked.  Both record types are named tuples:
``SpfSieve`` pairs the limit with the spf array and adds
``factorization``, and ``BatchRow``'s fields are the table's column
order.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterator, NamedTuple

from .arith import cohen_phi_rule, d_s_k_rule, pillai_rule
from .factor import smallest_prime_factors
from .limits import (
    U128_MAX,
    ResourceLimitError,
    check_classes,
    checked_pow,
    ensure_u128,
    resolve_max_iterations,
)
from .menon import menon_sum_bruteforce

__all__ = ["SpfSieve", "BatchRow", "build_sieve", "batch_table"]

# The 4-byte-per-entry table (200 MB here, plus a 100 MB stroke for d = 2
# while it is built) becomes unreasonable at desk scale past this.
_MAX_SIEVE_LIMIT = 50_000_000


class SpfSieve(NamedTuple):
    """spf[m] is the smallest prime factor of m, for 2 <= m <= limit."""

    limit: int
    spf: array

    def factorization(self, m: int) -> tuple[tuple[int, int], ...]:
        """factorize(m) for 1 <= m <= limit, by repeated spf division."""
        if m < 1 or m > self.limit:
            raise ValueError(f"m = {m} outside sieve range [1, {self.limit}]")
        spf = self.spf
        pairs = []
        while m > 1:
            p = spf[m]
            v = 0
            while m % p == 0:
                m //= p
                v += 1
            pairs.append((p, v))
        return tuple(pairs)


def build_sieve(limit: int) -> SpfSieve:
    """The smallest-prime-factor sieve up to ``limit`` (>= 2)."""
    if limit < 2:
        raise ValueError("sieve limit must be at least 2")
    if limit > _MAX_SIEVE_LIMIT:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds the memory budget ({_MAX_SIEVE_LIMIT})"
        )
    return SpfSieve(limit, smallest_prime_factors(limit))


class BatchRow(NamedTuple):
    """One tabulated modulus: closed forms, plus brute-force check on request.

    The fields, in order, are the table's columns.  menon_rhs is always
    d_s_k * phi_k; menon_lhs and verified are None unless the table was
    built with brute force enabled.
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
) -> Iterator[BatchRow]:
    """Stream BatchRows for m = 1..n, each a product along the sieve's prime-power chain.

    Arguments are validated (and the sieve built) up front; the rows
    themselves are generated lazily in ascending m.  Since n**k < 2**128,
    every p**v dividing a row has v*k < 128, so no rule refuses; only the
    P_k product can leave the domain.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    checked_pow(n, k, "n^k")
    if with_bruteforce:
        _check_bruteforce_budget(n, k, max_iterations)
    return _rows(n, s, k, with_bruteforce, max_iterations, build_sieve(max(n, 2)).spf)


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
    q: array,
) -> Iterator[BatchRow]:
    """The rows, from the call's own spf array, which becomes the prime-power chain.

    The primes p <= isqrt(n) are read off spf first.  Then, primes
    descending and v = 1, 2, ... for each, one slice stroke sets
    q[p^v::p^v] = p^v, so the last stroke on m leaves the power of m's
    smallest prime that exactly divides m; a prime above isqrt(n) keeps
    q[P] = P.  Each column is multiplicative, so a row is the product of
    its rule values at q[m], q[m // q[m]], ...  Those of the prime powers
    of p <= isqrt(n) are cached up front, a few hundred entries.  A row
    has at most one prime factor P above isqrt(n), with v = 1; its rules
    are cached at the first row P <= n // 8 meets (a larger P divides at
    most 7 rows), and called directly above that.
    """
    rules = cohen_phi_rule(k), d_s_k_rule(s, k), pillai_rule(k)
    phi_rule, dsk_rule, pil_rule = rules
    new_row = tuple.__new__  # BatchRow's own __new__ is a Python-level call per row
    primes = [p for p in range(2, math.isqrt(n) + 1) if q[p] == p]
    local = {}
    for p in reversed(primes):
        pv, v = p, 1
        while pv <= n:
            local[pv] = tuple(rule(p, v) for rule in rules)
            q[pv::pv] = array("I", [pv]) * (n // pv)
            pv, v = pv * p, v + 1
    recurring = n // 8
    for m in range(1, n + 1):
        phi_k = dsk = pil = 1
        rest = m
        while rest > 1:
            f = q[rest]
            at = local.get(f)
            if at is None:  # three calls: a tuple over a generator made the rows 20% slower
                at = phi_rule(f, 1), dsk_rule(f, 1), pil_rule(f, 1)
                if f <= recurring:
                    local[f] = at
            phi_k *= at[0]
            dsk *= at[1]
            pil *= at[2]
            rest //= f
        # phi_k <= m**k < 2**128, since batch_table refused n**k >= 2**128, and
        # d_s_k * phi_k < P_k at every prime power: only P_k can leave the domain.
        if pil > U128_MAX:
            ensure_u128(pil, pil_rule.__name__)
        rhs = dsk * phi_k
        lhs = None
        verified = None
        if with_bruteforce:
            lhs = menon_sum_bruteforce(m, s, k, max_iterations)
            verified = lhs == rhs
        yield new_row(BatchRow, (m, phi_k, dsk, pil, lhs, rhs, verified))

"""Bulk tabulation over m in [1, N] backed by a smallest-prime-factor sieve.

The sieve is ``factor.smallest_prime_factors``, the one sieve in the
package: fewer than N ln(N) / 2 array writes, all by C-level slice
assignments rather than a Python loop per entry.  The factorization of
any m <= N falls out by repeated spf division with no trial division
per row.  Each column is arith.eval_multiplicative of its prime-power
rule over the row's (p, v) pairs, so the table and the scalar functions
share one product and one definition per closed form.  The Pillai
column takes that multiplicative route rather than arith.pillai's
divisor sum, giving the table an independent path to cross-check.
``BatchRow`` is a named tuple whose fields are the table's column order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .arith import cohen_phi_rule, d_s_k_rule, eval_multiplicative, pillai_rule
from .factor import smallest_prime_factors
from .limits import (
    ResourceLimitError,
    check_classes,
    checked_mul,
    checked_pow,
    resolve_max_iterations,
)
from .menon import menon_sum_bruteforce

__all__ = ["SpfSieve", "BatchRow", "build_sieve", "batch_table"]

# The 4-byte-per-entry table (200 MB here, plus a 100 MB stroke for d = 2
# while it is built) becomes unreasonable at desk scale past this.
_MAX_SIEVE_LIMIT = 50_000_000


@dataclass
class SpfSieve:
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
    """Stream BatchRows for m = 1..n, factorizations served by the sieve.

    Arguments are validated (and the sieve built) up front; the rows
    themselves are generated lazily in ascending m.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    checked_pow(n, k, "n^k")
    if with_bruteforce:
        _check_bruteforce_budget(n, k, max_iterations)
    return _rows(n, s, k, with_bruteforce, max_iterations, build_sieve(max(n, 2)))


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
    sieve: SpfSieve,
) -> Iterator[BatchRow]:
    phi_rule, dsk_rule, pil_rule = cohen_phi_rule(k), d_s_k_rule(s, k), pillai_rule(k)
    for m in range(1, n + 1):
        pairs = sieve.factorization(m)
        phi_k = eval_multiplicative(phi_rule, pairs)
        dsk = eval_multiplicative(dsk_rule, pairs)
        # P_k >= d_s_k * phi_k at every prime power, so P_k overflows first.
        pil = eval_multiplicative(pil_rule, pairs)
        rhs = checked_mul(dsk, phi_k, "d_s_k * phi_k")
        lhs = None
        verified = None
        if with_bruteforce:
            lhs = menon_sum_bruteforce(m, s, k, max_iterations)
            verified = lhs == rhs
        yield BatchRow(m, phi_k, dsk, pil, lhs, rhs, verified)

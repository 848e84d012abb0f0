"""Bulk tabulation over m in [1, N] backed by a smallest-prime-factor sieve.

The sieve is ``factor.smallest_prime_factors``, the one sieve in the
package: fewer than N ln(N) / 2 array writes, all by C-level slice
assignments rather than a Python loop per entry.  The rows then turn
that array in place into the prime-power chain, by slice strokes in one
ascending pass over the primes up to N // 2: q[m] is the power of m's
largest prime that exactly divides m, so m, m // q[m], ... walks m's
prime powers with no division loop per row and no second array.  Every
column is multiplicative, so a row is the product of its prime-power
rules (arith's ``cohen_phi_rule``, ``d_s_k_rule`` and ``pillai_rule``,
each written once) at q[m] and the products of the row m // q[m].
The products of the rows up to isqrt(N) are kept, and a row with a
prime above isqrt(N) reaches one of them in that one step; any other
row walks its chain down to one.  Rule values
are cached for the powers of the primes up to isqrt(N) and for the
larger primes up to N // 8, which recur.  The
Pillai column takes that multiplicative route rather than
arith.pillai's divisor sum.  No command compares the two; only the
tests do (``test_batch`` and the fault matrix in ``test_cli``), so the
table prints the column unchecked.  ``SpfSieve`` is a named tuple that
pairs the limit with the spf array and adds ``factorization``.  A row
is a plain tuple: with brute force on, its seven cells are in ``COLUMNS``
order; with it off, it holds only the five closed-form cells, in
``CLOSED_COLUMNS`` order, and no placeholder for the two it lacks.
"""

from __future__ import annotations

import math
from array import array
from operator import mul
from typing import Iterator, NamedTuple

from .arith import cohen_phi_rule, d_s_k_rule, pillai_rule
from .factor import smallest_prime_factors
from .limits import (
    U128_MAX,
    ResourceLimitError,
    check_classes,
    check_power,
    ensure_u128,
    resolve_max_iterations,
)
from .menon import menon_sum_bruteforce

__all__ = ["SpfSieve", "COLUMNS", "CLOSED_COLUMNS", "build_sieve", "batch_table"]

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


# The cells of a row with brute force on, in order; also every table's header.
# menon_rhs is always d_s_k * phi_k, and verified is menon_lhs == menon_rhs.
COLUMNS = ("m", "phi_k", "d_s_k", "pillai_k", "menon_lhs", "menon_rhs", "verified")
# The cells of a row with brute force off, in order: COLUMNS less the literal sum and its verdict.
CLOSED_COLUMNS = ("m", "phi_k", "d_s_k", "pillai_k", "menon_rhs")


def batch_table(
    n: int,
    s: int,
    k: int,
    with_bruteforce: bool = False,
    max_iterations: int | None = None,
) -> Iterator[tuple]:
    """Stream rows for m = 1..n, each a product along the sieve's prime-power chain.

    A row is a plain tuple: seven cells in ``COLUMNS`` order with brute
    force on, five in ``CLOSED_COLUMNS`` order with it off.  Arguments
    are validated (and the sieve built) up front; the rows themselves
    are generated lazily in ascending m.  Since n**k < 2**128, every
    p**v dividing a row has v*k < 128, so no rule refuses; only the P_k
    product can leave the domain.
    """
    check_power(n, k)
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
) -> Iterator[tuple]:
    """The rows, from the call's own spf array, which becomes the prime-power chain.

    One ascending pass over j = 2 .. n // 2 strikes the chain.  It skips
    j with q[j] != j, a composite, and j already in the rule cache, a
    power of a smaller prime; every other j is a prime p, and for
    v = 1, 2, ... while p^v <= n one slice stroke sets q[p^v::p^v] = p^v
    (v = 1 alone for p > isqrt(n)).  So the last stroke on m leaves the
    power of m's largest prime that exactly divides m; a prime above
    n // 2 divides no other row and keeps q[P] = P.  Each column is multiplicative, so
    a row is its rule values at q[m] times the products of the row
    r = m // q[m].  The products of every r <= isqrt(n) are kept, a few
    hundred tuples; a row with no prime above isqrt(n) walks q[r],
    q[r // q[r]], ... while r > isqrt(n).  The rule values of the prime
    powers of p <= isqrt(n) are cached up front, a few hundred entries.
    A row has at most one prime factor P above isqrt(n), with v = 1, so
    it is q[m] and leaves r <= isqrt(n); its rules are cached at the
    first row P <= n // 8 meets (a larger P divides at most 7 rows),
    and called directly above that.
    """
    rules = cohen_phi_rule(k), d_s_k_rule(s, k), pillai_rule(k)
    phi_rule, dsk_rule, pil_rule = rules
    root = math.isqrt(n)
    local = {1: (1, 1, 1)}  # q[1] = 1, the empty product
    for p in range(2, n // 2 + 1):
        if q[p] != p or p in local:  # a composite, or a power already struck
            continue
        pv, v = p, 1
        while pv <= n:  # once for p > isqrt(n), whose square is past n
            if p <= root:
                local[pv] = tuple(rule(p, v) for rule in rules)
            q[pv::pv] = array("I", [pv]) * (n // pv)
            pv, v = pv * p, v + 1
    products = [(1, 1, 1)] * 2  # r = 0 is never read
    for r in range(2, root + 1):
        f = q[r]
        products.append(tuple(map(mul, local[f], products[r // f])))
    recurring = n // 8
    for m in range(1, n + 1):
        f = q[m]
        at = local.get(f)
        if at is None:  # three calls: a tuple over a generator made the rows 20% slower
            at = phi_rule(f, 1), dsk_rule(f, 1), pil_rule(f, 1)
            if f <= recurring:
                local[f] = at
        phi_k, dsk, pil = at
        rest = m // f
        while rest > root:  # no prime above isqrt(n) is left, so local holds q[rest]
            f = q[rest]
            phi_f, dsk_f, pil_f = local[f]
            phi_k *= phi_f
            dsk *= dsk_f
            pil *= pil_f
            rest //= f
        phi_f, dsk_f, pil_f = products[rest]
        phi_k *= phi_f
        dsk *= dsk_f
        pil *= pil_f
        # phi_k <= m**k < 2**128, since batch_table refused n**k >= 2**128, and
        # d_s_k * phi_k < P_k at every prime power: only P_k can leave the domain.
        if pil > U128_MAX:
            ensure_u128(pil, pil_rule.__name__)
        rhs = dsk * phi_k
        if with_bruteforce:
            lhs = menon_sum_bruteforce(m, s, k, max_iterations)
            yield m, phi_k, dsk, pil, lhs, rhs, lhs == rhs
        else:
            yield m, phi_k, dsk, pil, rhs

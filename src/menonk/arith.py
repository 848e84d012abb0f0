"""Multiplicative arithmetic functions built on k-th power gcds.

Definitions (all exact integers):

    (a, b)       ordinary gcd of a and b, not both zero
    (a, b)_k     largest t**k dividing both a and b; (a, b)_1 = (|a|, b)
    phi(m)       Euler totient, #{1 <= a <= m : (a, m) = 1}
    phi_k(m)     Eckford Cohen totient, #{1 <= a <= m**k : (a, m**k)_k = 1}
                 = m**k * prod_{p | m} (1 - p**-k)
    d(m)         number of positive divisors
    d_s(m)       number of divisors of m coprime to s
    d_s_k(m)     prime-power rule: 1 if p**k | s else v + 1
    P_k(m)       gcd-power sum, sum_{a=1}^{m**k} (a, m**k)_k
                 = sum_{d | m} d**k * phi_k(m / d)

Each closed form is defined once, as its prime-power rule: a plain
(p, v) -> int function from one of the ``*_rule`` factories at the end
of this module.  ``eval_multiplicative(rule, pairs)`` is the one product
over (p, v) pairs; the scalar functions feed it ``factorize(m)`` and
``batch`` feeds it the sieve's pairs.  ``pillai`` instead takes the
divisor sum, a third route checked against ``pillai_rule``.  Every
function with a closed form also has a brute-force twin here (suffix
``_bruteforce``) that evaluates the defining count or sum literally;
the twins are each other's oracles and never share a code path beyond
the gcd primitive.

The literal side is one pass: ``kth_gcd_classes(m, k)`` streams
(x, m**k)_k over the classes x mod m**k, behind the one budget gate
``limits.check_classes`` (at most min(cap, 2**25) classes).  The two
oracles consume it lazily, holding one k-th power part per divisor of
m**k; ``menon.menon_sums`` keeps it as a table so every shift reads the
same classes.  This pass and ``pillai``'s divisor sum read only the
exponents of ``factorize(m)``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat, starmap
from typing import Callable, Iterable, Iterator

from .factor import factorize
from .limits import (
    Uint128OverflowError,
    bounded_pow,
    check_classes,
    checked_pow,
    ensure_u128,
)

__all__ = [
    "gcd_pow_k",
    "largest_kth_power_divisor",
    "kth_gcd_classes",
    "kth_unit_mask",
    "euler_phi",
    "cohen_phi",
    "cohen_phi_bruteforce",
    "divisor_count",
    "d_s",
    "d_s_k",
    "pillai",
    "pillai_bruteforce",
    "eval_multiplicative",
    "cohen_phi_rule",
    "d_s_k_rule",
    "pillai_rule",
]


# maxsize=0 keeps no entry (no CLI route reaches it) but keeps
# cache_info(), which bench/worker.py reads.
@lru_cache(maxsize=0)
def largest_kth_power_divisor(n: int, k: int) -> int:
    """The largest t**k (t >= 1) dividing n >= 1."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k == 1 or n == 1:
        return n
    out = 1
    for p, v in factorize(n):
        out *= p ** (k * (v // k))
    return out


def gcd_pow_k(a: int, b: int, k: int) -> int:
    """k-th power gcd (a, b)_k: the largest t**k dividing both a and b.

    Sign-invariant in a.  Every k-th power divides 0, so (0, b)_k is the
    largest k-th power dividing b.  t**k divides both a and b exactly
    when it divides gcd(a, b), so the value is extracted from the gcd.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if b < 1:
        raise ValueError("b must be a positive integer")
    ensure_u128(abs(a), "|a|")
    ensure_u128(b, "b")
    return largest_kth_power_divisor(math.gcd(a, b), k)


def kth_gcd_classes(m: int, k: int, max_iterations: int | None = None) -> Iterator[int]:
    """(x, m**k)_k for x = 0, 1, ..., m**k - 1, lazily: the one literal pass.

    Arguments and the budget (``limits.check_classes``) are checked here,
    before the iterator is returned.  The gcd of a class with m**k is a
    divisor of m**k, so its k-th power part is kept once per divisor,
    built one prime of m at a time: the part of prod p**e (0 <= e <= v*k)
    is prod p**(e - e mod k).
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive integers")
    mk = check_classes(m, k, max_iterations, f"enumerating residues mod {m}^{k}")
    kth = {1: 1}
    for p, v in factorize(m):
        kth = {g * p**e: t * p ** (e - e % k) for g, t in kth.items() for e in range(v * k + 1)}
    return map(kth.__getitem__, map(math.gcd, range(mk), repeat(mk)))


def kth_unit_mask(classes: Iterable[int]) -> Iterator[bool]:
    """Lazily, whether each value of a kth_gcd_classes stream is 1: the reduced classes."""
    return map((1).__eq__, classes)


def euler_phi(m: int) -> int:
    """Euler totient, the k = 1 case of cohen_phi."""
    return cohen_phi(m, 1)


def cohen_phi(m: int, k: int) -> int:
    """Eckford Cohen totient phi_k(m) = m**k * prod_{p | m} (1 - p**-k).

    Counts 1 <= a <= m**k with (a, m**k)_k = 1; cohen_phi(m, 1) is the
    Euler totient.  Evaluates cohen_phi_rule(k) over the factorization.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive integers")
    checked_pow(m, k, "m^k")
    return eval_multiplicative(cohen_phi_rule(k), factorize(m))


def cohen_phi_bruteforce(m: int, k: int, max_iterations: int | None = None) -> int:
    """phi_k(m) by literally counting the classes mod m**k with (x, m**k)_k = 1."""
    return sum(kth_unit_mask(kth_gcd_classes(m, k, max_iterations)))


def divisor_count(m: int) -> int:
    """d(m), the number of positive divisors: d_s_k at s = k = 1."""
    return d_s_k(m, 1, 1)


def d_s(m: int, s: int) -> int:
    """Count of divisors of m coprime to s: the k = 1 case of d_s_k.

    Total in s: d_s = d_{-s}, d_0(m) = 1 (only the divisor 1 is coprime
    to 0), and d_s(m) = d(m) when (s, m) = 1.
    """
    return d_s_k(m, s, 1)


def d_s_k(m: int, s: int, k: int) -> int:
    """The k-th power analogue of d_s: prime-power rule 1 if p**k | s else v+1.

    d_s_k(m, s, 1) = d_s(m, s); s = 0 gives 1 since every p**k divides 0.
    Evaluates d_s_k_rule(s, k) over the factorization.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive integers")
    return eval_multiplicative(d_s_k_rule(s, k), factorize(m))


def _kth_power_divides(p: int, k: int, s: int) -> bool:
    """True iff p**k divides s; p**k is never built past |s| when s != 0."""
    if s == 0:
        return True
    pk = bounded_pow(p, k, abs(s))
    return pk is not None and s % pk == 0


def pillai(m: int, k: int) -> int:
    """Gcd-power sum P_k(m) via the divisor sum sum_{d|m} d**k * phi_k(m/d).

    Over d = prod p**e the sum factors, by distributivity, into the
    product over the (p, v) of factorize(m) of
    sum_{e=0}^{v} p**(e*k) * phi_k(p**(v-e)): sum v steps, not d(m).
    This route never reads pillai_rule(k), so each checks the other.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive integers")
    checked_pow(m, k, "m^k")
    phi = cohen_phi_rule(k)
    pairs = factorize(m)
    local = (p ** (v * k) + sum(p ** (e * k) * phi(p, v - e) for e in range(v)) for p, v in pairs)
    # Every local sum is positive, so one check of the product refuses what a check per term would.
    return ensure_u128(math.prod(local), "P_k(m)")


def pillai_bruteforce(m: int, k: int, max_iterations: int | None = None) -> int:
    """P_k(m) by literally summing (x, m**k)_k over the classes mod m**k."""
    return sum(kth_gcd_classes(m, k, max_iterations))


Rule = Callable[[int, int], int]


def eval_multiplicative(rule: Rule, pairs: Iterable[tuple[int, int]]) -> int:
    """Product of rule(p, v) over the (p, v) pairs; the empty product is 1.

    Every rule below is at least 1 at each prime power, so the product
    never shrinks and one domain check at the end refuses exactly the
    inputs a check after each factor would.
    """
    return ensure_u128(math.prod(starmap(rule, pairs)), rule.__name__)


# The prime-power rules: the one place each closed form's local factor
# f(p**v) is written.  Each rule is named after its column, and that
# name is what eval_multiplicative's overflow message reports.  phi_k
# and P_k at p**v are at least p**(v*k) / 2 >= 2**(v*k - 1), so from
# v*k = 129 on they refuse before building the power.

def cohen_phi_rule(k: int) -> Rule:
    if k < 1:
        raise ValueError("k must be a positive integer")

    def phi_k(p: int, v: int) -> int:
        if v * k > 128:
            raise Uint128OverflowError(f"phi_k({p}^{v}) is outside [0, 2^128)")
        return p ** (v * k) - p ** ((v - 1) * k)

    return phi_k


def d_s_k_rule(s: int, k: int) -> Rule:
    if k < 1:
        raise ValueError("k must be a positive integer")

    def d_s_k(p: int, v: int) -> int:
        # p | s is necessary for p**k | s, and one modulo rules most primes out.
        return 1 if s % p == 0 and _kth_power_divides(p, k, s) else v + 1

    return d_s_k


def pillai_rule(k: int) -> Rule:
    if k < 1:
        raise ValueError("k must be a positive integer")

    def P_k(p: int, v: int) -> int:
        if v * k > 128:
            raise Uint128OverflowError(f"P_k({p}^{v}) is outside [0, 2^128)")
        return (v + 1) * p ** (v * k) - v * p ** ((v - 1) * k)

    return P_k

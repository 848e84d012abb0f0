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

Each closed form is defined once, as its prime-power rule (the
``*_rule`` factories at the end of this module); the scalar functions
evaluate that rule over ``factorize`` and ``batch`` evaluates it over
the sieve.  ``pillai`` instead takes the divisor sum, a third route
checked against ``pillai_rule``.  Every function with a closed form
also has a brute-force twin here (suffix ``_bruteforce``) that evaluates
the defining count or sum literally; the twins are each other's oracles
and never share a code path beyond the gcd primitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .factor import divisors, factorize
from .limits import (
    bounded_pow,
    check_loop_budget,
    checked_mul,
    checked_pow,
    ensure_u128,
)

__all__ = [
    "MultiplicativeFunction",
    "PrimeLocalValue",
    "local_values",
    "gcd",
    "gcd_pow_k",
    "largest_kth_power_divisor",
    "euler_phi",
    "cohen_phi",
    "cohen_phi_bruteforce",
    "divisor_count",
    "d_s",
    "d_s_k",
    "pillai",
    "pillai_bruteforce",
    "eval_multiplicative",
    "euler_phi_rule",
    "cohen_phi_rule",
    "divisor_count_rule",
    "d_s_rule",
    "d_s_k_rule",
    "pillai_rule",
]


@dataclass(frozen=True)
class MultiplicativeFunction:
    """A multiplicative function given by its prime-power rule.

    ``prime_power(p, v)`` must return the value at p**v; the global
    function is the product of the rule over the factorization, with
    the empty product giving f(1) = 1.  Rules must be side-effect-free.
    """

    name: str
    prime_power: Callable[[int, int], int]

    def __call__(self, m: int) -> int:
        return eval_multiplicative(self, m)


@dataclass(frozen=True)
class PrimeLocalValue:
    """One local factor f(p**v) of a multiplicative evaluation."""

    prime: int
    exponent: int
    value: int


def local_values(f: MultiplicativeFunction, m: int) -> tuple[PrimeLocalValue, ...]:
    """The per-prime-power factors whose product is eval_multiplicative(f, m)."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return tuple(
        PrimeLocalValue(p, v, f.prime_power(p, v)) for p, v in factorize(m)
    )


def gcd(a: int, b: int) -> int:
    """Ordinary gcd, sign-invariant; gcd(0, b) = |b|.  (0, 0) is undefined."""
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    ensure_u128(abs(a), "|a|")
    ensure_u128(abs(b), "|b|")
    return math.gcd(a, b)


@lru_cache(maxsize=1 << 20)
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
    g = b if a == 0 else math.gcd(a, b)
    if k == 1:
        return g
    return largest_kth_power_divisor(g, k)


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
    return eval_multiplicative(cohen_phi_rule(k), m)


def cohen_phi_bruteforce(m: int, k: int, max_iterations: int | None = None) -> int:
    """phi_k(m) by literal counting over [1, m**k]; oracle for cohen_phi."""
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive integers")
    mk = checked_pow(m, k, "m^k")
    check_loop_budget(mk, max_iterations, f"counting phi_k({m}) with k={k}")
    if k == 1:
        _gcd = math.gcd
        return sum(1 for a in range(1, mk + 1) if _gcd(a, mk) == 1)
    _gcd, _kth = math.gcd, largest_kth_power_divisor
    return sum(1 for a in range(1, mk + 1) if _kth(_gcd(a, mk), k) == 1)


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
    return eval_multiplicative(d_s_k_rule(s, k), m)


def _kth_power_divides(p: int, k: int, s: int) -> bool:
    """True iff p**k divides s; p**k is never built past |s| when s != 0."""
    if s == 0:
        return True
    pk = bounded_pow(p, k, abs(s))
    return pk is not None and s % pk == 0


def pillai(m: int, k: int) -> int:
    """Gcd-power sum P_k(m) via the divisor sum sum_{d|m} d**k * phi_k(m/d).

    This route never reads pillai_rule(k), so each checks the other.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive integers")
    checked_pow(m, k, "m^k")
    total = 0
    for d in divisors(m):
        total = ensure_u128(
            total + checked_mul(d**k, cohen_phi(m // d, k), "d^k * phi_k(m/d)"),
            "P_k(m)",
        )
    return total


def pillai_bruteforce(m: int, k: int, max_iterations: int | None = None) -> int:
    """P_k(m) by literal summation of (a, m**k)_k over [1, m**k]."""
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive integers")
    mk = checked_pow(m, k, "m^k")
    check_loop_budget(mk, max_iterations, f"summing P_k({m}) with k={k}")
    _gcd = math.gcd
    if k == 1:
        return sum(_gcd(a, mk) for a in range(1, mk + 1))
    _kth = largest_kth_power_divisor
    return sum(_kth(_gcd(a, mk), k) for a in range(1, mk + 1))


def eval_multiplicative(f: MultiplicativeFunction, m: int) -> int:
    """Product of f's prime-power rule over the factorization of m."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    out = 1
    for p, v in factorize(m):
        out = checked_mul(out, f.prime_power(p, v), f"{f.name}({m})")
    return out


# The prime-power rules: the one place each closed form's local factor
# f(p**v) is written.  The scalar functions above evaluate them over
# factorize(m), and batch evaluates them over the sieve's factorizations.

def euler_phi_rule() -> MultiplicativeFunction:
    return cohen_phi_rule(1)


def cohen_phi_rule(k: int) -> MultiplicativeFunction:
    if k < 1:
        raise ValueError("k must be a positive integer")
    return MultiplicativeFunction(
        f"phi_{k}", lambda p, v: p ** (v * k) - p ** ((v - 1) * k)
    )


def divisor_count_rule() -> MultiplicativeFunction:
    return d_s_k_rule(1, 1)


def d_s_rule(s: int) -> MultiplicativeFunction:
    return d_s_k_rule(s, 1)


def d_s_k_rule(s: int, k: int) -> MultiplicativeFunction:
    if k < 1:
        raise ValueError("k must be a positive integer")
    # p | s is necessary for p**k | s, and one modulo rules most primes out.
    return MultiplicativeFunction(
        f"d_s_k[s={s},k={k}]",
        lambda p, v: 1 if s % p == 0 and _kth_power_divides(p, k, s) else v + 1,
    )


def pillai_rule(k: int) -> MultiplicativeFunction:
    if k < 1:
        raise ValueError("k must be a positive integer")
    return MultiplicativeFunction(
        f"P_{k}", lambda p, v: (v + 1) * p ** (v * k) - v * p ** ((v - 1) * k)
    )

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
over (p, v) pairs, which the scalar functions feed ``factorize(m)``;
``batch`` multiplies the same rules along its sieve's prime-power
chain.  ``pillai`` instead takes the
divisor sum, a third route checked against ``pillai_rule``.  Every
function with a closed form also has a brute-force twin here (suffix
``_bruteforce``) that evaluates the defining count or sum literally;
the twins are each other's oracles and share nothing: the literal
side factors m by its own trial division and never reads
``factorize``.

The literal side is one sieve.  (x, m**k)_k is D**k for the largest
divisor D of m with D**k | x, so the table over the classes x mod m**k
is made by slice strokes: for each divisor d of m, in divisibility
order (d before each of its multiples), every class divisible by d**k
is set to d**k, and the last stroke on a class is its own D.
``kth_gcd_classes(m, k)`` streams that table in fixed blocks, for the
two oracles.  The reduced classes are those that no p**k with p | m
divides; ``kth_reduced_mask(m, k)`` strokes their mask over all classes
at once and returns it with, for each divisor d > 1 of m, the stride
d**k and the weight phi_k(d), for ``menon.menon_sums``; the weights
come from the divisor lattice alone, by Moebius differences along its
prime steps.  The residue sets read only the mask.
One private step factors m and lays out that lattice (its divisors and
the prime steps between them), for both passes, after the one budget
gate ``limits.check_classes`` (at most min(cap, 2**25) classes).
``pillai``'s divisor sum reads only the exponents of ``factorize(m)``.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from itertools import chain, starmap
from operator import countOf
from typing import Callable, Iterable, Iterator

from .factor import factorize
from .limits import (
    Uint128OverflowError,
    bounded_pow,
    check_classes,
    check_power,
    ensure_u128,
)

__all__ = [
    "gcd_pow_k",
    "largest_kth_power_divisor",
    "kth_gcd_classes",
    "kth_reduced_mask",
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


#: Classes per block of the kth_gcd_classes stream: a block's table
#: takes 256 KiB.
_BLOCK = 1 << 16


def _literal_lattice(
    m: int, k: int, max_iterations: int | None
) -> tuple[int, list[int], list[int], list[tuple[int, int]]]:
    """m**k, m's primes, and its divisors and prime steps.

    m is factored here by trial division, by 2 and then by odd
    candidates only, not by ``factorize``, so the literal route shares
    nothing with the closed forms.  The class gate runs first and bounds
    m by 2**25, so no divisor past 5792 is tried.

    The divisors come in mixed radix order: with m's primes p_1 < p_2 < ...
    and t_i the number of divisors of p_1**v_1 * ... * p_(i-1)**v_(i-1),
    d = prod p_i**e_i sits at index sum e_i * t_i, so d | D puts d no
    later than D.  A step (i, j) has divisors[j] = p * divisors[i] for a
    prime p of m, listed prime by prime with i ascending.
    """
    mk = check_classes(m, k, max_iterations, f"a literal pass over the classes mod {m}^{k}")
    v = (m & -m).bit_length() - 1
    pairs = [(2, v)] if v else []
    n, p = m >> v, 3
    while p * p <= n:
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        if v:
            pairs.append((p, v))
        p += 2
    if n > 1:
        pairs.append((n, 1))
    # Mixed radix: d = prod p_i**e_i sits at index sum e_i * t_i, where t_i is the
    # number of divisors before p_i's; p_i's steps are (i, i + t_i) below exponent v_i.
    divisors, radices = [1], []
    for p, v in pairs:
        t = len(divisors)
        divisors += [d * p**e for e in range(1, v + 1) for d in divisors]
        radices.append((t, len(divisors)))
    steps = [(i, i + t) for t, block in radices for i in range(len(divisors)) if i % block < block - t]
    return mk, [p for p, _ in pairs], divisors, steps


def _kth_block(divisors: list[int], k: int, offset: int, n: int) -> array:
    """(x, m**k)_k for the classes x in [offset, offset + n).

    ``divisors`` are m's, each before its multiples.  Each d strokes
    d**k over the classes it divides; of the divisors whose k-th power
    divides x, all divide the largest, so its stroke comes last.
    """
    table = array("I", [1]) * n
    for d in divisors[1:]:
        q = d**k
        st = -offset % q
        table[st::q] = array("I", [q]) * len(range(st, n, q))
    return table


def kth_reduced_mask(
    m: int, k: int, max_iterations: int | None = None
) -> tuple[bytearray, list[int], list[int]]:
    """The mask (x, m**k)_k == 1 over x = 0, ..., m**k - 1, with strides and weights.

    A class is reduced when no p**k with p | m divides it, so each p
    zeroes every p**k-th byte.  For the divisors d > 1 of m, in the
    lattice's order, strides[i] is d**k and weights[i] is phi_k(d), the
    Moebius transform of the values d**k: sum_{e | d} mu(d / e) * e**k.
    The weights come from the lattice alone, never from ``factorize``
    or ``cohen_phi_rule``, by w[pd] -= w[d] along the prime steps in
    reverse order.  Gated by ``limits.check_classes`` before anything
    is allocated.
    """
    mk, primes, divisors, steps = _literal_lattice(m, k, max_iterations)
    mask = bytearray([1]) * mk
    for p in primes:
        q = p**k
        mask[::q] = bytes(mk // q)
    weights = [d**k for d in divisors]
    strides = weights[1:]
    for i, j in reversed(steps):
        weights[j] -= weights[i]
    # No step ends at divisor 1, whose weight phi_k(1) = 1 is dropped with its stride.
    return mask, strides, weights[1:]


def kth_gcd_classes(m: int, k: int, max_iterations: int | None = None) -> Iterator[int]:
    """(x, m**k)_k for x = 0, 1, ..., m**k - 1, lazily, in sieved blocks.

    Arguments and the budget are checked here, before the iterator is
    returned; it then holds one block of _BLOCK classes.
    """
    mk, _, divisors, _ = _literal_lattice(m, k, max_iterations)
    blocks = (_kth_block(divisors, k, o, min(_BLOCK, mk - o)) for o in range(0, mk, _BLOCK))
    return chain.from_iterable(blocks)


def euler_phi(m: int) -> int:
    """Euler totient, the k = 1 case of cohen_phi."""
    return cohen_phi(m, 1)


def cohen_phi(m: int, k: int) -> int:
    """Eckford Cohen totient phi_k(m) = m**k * prod_{p | m} (1 - p**-k).

    Counts 1 <= a <= m**k with (a, m**k)_k = 1; cohen_phi(m, 1) is the
    Euler totient.  Evaluates cohen_phi_rule(k) over the factorization.
    """
    check_power(m, k)
    return eval_multiplicative(cohen_phi_rule(k), factorize(m))


def cohen_phi_bruteforce(m: int, k: int, max_iterations: int | None = None) -> int:
    """phi_k(m) by literally counting the classes mod m**k with (x, m**k)_k = 1."""
    return countOf(kth_gcd_classes(m, k, max_iterations), 1)


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
    check_power(m, k)
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
# name is what the overflow messages of eval_multiplicative and of
# batch's rows report.  phi_k
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

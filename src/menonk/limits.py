"""Shared value-domain bounds and loop budgets.

Every quantity the library stores is an exact integer confined to an
unsigned 128-bit domain.  Python integers never wrap, so the bound is
enforced explicitly: an operation whose exact result would leave the
domain raises ``Uint128OverflowError`` instead of quietly producing a
number callers can no longer treat as a machine word.

Every literal pass over the classes mod m**k (residue enumeration,
direct gcd sums) goes through one gate, ``check_classes``: it visits at
most min(cap, MAX_TABLE_CLASSES) classes, so an oversized modulus fails
loudly instead of hanging, and a raised cap cannot exhaust memory.
"""

from __future__ import annotations

U128_MAX = (1 << 128) - 1

#: Default per-call bound on brute-force loop length.  Callers may pass
#: their own cap; the CLI exposes it as --max-iterations.
DEFAULT_MAX_ITERATIONS = 10_000_000

#: Most classes mod m**k any literal route may visit, whatever the
#: iteration cap.  A table costs a list slot and a mask byte, about 9.5
#: bytes a class, so about 320 MB.
MAX_TABLE_CLASSES = 2**25

#: Environment variable the CLI reads as its default --max-iterations.
MAX_ITERATIONS_ENV = "MENONK_MAX_ITERATIONS"


class Uint128OverflowError(OverflowError):
    """Exact result does not fit in the unsigned 128-bit domain."""


class ResourceLimitError(RuntimeError):
    """Refused: the call would exceed an iteration or memory budget."""


def ensure_u128(value: int, what: str = "value") -> int:
    """Return ``value`` unchanged, or raise if it lies outside [0, 2^128)."""
    if value < 0 or value > U128_MAX:
        raise Uint128OverflowError(f"{what} = {value} is outside [0, 2^128)")
    return value


def checked_pow(base: int, exp: int, what: str = "power") -> int:
    """base**exp, raising Uint128OverflowError rather than leaving the domain."""
    if base < 0 or exp < 0:
        raise ValueError("checked_pow requires nonnegative base and exponent")
    value = bounded_pow(base, exp, U128_MAX)
    if value is None:
        raise Uint128OverflowError(f"{what} = {base}^{exp} is outside [0, 2^128)")
    return value


def bounded_pow(base: int, exp: int, bound: int) -> int | None:
    """base**exp if it is at most ``bound``, else None (base, exp, bound >= 0).

    A power far past ``bound`` is never built, so absurd exponents cost
    nothing: base >= 2^(bitlen-1), hence base**exp >= 2^(exp*(bitlen-1)),
    which exceeds ``bound`` once that exponent reaches bound's bit length.
    """
    if base >= 2 and exp * (base.bit_length() - 1) >= bound.bit_length():
        return None
    value = base**exp
    return value if value <= bound else None


def checked_mul(a: int, b: int, what: str = "product") -> int:
    """a*b, raising Uint128OverflowError rather than leaving the domain."""
    return ensure_u128(a * b, what)


def resolve_max_iterations(max_iterations: int | None) -> int:
    """Fill in the default cap and reject nonsense values."""
    if max_iterations is None:
        return DEFAULT_MAX_ITERATIONS
    if max_iterations < 1:
        raise ValueError("max_iterations must be a positive integer")
    return max_iterations


def classes_bound(max_iterations: int | None) -> int:
    """Most classes mod m**k a literal route may visit: min(cap, MAX_TABLE_CLASSES)."""
    return min(resolve_max_iterations(max_iterations), MAX_TABLE_CLASSES)


def check_classes(m: int, k: int, max_iterations: int | None, what: str) -> int:
    """m**k, once it is known to fit the domain, the cap and MAX_TABLE_CLASSES.

    The one gate in front of every pass over the classes mod m**k: raises
    Uint128OverflowError, then ResourceLimitError over the cap, then over
    the class bound, before any class is visited.
    """
    mk = checked_pow(m, k, "m^k")
    cap = resolve_max_iterations(max_iterations)
    if mk > cap:
        raise ResourceLimitError(f"{what} needs {mk} iterations, over the cap of {cap}")
    if mk > MAX_TABLE_CLASSES:
        raise ResourceLimitError(
            f"{what} needs a table of {mk} classes, over the bound of {MAX_TABLE_CLASSES}"
        )
    return mk

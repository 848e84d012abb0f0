"""Shared value-domain bounds and loop budgets.

Every quantity the library stores is an exact integer confined to an
unsigned 128-bit domain.  Python integers never wrap, so the bound is
enforced explicitly: an operation whose exact result would leave the
domain raises ``Uint128OverflowError`` instead of quietly producing a
number callers can no longer treat as a machine word.

The domain of a modulus m and exponent k (m, k >= 1 and m**k < 2^128)
is checked in one place, ``check_power``: the class gate below,
``arith.cohen_phi``, ``arith.pillai``, ``menon.menon_closed_forms``,
``menon.verify_prime_power`` and ``batch.batch_table`` all call it, so
they refuse the same pairs with the same words.

Every literal pass over the classes mod m**k (residue enumeration,
direct gcd sums, and the checks of a set the caller holds, which are
``menon.menon_sum_over`` and ``residues.check_reduced_set``) goes
through one gate, ``check_classes``: it runs ``check_power``, then
visits at most min(cap, MAX_TABLE_CLASSES) classes, so an oversized
modulus fails loudly instead of hanging, and a raised cap cannot
exhaust memory.
The checks of a held set pass U128_MAX as their cap, so only
MAX_TABLE_CLASSES refuses them.  Every pass over the mask or the gcd
table names itself "a literal pass over the classes mod m^k" when
refused; ``crt_combine`` and the brute-force table name their own
work.
"""

from __future__ import annotations

U128_MAX = (1 << 128) - 1

#: Default per-call bound on brute-force loop length.  Callers may pass
#: their own cap; the CLI exposes it as --max-iterations.
DEFAULT_MAX_ITERATIONS = 10_000_000

#: Most classes mod m**k any literal route may visit, whatever the
#: iteration cap.  The literal Menon sum holds a mask byte a class, and
#: its widest stroke or stride a transient byte at most: tracemalloc
#: peaks at 1.5 bytes a class for three shifts at m = 2000, k = 2, and
#: at 2.0 for m = 4 * 10**6, k = 1, so at most about 67 MB.
#: ``menon_sum_over`` holds a 4-byte gcd a class: it peaks at 4.2 to
#: 4.4 bytes a class there and for m = 999983, k = 1, about 150 MB.
#: ``check_reduced_set`` holds only the mask, marked in place: 1.0
#: byte a class at m = 999983, k = 1 and 1.5 at m = 1000, k = 2.
#: The standard residue set also holds its members, a tuple of ints:
#: it peaks at 31.6 and 18.2 bytes a class there, and at 42.2 for the
#: prime m = 3999971, k = 1, about 1.4 GB at this bound.  The
#: ``residues`` command writes that tuple's text a block at a time: its
#: max RSS was 431 MB for the prime m = 9999991, k = 1, 10**7 classes
#: (about 43 bytes a class; 2 cores, CPython 3.11.7).  At this bound
#: that extrapolates to about 1.4 GB; that case was not run.
MAX_TABLE_CLASSES = 2**25

#: Environment variable the CLI reads as its default --max-iterations.
MAX_ITERATIONS_ENV = "MENONK_MAX_ITERATIONS"


class Uint128OverflowError(OverflowError):
    """Exact result does not fit in the unsigned 128-bit domain."""


class ResourceLimitError(RuntimeError):
    """Refused: the call would exceed an iteration or memory budget."""


def _show(value: int) -> str:
    """value in decimal, or only its bit length past 1024 bits (str() refuses past 4300 digits)."""
    return str(value) if value.bit_length() <= 1024 else f"<{value.bit_length()}-bit integer>"


def ensure_u128(value: int, what: str = "value") -> int:
    """Return ``value`` unchanged, or raise if it lies outside [0, 2^128)."""
    if value < 0 or value > U128_MAX:
        raise Uint128OverflowError(f"{what} = {_show(value)} is outside [0, 2^128)")
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


def resolve_max_iterations(max_iterations: int | None) -> int:
    """Fill in the default cap and reject nonsense values."""
    if max_iterations is None:
        return DEFAULT_MAX_ITERATIONS
    if max_iterations < 1:
        raise ValueError("max_iterations must be a positive integer")
    return max_iterations


def check_power(m: int, k: int) -> int:
    """m**k for positive integers m and k whose power fits the domain.

    The one domain rule for a modulus m and exponent k: raises
    ValueError for m or k below 1, then Uint128OverflowError past 2^128.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive integers")
    mk = bounded_pow(m, k, U128_MAX)
    if mk is None:
        raise Uint128OverflowError(f"m^k = {_show(m)}^{_show(k)} is outside [0, 2^128)")
    return mk


def check_classes(m: int, k: int, max_iterations: int | None, what: str) -> int:
    """m**k, once it is known to fit the domain, the cap and MAX_TABLE_CLASSES.

    The one gate in front of every pass over the classes mod m**k: raises
    as ``check_power`` does, then ResourceLimitError over the cap, then
    over the class bound, before any class is visited.
    """
    mk = check_power(m, k)
    cap = resolve_max_iterations(max_iterations)
    if mk > cap:
        raise ResourceLimitError(f"{what} needs {mk} iterations, over the cap of {cap}")
    if mk > MAX_TABLE_CLASSES:
        raise ResourceLimitError(
            f"{what} needs a table of {mk} classes, over the bound of {MAX_TABLE_CLASSES}"
        )
    return mk

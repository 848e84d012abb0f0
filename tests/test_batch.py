import functools
import math
import time
import tracemalloc

import pytest

from menonk import arith, batch
from menonk.arith import cohen_phi, d_s_k, pillai
from menonk.batch import SpfSieve, batch_table, build_sieve
from menonk.factor import factorize, is_prime
from menonk.limits import ResourceLimitError, Uint128OverflowError
from menonk.menon import menon_sum_bruteforce


def test_sieve_examples():
    sv = build_sieve(16)
    assert sv.spf[12] == 2
    assert sv.spf[9] == 3
    assert sv.spf[7] == 7
    assert sv.spf[15] == 3
    assert build_sieve(2).spf[2] == 2
    # Every limit around the slice ends d*d = limit and limit +- 1, against trial division.
    reference = [next(q for q in range(2, j + 1) if j % q == 0) for j in range(2, 301)]
    for limit in range(2, 301):
        assert list(build_sieve(limit).spf[2:]) == reference[: limit - 1], limit


def test_sieve_invariants():
    sv = build_sieve(5000)
    for m in range(2, 5001):
        p = sv.spf[m]
        assert m % p == 0
        assert all(m % q for q in range(2, p))  # so no smaller prime divides m
        assert is_prime(p)
        assert (p == m) == is_prime(m)


def test_sieve_factorizations_match_factorize():
    sv = build_sieve(2000)
    for m in range(1, 2001):
        assert sv.factorization(m) == factorize(m), m


def test_sieve_errors(monkeypatch):
    with pytest.raises(ValueError):
        build_sieve(1)
    for limit in (10**9, 50_000_001):
        with pytest.raises(ResourceLimitError):
            build_sieve(limit)
    sv = build_sieve(10)
    with pytest.raises(ValueError):
        sv.factorization(11)
    with pytest.raises(ValueError):
        sv.factorization(0)
    # The bound itself is admitted: a sieve of exactly _MAX_SIEVE_LIMIT entries is built.
    monkeypatch.setattr(batch, "_MAX_SIEVE_LIMIT", 10)
    assert build_sieve(10).limit == 10
    with pytest.raises(ResourceLimitError):
        build_sieve(11)


def test_batch_rows_match_arith():
    rows = list(batch_table(60, -18, 2, with_bruteforce=True))
    assert [r[0] for r in rows] == list(range(1, 61))
    for m, phi_k, dsk, pillai_k, lhs, rhs, verified in rows:
        assert phi_k == cohen_phi(m, 2)
        assert dsk == d_s_k(m, -18, 2)
        assert pillai_k == pillai(m, 2)
        assert rhs == dsk * phi_k
        assert lhs == menon_sum_bruteforce(m, -18, 2)
        assert verified is True


@pytest.mark.parametrize("k", [1, 2, 3])
def test_batch_columns_match_the_scalar_functions(k):
    # m <= 5000 reaches prime powers up to 2^12, primes above isqrt(5000) = 70
    # alone and times small parts, and the rows next to squares.
    phi = [cohen_phi(m, k) for m in range(1, 5001)]
    pil = [pillai(m, k) for m in range(1, 5001)]
    for s in (0, 1, -18, 1296, 2**4 * 3**4 * 5):
        for r, phi_k, pillai_k in zip(batch_table(5000, s, k), phi, pil, strict=True):
            dsk = d_s_k(r[0], s, k)
            expected = (phi_k, dsk, pillai_k, dsk * phi_k)
            assert r[1:] == expected, (r[0], s)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("s", [0, 1, 12])
def test_batch_tables_match_the_scalar_functions_at_every_small_n(s, k):
    # isqrt(n), n // 2 and n // 8 move with n: the cached cofactor rows, the primes that
    # strike the chain and the primes whose rules are cached all change at every table size.
    expected = []
    for m in range(1, 101):
        phi_k, dsk = cohen_phi(m, k), d_s_k(m, s, k)
        expected.append((m, phi_k, dsk, pillai(m, k), dsk * phi_k))
    for n in range(1, 101):
        assert list(batch_table(n, s, k)) == expected[:n], n


def test_batch_rows_take_the_prime_power_chain(monkeypatch):
    def refuse(*args):
        raise AssertionError("a row was factored again")

    monkeypatch.setattr(SpfSieve, "factorization", refuse)
    monkeypatch.setattr(arith, "eval_multiplicative", refuse)
    monkeypatch.setattr(batch, "eval_multiplicative", refuse, raising=False)
    rows = list(batch_table(3000, 1, 2))
    assert [r[0] for r in rows] == list(range(1, 3001))
    assert rows[-1][1] == (2**6 - 2**4) * (3**2 - 1) * (5**6 - 5**4)  # 3000 = 2^3 * 3 * 5^3


def counting_rules(monkeypatch):
    # Every rule that batch's three factories hand out appends its prime here.
    calls = []

    def counted(factory):
        def make(*args):
            rule = factory(*args)

            @functools.wraps(rule)
            def wrapper(p, v):
                calls.append(p)
                return rule(p, v)

            return wrapper

        return make

    for name in ("cohen_phi_rule", "d_s_k_rule", "pillai_rule"):
        monkeypatch.setattr(batch, name, counted(getattr(batch, name)))
    return calls


@pytest.mark.parametrize(
    "n, cached, recurring, rare",
    [(1, 0, 0, 0), (2, 0, 0, 1), (100, 14, 1, 45), (10**4, 76, 179, 2096)],
)
def test_batch_rule_calls_are_counted_exactly(monkeypatch, n, cached, recurring, rare):
    # Each rule is called once per cached prime power p^v <= n with p <= isqrt(n),
    # once per prime in (isqrt(n), n // 8], at the first row it divides, and once
    # per row whose prime factor above isqrt(n) exceeds n // 8; no other row calls one.
    root = math.isqrt(n)
    small = [p for p in range(2, root + 1) if all(p % q for q in range(2, p))]

    def above_root(m):
        for p in small:
            while m % p == 0:
                m //= p
        return m

    powers = sum(1 for p in small for v in range(1, n.bit_length()) if p**v <= n)
    parts = list(map(above_root, range(1, n + 1)))
    primes = sum(1 for m, part in enumerate(parts, 1) if part == m and root < m <= n // 8)
    rows_above = sum(1 for part in parts if part > max(1, n // 8))
    assert (powers, primes, rows_above) == (cached, recurring, rare)
    calls = counting_rules(monkeypatch)
    rows = batch_table(n, -18, 2)
    assert next(rows)[0] == 1 and len(calls) == 3 * cached  # the cache is filled first
    assert sum(1 for _ in rows) == n - 1
    assert len(calls) == 3 * (cached + recurring + rare)


def test_batch_rows_peak_memory():
    # The chain array holds 4 bytes a row, and a stroke building it at most 2 more;
    # the rules cached for the primes up to n // 8 add about 4, and the products kept for
    # the rows up to isqrt(n) under 1 (8.8 bytes a row in all, CPython 3.11).  Caching
    # every prime up to n // 2 would take about 18.
    n = 25_000
    tracemalloc.start()
    try:
        for _ in batch_table(n, 1296, 4):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * n, peak / n


def test_batch_overflow_after_streamed_rows():
    # P_16(216) is the first value past 2^128; the rows before it are whole.
    rows = batch_table(255, 1, 16)
    assert [r[0] for _, r in zip(range(215), rows)] == list(range(1, 216))
    with pytest.raises(Uint128OverflowError, match=r"^P_k = \d+ is outside"):
        next(rows)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [16, 27, 125])
def test_batch_last_row_at_a_prime_power(n, k):
    # The chain's strokes run up to p^v = n itself, so a table ending at a prime power
    # ends in a row of that power's own rule values.
    *_, last = batch_table(n, 1, k)
    phi_k, dsk = cohen_phi(n, k), d_s_k(n, 1, k)
    assert last == (n, phi_k, dsk, pillai(n, k), dsk * phi_k)


def test_batch_row_examples():
    _, phi_k, dsk, _, lhs, rhs, verified = list(batch_table(12, 1, 1, with_bruteforce=True))[-1]
    assert (phi_k, dsk, lhs, rhs) == (4, 6, 24, 24)
    assert verified is True

    # Without brute force a row holds its five closed-form cells, no menon_lhs or verified.
    (row1,) = batch_table(1, 5, 3)
    assert type(row1) is tuple and len(row1) == len(batch.CLOSED_COLUMNS)
    m, phi_k, dsk, pillai_k, rhs = row1
    assert (m, phi_k, dsk, pillai_k, rhs) == (1, 1, 1, 1, 1)

    _, phi_k, dsk, _, lhs, rhs, _ = list(batch_table(16, 1, 2, with_bruteforce=True))[3]
    assert (phi_k, dsk, lhs, rhs) == (12, 3, 36, 36)


def test_batch_streams_in_order():
    gen = batch_table(50, 3, 1)
    assert next(gen)[0] == 1
    assert next(gen)[0] == 2
    assert [r[0] for r in gen] == list(range(3, 51))


def test_batch_without_bruteforce_leaves_columns_unset():
    # The rows hold no menon_lhs or verified cell at all: five cells, in CLOSED_COLUMNS order.
    for _, phi_k, dsk, _, rhs in batch_table(30, 2, 1):
        assert rhs == dsk * phi_k


def test_batch_bruteforce_cap():
    with pytest.raises(ResourceLimitError):
        list(batch_table(100, 1, 1, with_bruteforce=True, max_iterations=50))
    # every row is under the cap, but the whole table sums 20100 terms: refused up front
    with pytest.raises(ResourceLimitError):
        batch_table(200, 1, 1, with_bruteforce=True, max_iterations=10_000)
    assert len(list(batch_table(140, 1, 1, with_bruteforce=True, max_iterations=10_000))) == 140
    # The boundary: 1 + 2 + 3 + 4 = 10 iterations fit a cap of 10, and not one of 9.
    assert len(list(batch_table(4, 1, 1, with_bruteforce=True, max_iterations=10))) == 4
    with pytest.raises(ResourceLimitError, match=r"needs more iterations than the cap of 9$"):
        batch_table(4, 1, 1, with_bruteforce=True, max_iterations=9)
    with pytest.raises(ResourceLimitError):  # 40^2 and 1 + ... + 40 fit; the 22140 terms do not
        batch_table(40, 1, 2, with_bruteforce=True, max_iterations=20_000)
    # the last row's table of 2^26 classes is over MAX_TABLE_CLASSES, whatever the cap
    with pytest.raises(ResourceLimitError):
        batch_table(2**13, 1, 2, with_bruteforce=True, max_iterations=10**40)
    # closed forms alone are not capped
    assert len(list(batch_table(100, 1, 1, max_iterations=50))) == 100


def test_batch_domain_errors(monkeypatch):
    with pytest.raises(ValueError):
        list(batch_table(0, 1, 1))
    with pytest.raises(ValueError):
        list(batch_table(10, 1, 0))

    def no_sieve(limit):
        raise AssertionError(f"sieve built up to {limit}")

    # n^k = 2^128 is refused by the (m, k) rule itself, before any sieve is built.
    monkeypatch.setattr(batch, "build_sieve", no_sieve)
    start = time.perf_counter()
    with pytest.raises(Uint128OverflowError, match=r"^m\^k = "):
        batch_table(2**64, 1, 2)
    assert time.perf_counter() - start < 1.0
    monkeypatch.undo()
    # (2^64 - 1)^2 fits the domain, so the sieve's own bound refuses it.
    with pytest.raises(ResourceLimitError, match="sieve limit"):
        batch_table(2**64 - 1, 1, 2)

"""Seeded workload inputs and the independent values they are checked against.

A workload is a list of passes; a pass is a list of operations, and an
operation is one ``menonk`` command line run through ``menonk.cli.run``.
Every input comes from ``random.Random`` seeded with a string built from
the workload name, the ``--seed`` argument and the pass index, so the
same seed always gives the same inputs.  Nothing here imports menonk:
expected values come from the primes the generator multiplied and from
the prime-power formulas of the paper, never from the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import sympy

U128 = 1 << 128

SIZES = {
    # verify: largest m; table: base n (a seeded jitter of up to 1% is added);
    # compute: modulus groups per pass.
    "verify-k2": {"full": 180, "toy": 20},
    "table-k1-csv": {"full": 300_000, "toy": 3_000},
    "table-k4-jsonl": {"full": 150_000, "toy": 1_500},
    "compute-factor": {"full": 30, "toy": 6},
}

#: Compute passes generated per run; the worker cycles through them if a
#: run is long enough to exhaust them (caches are cleared before each pass).
COMPUTE_PASSES = 80


@dataclass
class Op:
    """One CLI call and what a correct run of it looks like."""

    argv: list[str]
    exit_code: int = 0
    stdout: str = ""  # exact expected stdout


@dataclass
class Pass:
    ops: list[Op]
    items: int  # grid points (verify), rows (table) or calls (compute)


@dataclass
class Workload:
    name: str
    passes: list[Pass]
    table: dict | None = None  # n, s, k, fmt, out for the table workloads


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def build(name: str, seed: int, out_dir: str, toy: bool = False) -> Workload:
    """The inputs of workload ``name`` for ``seed``; table output goes under out_dir."""
    size = SIZES[name]["toy" if toy else "full"]
    if name == "verify-k2":
        return _verify(seed, size)
    if name.startswith("table-"):
        return _table(name, seed, size, out_dir)
    if name == "compute-factor":
        return _compute(seed, size, 2 if toy else COMPUTE_PASSES)
    raise KeyError(name)


def _verify(seed: int, m_max: int) -> Workload:
    c = _rng("verify-k2", seed).randint(-50, 50)
    grid = m_max * 5
    op = Op(
        ["verify", "--m", f"1..{m_max}", "--s", f"{c - 2}..{c + 2}", "--k", "2"],
        stdout=f"checked={grid} passed={grid} failed=0 skipped=0\n",
    )
    return Workload("verify-k2", [Pass([op], grid)])


def _table(name: str, seed: int, n_base: int, out_dir: str) -> Workload:
    rng = _rng(name, seed)
    n = n_base + rng.randrange(n_base // 100 + 1)
    if name == "table-k1-csv":
        s, k, fmt, ext = 1, 1, "csv", "csv"
    else:
        s, k, fmt, ext = 1296, 4, "json-lines", "jsonl"
    out = f"{out_dir}/{name}.{ext}"
    argv = ["table", "--n", str(n), "--s", str(s), "--k", str(k),
            "--no-bruteforce", "--format", fmt, "--out", out]
    return Workload(name, [Pass([Op(argv)], n)],
                    table={"n": n, "s": s, "k": k, "fmt": fmt, "out": out})


# --- compute-factor ---------------------------------------------------------

_SMALL_PRIMES = list(sympy.primerange(2, 10_000))


def _prime(rng: random.Random, bits: int) -> int:
    """A prime of exactly ``bits`` bits drawn from rng alone (isprime is deterministic)."""
    while True:
        c = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if sympy.isprime(c):
            return c


def _value(fac: dict[int, int]) -> int:
    out = 1
    for p, e in fac.items():
        out *= p**e
    return out


def _smooth(rng: random.Random, max_bits: int) -> dict[int, int]:
    """A product of primes below 10^4 with small exponents, under 2^max_bits."""
    fac: dict[int, int] = {}
    target = rng.randint(max_bits // 2, max_bits)
    while True:
        p = rng.choice(_SMALL_PRIMES)
        e = rng.randint(1, 4)
        trial = dict(fac)
        trial[p] = trial.get(p, 0) + e
        if _value(trial).bit_length() > target:
            return fac or {2: 1}
        fac = trial


def _modulus(rng: random.Random, kind: str) -> dict[int, int]:
    if kind == "semiprime":  # Brent rho on a 30-bit smallest factor
        return {_prime(rng, 30): 1, _prime(rng, rng.randint(40, 97)): 1}
    if kind == "prime":  # Miller-Rabin, and strong Lucas above 3.3e24
        return {_prime(rng, rng.randint(64, 127)): 1}
    if kind == "smooth":  # trial division only
        return _smooth(rng, 120)
    fac = _smooth(rng, 48)  # smooth part, then a large prime cofactor
    fac[_prime(rng, rng.randint(40, 127 - _value(fac).bit_length()))] = 1
    return fac


def phi_k(fac: dict[int, int], k: int) -> int:
    out = 1
    for p, e in fac.items():
        out *= p ** (k * (e - 1)) * (p**k - 1)
    return out


def d_s_k(fac: dict[int, int], s: int, k: int) -> int:
    out = 1
    for p, e in fac.items():
        if s % p**k:
            out *= e + 1
    return out


def pillai_k(fac: dict[int, int], k: int) -> int:
    out = 1
    for p, e in fac.items():
        out *= (e + 1) * p ** (e * k) - e * p ** ((e - 1) * k)
    return out


def _max_k(ok) -> int:
    """The largest k <= 8 with ok(1..k) all true; 0 when even k = 1 leaves the domain."""
    k = 0
    while k < 8 and ok(k + 1):
        k += 1
    return k


def _shift(rng: random.Random, fac: dict[int, int], k: int) -> int:
    """A shift that some p^k of m divide and others do not (0 now and then)."""
    if rng.random() < 0.05:
        return 0
    s = rng.randint(1, 999)
    for p in fac:
        if p < 1 << 40 and rng.random() < 0.5:
            s *= p ** rng.randint(1, k + 1)
    return s if rng.random() < 0.5 else -s


def _ops_for(rng: random.Random, fac: dict[int, int]) -> list[Op]:
    m = _value(fac)
    fits = lambda k: m**k < U128
    k_phi = rng.randint(1, _max_k(fits))
    k_dsk = rng.randint(1, 4)
    s1, s2 = _shift(rng, fac, 1), _shift(rng, fac, k_dsk)
    choices = [
        (["phi", "--m", m], phi_k(fac, 1)),
        (["d", "--m", m], d_s_k(fac, 1, 1)),
        (["d-s", "--m", m, "--s", s1], d_s_k(fac, s1, 1)),
        (["d-s-k", "--m", m, "--s", s2, "--k", k_dsk], d_s_k(fac, s2, k_dsk)),
        (["cohen-phi", "--m", m, "--k", k_phi], phi_k(fac, k_phi)),
    ]
    # P_k(m) and d_s_k(m) phi_k(m) may exceed 2^128 even at k = 1; keep such calls out.
    k_max = _max_k(lambda k: fits(k) and pillai_k(fac, k) < U128)
    if k_max:
        k = rng.randint(1, k_max)
        choices.append((["pillai", "--m", m, "--k", k], pillai_k(fac, k)))
    k_max = _max_k(lambda k: fits(k) and d_s_k(fac, 1, 1) * phi_k(fac, k) < U128)
    if k_max:
        k = rng.randint(1, k_max)
        s = _shift(rng, fac, k)
        choices.append((["menon-rhs", "--m", m, "--s", s, "--k", k], d_s_k(fac, s, k) * phi_k(fac, k)))
    return [
        Op(["compute", *map(str, args)], 0, f"{value}\n")
        for args, value in rng.sample(choices, 5)
    ]


_KINDS = ["semiprime"] * 2 + ["prime", "smooth", "mixed"]


def _compute_pass(seed: int, index: int, groups: int) -> Pass:
    rng = _rng("compute-factor", seed, index)
    moduli = [_modulus(rng, _KINDS[g % len(_KINDS)]) for g in range(groups)]
    ops = [op for fac in moduli for op in _ops_for(rng, fac)]
    # Deliberate overflows: every semiprime exceeds 2^69, so m^2 leaves [0, 2^128)
    # and the CLI must refuse with exit 2.
    big = max(map(_value, moduli))
    ops.append(Op(["compute", "cohen-phi", "--m", str(big), "--k", "2"], 2, ""))
    ops.append(Op(["compute", "menon-rhs", "--m", str(big), "--s", "1", "--k", "3"], 2, ""))
    rng.shuffle(ops)
    return Pass(ops, len(ops))


def _compute(seed: int, groups: int, passes: int) -> Workload:
    return Workload(
        "compute-factor",
        [_compute_pass(seed, i, groups) for i in range(passes)],
    )

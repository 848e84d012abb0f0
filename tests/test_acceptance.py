"""Acceptance suite: one test per release criterion, every check exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import doctest
import math
import random
from itertools import compress
from pathlib import Path

from menonk.arith import (
    cohen_phi,
    cohen_phi_bruteforce,
    d_s,
    divisor_count,
    euler_phi,
    gcd_pow_k,
    kth_reduced_mask,
    pillai,
    pillai_bruteforce,
)
from menonk.batch import batch_table
from menonk.cli import run
from menonk.factor import factorize, is_prime
from menonk.limits import DEFAULT_MAX_ITERATIONS
from menonk.menon import menon_closed_form, menon_sum_bruteforce, menon_sum_over
from menonk.residues import check_reduced_set, crt_combine, standard_residue_set

GOLDEN_DIR = Path(__file__).parent / "golden"


def check(label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    assert ok, label


def test_criterion_1_golden_values():
    """Worked identity instances and single values reproduce exactly."""
    ok = True
    ok &= menon_sum_bruteforce(12, 1, 1) == 24
    ok &= menon_closed_form(12, 1, 1) == 24 == 6 * 4
    ok &= divisor_count(12) * euler_phi(12) == 6 * 4
    ok &= menon_sum_bruteforce(12, 2, 1) == 8
    ok &= menon_closed_form(12, 2, 1) == 8 == 2 * 4
    ok &= menon_sum_bruteforce(4, 1, 2) == 36
    ok &= menon_closed_form(4, 1, 2) == 36 == 3 * 12
    ok &= divisor_count(4) == 3 and cohen_phi(4, 2) == 12
    ok &= menon_sum_bruteforce(4, 12, 2) == 12
    ok &= menon_closed_form(4, 12, 2) == 12 == 1 * 12
    ok &= d_s(12, 1) == 6 and d_s(12, 2) == 2 and d_s(12, 3) == 3
    ok &= gcd_pow_k(12, 16, 2) == 4
    ok &= gcd_pow_k(4, 8, 3) == 1 and gcd_pow_k(8, 27, 3) == 1
    check("criterion 1: golden identity values, exact", ok)


def test_criterion_2_prime_family():
    """Menon sum at primes: 2p - 2 for every prime p <= 97."""
    primes = [p for p in range(2, 98) if is_prime(p)]
    assert len(primes) == 25
    ok = all(menon_sum_bruteforce(p, 1, 1) == 2 * p - 2 for p in primes)
    check("criterion 2: M(p, 1, 1) = 2p-2 for all primes p <= 97", ok)


def test_criterion_3_cohen_phi_powers_of_two():
    """phi_2(2^j) = 3 * 4^(j-1) for j = 1..6."""
    ok = all(cohen_phi(2**j, 2) == 3 * 4 ** (j - 1) for j in range(1, 7))
    check("criterion 3: phi_2(2^j) = 3*4^(j-1), j = 1..6", ok)


def test_criterion_4_identity_grid():
    """Both routes agree on the full (m, s, k) grid, zero failures."""
    failures = []
    checked = 0
    for k, m_max in ((1, 300), (2, 60), (3, 15)):
        for m in range(1, m_max + 1):
            for s in range(-25, 26):
                lhs, rhs = menon_sum_bruteforce(m, s, k), menon_closed_form(m, s, k)
                checked += 1
                if lhs != rhs:
                    failures.append((m, s, k, lhs, rhs))
    ok = not failures and checked == (300 + 60 + 15) * 51
    check(f"criterion 4: identity grid, {checked} points, {len(failures)} failures", ok)


def test_criterion_5_oracle_equivalences():
    """Closed forms equal brute force; prime-power Pillai formula holds."""
    ok = True
    for m in range(1, 201):
        for k in (1, 2):
            ok &= cohen_phi(m, k) == cohen_phi_bruteforce(m, k)
            ok &= pillai(m, k) == pillai_bruteforce(m, k)
    for m in range(1, 21):
        ok &= cohen_phi(m, 3) == cohen_phi_bruteforce(m, 3)
        ok &= pillai(m, 3) == pillai_bruteforce(m, 3)
    formula_checks = 0
    for p in (2, 3, 5):
        for v in range(1, 5):
            k = 1
            while p ** (v * k) <= DEFAULT_MAX_ITERATIONS:
                expected = (v + 1) * p ** (v * k) - v * p ** ((v - 1) * k)
                ok &= pillai(p**v, k) == expected
                if p ** (v * k) <= 20_000:
                    ok &= pillai_bruteforce(p**v, k) == expected
                formula_checks += 1
                k += 1
    ok &= formula_checks > 30
    check("criterion 5: totient/Pillai oracle equivalences, exact", ok)


def test_criterion_6_structural_lemmas():
    """Property suites for the supporting lemmas, fixed seed, zero failures."""
    rng = random.Random(0xBEEF)
    ok = True

    # gcd-power multiplicativity in the modulus: 200 sampled tuples
    done = 0
    while done < 200:
        m1, m2 = rng.randrange(1, 60), rng.randrange(1, 60)
        if math.gcd(m1, m2) != 1:
            continue
        k = rng.randrange(1, 4)
        a = rng.randrange(-10**9, 10**9)
        lhs = gcd_pow_k(a, (m1 * m2) ** k, k)
        ok &= lhs == gcd_pow_k(a, m1**k, k) * gcd_pow_k(a, m2**k, k)
        done += 1

    # shift invariance mod m^k: 200 sampled tuples
    for _ in range(200):
        m = rng.randrange(1, 50)
        k = rng.randrange(1, 4)
        mk = m**k
        a = rng.randrange(-10**6, 10**6)
        q = rng.randrange(-25, 26)
        ok &= gcd_pow_k(a + q * mk, mk, k) == gcd_pow_k(a, mk, k)

    # unit-translation equality: 200 sampled tuples
    done = 0
    while done < 200:
        m = rng.randrange(1, 45)
        k = rng.randrange(1, 3)
        if m**k > 2000:
            continue
        l = rng.randrange(-40, 41)
        if l == 0 or math.gcd(l, m) != 1:
            continue
        s = rng.randrange(-25, 26)
        mask = kth_reduced_mask(m, k)[0]
        scaled = (a * l for a in compress(range(len(mask)), mask))
        ok &= menon_sum_over(scaled, m, s, k) == menon_sum_bruteforce(m, s, k)
        done += 1

    # CRT composition equals the standard class set: all coprime pairs <= 12
    for m1 in range(1, 13):
        for m2 in range(1, 13):
            if math.gcd(m1, m2) != 1:
                continue
            for k in (1, 2):
                combined = crt_combine(
                    standard_residue_set(m1, k), m1, standard_residue_set(m2, k), m2, k
                )
                check_reduced_set(combined, m1 * m2, k)
                ok &= combined == standard_residue_set(m1 * m2, k)

    # Menon-sum multiplicativity: 50 sampled coprime pairs
    done = 0
    while done < 50:
        m1, m2 = rng.randrange(1, 21), rng.randrange(1, 21)
        if math.gcd(m1, m2) != 1:
            continue
        k = rng.choice((1, 2))
        if (m1 * m2) ** k > 3600:
            continue
        s = rng.randrange(-25, 26)
        parts = menon_sum_bruteforce(m1, s, k) * menon_sum_bruteforce(m2, s, k)
        ok &= menon_sum_bruteforce(m1 * m2, s, k) == parts
        done += 1

    check("criterion 6: structural lemma property suites, zero failures", ok)


def test_criterion_7_batch_consistency():
    """batch_table(300, 7, 1) fully verified; sieve path equals per-m path."""
    rows = list(batch_table(300, 7, 1, with_bruteforce=True))
    ok = len(rows) == 300
    for m, phi_k, dsk, pillai_k, _, rhs, verified in rows:
        ok &= verified is True
        ok &= phi_k == cohen_phi(m, 1)
        ok &= dsk == d_s(m, 7)
        ok &= pillai_k == pillai(m, 1)
        ok &= rhs == dsk * phi_k
        fac = factorize(m)
        product = 1
        for p, v in fac:
            product *= p**v
        ok &= product == m
    check("criterion 7: batch table N=300 fully verified, paths agree", ok)


def golden_cases() -> list[tuple[str, int, list[str]]]:
    """The lines of tests/golden/CASES: a golden file's name, its exit code, the menonk arguments.

    The code is N where the name is followed by exit=N, and 0 where it is not.
    """
    cases = []
    for line in (GOLDEN_DIR / "CASES").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, *argv = line.split()
            code = int(argv.pop(0).removeprefix("exit=")) if argv[0].startswith("exit=") else 0
            cases.append((name, code, argv))
    return cases


def test_criterion_8_cli_golden_files(capsys):
    """Committed CLI outputs and refusals reproduce byte-for-byte with contract exit codes.

    An exit-0 case prints its file on stdout and nothing on stderr; any
    other case prints nothing on stdout and its file on stderr.
    """
    differ = []
    for name, code, argv in golden_cases():
        golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        got = run(argv)
        streams = capsys.readouterr()
        if got != code or streams != ((golden, "") if code == 0 else ("", golden)):
            differ.append(name)
    check(f"criterion 8: CLI golden files byte-exact, exit codes per contract (differ: {differ})",
          not differ)


def test_golden_manifest_lists_every_file():
    """CASES names each file under tests/golden/ exactly once, and no file that is missing."""
    names = sorted(name for name, *_ in golden_cases())
    assert names == sorted(p.name for p in GOLDEN_DIR.iterdir() if p.name != "CASES")
    # CI reads CASES with the shell's read, which drops an unterminated last line.
    assert (GOLDEN_DIR / "CASES").read_text(encoding="utf-8").endswith("\n")


def test_readme_examples():
    """README's ``>>>`` examples print what they show."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    failed, attempted = doctest.testfile(str(readme), module_relative=False)
    assert attempted > 0 and failed == 0

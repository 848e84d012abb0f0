"""Independent output checks: nothing here imports menonk or reuses its values.

* verify: the exact summary line for the grid (exit 0, failed=0, checked
  equal to the grid size), which ``workloads`` spells out up front.
* compute: the exact value the prime-power formulas give on the primes the
  generator multiplied, or exit 2 for a deliberate overflow.
* table: the sha256 of the whole output file against that of a reference
  table built here by an Eratosthenes sieve and the paper's prime-power
  formulas, plus a seeded sample of rows checked against sympy's
  ``totient``, ``divisor_count`` and ``factorint``.
"""

from __future__ import annotations

import hashlib
import json
import random

import sympy

from workloads import Workload

SAMPLE_ROWS = 200


def check_ops(workload: Workload, results: list[dict]) -> dict[tuple[int, int], str]:
    """Failed operations, keyed by (pass run, operation), among every pass the worker ran.

    ``results`` holds one entry per pass run: its pass index and, per
    operation, the exit code, the captured stdout and, for tables, the
    digest of the output file.
    """
    failures = {}
    reference = None
    for i, res in enumerate(results):
        spec = workload.passes[res["index"] % len(workload.passes)]
        for j, (op, got) in enumerate(zip(spec.ops, res["ops"], strict=True)):
            where = f"pass {res['index']}: {' '.join(op.argv[:2])}"
            if got["exit"] != op.exit_code:
                failures[i, j] = f"{where}: exit {got['exit']}, expected {op.exit_code}"
            elif got["stdout"] != op.stdout:
                failures[i, j] = f"{where}: stdout {got['stdout'][:80]!r}, expected {op.stdout[:80]!r}"
            elif workload.table is not None:
                if reference is None:
                    table = workload.table
                    reference = reference_digest(table["n"], table["s"], table["k"], table["fmt"])
                if got.get("digest") != reference:
                    failures[i, j] = f"{where}: output digest differs from the reference table"
    return failures


def check_table_sample(table: dict, seed: int) -> list[str]:
    """Parse a seeded sample of rows of the output file and check each with sympy."""
    n, s, k, fmt = (table[key] for key in ("n", "s", "k", "fmt"))
    wanted = set(random.Random(f"sample:{seed}:{n}").sample(range(1, n + 1), min(SAMPLE_ROWS, n)))
    failures = []
    seen = 0
    with open(table["out"], encoding="utf-8") as handle:
        if fmt == "csv":
            next(handle)
        for m, line in enumerate(handle, start=1):
            if m not in wanted:
                continue
            seen += 1
            try:
                row = _parse_row(line, fmt)
            except ValueError as exc:
                failures.append(f"row {m}: unparsable ({exc})")
                continue
            expected = _sympy_row(m, s, k)
            if row != expected:
                failures.append(f"row {m}: {row} != sympy {expected}")
    if seen != len(wanted):
        failures.append(f"only {seen} of {len(wanted)} sampled rows present")
    return failures


def _parse_row(line: str, fmt: str) -> dict:
    if fmt == "csv":
        cells = line.rstrip("\n").split(",")
        if len(cells) != 7 or cells[4] or cells[6]:
            raise ValueError(f"bad csv row {line!r}")
        return dict(zip(("m", "phi_k", "d_s_k", "pillai_k", "menon_rhs"),
                        map(int, cells[:4] + cells[5:6])))
    row = json.loads(line)
    if list(row) != ["m", "phi_k", "d_s_k", "pillai_k", "menon_rhs"]:
        raise ValueError(f"bad json-lines keys {list(row)}")
    return row


def _sympy_row(m: int, s: int, k: int) -> dict:
    fac = sympy.factorint(m)
    phi = dsk = pil = 1
    for p, e in fac.items():
        phi *= p ** (k * (e - 1)) * (p**k - 1)
        dsk *= 1 if s % p**k == 0 else e + 1
        pil *= (e + 1) * p ** (e * k) - e * p ** ((e - 1) * k)
    if k == 1:
        phi = int(sympy.totient(m))
    if all(s % p**k for p in fac):
        dsk = int(sympy.divisor_count(m))
    return {"m": m, "phi_k": phi, "d_s_k": dsk, "pillai_k": pil, "menon_rhs": dsk * phi}


def reference_digest(n: int, s: int, k: int, fmt: str) -> str:
    """sha256 of the table ``menonk table --no-bruteforce`` must print."""
    phi = [1] * (n + 1)
    dsk = [1] * (n + 1)
    pil = [1] * (n + 1)
    composite = bytearray(n + 1)
    for p in range(2, n + 1):
        if composite[p]:
            continue
        composite[p * p :: p] = b"\x01" * len(range(p * p, n + 1, p))
        pk, v_max = p**k, 1
        while p ** (v_max + 1) <= n:
            v_max += 1
        local_phi = [0] + [p ** (k * (v - 1)) * (pk - 1) for v in range(1, v_max + 1)]
        local_d = [0] + [1 if s % pk == 0 else v + 1 for v in range(1, v_max + 1)]
        local_pil = [0] + [(v + 1) * p ** (v * k) - v * p ** ((v - 1) * k) for v in range(1, v_max + 1)]
        for j in range(p, n + 1, p):
            t, v = j // p, 1
            while t % p == 0:
                t //= p
                v += 1
            phi[j] *= local_phi[v]
            dsk[j] *= local_d[v]
            pil[j] *= local_pil[v]
    digest = hashlib.sha256()
    if fmt == "csv":
        digest.update(b"m,phi_k,d_s_k,pillai_k,menon_lhs,menon_rhs,verified\n")
        line = "{},{},{},{},,{},\n"
    else:
        line = '{{"m":{},"phi_k":{},"d_s_k":{},"pillai_k":{},"menon_rhs":{}}}\n'
    chunk = []
    for m in range(1, n + 1):
        chunk.append(line.format(m, phi[m], dsk[m], pil[m], dsk[m] * phi[m]))
        if len(chunk) == 4096:
            digest.update("".join(chunk).encode())
            chunk.clear()
    digest.update("".join(chunk).encode())
    return digest.hexdigest()


"""Mutation runner: which one-line faults in menonk does tier-1 miss?

Makes three kinds of one-token mutant of the modules in ``MODULES``,
found from their syntax trees (standard-library ``ast``, with
``tokenize`` to place each operator):

- a comparison swapped with its boundary twin: ``<`` and ``<=``, ``>``
  and ``>=``, ``==`` and ``!=``;
- ``+`` swapped with ``-``, or ``*`` with ``//``, in a binary operation
  or an augmented assignment;
- an int literal plus 1.

Nothing inside an f-string is mutated.

Each mutant edits one file in a private copy of the tree (one copy per
worker, restored after each run) and runs ``python -m pytest -x -q``
there under a wall bound and an address-space bound.  A mutant that
fails a test is killed; one that passes every test survives.  The
unmutated tree is run first, in one of those copies: if it fails, no
mutant is run and the ledger is left as it is, since every mutant would
then read as killed.

The ledger (``tools/mutants.json``) keeps a summary of the last run and
one entry per mutant that has ever survived, keyed by file, source line,
column and edit, so line numbers may drift.  A new survivor's verdict is
``unreviewed``; a reader replaces it with ``equivalent: <why>`` when no
input can tell the mutant from the code, or ``gap: <what no test
pins>``.  When a test kills a listed mutant, its verdict becomes that
test's name; when its line is deleted, its status becomes ``gone`` and
its verdict stays.

It mutates the checkout that holds it and writes the ledger next to
itself (about 11 minutes on 2 cores):

    python tools/mutants.py
"""

from __future__ import annotations

import ast
import io
import json
import os
import platform
import queue
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tools" / "mutants.json"
MODULES = ("arith", "menon", "batch", "residues", "limits", "cli")
# A hung test fails at tests/conftest.py's 60 s per-test bound; twice that leaves room for the
# rest of the run, so a hang reads as killed under that test's name, not as timed out.
WALL_SECONDS = 120
WORKERS = 2
ADDRESS_SPACE = 1 << 30  # tier-1 peaks near 150 MB; a mutant that grows past this fails
# The child bounds its own address space: a preexec_fn is not safe under the worker threads.
PYTEST = [sys.executable, "-c", f"""\
import resource, sys, pytest
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(pytest.main(["-x", "-q"]))
"""]

_COMPARE_SWAPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
                  ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
_ARITH_SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "//"),
                ast.FloorDiv: ("//", "*")}
_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)")


def find_mutants(path: Path, rel: str) -> list[dict]:
    """Every mutant of one source file: its line, byte offset, source line, column and edit."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    # tokenize counts columns in characters, ast in UTF-8 bytes; key both by bytes.
    ops = {}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.OP:
            row, col = tok.start
            ops[(row, len(lines[row - 1][:col].encode()))] = tok.string

    def op_between(left: ast.AST, right: ast.AST, symbol: str) -> tuple[int, int]:
        start, end = (left.end_lineno, left.end_col_offset), (right.lineno, right.col_offset)
        return next(pos for pos, s in sorted(ops.items()) if start <= pos < end and s == symbol)

    found = []

    def add(pos: tuple[int, int], old: str, new: str) -> None:
        found.append({"file": rel, "line": pos[0], "byte": pos[1], "old": old, "new": new})

    tree = ast.parse(text)
    # 3.11's tokenize gives a whole f-string as one STRING token and 3.12's splits it: what is
    # inside an f-string is skipped, so every Python version makes the same mutants.
    in_fstring = {id(sub) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                  for sub in ast.walk(node)}
    for node in ast.walk(tree):
        if id(node) in in_fstring:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if type(op) in _COMPARE_SWAPS:
                    old, new = _COMPARE_SWAPS[type(op)]
                    add(op_between(operands[i], operands[i + 1], old), old, new)
        elif isinstance(node, ast.BinOp) and type(node.op) in _ARITH_SWAPS:
            old, new = _ARITH_SWAPS[type(node.op)]
            add(op_between(node.left, node.right, old), old, new)
        elif isinstance(node, ast.AugAssign) and type(node.op) in _ARITH_SWAPS:
            old, new = (s + "=" for s in _ARITH_SWAPS[type(node.op)])
            add(op_between(node.target, node.value, old), old, new)
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            literal = ast.get_source_segment(text, node)
            add((node.lineno, node.col_offset), literal, str(node.value + 1))
    for m in found:
        raw = lines[m["line"] - 1].encode()
        m["source"] = lines[m["line"] - 1].strip()
        # The column within the stripped line, in characters, which survives re-indenting.
        indent = len(raw) - len(raw.lstrip())
        m["col"] = len(raw[indent:m["byte"]].decode())
        m["edit"] = f"{m['old']} -> {m['new']}"
    found.sort(key=lambda m: (m["line"], m["byte"]))
    # A line repeated in the file keys its later copies by their rank.
    seen: dict = {}
    for m in found:
        k = key(m)
        m["nth"] = seen[k] = seen.get(k, -1) + 1
    return found


def key(entry: dict) -> tuple:
    return entry["file"], entry["source"], entry["col"], entry["edit"], entry.get("nth", 0)


def tree_files(root: Path) -> list[str]:
    """The files of the checkout, tracked or new, without what .gitignore drops."""
    out = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                         cwd=root, capture_output=True, text=True, check=True).stdout
    return [f for f in out.split("\0") if f and (root / f).is_file()]


def copy_tree(root: Path, files: frozenset, dest: Path) -> None:
    for f in files:
        (dest / f).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(root / f, dest / f)


def run_tests(copy: Path, files: frozenset) -> tuple[int | None, str, float]:
    """Run tier-1 in a copy, then delete every file the run left there.

    Returns the exit code (None past the wall bound), the output and the
    seconds taken.  Deleting pytest's and Hypothesis' caches keeps each
    run from seeing another's state.
    """
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen(PYTEST, cwd=copy, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WALL_SECONDS)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        code = None
    seconds = time.perf_counter() - start
    for path in copy.rglob("*"):
        if path.is_file() and path.relative_to(copy).as_posix() not in files:
            path.unlink()
    return code, out, seconds


def run_mutant(copies: queue.Queue, files: frozenset, mutant: dict) -> dict:
    """Apply one mutant in a free copy, run tier-1 there, then restore the copy."""
    copy = copies.get()
    target = copy / mutant["file"]
    original = target.read_bytes()
    lines = original.splitlines(keepends=True)
    line, at = lines[mutant["line"] - 1], mutant["byte"]
    assert line[at:at + len(mutant["old"])] == mutant["old"].encode(), mutant
    lines[mutant["line"] - 1] = line[:at] + mutant["new"].encode() + line[at + len(mutant["old"]):]
    target.write_bytes(b"".join(lines))
    code, out, seconds = run_tests(copy, files)
    target.write_bytes(original)
    copies.put(copy)
    if code is None:
        by = f"past the {WALL_SECONDS} s wall bound"
        return {"status": "timed out", "by": by, "seconds": seconds}
    if code == 0:
        return {"status": "survived", "by": None, "seconds": seconds}
    failed = next((m.group(1) for m in map(_FAILED.match, out.splitlines()) if m), None)
    by = failed or f"pytest exit {code}"
    return {"status": "killed", "by": by, "seconds": seconds}


def merge(previous: list[dict], mutants: list[dict], results: list[dict]) -> list[dict]:
    """The new ledger entries: every earlier entry, updated, then each new survivor."""
    outcome = {key(m): (m, r) for m, r in zip(mutants, results)}
    entries = []
    for old in previous:
        if key(old) not in outcome:
            entries.append({**old, "status": "gone"})
            continue
        m, r = outcome.pop(key(old))
        if r["status"] != "survived":
            verdict = r["by"]
        else:  # a survivor keeps its review; one that a test used to kill needs a new one
            verdict = old["verdict"] if old["status"] == "survived" else "unreviewed"
        entries.append({**_entry(m), "status": r["status"], "verdict": verdict})
    for m, r in outcome.values():
        if r["status"] == "survived":
            entries.append({**_entry(m), "status": "survived", "verdict": "unreviewed"})
    return entries


def _entry(m: dict) -> dict:
    entry = {f: m[f] for f in ("file", "line", "col", "source", "edit")}
    return {**entry, "nth": m["nth"]} if m["nth"] else entry


def main() -> int:
    old = json.loads(LEDGER.read_text()) if LEDGER.exists() else {"entries": []}
    mutants = [m for name in MODULES
               for m in find_mutants(ROOT / f"src/menonk/{name}.py", f"src/menonk/{name}.py")]
    files = frozenset(tree_files(ROOT))
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copies: queue.Queue = queue.Queue()
        for i in range(WORKERS):
            copy_tree(ROOT, files, Path(tmp) / str(i))
            copies.put(Path(tmp) / str(i))
        code, out, _ = run_tests(Path(tmp) / "0", files)
        if code != 0:
            print(out, file=sys.stderr)
            print("error: tier-1 fails on the unmutated tree; no mutant was run and "
                  f"{LEDGER.name} is unchanged", file=sys.stderr)
            return 1
        start = time.perf_counter()
        with ThreadPoolExecutor(WORKERS) as pool:
            futures = [pool.submit(run_mutant, copies, files, m) for m in mutants]
            results = []
            for i, (m, f) in enumerate(zip(mutants, futures), 1):
                r = f.result()
                results.append(r)
                print(f"[{i}/{len(mutants)}] {m['file']}:{m['line']} {m['edit']}: {r['status']}"
                      f" ({r['seconds']:.1f} s){' by ' + r['by'] if r['by'] else ''}",
                      file=sys.stderr, flush=True)
        elapsed = time.perf_counter() - start
    counts = {s: sum(r["status"] == s for r in results) for s in ("killed", "timed out", "survived")}
    kills = [r["seconds"] for r in results if r["status"] == "killed"]
    summary = {
        "modules": list(MODULES), "mutants": len(mutants), **counts,
        "median_seconds_to_kill": round(statistics.median(kills), 2) if kills else None,
        "wall_minutes": round(elapsed / 60, 1), "workers": WORKERS,
        "python": platform.python_version(), "cpus": os.cpu_count(),
    }
    ledger = {"summary": summary, "entries": merge(old["entries"], mutants, results)}
    LEDGER.write_text(json.dumps(ledger, indent=1, ensure_ascii=False) + "\n")
    print(json.dumps(counts), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

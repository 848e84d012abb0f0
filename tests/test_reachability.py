"""Every function in the package serves a golden case, or is exempt with its reason.

The test runs each line of ``tests/golden/CASES`` through ``cli.run`` in
process under ``sys.setprofile``.  It then lists each function defined in
``src/menonk/*.py`` (found with ``ast``, nested ones too) that no case
entered and that ``EXEMPT`` does not name.  Functions are keyed by file and
first line, counting decorators, as a code object reports them: Python
3.10's code objects have no qualified name.
"""

import ast
import sys
from pathlib import Path

import menonk
from menonk.cli import run
from test_acceptance import golden_cases

PACKAGE = Path(menonk.__file__).resolve().parent

_BENCH = "bench/worker.py patches or reads it until ROADMAP item 19 frees it"
_ORACLE = "a reference oracle the tests compare the commands' routes against"
_IMPORT = "parser plumbing: it runs when menonk.cli is imported, before any case"

# The functions no golden case enters, each with why it stays.
EXEMPT = {
    # Held by the bench harness; kth_gcd_classes and _kth_block run under menon_sum_over.
    "arith.largest_kth_power_divisor": _BENCH,
    "arith.kth_gcd_classes": _BENCH,
    "arith._kth_block": _BENCH,
    "batch.SpfSieve.factorization": _BENCH,
    "menon.menon_sum_over": _BENCH,
    # The package API.
    "arith.gcd_pow_k": "menonk.__all__ exports it, and the README's doctest calls it",
    # The literal twins the tests check the commands against.
    "arith.cohen_phi_bruteforce": _ORACLE,
    "arith.pillai_bruteforce": _ORACLE,
    "residues.check_reduced_set": _ORACLE,
    "residues.crt_combine": _ORACLE,
    "cli._Parser.__init__": _IMPORT,
    "cli._build_parser": _IMPORT,
    "cli._build_parser.positive": _IMPORT,
    "cli._build_parser.command": _IMPORT,
    "cli._Parser.error": "argparse words its refusals differently on 3.10-3.13, so no golden "
                         "file can pin one",
    "cli.main": "only the console script runs it, as CI's installed golden loop does",
}


def package_functions():
    """{(path, first line): "module.qualified.name"} for every def in the package."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = name
                visit(child, path, name)
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, path.stem)
    return found


def test_every_function_serves_a_golden_case(capsys):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        wrong_exit = [name for name, code, argv in golden_cases() if run(argv) != code]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert wrong_exit == []

    functions = package_functions()
    entered = {(str(Path(path).resolve()), line) for path, line in entered}
    unentered = {name for key, name in functions.items() if key not in entered}
    missing = sorted(unentered - EXEMPT.keys())
    assert not missing, f"no golden case enters {', '.join(missing)}"
    # An exemption must name a function that exists and that no case enters.
    stale = sorted(EXEMPT.keys() - unentered)
    assert not stale, f"EXEMPT names {', '.join(stale)}, which no longer needs it"

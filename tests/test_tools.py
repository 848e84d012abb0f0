"""tools/mutants.py, the mutation runner: its mutant finder, which tier-1 runs nowhere else."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_no_mutant_inside_an_f_string():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    fstrings = 0
    for path in sorted((ROOT / "src" / "menonk").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        spans = [((n.lineno, n.col_offset), (n.end_lineno, n.end_col_offset))
                 for n in ast.walk(tree) if isinstance(n, ast.JoinedStr)]
        fstrings += len(spans)
        for m in runner.find_mutants(path, path.name):
            at = (m["line"], m["byte"])
            assert not any(lo <= at < hi for lo, hi in spans), m
    assert fstrings  # cli.py, limits.py and others spell messages with f-strings

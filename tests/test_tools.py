"""tools/mutants.py, the mutation runner: the parts of it that tier-1 runs nowhere else."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_mutant_inside_an_f_string():
    runner = load("mutants", ROOT / "tools" / "mutants.py")
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


def test_runner_wall_bound_outlasts_a_hung_test():
    # A mutant that hangs one test must fail that test at the per-test bound, with the rest
    # of the run to spare, or its verdict flips between killed and timed out with the machine.
    runner = load("mutants", ROOT / "tools" / "mutants.py")
    conftest = load("tier1_conftest", ROOT / "tests" / "conftest.py")
    assert runner.WALL_SECONDS >= 2 * conftest.TEST_WALL_SECONDS

"""Import hygiene of the package sources, checked with ``ast`` (no linter is required).

Every imported name must be used in its module (a package ``__init__``
uses a name by listing it in ``__all__``), no module imports a
private ``_name`` from another menonk module, every private
module-level name is read somewhere in its own module, every name in a
module's ``__all__`` is bound at its top level, and no absolute import
reaches past the standard library and ``menonk`` itself.  Every
module also parses under the grammar of the oldest Python the package
declares, and importing the command line leaves ``dataclasses`` unloaded.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "menonk"


def imported_names(tree):
    """(bound name, imported name, from another menonk module) for each import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                internal = alias.name.split(".")[0] == "menonk"
                yield (alias.asname or alias.name.split(".")[0]), alias.name, internal
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            internal = node.level > 0 or (node.module or "").split(".")[0] == "menonk"
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, internal


def exported_names(tree):
    """The strings listed in the module's ``__all__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield from (elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))


def used_names(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | set(exported_names(tree))


def test_imports_are_used_and_public():
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = used_names(tree)
        for bound, name, internal in imported_names(tree):
            if bound not in used:
                problems.append(f"{path.name}: {name} is imported but never used")
            if internal and name.startswith("_"):
                problems.append(f"{path.name}: imports the private {name} from another module")
    assert problems == []


def defined_names(node):
    """Names a module-level statement binds: a def, a class or assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_private_module_names_are_read_in_their_module():
    # A read inside the name's own definition (a recursive call) does not count.
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            names = defined_names(stmt)
            private = [n for n in names if n.startswith("_") and not n.startswith("__")]
            if not private:
                continue
            read = {
                node.id
                for other in tree.body
                if other is not stmt
                for node in ast.walk(other)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            problems += [f"{path.name}: {n} is never read" for n in private if n not in read]
    assert problems == []


def test_all_names_are_bound_in_their_module():
    # A stale __all__ entry makes ``from menonk.x import *`` raise AttributeError.
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {name for stmt in tree.body for name in defined_names(stmt)}
        bound.update(
            alias.asname or alias.name.split(".")[0]
            for stmt in tree.body
            if isinstance(stmt, (ast.Import, ast.ImportFrom))
            for alias in stmt.names
        )
        unbound = [n for n in exported_names(tree) if n not in bound]
        problems += [f"{path.name}: __all__ lists the unbound {n}" for n in unbound]
    assert problems == []


def test_standard_library_only():
    # numpy and sympy serve the tests and the bench; an import of either in src slips past pip.
    allowed = set(sys.stdlib_module_names) | {"menonk"}
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside = [m for m in modules if m.split(".")[0] not in allowed]
            problems += [f"{path.name}: imports {m}" for m in outside]
    assert problems == []


def test_sources_parse_at_the_python_floor():
    """Every source parses under the grammar of the oldest Python pyproject.toml allows.

    This checks grammar only (say, no ``except*`` or ``type`` statement
    below 3.11 and 3.12), not which standard library names that Python
    has; only a run on it checks those.
    """
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    version = (int(floor[1]), int(floor[2]))
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


def test_cli_import_leaves_dataclasses_unloaded():
    # dataclasses pulls in inspect, ast, dis and tokenize: about half of
    # the package's import.  -I -S keeps site's .pth files from loading
    # modules first, so src goes on sys.path by hand; -B writes no .pyc
    # into src, since -I ignores PYTHONDONTWRITEBYTECODE.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import menonk.cli; "
        "print('dataclasses' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == "False\n"

"""Import hygiene of the package sources, checked with ``ast`` (no linter is required).

Every imported name must be used in its module (a package ``__init__``
uses a name by listing it in ``__all__``), no module imports a
private ``_name`` from another menonk module, and every private
module-level name is read somewhere in its own module.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "menonk"


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


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return used


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

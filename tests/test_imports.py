"""Import hygiene of the package sources, checked with ``ast`` (no linter is required).

Every imported name must be used in its module (a package ``__init__``
uses a name by listing it in ``__all__``), and no module imports a
private ``_name`` from another menonk module.
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

"""Every name a package module imports is used in that module, and every
private top-level definition is read by some package module (no linter is
installed, so these are the unused-import and dead-definition checks)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spinbath"


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of source that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def private_definitions(source: str) -> set[str]:
    """Top-level _names that source defines by def, class or assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def read_names(source: str) -> set[str]:
    """Names source reads, bare or as a module attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unread_private_definitions(sources: list[str]) -> list[str]:
    defined = set().union(*map(private_definitions, sources))
    return sorted(defined - set().union(*map(read_names, sources)))


def test_checker_finds_unread_private_definitions():
    sources = ["_A = 1\n_B: int = 2\ndef _f():\n    return _A\nclass _C:\n    pass\n",
               "import m\nm._f()\n"]
    assert unread_private_definitions(sources) == ["_B", "_C"]


def test_every_private_definition_is_read():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_definitions(sources) == []


def test_checker_finds_unused_names():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.sum(e)\n"
    assert unused_imports(source) == ["c", "os"]


# __init__.py imports in order to re-export
@pytest.mark.parametrize("name", sorted(path.name for path in PACKAGE.glob("*.py")
                                        if path.name != "__init__.py"))
def test_every_import_is_used(name):
    assert unused_imports((PACKAGE / name).read_text()) == []

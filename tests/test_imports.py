"""Every name a package module imports is used in that module (no linter
is installed, so this is the unused-import check)."""

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


def test_checker_finds_unused_names():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.sum(e)\n"
    assert unused_imports(source) == ["c", "os"]


# __init__.py imports in order to re-export
@pytest.mark.parametrize("name", sorted(path.name for path in PACKAGE.glob("*.py")
                                        if path.name != "__init__.py"))
def test_every_import_is_used(name):
    assert unused_imports((PACKAGE / name).read_text()) == []

"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperinv"

# (module, name) pairs imported only to be reachable from outside:
# perfbench/spans.py wraps symmetry.pullback_coeffs to time it.
ALLOWED = {("symmetry", "pullback_coeffs")}


def unused_imports(source: str):
    """Names bound by import statements in source that nothing reads."""
    tree = ast.parse(source)
    imported, exported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_detects_an_unused_import():
    source = "import os\nfrom math import gcd, lcm\n__all__ = ['lcm']\nprint(os.sep)\n"
    assert unused_imports(source) == [(2, "gcd")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    found = [(line, name) for line, name in unused_imports(path.read_text())
             if (path.stem, name) not in ALLOWED]
    assert found == [], f"{path.name}: unused imports {found}"

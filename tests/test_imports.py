"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperinv"

# (module, name) pairs imported only to be reachable from outside:
# perfbench/spans.py wraps symmetry.pullback_coeffs and symmetry.gcd to time them.
ALLOWED = {("symmetry", "pullback_coeffs"), ("symmetry", "gcd")}


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


# Names that mark int-list or int-pair arithmetic, which zz.py alone defines:
# its prefixes, and the clearing, exit and square-free helpers it replaced.
ZZ_PREFIXES = ("_zz_", "zz_", "_pair_", "pair_")
ZZ_HELPERS = {"_cleared", "cleared", "_field_values", "to_field",
              "pairs_over_one_radicand", "_square_free_model", "square_free"}


def integer_arithmetic_names(source: str):
    """Top-level functions defined, and names imported, that mark zz.py's arithmetic."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            names.append(node.name)
        elif isinstance(node, ast.ImportFrom):
            names += [alias.asname or alias.name for alias in node.names]
    return sorted(n for n in names if n.startswith(ZZ_PREFIXES) or n in ZZ_HELPERS)


def test_detects_integer_arithmetic():
    source = ("from .poly import _zz_gcd, gcd\n"
              "def _cleared(pairs): pass\n"
              "def _pair_mul(u, v, rad): pass\n"
              "def norm(x): pass\n")
    assert integer_arithmetic_names(source) == ["_cleared", "_pair_mul", "_zz_gcd"]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "zz.py"],
                         ids=lambda p: p.name)
def test_integer_arithmetic_lives_in_zz(path):
    found = integer_arithmetic_names(path.read_text())
    assert found == [], f"{path.name} defines or imports zz arithmetic: {found}"

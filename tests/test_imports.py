"""Every module-level import of the package and of its tests is used."""

import ast
from pathlib import Path

import pytest

import torsionlab

# the package's modules, then the test modules; their stems do not collide
MODULES = (sorted(p for p in Path(torsionlab.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")
           + sorted(Path(__file__).parent.glob("*.py")))


def _imported_names(tree: ast.Module) -> list[str]:
    """The names bound by the module's top-level imports, ``from __future__`` excepted."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _referenced(tree: ast.Module) -> set[str]:
    """Every name the module loads, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _referenced(ast.parse(annotation.value))
    return used


def _unused(tree: ast.Module) -> list[str]:
    used = _referenced(tree) | _exported(tree)
    return [name for name in _imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_module_import_is_used(path):
    assert _unused(ast.parse(path.read_text())) == []


def test_unused_import_check_finds_an_unused_name():
    tree = ast.parse("from __future__ import annotations\nimport numpy as np\n"
                     "from .expr import Chart, Expr\n__all__ = ['Expr']\nx: 'np.ndarray'\n")
    assert _unused(tree) == ["Chart"]

"""Package hygiene: every import in a module is used, and every `__all__`
entry names something the module has."""

import ast
import importlib
from pathlib import Path

import pytest

import jetflow

MODULES = sorted(Path(jetflow.__file__).parent.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


def _imports(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements anywhere in the module, with their line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    return bound


def _used(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    tree = _tree(path)
    used, exported = _used(tree), set(_exports(tree))
    unused = [f"{name} (line {line})" for name, line in _imports(tree).items()
              if name not in used and name not in exported]
    assert not unused, f"{path.name}: unused imports {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_resolves(path):
    names = _exports(_tree(path))
    if not names:
        return
    module = importlib.import_module(
        "jetflow" if path.stem == "__init__" else f"jetflow.{path.stem}")
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, f"{path.name}: __all__ names missing attributes {missing}"
    assert len(set(names)) == len(names), f"{path.name}: __all__ lists a name twice"


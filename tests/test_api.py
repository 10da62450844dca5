"""Package surface checks: no unused imports, every exported name resolves."""

import ast
from pathlib import Path

import pytest

import smoothgp

MODULES = sorted(Path(smoothgp.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line it is bound on."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, plus the strings in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{name} (line {line})"
              for name, line in imported_names(tree).items() if name not in used]
    assert not unused, f"{path.name} imports but never uses: {unused}"


def test_unused_import_is_detected():
    tree = ast.parse("import math\nfrom typing import Callable\nx = math.pi\n")
    assert set(imported_names(tree)) - used_names(tree) == {"Callable"}


def test_exported_names_resolve():
    missing = [name for name in smoothgp.__all__ if not hasattr(smoothgp, name)]
    assert not missing

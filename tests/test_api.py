"""Package surface checks: no unused imports, every exported name resolves,
and the CLI run as a process writes where its --out points."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smoothgp
from smoothgp import benchmarks, harness, stackgp

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


def test_cli_import_does_not_load_the_process_pool():
    # the pool is imported only by a campaign that starts one
    probe = "import sys, smoothgp.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(smoothgp.__file__).parent.parent))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, check=True, env=env)
    assert result.stdout.strip() == "False"



def _run_cli_to_stdout_link(tmp_path, command):
    # /dev/fd/1 is a link to stdout like /dev/stdout; a temp file next to it
    # would land under /proc, so a regression fails here without side effects.
    # Appending (as the shell's >>) keeps the status line after the output.
    out = tmp_path / "out.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(smoothgp.__file__).parent.parent))
    with open(out, "a") as handle:
        subprocess.run([sys.executable, "-m", "smoothgp.cli", *command,
                        "--out", "/dev/fd/1"], stdout=handle, check=True, env=env)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "reference.csv"]
    return out.read_text()


def test_catalog_to_stdout_link_reaches_redirected_file(tmp_path):
    reference = tmp_path / "reference.csv"
    text = harness.dump_catalog(reference)
    assert _run_cli_to_stdout_link(tmp_path, ["catalog"]) == (
        text + "catalog written to /dev/fd/1\n")


def test_surface_to_stdout_link_reaches_redirected_file(tmp_path):
    reference = harness.export_surface_grid(
        benchmarks.get("rastrigin", 2), stackgp.parse("x0 x1 *", 2), 3,
        tmp_path / "reference.csv")
    command = ["surface", "--function", "rastrigin", "--resolution", "3",
               "--program", "x0 x1 *"]
    assert _run_cli_to_stdout_link(tmp_path, command) == (
        reference.read_text() + "surface grid written to /dev/fd/1\n")

"""Package surface checks: no unused imports, every exported name resolves
and every exported or private module-level name is read by the package
itself, every public module-level name is read by the package or wrapped by
the benchmark's tracer, no module reads another package module's private
name, the CLI run as a process writes where its --out points and keeps
OpenSSL out, and every name the benchmark's tracer wraps exists."""

import ast
import functools
import importlib.util
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


def read_names(tree: ast.Module) -> set[str]:
    """Names and attribute names that the module's code reads."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_every_exported_name_is_read_by_the_package():
    # a public name that no package code reads is API that only tests call
    read = set()
    for path in MODULES:
        if path.name != "__init__.py":
            read |= read_names(ast.parse(path.read_text(encoding="utf-8")))
    unread = sorted(set(smoothgp.__all__) - read)
    assert not unread, f"exported but read by no package module: {unread}"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def defined_names(tree: ast.Module) -> dict[str, int]:
    """Each function, class or assigned name at module level, with the line
    it is defined on."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [n.id for t in targets for n in ast.walk(t)
                       if isinstance(n, ast.Name)]
        else:
            continue
        for name in defined:
            names[name] = node.lineno
    return names


def private_names(tree: ast.Module) -> dict[str, int]:
    """The ``_``-prefixed defined names, dunders excluded."""
    return {name: line for name, line in defined_names(tree).items()
            if _private(name)}


def public_names(tree: ast.Module) -> dict[str, int]:
    """The defined names without a leading ``_``."""
    return {name: line for name, line in defined_names(tree).items()
            if not name.startswith("_")}


def test_every_private_name_is_read_by_the_package():
    # a private helper that no package code reads is left over from a refactor
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in MODULES}
    read = set().union(*map(read_names, trees.values()))
    unread = [f"{module}: {name} (line {line})"
              for module, tree in trees.items()
              for name, line in private_names(tree).items() if name not in read]
    assert not unread, f"defined but read by no package module: {unread}"


def test_unread_private_name_is_detected():
    tree = ast.parse("_A = 1\n_B, _C = 2, 3\n_D: int = 4\n__all__ = []\n"
                     "def _f():\n    return _A\n"
                     "class _K:\n    _inner = 5\n"
                     "print(_C, _K)\n")
    assert set(private_names(tree)) - read_names(tree) == {"_B", "_D", "_f"}


def test_every_public_name_is_read_by_the_package():
    # a public name that no package code reads is API that only tests call;
    # a name the benchmark's tracer wraps, such as fstpso.step, is kept for it
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in MODULES if path.name != "__init__.py"}
    read = set().union(*map(read_names, trees.values()))
    traced = {f"{owner.__name__.rpartition('.')[2]}.{attr}"
              for owner, attr, _ in traced_targets()}
    unread = [f"{path.name}: {name} (line {line})"
              for path, tree in trees.items()
              for name, line in public_names(tree).items()
              if name not in read and f"{path.stem}.{name}" not in traced]
    assert not unread, f"public but read by no package module: {unread}"


def test_unread_public_name_is_detected():
    tree = ast.parse("A = 1\nB, _c = 2, 3\nD: int = 4\n__all__ = []\n"
                     "def f():\n    return A\n"
                     "class K:\n    inner = 5\n"
                     "print(D, K)\n")
    assert set(public_names(tree)) - read_names(tree) == {"B", "f"}


def foreign_private_reads(tree: ast.Module) -> list[str]:
    """Private names of other package modules that the module reads: ``m._x``
    where ``from . import m`` binds ``m``, and ``from .m import _x``."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               and node.module is None for alias in node.names}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            reads += [f"{node.module}.{alias.name}" for alias in node.names
                      if _private(alias.name)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and _private(node.attr)):
            reads.append(f"{node.value.id}.{node.attr}")
    return reads


def test_no_module_reads_another_modules_private_name():
    # a private name is its module's own; another module that reads it
    # shares what its owner may change alone
    reads = [f"{path.name}: {name}" for path in MODULES
             for name in foreign_private_reads(ast.parse(path.read_text(encoding="utf-8")))]
    assert not reads, f"private names read across modules: {reads}"


def test_foreign_private_read_is_detected():
    tree = ast.parse("from . import fstpso as f, stackgp\nfrom .harness import _x, y\n"
                     "import numpy as np\n"
                     "f._box(stackgp.__name__, stackgp._plan, np._core, y._z)\n")
    assert sorted(foreign_private_reads(tree)) == ["f._box", "harness._x",
                                                   "stackgp._plan"]


def test_cli_import_does_not_load_the_process_pool():
    # the pool is imported only by a campaign that starts one
    probe = "import sys, smoothgp.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(smoothgp.__file__).parent.parent))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, check=True, env=env)
    assert result.stdout.strip() == "False"


def test_cli_import_does_not_load_openssl():
    # the swarm seeds hash with CPython's builtin blake2b, not hashlib's
    probe = "import sys, smoothgp.cli; print('_hashlib' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(smoothgp.__file__).parent.parent))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, check=True, env=env)
    assert result.stdout.strip() == "False"


def _probe_tiny_run(tmp_path, call: str) -> str:
    """Run a tiny campaign by ``call`` in a fresh interpreter; return the
    probe's stdout: whether numpy.random is loaded, and _hashlib's entry."""
    probe = f"""
import sys
from smoothgp import cli
argv = ["run", "--function", "rastrigin", "--runs", "1", "--generations", "1",
        "--pop", "4", "--pso-iters", "3", "--workers", "1", "--out", "out"]
{call}
print("numpy.random" in sys.modules, repr(sys.modules.get("_hashlib", "absent")))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(smoothgp.__file__).parent.parent))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, check=True, env=env, cwd=tmp_path)
    return result.stdout.splitlines()[-1]


def test_cli_entrypoint_run_does_not_load_openssl(tmp_path):
    # numpy.random imports secrets -> hmac -> _hashlib, which maps libcrypto
    from smoothgp import cli
    if not all(importlib.util.find_spec(name) for name in cli._BUILTIN_DIGESTS):
        pytest.skip("hashlib lacks a builtin digest here; _hashlib is kept")
    call = """
sys.argv = ["smoothgp", *argv]
try:
    cli.entrypoint()
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""
    assert _probe_tiny_run(tmp_path, call) == "True None"


def test_cli_main_run_leaves_hashlib_importable(tmp_path):
    if importlib.util.find_spec("_hashlib") is None:
        pytest.skip("this interpreter has no _hashlib")
    call = "assert cli.main(argv) == 0\nimport _hashlib"
    assert _probe_tiny_run(tmp_path, call).startswith("True <module '_hashlib'")


def test_hide_openssl_keeps_hashlib_without_every_builtin_digest():
    # without _sha1, hashlib would log "code for hash sha1 was not found"
    probe = """
import importlib.util, sys
from smoothgp import cli
find_spec = importlib.util.find_spec
importlib.util.find_spec = lambda name, *a: None if name == "_sha1" else find_spec(name, *a)
before = dict(sys.modules)
cli._hide_openssl()
print(sys.modules == before and "_hashlib" not in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(smoothgp.__file__).parent.parent))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, check=True, env=env)
    assert result.stdout.strip() == "True"


def _run_cli_to_stdout_link(tmp_path, command, mode="a"):
    """Run the CLI with ``--out /dev/fd/1`` and stdout opened on a file.

    Returns the file's text and the process's stderr.
    """
    # /dev/fd/1 is a link to stdout like /dev/stdout; a temp file next to it
    # would land under /proc, so a regression fails here without side effects.
    # Mode "a" redirects as the shell's >>, mode "w" as >.
    out = tmp_path / "out.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(smoothgp.__file__).parent.parent))
    with open(out, mode) as handle:
        result = subprocess.run(
            [sys.executable, "-m", "smoothgp.cli", *command, "--out", "/dev/fd/1"],
            stdout=handle, stderr=subprocess.PIPE, text=True, check=True, env=env)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "reference.csv"]
    return out.read_text(), result.stderr


def test_catalog_to_stdout_link_reaches_redirected_file(tmp_path):
    text = harness.dump_catalog(tmp_path / "reference.csv")
    assert _run_cli_to_stdout_link(tmp_path, ["catalog"]) == (
        text, "catalog written to /dev/fd/1\n")


def test_catalog_to_truncated_stdout_keeps_its_header(tmp_path):
    # the status line goes to stderr, so it cannot overwrite the data that
    # the reopened stdout link wrote from offset 0
    text = harness.dump_catalog(tmp_path / "reference.csv")
    written, _ = _run_cli_to_stdout_link(tmp_path, ["catalog"], mode="w")
    assert written == text


def test_surface_to_stdout_link_reaches_redirected_file(tmp_path):
    reference = harness.export_surface_grid(
        benchmarks.get("rastrigin", 2), stackgp.parse("x0 x1 *", 2), 3,
        tmp_path / "reference.csv")
    command = ["surface", "--function", "rastrigin", "--resolution", "3",
               "--program", "x0 x1 *"]
    assert _run_cli_to_stdout_link(tmp_path, command) == (
        reference.read_text(), "surface grid written to /dev/fd/1\n")


@functools.cache
def traced_targets() -> tuple:
    """``(owner, attribute, span name)`` of each wrap smoothbench/traced.py
    installs."""
    bench = Path(__file__).resolve().parent.parent / "smoothbench"
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location("traced_probe",
                                                      bench / "traced.py")
        traced = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(traced)
    finally:
        sys.path.remove(str(bench))

    wrapped = []

    class StubTracer:
        def wrap(self, owner, attr, name, describe=None):
            wrapped.append((owner, attr, name))

    traced.install(StubTracer())
    return tuple(wrapped)


def test_tracer_targets_exist():
    # smoothbench/traced.py wraps these names by attribute; a rename must
    # fail here rather than leave a traced benchmark run broken
    for owner, attr, name in traced_targets():
        assert hasattr(owner, attr), f"{owner.__name__}.{attr} ({name}) is gone"
    names = {name for _, _, name in traced_targets()}
    assert "fstpso.step" in names and "fstpso.init_swarm" in names

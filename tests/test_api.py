"""Package surface checks: no unused imports, every exported name resolves
and every exported or private module-level name is read by the package
itself, every public module-level name is read by the package or wrapped by
the benchmark's tracer, every default of an exported function is passed by
some package call, no module reads another package module's private name,
the CLI run as a process writes where its --out points and keeps OpenSSL
out, and every name the benchmark's tracer wraps exists."""

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


def dataclass_fields(tree: ast.Module) -> list[str]:
    """``Class.field`` of each field of the module's ``@dataclass`` classes."""
    return [f"{node.name}.{item.target.id}" for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(ast.unparse(d.func if isinstance(d, ast.Call) else d)
                    in ("dataclass", "dataclasses.dataclass")
                    for d in node.decorator_list)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def attribute_reads(tree: ast.Module) -> set[str]:
    """Attribute names the module reads, as ``.name`` or ``getattr(x, "name")``."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            reads.add(node.args[1].value)
    return reads


def unread_fields(trees) -> list[str]:
    read = set().union(*map(attribute_reads, trees))
    return [field for tree in trees for field in dataclass_fields(tree)
            if field.split(".")[1] not in read]


# the evaluation count of the public evolve's result, which the planned trace
# CSV and per-run memoization (ROADMAP items 1 and 3) are to read
UNREAD_FIELDS_KEPT = {"RunRecord.total_benchmark_evaluations"}


def test_every_dataclass_field_is_read_by_the_package():
    # a field that no package code reads is state that only tests look at
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    unread = set(unread_fields(trees)) - UNREAD_FIELDS_KEPT
    assert not unread, f"dataclass fields read by no package module: {sorted(unread)}"


def test_unread_dataclass_field_is_detected():
    tree = ast.parse("import dataclasses\nfrom dataclasses import dataclass\n"
                     "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
                     "    z: int\n    w: int\n"
                     "@dataclasses.dataclass\nclass B:\n    v: float\n"
                     "class C:\n    u: int\n"
                     "def f(a, b, c):\n    a.y = 1\n    return a.x, getattr(b, 'w'), z\n")
    assert unread_fields([tree]) == ["A.y", "A.z", "B.v"]


def defaulted_parameters(tree: ast.Module, names) -> dict[str, dict[str, int | None]]:
    """The defaulted parameters of the module-level functions in ``names``,
    each with its position, or None when it is keyword-only."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            params = {arg.arg: i for i, arg in enumerate(positional) if i >= first}
            params.update({arg.arg: None for arg, default
                           in zip(node.args.kwonlyargs, node.args.kw_defaults)
                           if default is not None})
            found[node.name] = params
    return found


def unpassed_defaults(trees, names) -> list[str]:
    """``function(parameter)`` for each defaulted parameter of a function in
    ``names`` that no call in ``trees`` passes, by keyword or by position.
    A call is matched by the called name alone, as ``f(...)`` or ``m.f(...)``;
    ``*args`` passes every positional parameter, ``**kwargs`` every one."""
    params = {}
    for tree in trees:
        params.update(defaulted_parameters(tree, names))
    passed = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if not isinstance(node, ast.Call):
            continue
        called = getattr(node.func, "id", getattr(node.func, "attr", None))
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        keywords = {keyword.arg for keyword in node.keywords}
        for param, position in params.get(called, {}).items():
            if (param in keywords or None in keywords or position is not None
                    and (starred or position < len(node.args))):
                passed.add((called, param))
    return [f"{name}({param})" for name, found in params.items()
            for param in found if (name, param) not in passed]


def test_every_exported_default_is_passed_by_the_package():
    # a default that no package call overrides is a setting only tests use
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    unpassed = unpassed_defaults(trees, set(smoothgp.__all__))
    assert not unpassed, f"defaults no package call passes: {unpassed}"


def test_unpassed_default_is_detected():
    tree = ast.parse("def f(a, b=1, c=2, *, d=3, e=4, g):\n    pass\n"
                     "def h(x=0):\n    pass\n"
                     "def k(y=0, z=0):\n    pass\n"
                     "def unlisted(w=0):\n    pass\n"
                     "f(0, 1, d=2, g=3)\nm.k(*args)\nm.h\n")
    assert unpassed_defaults([tree], {"f", "h", "k"}) == ["f(c)", "f(e)", "h(x)"]


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

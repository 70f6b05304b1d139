"""Declared dependencies match what the package and its tests import, and the
benchmark's bindings into the package resolve."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def _imported_top_level_modules(directory: Path = ROOT / "src" / "crosstill") -> set[str]:
    found = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found


def test_third_party_imports_equal_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in project["dependencies"]
    }
    third_party = _imported_top_level_modules() - set(sys.stdlib_module_names) - {"crosstill"}
    assert third_party == declared


def _requirement_names(specs: list[str]) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_") for spec in specs}


def test_test_imports_equal_declared_test_dependencies():
    """What tests/*.py import from outside the standard library, the package and
    each other is exactly the runtime dependencies plus the `test` extra."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = _requirement_names(
        project["dependencies"] + project["optional-dependencies"]["test"]
    )
    tests = ROOT / "tests"
    local = {path.stem for path in tests.glob("*.py")}
    third_party = (
        _imported_top_level_modules(tests) - set(sys.stdlib_module_names) - {"crosstill"} - local
    )
    assert third_party == declared


def test_import_loads_no_scipy():
    """scipy is a test dependency only: importing the package must not load it."""
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, crosstill; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_public_names_are_unique_and_bound():
    """`crosstill.__all__` lists each name once, and every name it lists exists."""
    import crosstill

    names = crosstill.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(crosstill, name)] == []


BENCH = ROOT / "bench"


def _bench_module_reads(path: Path) -> set[tuple[str, str]]:
    """(module, attribute) for every attribute a bench script reads off a package module.

    Modules are reached through `import crosstill.X as Y` aliases or spelled
    out as `crosstill.X.attr`.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.asname and alias.name.startswith("crosstill.")
    }
    reads = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in aliases:
            reads.add((aliases[owner.id], node.attr))
        elif (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
              and owner.value.id == "crosstill"):
            reads.add((f"crosstill.{owner.attr}", node.attr))
    return reads


def test_bench_bindings_resolve(monkeypatch):
    """Every package name the benchmark patches, calls or reads still exists."""
    monkeypatch.syspath_prepend(str(BENCH))
    instrument = importlib.import_module("instrument")
    importlib.import_module("workloads")
    # installing looks up every patched name, AUTODIFF_OPS included
    with instrument.Probe(reference=False).installed():
        pass
    with instrument.Tracer().installed():
        pass

    reads = _bench_module_reads(BENCH / "run.py") | _bench_module_reads(BENCH / "workloads.py")
    assert ("crosstill.pipeline", "run_single_stage") in reads
    assert ("crosstill.losses", "clamp_warning_count") in reads
    missing = sorted(
        f"{module}.{attr}" for module, attr in reads
        if not hasattr(importlib.import_module(module), attr)
    )
    assert missing == []


def test_every_imported_name_is_read():
    """Each name a package module other than `__init__` imports is read in
    that module, so a caller's leftover import shows up when code moves."""
    unread = []
    for path in sorted((ROOT / "src" / "crosstill").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in read]
    assert unread == []


def test_every_private_module_name_is_read():
    """Each module-level name with one leading underscore in a package module
    is read somewhere: by name in its own module, or as an attribute or a
    `from` import in the package or its tests."""
    modules = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "src" / "crosstill").glob("*.py"))}
    others = modules | {path: ast.parse(path.read_text(encoding="utf-8"))
                        for path in sorted((ROOT / "tests").glob("*.py"))}
    read_elsewhere = set()
    for tree in others.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read_elsewhere.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read_elsewhere.update(alias.name for alias in node.names)
    unread = []
    for path, tree in modules.items():
        defined = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
        read_here = {node.id for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [
            f"{path.stem}.{name}" for name in defined
            if name.startswith("_") and not name.startswith("__")
            and name not in read_here and name not in read_elsewhere
        ]
    assert unread == []

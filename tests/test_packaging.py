"""The package keeps zero runtime dependencies and no ``assert`` statements."""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tangentcat"


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "tangentcat" and top not in sys.stdlib_module_names:
                    outside.append((path.name, name))
    assert outside == []


def test_package_has_no_assert_statements():
    # ``python -O`` strips asserts: every check in the package must raise
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append((path.name, node.lineno))
    assert found == []


def _all_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    raise AssertionError("the package defines no __all__")


def _referenced(node):
    """Every name and attribute read anywhere inside ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_top_level_definition_has_a_caller():
    """A top-level def or class is used elsewhere in the package, exported in
    ``__all__``, or named by the benchmark (read as text, like
    ``test_bench_names.py``); what only tests read lives in the tests."""
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))]
    used = sum((_referenced(tree) for tree in trees), Counter())
    bench = ROOT / "bench"
    named = _all_names() | {
        word
        for name in ("tracing.py", "workloads.py")
        for word in re.findall(r"\w+", (bench / name).read_text(encoding="utf-8"))
    }
    unused = sorted(
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in named
        and used[node.name] == _referenced(node)[node.name]
    )
    assert unused == []


def test_every_imported_name_is_read():
    """A name a package module imports is read in that module; ``__init__.py``
    may export it through ``__all__`` instead."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        if path.name == "__init__.py":
            read |= _all_names()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
                unread += [(path.name, name) for name in (a.asname or a.name.split(".")[0] for a in node.names)
                           if name not in read]
    assert unread == []


def _is_dataclass(node):
    """``@dataclass`` or ``@dataclass(...)`` decorates the class."""
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def test_every_dataclass_field_is_read():
    """A field of a package dataclass is read as an attribute somewhere in the
    package, the benchmark, the tests or the demos; a field nothing reads is
    dead data."""
    read = set()
    for folder in ("src", "bench", "tests", "demos"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            read |= {
                n.attr
                for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            }
    unread = sorted(
        f"{node.name}.{item.target.id}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and item.target.id not in read
    )
    assert unread == []


def _attributes_read(node):
    """Every attribute name read anywhere inside ``node``."""
    return Counter(
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


def test_every_method_is_read():
    """A method or property of a package class is read as an attribute
    somewhere in the package or the benchmark, outside its own body; what
    only tests read lives in the tests.  Dunder methods are exempt: Python
    calls them."""
    read = sum(
        (_attributes_read(ast.parse(path.read_text(encoding="utf-8")))
         for folder in ("src", "bench") for path in sorted((ROOT / folder).rglob("*.py"))),
        Counter(),
    )
    unread = sorted(
        f"{node.name}.{item.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        and not (item.name.startswith("__") and item.name.endswith("__"))
        and read[item.name] == _attributes_read(item)[item.name]
    )
    assert unread == []


def _named(node):
    """The names in an exception spec: ``X``, ``(X, Y)`` or ``mod.X``."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_error_class_is_raised_and_told_apart():
    """A ``TangentError`` subclass is raised in the package, and an ``except``
    in the package or a ``pytest.raises`` in the tests names it; a class no
    caller tells apart from its base is not worth its name."""
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)} - {"TangentError"}
    raised, caught = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised |= _named(exc)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= _named(node.type)
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "raises" and node.args):
                caught |= _named(node.args[0])
    assert sorted(classes - raised) == []
    assert sorted(classes - caught) == []

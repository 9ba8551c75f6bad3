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


def test_every_import_in_the_package_is_at_module_level():
    # an import inside a function hides a dependency from the module header
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        nested += [(path.name, node.lineno) for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert nested == []


def test_package_reads_digits_the_way_int_does():
    # str.isdigit and str.isnumeric accept '²' and '①', which int() refuses;
    # str.isdecimal accepts exactly the digits int() and re's \d read
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("isdigit", "isnumeric"):
                found.append((path.name, node.lineno, node.attr))
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


def _package_imports(tree):
    """What each top-level ``from`` import of the package binds: {name:
    (module, attribute)}, with attribute None for an imported module."""
    bound = {}
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        source = ".".join(["tangentcat"] + [node.module] * bool(node.module)) if node.level else node.module
        if source.split(".")[0] != "tangentcat":
            continue
        for alias in node.names:
            if source == "tangentcat" and (PACKAGE / f"{alias.name}.py").exists():
                bound[alias.asname or alias.name] = (f"tangentcat.{alias.name}", None)
            else:
                bound[alias.asname or alias.name] = (source, alias.name)
    return bound


def _defaulted(args, skip):
    """(position or None, name) of each parameter with a default; ``skip``
    leading parameters (``self``, ``cls``) are not counted as positions."""
    positional = args.posonlyargs + args.args
    out = [(i - skip, a.arg) for i, a in enumerate(positional)
           if i >= len(positional) - len(args.defaults)]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _passes(call, position, name):
    """Does ``call`` pass the parameter at ``position`` named ``name``?"""
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return position is not None and (starred or position < len(call.args))


def test_every_default_is_passed_somewhere():
    """A defaulted parameter of a package function or method is passed by at
    least one call in the package, the benchmark or the demos: a default no
    caller overrides is a constant, not an option.

    A plain call ``f(...)`` is matched through the module's own definitions
    and imports; ``mod.f(...)`` on an imported package module is that
    module's function; any other attribute call ``x.f(...)`` is a call of
    every method named ``f``, so ``gb.normal_form(p)`` is not a call of
    ``groebner.normal_form``.  Functions nothing calls are left to
    ``test_every_top_level_definition_has_a_caller``.
    """
    trees = {"tangentcat" + ("" if p.stem == "__init__" else "." + p.stem):
             ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    imports = {module: _package_imports(tree) for module, tree in trees.items()}
    functions, methods = {}, {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[module, node.name] = node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        methods.setdefault(item.name, []).append(item)

    def resolve(module, name):
        """The (module, name) of the function ``name`` reads in ``module``."""
        while (module, name) not in functions:
            module, name = imports.get(module, {}).get(name, (None, None))
            if name is None:
                return None
        return module, name

    calls = {}  # (module, function) or a method name -> [ast.Call]
    files = list(trees.items()) + [
        (None, ast.parse(p.read_text(encoding="utf-8")))
        for folder in ("bench", "demos") for p in sorted((ROOT / folder).rglob("*.py"))
    ]
    for module, tree in files:
        bound = _package_imports(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                source, attr = bound.get(node.func.id, (module, node.func.id))
                key = attr and resolve(source, attr)
            elif isinstance(node.func, ast.Attribute):
                value = node.func.value
                owner = bound.get(value.id, (None, "")) if isinstance(value, ast.Name) else (None, "")
                key = node.func.attr if owner[1] is not None else resolve(owner[0], node.func.attr)
            else:
                continue
            if key:
                calls.setdefault(key, []).append(node)

    never = [
        f"{module.split('.')[-1]}.{name}({param})"
        for (module, name), node in functions.items()
        for position, param in _defaulted(node.args, 0)
        if calls.get((module, name))
        and not any(_passes(c, position, param) for c in calls[module, name])
    ]
    for name, defs in methods.items():
        for node in defs:
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            for position, param in _defaulted(node.args, 0 if static else 1):
                if calls.get(name) and not any(_passes(c, position, param) for c in calls[name]):
                    never.append(f"{name}({param})")
    assert sorted(never) == []

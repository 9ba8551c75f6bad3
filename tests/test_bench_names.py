"""The names the benchmark harness reaches into must exist in the package.

`bench/tracing.py` rebinds the functions listed in TRACED and CACHES, and
`bench/workloads.py` imports from tangentcat by name.  A rename there would
only surface when the benchmark runs, so both files are read here (as source,
without importing them) and every name is resolved.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from types import ModuleType

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tuple_constant(path, name):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} defines no {name}")


def _traced_names():
    tracing = BENCH / "tracing.py"
    names = [(module, attr) for _, module, attr, _ in _tuple_constant(tracing, "TRACED")]
    names += [(module, attr) for _, module, attr in _tuple_constant(tracing, "CACHES")]
    return names


def _imported_names():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "tangentcat"
        for alias in node.names
    ]


def _resolves(module, dotted):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        if not hasattr(obj, part) and isinstance(obj, ModuleType):
            # ``from package import name`` also binds a submodule
            try:
                importlib.import_module(f"{obj.__name__}.{part}")
            except ModuleNotFoundError:
                return False
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_benchmark_name_resolves():
    traced, imported = _traced_names(), _imported_names()
    assert len(traced) > 40 and ("tangentcat.modlin", "coords") in imported
    missing = [f"{m}: {n}" for m, n in traced + imported if not _resolves(m, n)]
    assert missing == []

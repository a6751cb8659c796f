"""Module boundaries of the library: no module imports another module's
private names, and every name a module exports exists."""

import ast
import importlib
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "curvebracket").glob("*.py"))

# goldman binds the crossing kernel, without calling it, for the
# benchmark's fork-isolation test; no other private import is allowed
ALLOWED = {"goldman.py: from .linking import _linked_cells"}


def test_module_boundaries():
    private_imports, missing_exports, uses = [], [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                private_imports += [
                    f"{path.name}: from .{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
        allowed = {a.rsplit(" ", 1)[1] for a in ALLOWED if a.startswith(f"{path.name}:")}
        uses += [
            f"{path.name}:{node.lineno}: {node.id}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in allowed
        ]
        module = importlib.import_module(
            "curvebracket" if path.stem == "__init__" else f"curvebracket.{path.stem}"
        )
        missing_exports += [
            f"{path.name}: {name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert SOURCES
    assert sorted(set(private_imports) - ALLOWED) == []
    assert uses == []  # an allowed private import is bound, never used
    assert missing_exports == []

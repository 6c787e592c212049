"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "coreset_iht"


def module_level_names(tree: ast.Module) -> list:
    """Names a module binds at its top level: functions, classes and
    assigned constants."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def read_names(tree: ast.Module) -> set:
    """Every name the module reads, bare or as an attribute. An import
    alone is not a read."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_no_dead_private_helpers():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "solvers.py" in trees
    read = set().union(*(read_names(tree) for tree in trees.values()))
    dead = [f"{module}:{name}" for module, tree in trees.items()
            for name in module_level_names(tree)
            if name.startswith("_") and not name.startswith("__") and name not in read]
    assert not dead, f"private names that nothing in the package reads: {dead}"


def imported_modules(tree: ast.Module) -> set:
    """Top-level names of the modules a module imports, absolute imports
    only (``import a.b`` and ``from a.b import c`` both give ``a``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_cli_imports_json():
    # Library results are dicts; cli encodes each output once.
    importers = [path.name for path in sorted(SRC.glob("*.py"))
                 if "json" in imported_modules(ast.parse(path.read_text()))]
    assert importers == ["cli.py"], f"modules that import json: {importers}"

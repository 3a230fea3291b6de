"""The package surface and layout: every name that dispersia exports is
used by the library itself, so no API exists only for its tests; the
transforms live in one module, and every import is at module level."""

import ast
from pathlib import Path

import dispersia

SRC = Path(dispersia.__file__).parent


def exported_names() -> set[str]:
    """The names that dispersia/__init__.py imports from its modules."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def loaded_names() -> set[str]:
    """Every name, and every attribute, that the library modules other
    than __init__.py read."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_export_is_read_by_the_library():
    exported = exported_names()
    assert exported
    unread = sorted(exported - loaded_names())
    assert not unread, f"exported, but read nowhere in the library: {unread}"


def module_trees():
    return {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}


def imported_modules(tree) -> set[str]:
    """The absolute module names a module imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_only_propagators_imports_scipy_fft():
    # every factor kind, and so every transform, lives in propagators.py
    importers = sorted(name for name, tree in module_trees().items() if "scipy.fft" in imported_modules(tree))
    assert importers == ["propagators.py"]


def test_no_import_inside_a_function():
    nested = [
        f"{name}:{inner.lineno}"
        for name, tree in module_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert not nested, f"imports inside a function: {nested}"

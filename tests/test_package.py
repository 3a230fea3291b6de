"""The package surface: every name that dispersia exports is used by the
library itself, so no API exists only for its tests."""

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

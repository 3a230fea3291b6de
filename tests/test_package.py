"""The package surface and layout: every name that dispersia exports is
used by the library itself, so no API exists only for its tests; the
package imports no scipy and runs without it, every import is at module
level, and the dense path makes no BLAS call outside the potential
eigenbasis."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dispersia

SRC = Path(dispersia.__file__).parent
CONFIGS = Path(__file__).parent.parent / "scripts" / "configs"


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


def test_no_module_imports_scipy():
    # every transform is numpy.fft's; scipy is a test-only oracle
    importers = sorted(
        name
        for name, tree in module_trees().items()
        if any(module.split(".")[0] == "scipy" for module in imported_modules(tree))
    )
    assert importers == []


@pytest.mark.parametrize("config", ["hyperbolic-decay", "potential-product-decay-2factor"])
def test_runs_with_scipy_unimportable(tmp_path, config):
    # a fresh interpreter in which `import scipy` raises runs the H^3 sine
    # transform and the potential eigenbasis to exit 0
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from dispersia.cli import main\n"
        "sys.exit(main(['run', sys.argv[1]]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent), "DISPERSIA_OUTPUT_ROOT": str(tmp_path)}
    result = subprocess.run(
        [sys.executable, "-c", script, str(CONFIGS / f"{config}.cfg")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "[PASS]" in result.stdout


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


# the only functions on the dense path that may call BLAS: the potential
# eigenbasis is a real symmetric eigensolve and a matrix product per axis
BLAS_ALLOWED = {"_potential_factor", "_matrix_along"}
BLAS_CALLS = {"dot", "matmul", "tensordot", "inner", "vdot"}


def blas_uses(tree) -> list[str]:
    """`@`, and calls of a BLAS-backed numpy product or of linalg.*, each
    as 'function:line', outside the functions of BLAS_ALLOWED."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
            if function in BLAS_ALLOWED:
                return
        blas = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        if isinstance(node, ast.Call):
            *owners, name = ast.unparse(node.func).split(".")
            blas = name in BLAS_CALLS or "linalg" in owners
        if blas:
            found.append(f"{function}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_no_blas_on_the_dense_path():
    # perfbench runs with OPENBLAS_NUM_THREADS at the core count, and a BLAS
    # call wakes OpenBLAS threads that then spin on the cores the next
    # threaded transform needs: a matrix-product wrap monitor once cost
    # dense-mixed about 0.6 s of a 1.0 s run. nls.py is on the path too: the
    # two NLS chains compute on both cores at once
    trees = module_trees()
    found = {name: blas_uses(trees[name]) for name in ("fields.py", "decay.py", "propagators.py", "nls.py")}
    assert not any(found.values()), f"BLAS calls on the dense path: {found}"


def test_blas_finder_sees_each_form():
    source = (
        "def f(a, b):\n"
        "    a @ b\n    a @= b\n    np.dot(a, b)\n    a.dot(b)\n    np.linalg.norm(a)\n"
        "    linalg.solve(a, b)\n    tensordot(a, b)\n"
        "def _matrix_along(m, v):\n    return m @ v\n"
    )
    assert blas_uses(ast.parse(source)) == [f"f:{line}" for line in range(2, 9)]

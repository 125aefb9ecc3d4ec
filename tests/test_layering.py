"""The module graph of the package runs one way: groebner stands on errors and
rings alone, and every import sits at module level, so no module needs a
deferred import to break a cycle."""

import ast
from pathlib import Path

import pytest

import soldeg
from soldeg import RowBasis, gen_fk, v_space_closure

MODULES = sorted(Path(soldeg.__file__).parent.glob("*.py"))


def test_groebner_imports_only_errors_and_rings():
    tree = ast.parse(Path(soldeg.groebner.__file__).read_text(encoding="utf-8"))
    package = {"." * node.level + (node.module or "") for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("soldeg"))}
    assert package == {".errors", ".rings"}
    assert not any(alias.name.startswith("soldeg") for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_inside_a_function(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nested = [
        (func.name, node.lineno)
        for func in ast.walk(tree) if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


def test_the_closure_is_its_echelon_basis():
    V = v_space_closure(gen_fk(3), 4)
    assert isinstance(V, RowBasis)
    assert not hasattr(V, "basis")


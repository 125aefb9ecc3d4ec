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


@pytest.mark.parametrize("module, name", [("vspace", "v_space_closure"),
                                          ("invariants", "degree_of_regularity")])
def test_stored_rows_are_not_read_back_while_they_are_multiplied(module, name):
    # Both multiply the basis's stored rows without a copy, which holds only
    # while nothing rewrites them: a `rows` or `_rows` read is the one rewrite.
    tree = ast.parse(Path(getattr(soldeg, module).__file__).read_text(encoding="utf-8"))
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)
    reads = [(node.attr, node.lineno) for node in ast.walk(func)
             if isinstance(node, ast.Attribute) and node.attr in ("rows", "_rows")]
    assert reads == []

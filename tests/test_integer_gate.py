import ast
import pathlib

import numpy as np
import pytest

import ntdkit
from ntdkit import (gen_instance, gen_ssc_factor, kron_ssc_margin,
                    kron_ssc_sufficient, ssc1_refute)
from ntdkit.errors import ShapeError

PACKAGE = pathlib.Path(ntdkit.__file__).parent


def _index_users(tree):
    """Names of the functions of ``tree`` that use ``operator.index`` or
    import it, ``<module>`` for a use outside every function."""
    users = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        used = isinstance(node, ast.Attribute) and node.attr == "index" \
            and isinstance(node.value, ast.Name) \
            and node.value.id == "operator"
        imported = isinstance(node, ast.ImportFrom) and \
            node.module == "operator" and \
            any(alias.name == "index" for alias in node.names)
        if used or imported:
            users.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return users


def test_one_function_decides_what_an_integer_is():
    users = [(path.name, name) for path in sorted(PACKAGE.rglob("*.py"))
             for name in _index_users(ast.parse(path.read_text()))]
    assert users == [("tensor.py", "_integers")]


def _numbers_users(tree):
    """Names of the functions of ``tree`` that use the ``numbers`` module
    (``numbers.X`` or ``from numbers import``), ``<module>`` for a use
    outside every function."""
    users = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        used = isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "numbers"
        imported = isinstance(node, ast.ImportFrom) and \
            node.module == "numbers"
        if used or imported:
            users.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return users


def test_one_function_decides_what_a_tolerance_is():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.rglob("*.py"))}
    users = [(name, user) for name, tree in trees.items()
             for user in _numbers_users(tree)]
    importers = [name for name, tree in trees.items()
                 for node in ast.walk(tree) if isinstance(node, ast.Import)
                 and any(a.name == "numbers" for a in node.names)]
    assert users == [("tensor.py", "_tolerances")]
    assert importers == ["tensor.py"]


@pytest.mark.parametrize("call,name", [
    (lambda: kron_ssc_margin(2.5, 1.2, 3, 1.5), "r1 and r2"),
    (lambda: kron_ssc_margin(3, 1.2, "3", 1.5), "r1 and r2"),
    (lambda: kron_ssc_sufficient(3.0, 1.1, 3, 1.2), "r1 and r2"),
    (lambda: gen_ssc_factor(12, 4, 0, max_tries=2.5), "max_tries"),
    (lambda: gen_ssc_factor(12, 4, 0, max_tries="3"), "max_tries"),
    (lambda: gen_instance("A4.2", (10, 10, 6), (3, 3, 2), max_tries=2.5),
     "max_tries"),
    (lambda: gen_instance("A4.2", (10, 10, 6), (3, 3, 2), max_tries="3"),
     "max_tries"),
    (lambda: ssc1_refute(np.eye(3), starts=2.5), "starts and iters"),
    (lambda: ssc1_refute(np.eye(3), iters="60"), "starts and iters"),
])
def test_integer_arguments_past_the_shape_layer(call, name):
    with pytest.raises(ShapeError, match=f"{name} must be"):
        call()

import ast
import pathlib

import numpy as np
import pytest

import ntdkit
from ntdkit import (SolverConfig, gen_anchor_factor, gen_instance,
                    gen_separable_factor, gen_ssc_factor, kron, kron_split,
                    kron_split_permuted, kron_ssc_margin, kron_ssc_sufficient,
                    minvol_nmf, minvol_order2_ntd, ssc1_refute)
from ntdkit.errors import ShapeError

PACKAGE = pathlib.Path(ntdkit.__file__).parent
RANK2 = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]) @ \
    np.array([[1.0, 0.0, 0.3], [0.0, 1.0, 0.7]])
KRON = kron(np.eye(2), np.full((2, 3), 0.5))


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
    (lambda: minvol_nmf(RANK2, 2.0, SolverConfig()), "rank"),
    (lambda: minvol_order2_ntd(RANK2, "2", SolverConfig()), "rank"),
    (lambda: kron_split(KRON, ((2.0, 2), (2, 3))), "kron shape"),
    (lambda: kron_split_permuted(KRON, ((2.0, 2), (2, 3))), "kron shape"),
    (lambda: kron_split(KRON, ((2, 2),)), "kron shape"),
    (lambda: gen_separable_factor(5.0, 2), "n and r"),
    (lambda: gen_separable_factor(3, 0), "r"),
    (lambda: gen_anchor_factor(3, 0), "r"),
    (lambda: gen_anchor_factor(3, 2.0), "n and r"),
])
def test_integer_arguments_past_the_shape_layer(call, name):
    with pytest.raises(ShapeError, match=f"{name} must be"):
        call()


def _dtype_kind_readers(tree):
    """Names of the functions of ``tree`` that read ``<array>.dtype.kind``,
    ``<module>`` for a read outside every function."""
    users = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Attribute) and node.attr == "kind" \
                and isinstance(node.value, ast.Attribute) \
                and node.value.attr == "dtype":
            users.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return users


def test_one_function_decides_what_an_array_is():
    users = [(path.name, name) for path in sorted(PACKAGE.rglob("*.py"))
             for name in _dtype_kind_readers(ast.parse(path.read_text()))]
    assert users == [("tensor.py", "_reals")]


def _input_error_converters(tree):
    """Names of the functions of ``tree`` with an ``except`` handler that
    raises ``InputError``, ``<module>`` for one outside every function."""
    users = []

    def visit(node, owner, handler):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        handler = handler or isinstance(node, ast.ExceptHandler)
        if handler and isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if isinstance(raised, ast.Name) and raised.id == "InputError":
                users.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner, handler)

    visit(tree, "<module>", False)
    return users


def test_one_function_decides_what_a_malformed_file_is():
    users = [(path.name, name) for path in sorted(PACKAGE.rglob("*.py"))
             for name in _input_error_converters(ast.parse(path.read_text()))]
    assert users == [("tensor.py", "_reading")]


def _unused_imports(tree):
    """The names ``tree`` imports and never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_does_not_use():
    unused = {path.name: _unused_imports(ast.parse(path.read_text()))
              for path in sorted(PACKAGE.rglob("*.py"))
              if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


# Names of ``ntdkit.__all__`` the package may call: containers and result
# types, transforms (which keep the values they are given) and the file
# readers and writers.  Every other name is a computing function that is
# its gates over one private body.
UNGATED = {
    "AlignmentResult", "AssumptionReport", "DenseTensor", "Instance",
    "ModePartition", "NtdModel", "Order2Ntd", "SliceSpec", "SolverConfig",
    "SscReport", "fold", "kron", "kron_all", "mode_slice",
    "multilinear_transform", "slice_combination", "slice_matrix", "unfold",
    "load_instance", "read_tensor", "save_instance", "write_tensor_binary",
    "write_tensor_json",
}


def _gated_calls(tree):
    """``(caller, callee)`` for each call in ``tree`` of a name of
    ``ntdkit.__all__`` outside ``UNGATED``, ``<module>`` for a call outside
    every function."""
    gated = set(ntdkit.__all__) - UNGATED
    calls = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            if name in gated:
                calls.append((owner, name))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return calls


def test_the_package_calls_bodies_not_gated_names():
    # A gated public function checks its arguments and calls one private
    # body; the package calls the bodies, so what it has computed or
    # checked is not checked again.  Only the command line calls the
    # public names.
    assert UNGATED <= set(ntdkit.__all__)
    calls = [(path.name, caller, callee)
             for path in sorted(PACKAGE.rglob("*.py")) if path.name != "cli.py"
             for caller, callee in _gated_calls(ast.parse(path.read_text()))]
    assert not calls, "\n".join(map(str, calls))

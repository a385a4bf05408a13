import ast
import pathlib

import ntdkit

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

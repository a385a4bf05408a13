import ast
import inspect

import ntdkit


def test_all_lists_each_public_import_once():
    assert len(ntdkit.__all__) == len(set(ntdkit.__all__))
    assert all(hasattr(ntdkit, name) for name in ntdkit.__all__)
    tree = ast.parse(inspect.getsource(ntdkit))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {n for n in imported if not n.startswith("_")} <= \
        set(ntdkit.__all__)

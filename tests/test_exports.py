import ast
from pathlib import Path

import pytest

import synchrokit
from synchrokit import search


@pytest.mark.parametrize("module", [synchrokit, search], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from synchrokit import *", namespace)
    assert set(synchrokit.__all__) <= set(namespace)


def _used_names(node: ast.AST) -> set[str]:
    """Names read in ``node``, bare or as an attribute."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level function, class or constant definition binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_every_private_name_in_src_has_a_caller_in_src():
    # tests keep their helpers in tests/: the library holds only what it runs
    statements = [
        (path.name, node)
        for path in sorted(Path(synchrokit.__file__).parent.glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    used = [_used_names(node) for _, node in statements]
    unused = [
        f"{module}:{name}"
        for i, (module, node) in enumerate(statements)
        for name in _defined_names(node)
        if name.startswith("_")
        and not name.startswith("__")
        and not any(name in names for j, names in enumerate(used) if j != i)
    ]
    assert unused == []

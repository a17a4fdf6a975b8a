"""No module of evomlp imports a name at module level that it never uses,
and no module-level private name is left that no module reads.

An imported name counts as used when the module reads it anywhere, or
lists it in `__all__` to re-export it. A private function, class or
constant counts as read when any module of evomlp reads it, by name or
as an attribute.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "evomlp"
MODULES = sorted(SRC.rglob("*.py"))


def _imported_names(tree):
    """{bound name: line} of the module-level imports."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_modules_found():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def _private_definitions(tree):
    """{name: line} of the module-level private functions, classes and
    constants (dunder names left out)."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            bound = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        names.update({name: node.lineno for name in bound
                      if name.startswith("_") and not name.startswith("__")})
    return names


def _unread_private_names(trees):
    """{"module:name": line} of the private module-level names that no
    tree of `trees` ({module: ast}) reads, by name or as an attribute."""
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) or (
                isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))}
    return {f"{module}:{name}": line for module, tree in trees.items()
            for name, line in _private_definitions(tree).items()
            if name not in read}


def test_every_private_module_level_name_is_read():
    trees = {str(p.relative_to(SRC)): ast.parse(p.read_text(), filename=str(p))
             for p in MODULES}
    unread = _unread_private_names(trees)
    assert not unread, f"private names never read in src/evomlp: {unread}"


def test_unread_private_name_is_caught():
    planted = ast.parse("_USED = 1\n_left = 2\n\n\ndef _leftover():\n"
                        "    return _USED\n\n\nclass _Kept:\n    pass\n\n\n"
                        "print(_Kept)\n")
    assert _unread_private_names({"planted.py": planted}) \
        == {"planted.py:_left": 2, "planted.py:_leftover": 5}

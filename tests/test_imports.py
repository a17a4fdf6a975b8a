"""No module of evomlp imports a name at module level that it never uses,
no module-level private name is left that no module reads, and no public
module-level function or class is left that nothing in the repository
reads.

An imported name counts as used when the module reads it anywhere, or
lists it in `__all__` to re-export it. A private function, class or
constant counts as read when any module of evomlp reads it, by name or
as an attribute. A public function or class counts as read when any
Python file under src/, tests/, demos/ or bench/ reads it, by name or as
an attribute.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "evomlp"
MODULES = sorted(SRC.rglob("*.py"))
READERS = sorted(path for folder in ("src", "tests", "demos", "bench")
                 for path in (ROOT / folder).rglob("*.py"))


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


def _read_names(trees):
    """Every name the trees read, by name or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) or (
                isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))}


def _unread_private_names(trees):
    """{"module:name": line} of the private module-level names that no
    tree of `trees` ({module: ast}) reads, by name or as an attribute."""
    read = _read_names(trees.values())
    return {f"{module}:{name}": line for module, tree in trees.items()
            for name, line in _private_definitions(tree).items()
            if name not in read}


def _unread_public_names(trees, readers):
    """{"module:name": line} of the public module-level functions and
    classes of `trees` ({module: ast}) that no tree of `readers` reads."""
    read = _read_names(readers)
    return {f"{module}:{node.name}": node.lineno
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_") and node.name not in read}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _module_trees():
    return {str(p.relative_to(SRC)): _parse(p) for p in MODULES}


def test_every_private_module_level_name_is_read():
    unread = _unread_private_names(_module_trees())
    assert not unread, f"private names never read in src/evomlp: {unread}"


def test_every_public_function_and_class_is_read():
    unread = _unread_public_names(_module_trees(),
                                  [_parse(p) for p in READERS])
    assert not unread, ("public functions and classes that nothing in "
                        f"src/, tests/, demos/ or bench/ reads: {unread}")


def test_unread_private_name_is_caught():
    planted = ast.parse("_USED = 1\n_left = 2\n\n\ndef _leftover():\n"
                        "    return _USED\n\n\nclass _Kept:\n    pass\n\n\n"
                        "print(_Kept)\n")
    assert _unread_private_names({"planted.py": planted}) \
        == {"planted.py:_left": 2, "planted.py:_leftover": 5}


def test_unread_public_name_is_caught():
    planted = ast.parse("import math\n\n\ndef chi2_sf(x):\n"
                        "    return math.exp(-x)\n\n\n"
                        "def gammainc_upper(a, x):\n    return 1.0\n\n\n"
                        "class Kept:\n    pass\n\n\nUNREAD_CONSTANT = 1\n")
    reader = ast.parse("import planted\nfrom planted import Kept\n\n"
                       "print(planted.chi2_sf(1.0), Kept)\n")
    assert _unread_public_names({"planted.py": planted}, [reader]) \
        == {"planted.py:gammainc_upper": 8}

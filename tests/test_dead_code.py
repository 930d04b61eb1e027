"""Dead-code guard: no unread imports and no unread private names in the package.

Every module of src/curvetqft is parsed with ast.  A module-level import
must be read somewhere in its module (`from __future__` and the package's
`__init__.py`, whose imports are its re-exports, are exempt).  A
module-level private function, class or constant (one leading
underscore) must be read somewhere under src/: as a name, as an
attribute, or by an import.
"""

from __future__ import annotations

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "curvetqft"
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _reads(tree) -> set[str]:
    """Every name the tree reads: loaded names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _bound_names(node) -> list[str]:
    """Names a module-level statement defines, for the private-name check."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_module_level_import_is_read():
    unread = []
    for name, tree in MODULES.items():
        if name == "__init__.py":
            continue
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in loaded:
                        unread.append(f"{name}: {bound}")
    assert unread == []


def test_every_private_module_name_is_read():
    reads = set().union(*(_reads(tree) for tree in MODULES.values()))
    unread = [
        f"{name}: {bound}"
        for name, tree in MODULES.items()
        for node in tree.body
        for bound in _bound_names(node)
        if bound.startswith("_") and not bound.startswith("__") and bound not in reads
    ]
    assert unread == []

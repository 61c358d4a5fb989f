"""Source hygiene: no module of the package imports a name it never uses,
and none exports a name it does not bind.

Each `src/vertexpoly/*.py` except `__init__.py` (whose imports are the
public re-exports) is parsed with `ast`.  A name bound by a module-level
import, including one inside a module-level try block, must be read
somewhere in the module or be listed in its `__all__`.  Every name listed
in a module's `__all__` must be an attribute of the imported module.
Every module-level private name (a `_name` bound by def, class or
assignment) must be read somewhere in the package.  No module imports a
thread or process pool: every check runs on the calling thread.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vertexpoly"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _module_imports(tree):
    """(bound name, line) for every module-level import."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Try):
            stack.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                stack.extend(handler.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = [f"{path.name}:{line} {name}"
              for name, line in _module_imports(tree) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_exported_name_is_bound(path):
    module = importlib.import_module(f"vertexpoly.{path.stem}")
    stale = [name for name in module.__all__ if not hasattr(module, name)]
    assert not stale, f"{path.name} exports unbound names: {stale}"


def _private_definitions(tree):
    """(name, line) for every module-level `_name` def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            lhs = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [(n.id, node.lineno) for t in lhs for n in ast.walk(t)
                       if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, line) for name, line in targets
                    if name.startswith("_") and not name.startswith("__"))


def test_every_private_module_name_is_read():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = [f"{name}:{line} {ident}" for name, tree in trees.items()
            for ident, line in _private_definitions(tree) if ident not in read]
    assert not dead, "private names never read: " + ", ".join(dead)


_CONCURRENCY_MODULES = {"threading", "concurrent", "multiprocessing"}


def _imported_modules(tree):
    """(absolute module name, line) for every import anywhere in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_concurrency(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{line} {name}"
             for name, line in _imported_modules(tree)
             if name.split(".")[0] in _CONCURRENCY_MODULES]
    assert not found, "concurrency imports: " + ", ".join(found)

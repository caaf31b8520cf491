"""Tooling checks on the library source: every module other than the package
``__init__`` uses what it imports, every private helper has a reader, and
every cache is bounded."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spherotree"

MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= {n.id for n in ast.walk(ast.parse(note.value)) if isinstance(n, ast.Name)}
    return used


def test_the_module_list_is_not_empty():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _references(node: ast.AST) -> set[str]:
    """Every name a statement reads, as a bare name, an attribute or an import."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def test_every_private_definition_has_a_reader():
    """A module-level private function or class that nothing in the library
    reads outside its own definition is dead code."""
    readers = Counter()  # name -> how many top-level statements read it
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _references(node)
            readers.update(names)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                if not node.name.startswith("__"):
                    private.append((path.name, node.name, node.name in names))
    assert private
    unread = [f"{module}: {name}" for module, name, self_read in private if readers[name] == self_read]
    assert not unread, f"private definitions nothing reads: {', '.join(unread)}"


def test_every_library_cache_is_bounded():
    """Every module-level callable with ``cache_info()`` reports a finite bound."""
    caches = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"spherotree.{path.stem}")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__ or isinstance(value, type):
                continue  # imported from elsewhere, or a class
            if callable(value) and hasattr(value, "cache_info"):
                caches[f"{path.stem}.{name}"] = value.cache_info().maxsize
    assert "orbitstats.theta" in caches and "thorn._code_of_abstract" in caches
    unbounded = sorted(name for name, maxsize in caches.items() if maxsize is None)
    assert not unbounded, f"caches without a bound: {', '.join(unbounded)}"

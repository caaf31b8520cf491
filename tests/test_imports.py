"""Tooling checks on the library and test source: every module other than
the package ``__init__`` uses what it imports and rebinds no imported name
at top level, every private library helper, every public library function
the package does not export and every name it does export has a reader,
and every library cache is bounded."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "spherotree"
BENCH = TESTS.parent / "bench"

MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
CHECKED = MODULES + sorted(TESTS.glob("*.py"))


def _module_id(path: Path) -> str:
    return path.name if path.parent == SRC else f"tests/{path.name}"


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
    assert TESTS / "oracles.py" in CHECKED


@pytest.mark.parametrize("path", CHECKED, ids=_module_id)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _top_level_bindings(tree: ast.Module) -> dict[str, int]:
    """Each name a top-level definition or assignment binds, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                        names[sub.id] = node.lineno
    return names


@pytest.mark.parametrize("path", CHECKED, ids=_module_id)
def test_no_imported_name_is_rebound(path):
    """A module that imports a name and then defines its own under it
    silently runs the local one wherever it meant the import."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = _imported(tree)
    rebound = sorted(
        f"{name} (line {line}, imported at line {imported[name]})"
        for name, line in _top_level_bindings(tree).items()
        if name in imported
    )
    assert not rebound, f"{path.name} rebinds imported names: {', '.join(rebound)}"


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
    reads outside its own definition is dead code, and so is a public
    top-level function that the package does not export and that nothing in
    the library, the tests or the benchmark reads."""
    readers = Counter()  # name -> how many top-level statements read it
    private, unexported = [], []
    exported = set(_imported(ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))))
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _references(node)
            readers.update(names)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                if not node.name.startswith("__"):
                    private.append((path.name, node.name, node.name in names))
            elif isinstance(node, ast.FunctionDef) and node.name not in exported:
                unexported.append((path.name, node.name, node.name in names))
    assert private and unexported
    unread = [f"{module}: {name}" for module, name, self_read in private if readers[name] == self_read]
    assert not unread, f"private definitions nothing reads: {', '.join(unread)}"
    for path in sorted(TESTS.glob("*.py")) + sorted(BENCH.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            readers.update(_references(node))
    unread = [f"{module}: {name}" for module, name, self_read in unexported if readers[name] == self_read]
    assert not unread, f"unexported public functions nothing reads: {', '.join(unread)}"


def test_every_export_has_a_reader():
    """Each name in ``spherotree.__all__`` is named somewhere other than the
    statement that defines it and the package ``__init__``: in the library,
    the benchmark or the README.  The tests do not count, so a fixture that
    only tests use lives in ``tests/``, not in the package's API."""
    import spherotree

    def words(text: str) -> set[str]:
        return set(re.findall(r"\w+", text))

    readers = set()
    for path in MODULES:
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.parse(text).body:
            defined = _top_level_bindings(ast.Module(body=[node], type_ignores=[]))
            readers |= words("\n".join(lines[node.lineno - 1 : node.end_lineno])) - set(defined)
    for path in sorted(BENCH.glob("*.py")) + [TESTS.parent / "README.md"]:
        readers |= words(path.read_text(encoding="utf-8"))
    unread = sorted(set(spherotree.__all__) - readers)
    assert not unread, f"exports nothing reads: {', '.join(unread)}"


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
    assert "orbitstats.theta" in caches and "tree.children" in caches
    unbounded = sorted(name for name, maxsize in caches.items() if maxsize is None)
    assert not unbounded, f"caches without a bound: {', '.join(unbounded)}"

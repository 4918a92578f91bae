"""Every public name the package defines is used by the program.

A public function, class or method defined in ``src/cycliccover`` must be
named somewhere in the package or in ``perfbench`` (an ``ast.Name``, an
``ast.Attribute`` or an import alias), or be exported in
``cycliccover.__all__``.  A public class that defines its own ``__init__``
or ``__new__`` must be called by name there (a class named only in
``isinstance`` checks keeps no constructor), or be exported.  API that only
tests reach belongs in the tests.
"""

import ast
from pathlib import Path

import cycliccover

PACKAGE = Path(cycliccover.__file__).resolve().parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def parsed(directory: Path) -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


def public_definitions(module: str, tree: ast.Module):
    """(qualified name, name) of each public top-level function and class,
    and of each public method of a public class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, kinds) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name


def referenced_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def called_names(tree: ast.Module) -> set:
    """The names called as functions: f(...) and obj.f(...)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return names


def constructed_classes(tree: ast.Module):
    """Each public top-level class that defines __init__ or __new__."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if any(isinstance(item, ast.FunctionDef)
                   and item.name in ("__init__", "__new__")
                   for item in node.body):
                yield node.name


def test_every_constructor_is_called_or_exported():
    package = parsed(PACKAGE)
    trees = list(package.values()) + list(parsed(PERFBENCH).values())
    classes = [name for tree in package.values()
               for name in constructed_classes(tree)]
    assert "SectionDecomposition" in classes
    called = set(cycliccover.__all__).union(*map(called_names, trees))
    uncalled = sorted(set(classes) - called)
    assert uncalled == [], f"constructors nothing calls: {uncalled}"


def test_every_public_name_is_used_or_exported():
    package = parsed(PACKAGE)
    trees = list(package.values()) + list(parsed(PERFBENCH).values())
    assert len(package) > 5 and len(trees) > len(package)
    used = set(cycliccover.__all__).union(*map(referenced_names, trees))
    unused = sorted(qualified for module, tree in package.items()
                    for qualified, name in public_definitions(module, tree)
                    if name not in used)
    assert unused == [], f"public API nothing uses: {unused}"

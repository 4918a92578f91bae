"""No tuple built straight from a generator in the package.

``tuple(x for x in ...)`` sizes its tuple by a length guess and then
shrinks it, which leaves one more tuple in CPython's per-size free lists
on each call: repeated in-process runs of the local model grew those
lists pass after pass.  ``tuple([x for x in ...])`` builds the list first
and leaves the free lists flat.  An AST walk over ``src/cycliccover``
finds every ``tuple(<generator expression>)``.
"""

import ast
from pathlib import Path

import cycliccover

PACKAGE = Path(cycliccover.__file__).resolve().parent


def tuple_generator_calls(tree: ast.Module):
    """The line of each ``tuple(<generator expression>)`` call in tree."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "tuple" and len(node.args) == 1
                and isinstance(node.args[0], ast.GeneratorExp)):
            yield node.lineno


def test_package_builds_no_tuple_from_a_generator():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    found = [f"{path.name}:{line}" for path in paths
             for line in tuple_generator_calls(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [], f"tuple(<generator>) in src: {found}"


def test_walk_finds_each_tuple_of_a_generator():
    source = ("a = tuple(x for x in y)\n"
              "b = [tuple(i * j for j in r) for i in s]\n"
              "c = f(tuple(\n    z for z in w))\n")
    assert list(tuple_generator_calls(ast.parse(source))) == [1, 2, 3]
    clean = ("a = tuple([x for x in y])\nb = tuple(y)\nc = list(x for x in y)\n"
             "d = frozenset(x for x in y)\ne = tuple(map(f, y))\n")
    assert list(tuple_generator_calls(ast.parse(clean))) == []

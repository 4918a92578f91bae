"""No floating point in the package, as the exact-arithmetic claim says.

An AST walk over ``src/cycliccover``: no float or complex literal, no
``float`` or ``complex`` name, and no true division ``/`` (a ``BinOp`` or
an ``AugAssign``), which makes a float of two ints.  Exact values are
ints, Fractions and integer vectors over one denominator.
"""

import ast
from pathlib import Path

import cycliccover

PACKAGE = Path(cycliccover.__file__).resolve().parent


def float_uses(tree: ast.Module):
    """(line, what) of each float construct in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(
                node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            yield node.lineno, f"name {node.id}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div):
            yield node.lineno, "operator /"


def test_package_uses_no_floating_point():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    found = [f"{path.name}:{line}: {what}" for path in paths
             for line, what in float_uses(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [], f"floating point in src: {found}"


def test_walk_finds_each_float_construct():
    source = "a = 0.5\nb = 2j\nc = float(a)\nd = complex\ne = 1 / 2\ne /= 3\n"
    assert sorted(line for line, _ in float_uses(ast.parse(source))) == \
        [1, 2, 3, 4, 5, 6]
    assert list(float_uses(ast.parse("a = 7 // 2\nb = 'float'\nc = 1"))) == []

"""Independent oracle: sympy polynomials in u1, u2, with the terms of total
degree >= bound dropped, agree with TruncatedSeries +, * and truncate."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cycliccover.series import TruncatedSeries

sympy = pytest.importorskip("sympy")
U1, U2 = sympy.symbols("u1 u2")
U = ("u1", "u2")


def as_sympy(series):
    return sum((sympy.Rational(c.numerator, c.denominator) * U1 ** i * U2 ** j
                for (i, j), c in series.terms.items()), sympy.Integer(0))


def truncated_terms(expr, bound):
    """The nonzero terms of total degree < bound of a sympy polynomial."""
    poly = sympy.Poly(sympy.expand(expr), U1, U2)
    return {exps: Fraction(int(c.p), int(c.q)) for exps, c in poly.terms()
            if c != 0 and sum(exps) < bound}


@st.composite
def series(draw):
    bound = draw(st.integers(0, 6))
    exps = [(i, j) for i in range(bound) for j in range(bound - i)]
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    terms = draw(st.dictionaries(st.sampled_from(exps), coeffs)) if exps else {}
    return TruncatedSeries(U, bound, terms)


@settings(max_examples=60, deadline=None)
@given(series(), series(), st.integers(0, 8))
def test_arithmetic_matches_sympy(a, b, t):
    bound = min(a.bound, b.bound)
    x, y = as_sympy(a), as_sympy(b)
    assert (a + b).terms == truncated_terms(x + y, bound)
    assert (a - b).terms == truncated_terms(x - y, bound)
    assert (a * b).terms == truncated_terms(x * y, bound)
    assert a.truncate(t).terms == truncated_terms(x, t)

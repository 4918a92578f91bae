"""Independent oracle: sympy polynomials in u1, u2, with the terms of total
degree >= bound dropped, agree with TruncatedSeries.truncate and
collect_terms, and the ramified split sums back to its jet in sympy."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cycliccover.localmodel import decompose_jet_ramified
from cycliccover.series import TruncatedSeries, collect_terms

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
@given(series(), st.integers(0, 8), st.integers(1, 4))
def test_truncation_and_ramified_split_match_sympy(a, t, d):
    x = as_sympy(a)
    assert a.truncate(t).terms == truncated_terms(x, t)
    assert collect_terms(U, t, a.terms.items()).terms == truncated_terms(x, t)
    # sum_q u1^q * s_q(v1 -> u1^d) is the jet, and s_q only holds the
    # exponents of u1 that are q mod d
    parts = decompose_jet_ramified(a, d)
    assert sympy.expand(sum((U1 ** q * as_sympy(p).subs(U1, U1 ** d)
                             for q, p in enumerate(parts)),
                            sympy.Integer(0)) - x) == 0
    for q, p in enumerate(parts):
        assert truncated_terms(U1 ** q * as_sympy(p).subs(U1, U1 ** d),
                               a.bound) == {
            e: c for e, c in a.terms.items() if e[0] % d == q}

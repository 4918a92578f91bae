"""Independent oracle: sympy's cyclotomic polynomials and polynomial
remainder agree with power_sum and the fieldref element and product, and
its modular inverse with the local layer's division by 1 - zeta^m."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cycliccover.cyclotomic import cyclotomic_polynomial, power_sum
from cycliccover.localmodel import _over_one_minus
from fieldref import element, product

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")


def coefficients(expr, d):
    """Coefficients (constant first) of a sympy polynomial of degree < phi(d)."""
    n = len(cyclotomic_polynomial(d)) - 1
    coeffs = sympy.Poly(expr, X).all_coeffs()[::-1] if expr != 0 else []
    coeffs = [Fraction(int(c.p), int(c.q)) for c in coeffs]
    return tuple(coeffs + [Fraction(0)] * (n - len(coeffs)))


def as_fractions(x):
    return tuple(Fraction(c, x.den) for c in x.nums)


def as_sympy(coeffs):
    return sum((sympy.Rational(c.numerator, c.denominator) * X ** i
                for i, c in enumerate(coeffs)), sympy.Integer(0))


def test_cyclotomic_polynomial_matches_sympy():
    for d in range(1, 41):
        want = sympy.Poly(sympy.cyclotomic_poly(d, X), X).all_coeffs()[::-1]
        assert cyclotomic_polynomial(d) == tuple(int(c) for c in want)


def test_power_sum_matches_sympy_rem():
    # Integer vectors of any length up to 3d (the Lagrange columns and the
    # residual rows are length d) reduce like sympy's remainder mod Phi_d.
    rng = random.Random(15)
    for d in range(1, 41):
        phi = sympy.Poly(sympy.cyclotomic_poly(d, X), X)
        for length in (0, d, rng.randint(1, 3 * d), 3 * d):
            coeffs = [rng.randint(-50, 50) for _ in range(length)]
            den = rng.choice([1, 2, 6, rng.randint(1, 10**6)])
            rem = sympy.rem(sympy.Poly(coeffs[::-1] or [0], X), phi)
            want = coefficients(rem.as_expr() / den, d)
            x = power_sum(d, den, coeffs)
            assert as_fractions(x) == want
            assert x == element(d, [Fraction(c, den) for c in coeffs])


orders = st.integers(min_value=1, max_value=12)
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)
polys = st.lists(rationals, min_size=0, max_size=14)


@settings(max_examples=60, deadline=None)
@given(orders, polys, polys)
def test_arithmetic_matches_sympy_rem(d, xs, ys):
    phi = sympy.cyclotomic_poly(d, X)
    a, b = as_sympy(xs), as_sympy(ys)
    x, y = element(d, xs), element(d, ys)
    assert as_fractions(x) == coefficients(sympy.rem(a, phi, X), d)
    assert as_fractions(product(x, y)) == \
        coefficients(sympy.rem(sympy.expand(a * b), phi, X), d)


def test_over_one_minus_matches_sympy_invert():
    # The kernel on the unit vector, over e, is 1 / (1 - zeta^m).
    for d in range(2, 41):
        phi = sympy.Poly(sympy.cyclotomic_poly(d, X), X, domain="QQ")
        for m in range(1, d):
            e, (v,) = _over_one_minus(d, m, [[1] + [0] * (d - 1)])
            inv = sympy.Poly(1 - X ** m, X, domain="QQ").invert(phi)
            want = [Fraction(int(c.p), int(c.q)) for c in inv.all_coeffs()]
            want = want[::-1] + [Fraction(0)] * (phi.degree() - len(want))
            assert as_fractions(power_sum(d, e, v)) == tuple(want)

"""The tests' reference arithmetic in Q(zeta_d), built through power_sum:
the program builds elements only with power_sum and multiplies none, and
the sympy oracle checks element and product."""

from fractions import Fraction
from math import lcm

from cycliccover.cyclotomic import CyclotomicNumber, power_sum


def element(d, coeffs):
    """sum_i coeffs[i] * zeta_d^i for int and Fraction coefficients."""
    fracs = [Fraction(c) for c in coeffs]
    den = lcm(*(f.denominator for f in fracs))
    return power_sum(d, den,
                     [f.numerator * (den // f.denominator) for f in fracs])


def product(x, y):
    """x * y for elements of one field: the integer convolution of the
    numerators over x.den * y.den, reduced once by power_sum."""
    assert x.order == y.order, f"mixed root orders {x.order} and {y.order}"
    conv = [0] * (len(x.nums) + len(y.nums) - 1)
    for i, a in enumerate(x.nums):
        for j, b in enumerate(y.nums):
            conv[i + j] += a * b
    return power_sum(x.order, x.den * y.den, conv)


def root(d, a=1):
    """zeta_d^a for any integer a, from its exponent vector."""
    return power_sum(d, 1, [0] * (a % d) + [1])


def lift(d, c):
    """c as an element of Q(zeta_d): a rational is a constant."""
    return c if isinstance(c, CyclotomicNumber) else element(d, [c])


def field_sum(d, values):
    """The sum of rationals and elements of Q(zeta_d), added as integer
    numerators over one denominator and reduced once by power_sum."""
    values = [lift(d, c) for c in values]
    den = lcm(1, *(x.den for x in values))
    row = [0] * d
    for x in values:
        for i, n in enumerate(x.nums):
            row[i] += n * (den // x.den)
    return power_sum(d, den, row)

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cycliccover.cyclotomic import (
    CyclotomicNumber, _divmod_monic, cyclotomic_polynomial, power_sum)
from fieldref import element, field_sum, product, root


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_power_cycles():
    for d in range(1, 13):
        z = root(d)
        power = element(d, [1])
        for a in range(1, d + 1):
            power = product(power, z)
            assert power == root(d, a)
        assert power == 1
        for a in range(2 * d):
            for b in range(2 * d):
                equal = root(d, a) == \
                    root(d, b)
                assert equal == ((a - b) % d == 0)


def test_rational_embedding():
    x = element(5, [Fraction(3, 7)])
    assert x.is_rational()
    assert x == Fraction(3, 7)
    assert product(x, x) == Fraction(9, 49)


def test_sum_of_all_roots_is_zero():
    # the all-ones vector indexed by exponents mod d, reduced mod Phi_d
    for d in range(2, 10):
        assert power_sum(d, 1, [1] * d).is_zero()
        assert power_sum(d, 7, [1] * (3 * d)).is_zero()
    assert power_sum(1, 1, [1]) == 1


def test_power_sum_is_the_only_constructor():
    with pytest.raises(TypeError):
        CyclotomicNumber(5, [1])


def test_hash_consistency():
    a = root(4, 1)
    b = element(4, [0, 1])
    assert a == b and hash(a) == hash(b)


small_rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6)


@given(st.integers(min_value=1, max_value=8),
       st.lists(small_rationals, min_size=0, max_size=4),
       st.lists(small_rationals, min_size=0, max_size=4),
       st.lists(small_rationals, min_size=0, max_size=4))
def test_field_axioms(d, xs, ys, zs):
    x = element(d, xs)
    y = element(d, ys)
    z = element(d, zs)
    one, zero = element(d, [1]), element(d, [])
    assert product(x, y) == product(y, x)
    assert product(product(x, y), z) == product(x, product(y, z))
    assert product(x, field_sum(d, [y, z])) == \
        field_sum(d, [product(x, y), product(x, z)])
    assert product(x, one) == x and product(x, zero) == 0


def test_rational_elements_hash_like_fractions():
    assert len({element(5, [1]), 1}) == 1
    x = element(7, [Fraction(3, 7)])
    assert hash(x) == hash(Fraction(3, 7))
    assert hash(element(4, [])) == hash(0)
    assert hash(root(4, 2)) == hash(-1)


def test_rationals_equal_across_orders():
    assert element(5, [1]) == element(3, [1])
    assert root(2) == root(4, 2)
    assert root(3) != root(6, 2)
    assert len({element(5, [1]), element(3, [1]), 1}) == 1


def test_canonical_form_independent_of_route():
    # Each class holds one value built every way power_sum is reached:
    # scaled denominators, vectors of length d and 3d (zeta^d = 1), and
    # the reference element and product.  Equal values share one
    # (den, nums) and one hash, rationals with Fraction and int.
    half_plus = [  # 1/2 + zeta/2 in Q(zeta_3)
        element(3, [Fraction(1, 2), Fraction(1, 2)]),
        power_sum(3, 2, [1, 1]),
        power_sum(3, 4, [2, 2]),
        power_sum(3, 2, [0, 0, -1]),  # 1 + zeta + zeta^2 = 0
        power_sum(3, 4, [1, 0, 0, 1, 1, 0, 0, 1, 0]),
        product(root(3, 2), element(3, [Fraction(-1, 2)])),
        product(power_sum(3, 2, [1]), power_sum(3, 1, [1, 1])),
    ]
    three_sevenths = [
        element(5, [Fraction(3, 7)]),
        element(5, [Fraction(6, 14), 0, 0, 0]),
        power_sum(5, 14, [6]),
        power_sum(5, 7, [5, 2, 2, 2, 2]),
        power_sum(5, 21, [9] + [0] * 14),
        product(element(5, [Fraction(3, 2)]), element(5, [Fraction(2, 7)])),
        element(3, [Fraction(3, 7)]),
        Fraction(3, 7),
    ]
    two = [
        element(4, [2]),
        power_sum(4, 3, [6, 0]),
        power_sum(4, 1, [0, 0, -2, 0]),  # zeta_4^2 = -1
        power_sum(4, 15, [10, 0, 0, 0] * 3),
        product(root(4, 1), power_sum(4, 1, [0, 0, 0, 2])),
        element(7, [2]),
        Fraction(2),
        2,
    ]
    classes = [half_plus, three_sevenths, two]
    for i, left in enumerate(classes):
        for j, right in enumerate(classes):
            for a in left:
                for b in right:
                    assert (a == b) == (i == j), (a, b)
                    if i == j:
                        assert hash(a) == hash(b), (a, b)
    assert {(r.den, r.nums) for r in half_plus} == {(2, (1, 1))}
    assert {(r.den, r.nums) for r in two[:5]} == {(1, (2, 0))}
    assert element(5, []).den == 1
    zero = power_sum(3, 5, [1, 1, 1])
    assert {(z.den, z.nums) for z in (zero, product(root(3), zero))} == \
        {(1, (0, 0))}


def test_arithmetic_builds_no_fraction(monkeypatch):
    x = element(5, [Fraction(1, 3), 2, Fraction(-4, 9)])
    y = element(5, [Fraction(2, 5), 0, 1, Fraction(1, 7)])
    half = Fraction(1, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction built during arithmetic")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    product(y, x), product(x, x), power_sum(5, 6, [1, -2, 3, 4, 5, 6])
    assert x == x and x != y and x != half and x != 1
    str(x), str(y), str(product(x, y))


@given(st.integers(1, 16), st.data())
def test_power_sum_matches_divmod_remainder(d, data):
    # Lengths below phi(d), equal to it, and from d up to 3d.
    n = len(cyclotomic_polynomial(d)) - 1
    length = data.draw(st.sampled_from(
        [k for k in range(n)] + [n, d, d + 1, 3 * d]))
    coeffs = data.draw(st.lists(st.integers(-10**6, 10**6),
                                min_size=length, max_size=length))
    den = data.draw(st.integers(1, 50))
    got = power_sum(d, den, coeffs)
    rem = _divmod_monic(coeffs, cyclotomic_polynomial(d))[1]
    assert got == element(d, [Fraction(x, den) for x in rem])


def fraction_str(x):
    """The rendering of x through Fraction, the reference for __str__."""
    parts = []
    for i, c in enumerate(x.nums):
        if c == 0:
            continue
        c = Fraction(c, x.den)
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*z" if c != 1 else "z")
        else:
            parts.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
    return " + ".join(parts) if parts else "0"


@given(st.integers(1, 12),
       st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 60)),
                max_size=14))
def test_str_matches_fraction_rendering(d, pairs):
    x = element(d, [Fraction(a, b) for a, b in pairs])
    negated = element(d, [Fraction(-a, b) for a, b in pairs])
    assert str(x) == fraction_str(x)
    assert str(negated) == fraction_str(negated)

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cycliccover.cyclotomic import CyclotomicNumber, cyclotomic_polynomial


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
        z = CyclotomicNumber.root_of_unity(d)
        power = CyclotomicNumber(d, [1])
        for a in range(1, d + 1):
            power = power * z
            assert power == CyclotomicNumber.root_of_unity(d, a)
        assert power == 1
        for a in range(2 * d):
            for b in range(2 * d):
                equal = CyclotomicNumber.root_of_unity(d, a) == \
                    CyclotomicNumber.root_of_unity(d, b)
                assert equal == ((a - b) % d == 0)


def test_rational_embedding():
    x = CyclotomicNumber(5, [Fraction(3, 7)])
    assert x.is_rational()
    assert x == Fraction(3, 7)
    assert x + x == Fraction(6, 7)


def test_sum_of_all_roots_is_zero():
    for d in range(2, 10):
        total = CyclotomicNumber(d, [])
        for a in range(d):
            total = total + CyclotomicNumber.root_of_unity(d, a)
        assert total.is_zero()


def test_inverse():
    for d in range(1, 9):
        for a in range(d):
            z = CyclotomicNumber.root_of_unity(d, a)
            assert z * z.inverse() == 1
            assert CyclotomicNumber.root_of_unity(d, -a) == z.inverse()
    x = CyclotomicNumber(5, [1, 2, 0, 1])
    assert x * x.inverse() == 1
    assert (1 / x) * x == 1


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber(4, []).inverse()


def test_order_mixing_rejected():
    a = CyclotomicNumber.root_of_unity(3)
    b = CyclotomicNumber.root_of_unity(4)
    with pytest.raises(ValueError):
        a + b


def test_hash_consistency():
    a = CyclotomicNumber.root_of_unity(4, 1)
    b = CyclotomicNumber(4, [0, 1])
    assert a == b and hash(a) == hash(b)


small_rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6)


@given(st.integers(min_value=1, max_value=8),
       st.lists(small_rationals, min_size=0, max_size=4),
       st.lists(small_rationals, min_size=0, max_size=4),
       st.lists(small_rationals, min_size=0, max_size=4))
def test_field_axioms(d, xs, ys, zs):
    x = CyclotomicNumber(d, xs)
    y = CyclotomicNumber(d, ys)
    z = CyclotomicNumber(d, zs)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x - x == 0
    if not y.is_zero():
        assert (x / y) * y == x


def test_rational_elements_hash_like_fractions():
    assert len({CyclotomicNumber(5, [1]), 1}) == 1
    x = CyclotomicNumber(7, [Fraction(3, 7)])
    assert hash(x) == hash(Fraction(3, 7))
    assert hash(CyclotomicNumber(4, [])) == hash(0)
    assert hash(CyclotomicNumber.root_of_unity(4, 2)) == hash(-1)


def test_rationals_equal_across_orders():
    assert CyclotomicNumber(5, [1]) == CyclotomicNumber(3, [1])
    assert CyclotomicNumber.root_of_unity(2) == CyclotomicNumber.root_of_unity(4, 2)
    assert CyclotomicNumber.root_of_unity(3) != CyclotomicNumber.root_of_unity(6, 2)
    assert len({CyclotomicNumber(5, [1]), CyclotomicNumber(3, [1]), 1}) == 1


def test_canonical_form_independent_of_route():
    # 1/2 + zeta/2 in Q(zeta_3), built four ways
    d = 3
    z = CyclotomicNumber.root_of_unity(d)
    routes = [
        CyclotomicNumber(d, [Fraction(1, 2), Fraction(1, 2)]),
        CyclotomicNumber(d, [2, 2, 0, 0, 0, 0]) / 4,
        (z + 1) * Fraction(1, 2),
        -(z * z) / 2,  # 1 + zeta + zeta^2 = 0
        ((z + 1).inverse() * 2).inverse(),
    ]
    keys = {(r.den, r.nums) for r in routes}
    assert keys == {(2, (1, 1))}
    assert CyclotomicNumber(5, []).den == 1
    assert (z - z).nums == (0, 0) and (z - z).den == 1


def test_arithmetic_builds_no_fraction(monkeypatch):
    x = CyclotomicNumber(5, [Fraction(1, 3), 2, Fraction(-4, 9)])
    y = CyclotomicNumber(5, [Fraction(2, 5), 0, 1, Fraction(1, 7)])
    half = Fraction(1, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction built during arithmetic")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    x * y, x + y, x - y, y - x, x * half, x + half, half - x, 3 * x, x + 1
    assert x == x and x != y and x != half and x != 1

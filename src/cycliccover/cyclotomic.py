"""Exact arithmetic in the cyclotomic field Q(zeta_d).

An element is stored in one canonical form: integer numerators
(nums[0], ..., nums[phi(d) - 1]) over one positive integer denominator den,
with gcd(den, *nums) == 1, standing for sum_i (nums[i] / den) * zeta^i.
The polynomial is reduced modulo the monic d-th cyclotomic polynomial, so
zeta^a == zeta^b exactly when a = b mod d.  Elements are built by
power_sum only, which takes integer coefficients of any length over one
denominator and reduces them once; the class has no constructor and no
arithmetic, only equality and hashing, which compare tuples, and
printing.  The program forms its values on integer vectors and multiplies
no elements; the field product the tests check them against lives in
tests/fieldref.py.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Integer coefficients (constant term first) of the d-th cyclotomic
    polynomial, computed by dividing x^d - 1 by the proper-divisor ones."""
    if d < 1:
        raise ValueError(f"order must be >= 1, got {d}")
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly, rem = _divmod_monic(poly, cyclotomic_polynomial(e))
            assert not any(rem)
    return tuple(poly)


def _divmod_monic(num: list[int], mod: tuple[int, ...]):
    """Quotient and remainder (length deg mod) of integer polynomials,
    `mod` monic."""
    n = len(mod) - 1
    rem = list(num) + [0] * (n - len(num))
    quot = [0] * max(len(rem) - n, 0)
    low = [(i, c) for i, c in enumerate(mod[:n]) if c]
    for k in range(len(rem) - 1, n - 1, -1):
        t = rem[k]
        if t:
            quot[k - n] = t
            for i, c in low:
                rem[k - n + i] -= t * c
    del rem[n:]
    return quot, rem


@lru_cache(maxsize=None)
def _field(order: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(n, low): the degree phi(order) and the reduction rule, x^n =
    -sum(c * x^i for i, c in low) modulo Phi_order."""
    phi = cyclotomic_polynomial(order)
    n = len(phi) - 1
    return n, tuple((i, c) for i, c in enumerate(phi[:n]) if c)


def _reduce(v: list[int], field: tuple) -> list[int]:
    """v reduced (or zero-padded) in place to length n modulo Phi."""
    n, low = field
    v += [0] * (n - len(v))
    for k in range(len(v) - 1, n - 1, -1):
        t = v[k]
        if t:
            for i, c in low:
                v[k - n + i] -= t * c
    del v[n:]
    return v


_set = object.__setattr__


def _make(order: int, den: int, nums) -> "CyclotomicNumber":
    """The element nums / den (den > 0) in canonical form: divide out the
    gcd."""
    g = gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [x // g for x in nums]
    obj = object.__new__(CyclotomicNumber)
    _set(obj, "order", order)
    _set(obj, "den", den)
    _set(obj, "nums", tuple(nums))
    return obj


def power_sum(order: int, den: int, coeffs) -> "CyclotomicNumber":
    """sum_i coeffs[i] * zeta^i / den for integer coeffs of any length and
    an integer den > 0: one reduction modulo Phi_order.  A vector indexed
    by exponents mod order (zeta^order = 1) reduces the same way."""
    return _make(order, den, _reduce(list(coeffs), _field(order)))


class CyclotomicNumber:
    """An element of Q(zeta_d), immutable and hashable; build one with
    power_sum."""

    __slots__ = ("order", "den", "nums")

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("CyclotomicNumber is immutable")

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            if self.order == other.order:
                return self.den == other.den and self.nums == other.nums
            # distinct orders share only the rationals
            return (self.is_rational() and other.is_rational()
                    and self.den == other.den
                    and self.nums[0] == other.nums[0])
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator
                    and self.nums[0] == other.numerator
                    and not any(self.nums[1:]))
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.order, self.den, self.nums))

    def __bool__(self):
        return any(self.nums)

    def __repr__(self):
        return f"CyclotomicNumber(order={self.order}, {self})"

    def __str__(self):
        parts, den = [], self.den
        for i, c in enumerate(self.nums):
            if c == 0:
                continue
            g = gcd(c, den)  # c / den in lowest terms, as Fraction prints it
            c = str(c // g) if g == den else f"{c // g}/{den // g}"
            if i == 0:
                parts.append(c)
            elif i == 1:
                parts.append(f"{c}*z" if c != "1" else "z")
            else:
                parts.append(f"{c}*z^{i}" if c != "1" else f"z^{i}")
        return " + ".join(parts) if parts else "0"

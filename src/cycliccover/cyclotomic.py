"""Exact arithmetic in the cyclotomic field Q(zeta_d).

An element is stored in one canonical form: integer numerators
(nums[0], ..., nums[phi(d) - 1]) over one positive integer denominator den,
with gcd(den, *nums) == 1, standing for sum_i (nums[i] / den) * zeta^i.
The polynomial is reduced modulo the monic d-th cyclotomic polynomial, so
zeta^a == zeta^b exactly when a = b mod d.  Arithmetic is integer
convolution and integer reduction; equality and hashing compare tuples.
No floating point anywhere.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

Rational = int | Fraction


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


class _Field:
    """Per-order constants: the reduction rule and the powers of zeta."""

    __slots__ = ("n", "low", "powers", "conjugators", "zero")

    def __init__(self, order: int):
        phi = cyclotomic_polynomial(order)
        n = len(phi) - 1
        self.n = n
        # x^n = -sum(c * x^i for i, c in low) modulo Phi_order
        self.low = tuple((i, c) for i, c in enumerate(phi[:n]) if c)
        self.powers = tuple(
            tuple(_divmod_monic([0] * p + [1], phi)[1]) for p in range(order))
        # sigma_k: zeta -> zeta^k for the units k mod order other than 1
        self.conjugators = tuple(
            k for k in range(2, order) if gcd(k, order) == 1)
        self.zero = (0,) * n


@lru_cache(maxsize=None)
def _field(order: int) -> _Field:
    return _Field(order)


def _mul_reduce(a, b, field: _Field) -> list[int]:
    """The integer polynomial a * b reduced modulo Phi."""
    n = field.n
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    low = field.low
    for k in range(2 * n - 2, n - 1, -1):
        t = prod[k]
        if t:
            for i, c in low:
                prod[k - n + i] -= t * c
    del prod[n:]
    return prod


_set = object.__setattr__


def _fill(obj, order: int, den: int, nums):
    """Store nums / den (den > 0) in canonical form: divide out the gcd."""
    g = gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [x // g for x in nums]
    _set(obj, "order", order)
    _set(obj, "den", den)
    _set(obj, "nums", tuple(nums))
    return obj


def _make(order: int, den: int, nums) -> "CyclotomicNumber":
    return _fill(object.__new__(CyclotomicNumber), order, den, nums)


class CyclotomicNumber:
    """An element of Q(zeta_d), immutable and hashable."""

    __slots__ = ("order", "den", "nums")

    def __init__(self, order: int, coeffs: Iterable[Rational]):
        phi = cyclotomic_polynomial(order)
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fracs))
        _, nums = _divmod_monic(
            [f.numerator * (den // f.denominator) for f in fracs], phi)
        _fill(self, order, den, nums)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("CyclotomicNumber is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "CyclotomicNumber":
        return cls(order, [])

    @classmethod
    def one(cls, order: int) -> "CyclotomicNumber":
        return cls(order, [1])

    @classmethod
    def from_rational(cls, order: int, value: Rational) -> "CyclotomicNumber":
        return cls(order, [value])

    @classmethod
    def root_of_unity(cls, order: int, power: int = 1) -> "CyclotomicNumber":
        """zeta_d^power, any integer power."""
        return _make(order, 1, _field(order).powers[power % order])

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        """other as an element of this field; None for a foreign type."""
        if isinstance(other, CyclotomicNumber):
            if other.order != self.order:
                raise ValueError(
                    f"mixed root orders {self.order} and {other.order}")
            return other
        if isinstance(other, (int, Fraction)):
            nums = [0] * len(self.nums)
            nums[0] = other.numerator
            return _make(self.order, other.denominator, nums)
        return None

    def _add(self, other, sign: int):
        """self + sign * other, or NotImplemented for a foreign type."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        g = gcd(self.den, other.den)
        ma, mb = other.den // g, self.den // g
        nums = [x * ma + sign * y * mb for x, y in zip(self.nums, other.nums)]
        return _make(self.order, self.den * ma, nums)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, self.den, [-x for x in self.nums])

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self)._add(other, 1)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _make(self.order, self.den * other.den,
                     _mul_reduce(self.nums, other.nums, _field(self.order)))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """1/x as the product of the Galois conjugates sigma_k(x), k a unit
        mod d other than 1, divided by the rational norm N(x)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        field = _field(self.order)
        nums, powers, order = self.nums, field.powers, self.order
        conj = list(field.zero)
        conj[0] = 1
        for k in field.conjugators:
            sigma = [0] * field.n
            for i, x in enumerate(nums):
                if x:
                    for j, z in enumerate(powers[i * k % order]):
                        sigma[j] += x * z
            conj = _mul_reduce(conj, sigma, field)
        # nums * conj is the norm of the numerator, a nonzero integer
        norm = _mul_reduce(nums, conj, field)[0]
        scale = self.den if norm > 0 else -self.den
        return _make(order, abs(norm), [x * scale for x in conj])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

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
        parts = []
        for i, c in enumerate(self.nums):
            if c == 0:
                continue
            c = Fraction(c, self.den)
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z" if c != 1 else "z")
            else:
                parts.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        return " + ".join(parts) if parts else "0"

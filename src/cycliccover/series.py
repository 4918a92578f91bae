"""Multivariate polynomials truncated at a total-degree bound.

A TruncatedSeries models a jet: an element of O/m^K, i.e. only terms of
total degree strictly below the bound K are kept, and multiplication
closes under the truncation.  Coefficients are exact (Fraction or
CyclotomicNumber); equality of jets is literal equality of term maps.
Terms are validated once, where a series is built from outside; results of
arithmetic are valid by construction and skip the checks.  One routine,
collect_terms, sums the terms of +, * and the ramified reassembly.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import chain
from operator import add

Exponents = tuple[int, ...]


def _make(variables, bound: int, terms) -> "TruncatedSeries":
    """A series from terms already valid for (variables, bound); unchecked."""
    series = object.__new__(TruncatedSeries)
    object.__setattr__(series, "variables", variables)
    object.__setattr__(series, "bound", bound)
    object.__setattr__(series, "terms", terms)
    return series


def collect_terms(variables: tuple[str, ...], bound: int,
                  pairs: Iterable[tuple[Exponents, object]]) -> "TruncatedSeries":
    """Sum (exponents, coefficient) pairs mod m^bound: equal exponents add up
    from their first coefficient; degrees >= bound and zero sums drop out.
    Unchecked: exponents must fit the variables, none negative, bound >= 0."""
    out: dict[Exponents, object] = {}
    for exps, c in pairs:
        if sum(exps) < bound:
            prev = out.get(exps)
            out[exps] = c if prev is None else prev + c
    return _make(variables, bound, {e: c for e, c in out.items() if c != 0})


class TruncatedSeries:
    __slots__ = ("variables", "bound", "terms")

    def __init__(self, variables: Iterable[str], bound: int,
                 terms: Mapping[Exponents, object] | None = None):
        variables = tuple(variables)
        if bound < 0:
            raise ValueError(f"truncation bound must be >= 0, got {bound}")
        clean: dict[Exponents, object] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValueError(
                    f"exponent tuple {exps} does not match variables {variables}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if sum(exps) >= bound:
                raise ValueError(
                    f"term {exps} has total degree >= bound {bound}")
            if coeff != 0:
                clean[exps] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str], bound: int) -> "TruncatedSeries":
        return _make(tuple(variables), bound, {})

    @classmethod
    def monomial(cls, variables: Iterable[str], bound: int,
                 exponents: Exponents, coeff=Fraction(1)) -> "TruncatedSeries":
        return cls(variables, bound, {tuple(exponents): coeff})

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max total degree of a stored term; -1 for the zero series."""
        return max((sum(e) for e in self.terms), default=-1)

    def coefficient(self, exponents: Exponents):
        return self.terms.get(tuple(exponents), 0)

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries"):
        if self.variables != other.variables:
            raise ValueError(
                f"variable mismatch: {self.variables} vs {other.variables}")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        return collect_terms(self.variables, min(self.bound, other.bound),
                             chain(self.terms.items(), other.terms.items()))

    def __neg__(self):
        return _make(self.variables, self.bound,
                     {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        self._check_compatible(other)
        bound = min(self.bound, other.bound)
        # a product past the bound is skipped before its coefficients multiply
        return collect_terms(self.variables, bound, (
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items() if sum(e1) + sum(e2) < bound))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar) -> "TruncatedSeries":
        return _make(self.variables, self.bound, {} if scalar == 0 else
                     {e: scalar * c for e, c in self.terms.items()})

    def truncate(self, bound: int) -> "TruncatedSeries":
        """Image in O/m^bound (drop terms of total degree >= bound)."""
        return _make(self.variables, bound,
                     {e: c for e, c in self.terms.items() if sum(e) < bound})

    def with_bound(self, bound: int) -> "TruncatedSeries":
        """Reinterpret at a larger bound (a lift: same terms)."""
        if bound < self.bound:
            raise ValueError("use truncate() to lower the bound")
        return _make(self.variables, bound, dict(self.terms))

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.variables == other.variables
                and self.bound == other.bound
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.variables, self.bound,
                     frozenset(self.terms.items())))

    def __repr__(self):
        if self.is_zero():
            body = "0"
        else:
            parts = []
            for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
                mono = "*".join(f"{v}^{p}" if p > 1 else v
                                for v, p in zip(self.variables, exps) if p)
                coeff = self.terms[exps]
                parts.append(f"({coeff})*{mono}" if mono else f"({coeff})")
            body = " + ".join(parts)
        return f"<{body} mod deg {self.bound}>"

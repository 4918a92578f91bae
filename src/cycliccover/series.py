"""Multivariate polynomials truncated at a total-degree bound.

A TruncatedSeries models a jet: an element of O/m^K, i.e. only terms of
total degree strictly below the bound K are kept.  Coefficients are exact
(Fraction or CyclotomicNumber); equality of jets is literal equality of
term maps.  A series is a namedtuple value class (variables, bound, terms),
so no field can be assigned; it keeps a __hash__ of its own, since terms
is a dict (a plain tuple equal to a series holds that dict, so it has no
hash to disagree with).  The series carries no ring arithmetic: the local
model builds each coefficient itself and hands the terms to collect_terms,
which keeps those below the bound with a nonzero coefficient.  Terms are
validated once, in __new__, where a series is built from outside;
collect_terms and truncate build valid series and skip the checks.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping

Exponents = tuple[int, ...]


def _make(variables, bound: int, terms) -> "TruncatedSeries":
    """A series from terms already valid for (variables, bound); unchecked."""
    return tuple.__new__(TruncatedSeries, (variables, bound, terms))


def collect_terms(variables: tuple[str, ...], bound: int,
                  pairs: Iterable[tuple[Exponents, object]]) -> "TruncatedSeries":
    """The series of (exponents, coefficient) pairs mod m^bound: terms of
    degree >= bound and zero coefficients drop out.  Unchecked: the
    exponents must be distinct, fit the variables and be nonnegative, and
    bound >= 0."""
    return _make(variables, bound, {e: c for e, c in pairs
                                    if sum(e) < bound and c != 0})


class TruncatedSeries(namedtuple("TruncatedSeries", "variables bound terms")):
    __slots__ = ()

    def __new__(cls, variables: Iterable[str], bound: int,
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
        return _make(variables, bound, clean)

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max total degree of a stored term; -1 for the zero series."""
        return max((sum(e) for e in self.terms), default=-1)

    # -- truncation ----------------------------------------------------------

    def truncate(self, bound: int) -> "TruncatedSeries":
        """Image in O/m^bound (drop terms of total degree >= bound); at a
        larger bound, the lift with the same terms."""
        return _make(self.variables, bound,
                     {e: c for e, c in self.terms.items() if sum(e) < bound})

    # -- hashing / display -----------------------------------------------------

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

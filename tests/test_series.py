from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cycliccover.localmodel import decompose_jet_ramified, reassemble_ramified
from cycliccover.series import TruncatedSeries, collect_terms
from fieldref import element

U = ("u1", "u2")


def s(bound, terms):
    return TruncatedSeries(U, bound, {e: Fraction(c) for e, c in terms.items()})


def test_rejects_terms_at_or_above_bound():
    with pytest.raises(ValueError):
        s(2, {(1, 1): 1})
    with pytest.raises(ValueError):
        s(2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        TruncatedSeries(U, 2, {(1,): Fraction(1)})


def test_zero_coefficients_dropped():
    assert s(3, {(1, 0): 0}).is_zero()


def test_truncate_and_lift():
    a = s(5, {(3, 0): 1, (1, 0): 1})
    assert a.truncate(2) == s(2, {(1, 0): 1})
    lifted = a.truncate(2).truncate(4)
    assert lifted.bound == 4 and lifted.terms == {(1, 0): Fraction(1)}


def test_collect_terms_filters():
    # distinct exponents: terms at or past the bound and zeros drop out,
    # the rest keep their coefficients
    z = element(3, [0, 1])
    got = collect_terms(U, 3, [((0, 0), Fraction(2)), ((2, 1), Fraction(5)),
                               ((2, 0), Fraction(0)), ((0, 1), z),
                               ((1, 0), element(3, [1, 1, 1]))])
    assert got.terms == {(0, 0): Fraction(2), (0, 1): z}
    assert got == TruncatedSeries(U, 3, {(0, 0): Fraction(2), (0, 1): z})
    assert collect_terms(U, 0, [((0, 0), Fraction(1))]).is_zero()


def test_total_degree():
    assert TruncatedSeries(U, 4).total_degree() == -1
    assert s(4, {(2, 1): 3}).total_degree() == 3


def test_every_route_to_one_jet_gives_one_value():
    terms = {(0, 0): Fraction(2), (1, 1): Fraction(-1, 2), (0, 2): Fraction(3)}
    built = s(3, terms)
    collected = collect_terms(U, 3, [((2, 1), Fraction(7)), *terms.items(),
                                     ((1, 0), Fraction(0))])
    truncated = s(5, {**terms, (3, 0): Fraction(1), (2, 2): Fraction(4)}
                  ).truncate(3)
    for other in (collected, truncated):
        assert other == built and hash(other) == hash(built)
        assert (other.variables, other.bound, other.terms) == (U, 3, terms)
    assert len({built, collected, truncated}) == 1


def test_fields_cannot_be_assigned():
    a = s(3, {(1, 0): 1})
    for field in ("variables", "bound", "terms"):
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
    assert a == s(3, {(1, 0): 1})


def test_repr_is_pinned():
    a = s(4, {(0, 2): 1, (1, 1): Fraction(-1, 2), (0, 0): 2, (3, 0): 5,
              (1, 0): 0})
    assert repr(a) == "<(2) + (1)*u2^2 + (-1/2)*u1*u2 + (5)*u1^3 mod deg 4>"
    assert repr(TruncatedSeries(U, 4)) == "<0 mod deg 4>"


# -- built series keep the constructor's invariants ------------------------------


def assert_valid(series):
    """What the TruncatedSeries constructor enforces, checked on a built
    series."""
    for exps, coeff in series.terms.items():
        assert len(exps) == len(series.variables)
        assert min(exps) >= 0
        assert sum(exps) < series.bound
        assert coeff != 0


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def coefficient_kinds(draw):
    """Fractions, or elements of one cyclotomic field (zero included)."""
    order = draw(st.sampled_from([None, 3, 4, 6]))
    if order is None:
        return rationals
    return st.lists(rationals, max_size=3).map(
        lambda cs: element(order, cs))


@st.composite
def series_with(draw, coeffs, variables=U):
    bound = draw(st.integers(0, 6))
    exps = [(i, j) for i in range(bound) for j in range(bound - i)]
    chosen = draw(st.lists(st.sampled_from(exps), unique=True)) if exps else []
    return TruncatedSeries(variables, bound, {e: draw(coeffs) for e in chosen})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_arithmetic_results_keep_constructor_invariants(data):
    coeffs = data.draw(coefficient_kinds())
    a = data.draw(series_with(coeffs))
    d = data.draw(st.integers(1, 4))
    down = data.draw(st.lists(
        series_with(coeffs, variables=("v1", "u2")), min_size=d, max_size=d))
    # distinct exponents of any degree, zero coefficients included
    pairs = data.draw(st.dictionaries(
        st.tuples(st.integers(0, 7), st.integers(0, 7)), coeffs, max_size=8))
    results = [collect_terms(U, data.draw(st.integers(0, 8)), pairs.items()),
               a.truncate(data.draw(st.integers(0, 8))),
               reassemble_ramified(decompose_jet_ramified(a, d), d, U, a.bound),
               reassemble_ramified(down, d, U, data.draw(st.integers(0, 8)))]
    results += decompose_jet_ramified(a, d)
    for result in results:
        assert_valid(result)

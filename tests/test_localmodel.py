import itertools
import math
import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from cycliccover.cyclotomic import power_sum
from cycliccover.engine import (
    CoveringScenario, PositivityProfile, max_guaranteed_jet_order)
from cycliccover.cli import TRUNCATION_CAP
from cycliccover.errors import SingularSystemError
from cycliccover.localmodel import (
    SectionDecomposition,
    _lagrange,
    _over_one_minus,
    case2_construct,
    case3_construct,
    decompose_jet_ramified,
    evaluate_at_orbit_point,
    reassemble_ramified,
    run_case2_trial,
    vandermonde_residual,
    vandermonde_sweep,
)
from cycliccover.series import TruncatedSeries, collect_terms
from fieldref import element, field_sum, lift, product, root

U = ("u1", "u2")


def rational_series(bound, terms):
    return TruncatedSeries(U, bound, {e: Fraction(c) for e, c in terms.items()})


def series_sum(d, variables, bound, pairs):
    """The series of (exponents, coefficient) pairs mod m^bound, the
    coefficients of equal exponents added by field_sum."""
    by_exps = {}
    for exps, c in pairs:
        by_exps.setdefault(exps, []).append(c)
    return collect_terms(variables, bound, (
        (exps, field_sum(d, cs)) for exps, cs in by_exps.items()))


def scale(d, series, c):
    """c * series, c in Q(zeta_d)."""
    return series_sum(d, series.variables, series.bound, (
        (exps, product(lift(d, c), lift(d, x)))
        for exps, x in series.terms.items()))


def product_terms(d, a, b):
    """The (exponents, coefficient) pairs of the product a * b, untruncated."""
    return [(tuple(map(add, e1, e2)), product(lift(d, c1), lift(d, c2)))
            for e1, c1 in a.terms.items() for e2, c2 in b.terms.items()]


def apply_deck(decomposition):
    """The deck transformation scales the q-th summand by zeta_d^q."""
    d = decomposition.d
    return SectionDecomposition(d, tuple(
        scale(d, comp, root(d, q))
        for q, comp in enumerate(decomposition.components)))


def add_decompositions(a, b):
    return SectionDecomposition(a.d, tuple(
        series_sum(a.d, U, min(x.bound, y.bound),
                   [*x.terms.items(), *y.terms.items()])
        for x, y in zip(a.components, b.components)))


def multiply_decompositions(a, b):
    """Product with the unbranched convention t^d = 1 (indices wrap mod d)."""
    d = a.d
    bound = min(c.bound for c in a.components + b.components)
    out = [[] for _ in range(d)]
    for q, cq in enumerate(a.components):
        for p, cp in enumerate(b.components):
            out[(q + p) % d] += product_terms(d, cq, cp)
    return SectionDecomposition(d, tuple(
        series_sum(d, U, bound, pairs) for pairs in out))


def lagrange_column(d, nodes, r):
    """Column r of the inverse Vandermonde matrix, reduced to field elements."""
    den, vectors = _lagrange(d, nodes, r)
    return [power_sum(d, den, v) for v in vectors]


def lagrange_residual(d, nodes, r, alphas):
    """Row j of the Vandermonde system at the nodes, minus delta(j, r): a
    sum of field products, the reference for the rotated and
    once-reduced rows of vandermonde_residual."""
    return [field_sum(d, [product(root(d, c * node), lift(d, alpha))
                          for c, alpha in enumerate(alphas)]
                      + [-1 if j == r else 0])
            for j, node in enumerate(nodes)]


# -- Vandermonde separation ----------------------------------------------------


def test_vandermonde_single_point():
    assert vandermonde_sweep(3)[0] == (element(3, [1]),)


def test_vandermonde_degree_two():
    assert vandermonde_sweep(2)[1] == (element(2, [Fraction(1, 2)]),) * 2


def test_vandermonde_full_fiber_is_dft():
    # All d points: the solution is the discrete-Fourier coefficient row.
    for d in range(1, 7):
        betas = list(range(1, d))
        alphas = vandermonde_sweep(d)[-1]
        for r in vandermonde_residual(d, betas, alphas):
            assert r.is_zero()
        expected = element(d, [Fraction(1, d)])
        assert alphas[0] == expected


def test_vandermonde_sweep_matches_lagrange_columns():
    # Each sweep step is column 0 at the nodes 0..l-1: checked by field
    # products, since the sweep and _lagrange share one kernel.
    for d in range(1, 13):
        sweep = vandermonde_sweep(d)
        assert len(sweep) == d
        for l, alphas in enumerate(sweep, 1):
            assert len(alphas) == l
            for r in lagrange_residual(d, list(range(l)), 0, alphas):
                assert r.is_zero()


def test_vandermonde_other_rhs_indices():
    # Every Lagrange column, not only the column 0 that the sweep
    # returns: 1,024 solves for d <= 8, and 25 seeded node sets at each of
    # d = 9 and 10, where an offset sharing a factor with d (3 | 9, 2 or
    # 5 | 10) makes _over_one_minus walk several cycles.
    rng = random.Random(9010)
    fibers = [(d, [0, *betas]) for d in range(1, 9) for size in range(d)
              for betas in itertools.combinations(range(1, d), size)]
    fibers += [(d, rng.sample(range(d), rng.randint(2, d)))
               for d in (9, 10) for _ in range(25)]
    for d, nodes in fibers:
        for rhs in range(len(nodes)):
            alphas = lagrange_column(d, nodes, rhs)
            for r in lagrange_residual(d, nodes, rhs, alphas):
                assert r.is_zero()


def test_vandermonde_residual_matches_product_reference():
    # Every l <= d <= 10 at the CLI's nodes, exact and with zeta^c / 7
    # added to alpha_c: the perturbed system leaves some row nonzero.
    for d in range(1, 11):
        for l, alphas in enumerate(vandermonde_sweep(d), 1):
            betas = list(range(1, l))
            nodes = [0, *betas]
            got = vandermonde_residual(d, betas, alphas)
            assert got == tuple(lagrange_residual(d, nodes, 0, alphas))
            assert all(r.is_zero() for r in got)
            for c in range(l):
                bent = list(alphas)
                bent[c] = field_sum(d, [bent[c],
                                        power_sum(d, 7, [0] * c + [1])])
                got = vandermonde_residual(d, betas, bent)
                assert got == tuple(lagrange_residual(d, nodes, 0, bent))
                assert not all(r.is_zero() for r in got)


def test_vandermonde_residual_rejects_alphas_of_another_order():
    with pytest.raises(ValueError):
        vandermonde_residual(4, [1], vandermonde_sweep(3)[1])


def test_vandermonde_residual_needs_one_alpha_per_node():
    # One node, two unknowns: the system is not the separation system.
    with pytest.raises(ValueError):
        vandermonde_residual(3, [], [1, 0])
    with pytest.raises(ValueError):
        vandermonde_residual(3, [1, 2], [1, 0])


def test_vandermonde_residual_rejects_repeated_nodes():
    with pytest.raises(SingularSystemError):
        vandermonde_residual(3, [3], [1, 0])  # 3 = 0 mod 3
    with pytest.raises(SingularSystemError):
        vandermonde_residual(5, [2, 7], [1, 0, 0])


def test_over_one_minus_times_one_minus_is_e():
    # (1 - zeta^m) * v == e * c through the field product, for random c.
    rng = random.Random(17)
    for d in range(2, 13):
        for m in range(1, d):
            for _ in range(3):
                c = [rng.randint(-20, 20) for _ in range(d)]
                e, (v,) = _over_one_minus(d, m, [c])
                assert e == d // math.gcd(d, m)
                one_minus = element(d, [1] + [0] * (m - 1) + [-1])
                assert product(one_minus, power_sum(d, e, v)) == \
                    power_sum(d, 1, c)


def test_vandermonde_repeated_betas_rejected():
    jet = rational_series(2, {(0, 0): 1})
    with pytest.raises(SingularSystemError):
        case2_construct(4, [0, 1, 1], [jet] * 3, [2] * 3)
    with pytest.raises(SingularSystemError):
        case2_construct(4, [0, 4], [jet] * 2, [2] * 2)  # 4 = 0 mod 4
    with pytest.raises(ValueError):
        # more points than the fiber holds
        case2_construct(2, [0, 1, 2, 3], [jet] * 4, [2] * 4)


# -- fiber separation construction --------------------------------------------


def test_case2_single_point_degenerates():
    jet = rational_series(3, {(1, 0): 2, (0, 0): 1})
    section = case2_construct(4, [0], [jet], [3])
    assert evaluate_at_orbit_point(section, 0).truncate(3) == jet
    assert all(c.is_zero() for c in section.components[1:])


def test_case2_jet_and_zero():
    jet = rational_series(2, {(0, 0): 1, (1, 0): 1})
    zero = TruncatedSeries(U, 2)
    section = case2_construct(2, [0, 1], [jet, zero], [2, 2])
    assert evaluate_at_orbit_point(section, 0).truncate(2) == jet
    assert evaluate_at_orbit_point(section, 1).truncate(2).is_zero()


def test_case2_three_points_degree_five():
    rng = random.Random(2718)
    jets = []
    for _ in range(3):
        terms = {e: Fraction(rng.randint(-5, 5))
                 for e in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]}
        jets.append(rational_series(3, terms))
    betas = [0, 2, 3]
    section = case2_construct(5, betas, jets, [3, 3, 3])
    for beta, jet in zip(betas, jets):
        assert evaluate_at_orbit_point(section, beta).truncate(3) == jet


def test_case2_randomized_trials():
    rng = random.Random(424242)
    for _ in range(200):
        assert run_case2_trial(rng)["prescriptions_met"]


def test_case2_validation():
    jet = rational_series(2, {(0, 0): 1})
    with pytest.raises(ValueError):
        case2_construct(3, [0, 1], [jet], [2])
    with pytest.raises(ValueError):
        case2_construct(3, [0], [jet], [0])
    with pytest.raises(SingularSystemError):
        case2_construct(3, [0, 3], [jet, jet], [2, 2])


def test_case2_rejects_jets_in_other_variables():
    jet = rational_series(2, {(0, 0): 1})
    other = TruncatedSeries(("v1", "u2"), 2, {(1, 0): Fraction(1)})
    with pytest.raises(ValueError, match="variable mismatch"):
        case2_construct(3, [0, 1], [jet, other], [2, 2])
    empty = TruncatedSeries(("x",), 2)
    with pytest.raises(ValueError, match="variable mismatch"):
        case2_construct(3, [0, 1], [jet, empty], [2, 2])


def test_case2_cyclotomic_jets():
    # Coefficients in Q(zeta_d) are prescribed and met like rational ones;
    # a coefficient of another root order is refused.
    rng = random.Random(5)
    for d in (3, 4, 5, 6, 9):
        z = element(d, [0, 1])
        betas = [0, -1, d + 1]
        jets = [TruncatedSeries(U, 3, {
            (0, 0): field_sum(d, [product(z, lift(d, rng.randint(1, 4))),
                                  Fraction(1, rng.randint(1, 5))]),
            (1, 1): element(d, [Fraction(rng.randint(-3, 3), 7)] * d),
            (0, 2): Fraction(rng.randint(-5, 5), 3)}) for _ in betas]
        section = case2_construct(d, betas, jets, [3, 2, 3])
        for beta, jet, order in zip(betas, jets, [3, 2, 3]):
            assert evaluate_at_orbit_point(section, beta).truncate(order) \
                == jet.truncate(order)
    foreign = TruncatedSeries(U, 2, {(0, 0): element(5, [0, 1])})
    with pytest.raises(ValueError, match="mixed root orders"):
        case2_construct(3, [0, 1], [foreign, foreign], [2, 2])
    with pytest.raises(ValueError, match="mixed root orders"):
        evaluate_at_orbit_point(SectionDecomposition(2, (foreign, foreign)), 1)


def reference_case2(d, betas, jets, orders):
    """Components by scaling each lifted jet by its Lagrange column and
    adding series, the reference for case2_construct's rotated sums."""
    bound = max(orders)
    nodes = [b % d for b in betas]
    pairs = [[] for _ in range(d)]
    for i, jet in enumerate(jets):
        lifted = jet.truncate(orders[i])
        for q, alpha in enumerate(lagrange_column(d, nodes, i)):
            pairs[q] += scale(d, lifted, alpha).terms.items()
    return tuple(series_sum(d, jets[0].variables, bound, p) for p in pairs)


def reference_evaluate(decomposition, beta):
    """sum_q zeta^(q*beta) * components[q] by field products and
    series_sum, the reference for evaluate_at_orbit_point."""
    d, comps = decomposition.d, decomposition.components
    return series_sum(d, comps[0].variables, min(c.bound for c in comps), (
        (exps, product(root(d, q * beta), lift(d, coeff)))
        for q, comp in enumerate(comps) for exps, coeff in comp.terms.items()))


def random_coefficient(data, d):
    """A nonzero rational, or an element of Q(zeta_d)."""
    fracs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    if data.draw(st.booleans()):
        return data.draw(fracs.filter(bool))
    return element(d, data.draw(st.lists(fracs, min_size=1, max_size=d)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_case2_and_evaluation_match_product_reference(data):
    d = data.draw(st.integers(2, 10))
    l = data.draw(st.integers(1, d))
    # residues mod d, moved by multiples of d: negative betas and betas >= d
    betas = [r + d * data.draw(st.integers(-2, 2))
             for r in data.draw(st.permutations(range(d)))[:l]]
    orders = [data.draw(st.integers(1, 4)) for _ in betas]
    jets = []
    for order in orders:
        bound = data.draw(st.integers(1, 5))
        exps = data.draw(st.lists(st.sampled_from(
            [(a, b) for a in range(bound) for b in range(bound - a)]),
            max_size=6, unique=True))
        jets.append(TruncatedSeries(
            U, bound, {e: random_coefficient(data, d) for e in exps}))
    section = case2_construct(d, betas, jets, orders)
    assert section.components == reference_case2(d, betas, jets, orders)
    for beta in betas + [data.draw(st.integers(-3 * d, 3 * d))]:
        assert evaluate_at_orbit_point(section, beta) == \
            reference_evaluate(section, beta)
    # components of unequal bounds: terms at or above the least drop out
    mixed = SectionDecomposition(d, tuple(
        TruncatedSeries(U, bound, {e: c for e, c in comp.terms.items()
                                   if sum(e) < bound})
        for comp in section.components
        for bound in [data.draw(st.integers(0, 5))]))
    beta = data.draw(st.integers(-3 * d, 3 * d))
    assert evaluate_at_orbit_point(mixed, beta) == \
        reference_evaluate(mixed, beta)


# -- orbit evaluation and deck action -------------------------------------------


def test_section_decomposition_refusals():
    one = rational_series(2, {(0, 0): 1})
    with pytest.raises(ValueError, match="degree must be >= 1, got 0"):
        SectionDecomposition(0, ())
    with pytest.raises(ValueError, match="need exactly d=3 components"):
        SectionDecomposition(3, (one, one))
    with pytest.raises(ValueError, match="components must share variables"):
        SectionDecomposition(2, (one, TruncatedSeries(("x", "y"), 2)))
    assert SectionDecomposition(2, (one, one)) == (2, (one, one))


def test_evaluate_beta_zero_is_plain_sum():
    comps = (rational_series(2, {(0, 0): 1}), rational_series(2, {(1, 0): 1}))
    dec = SectionDecomposition(2, comps)
    assert evaluate_at_orbit_point(dec, 0) == \
        rational_series(2, {(0, 0): 1, (1, 0): 1})


def test_invariant_component_independent_of_beta():
    comps = (rational_series(2, {(1, 0): 3}), TruncatedSeries(U, 2))
    dec = SectionDecomposition(2, comps)
    assert evaluate_at_orbit_point(dec, 0) == evaluate_at_orbit_point(dec, 1)


def test_pure_t_component_picks_up_eigenvalue():
    one = rational_series(2, {(0, 0): 1})
    zero = TruncatedSeries(U, 2)
    dec = SectionDecomposition(3, (zero, one, zero))
    e1 = evaluate_at_orbit_point(dec, 1)
    e2 = evaluate_at_orbit_point(dec, 2)
    z = root(3)
    assert e2 == scale(3, e1, z)  # results differ by the factor zeta


def test_deck_action_multiplies_by_eigenvalues():
    rng = random.Random(101)
    d = 5
    comps = tuple(
        rational_series(3, {(i % 2, i % 3): rng.randint(1, 5)})
        for i in range(d))
    dec = SectionDecomposition(d, comps)
    turned = apply_deck(dec)
    for q in range(d):
        z = root(d, q)
        assert turned.components[q] == scale(d, dec.components[q], z)
    # and compatibly with orbit evaluation: deck then evaluate at beta
    # equals evaluate at beta + 1.
    for beta in range(d):
        assert evaluate_at_orbit_point(turned, beta) == \
            evaluate_at_orbit_point(dec, beta + 1)


def test_orbit_evaluation_is_ring_homomorphism():
    rng = random.Random(303)
    d = 4
    def rand_dec():
        comps = []
        for _ in range(d):
            terms = {e: Fraction(rng.randint(-3, 3))
                     for e in [(0, 0), (1, 0), (0, 1)]}
            comps.append(rational_series(3, terms))
        return SectionDecomposition(d, tuple(comps))
    for _ in range(25):
        a, b = rand_dec(), rand_dec()
        for beta in range(d):
            ea = evaluate_at_orbit_point(a, beta)
            eb = evaluate_at_orbit_point(b, beta)
            assert evaluate_at_orbit_point(add_decompositions(a, b), beta) \
                == series_sum(d, U, 3, [*ea.terms.items(), *eb.terms.items()])
            assert evaluate_at_orbit_point(multiply_decompositions(a, b), beta) \
                == series_sum(d, U, 3, product_terms(d, ea, eb))


# -- ramified splitting -----------------------------------------------------------


def test_decompose_single_odd_term():
    jet = rational_series(2, {(1, 0): 1})
    comps = decompose_jet_ramified(jet, 2)
    assert comps[0].is_zero()
    assert comps[1] == TruncatedSeries(("v1", "u2"), 2, {(0, 0): Fraction(1)})


def test_decompose_cubic_times_u2():
    jet = rational_series(5, {(3, 1): 1})
    comps = decompose_jet_ramified(jet, 2)
    # i_1 = 3 = 1 mod 2, so component 1 holds v1 * u2.
    assert comps[1] == TruncatedSeries(("v1", "u2"), 5, {(1, 1): Fraction(1)})


def test_decompose_pullback_jets_stay_in_component_zero():
    jet = rational_series(7, {(0, 0): 1, (3, 2): 4, (6, 0): -1})
    comps = decompose_jet_ramified(jet, 3)
    assert not comps[0].is_zero()
    assert all(c.is_zero() for c in comps[1:])


def test_decompose_reassemble_roundtrip_exhaustive():
    # Identity on every monomial of total degree < K, K <= 6, d <= 5.
    for d in range(1, 6):
        for K in range(1, 7):
            for e1 in range(K):
                for e2 in range(K - e1):
                    jet = rational_series(K, {(e1, e2): 1})
                    comps = decompose_jet_ramified(jet, d)
                    back = reassemble_ramified(comps, d, U, K)
                    assert back == jet


def test_case3_constant_jet():
    jet = rational_series(1, {(0, 0): 7})
    built = case3_construct(2, jet, 1)
    assert not built.components[0].is_zero()
    assert built.components[1].is_zero()
    assert built.reassembled() == built.jet


def test_case3_mixed_jet():
    jet = rational_series(4, {(2, 1): 1, (1, 0): 1})
    built = case3_construct(2, jet, 4)
    assert built.components[0] == TruncatedSeries(
        ("v1", "u2"), 4, {(1, 1): Fraction(1)})
    assert built.components[1] == TruncatedSeries(
        ("v1", "u2"), 4, {(0, 0): Fraction(1)})
    assert built.reassembled() == built.jet


def test_case3_obstruction_flagging():
    # A jet with the monomial u1^(d-1) * u2 needs order 1 in the deepest
    # twist; a twist ladder ending in order 0 cannot carry it.
    for d in range(2, 6):
        jet = TruncatedSeries(U, d + 2, {(d - 1, 1): Fraction(1)})
        built = case3_construct(d, jet, d + 2)
        ladder = [d - 1 - q for q in range(d)]
        obstructions = built.obstructions(ladder)
        assert len(obstructions) == 1
        obs = obstructions[0]
        assert obs.q == d - 1
        assert obs.needed_order == 1
        assert obs.available_order == 0


def test_case3_no_obstruction_with_enough_positivity():
    jet = rational_series(3, {(1, 1): 1, (0, 0): 2})
    built = case3_construct(2, jet, 3)
    assert built.obstructions([5, 5]) == []


def test_case3_validation():
    jet = rational_series(4, {(3, 0): 1})
    with pytest.raises(ValueError):
        case3_construct(2, jet, 3)  # degree-3 term is no jet mod m^3


def test_constructions_take_orders_past_the_cli_cap():
    # The CLI's truncation cap bounds what local-model prints; the
    # constructions themselves take any order.  Order 13 is one past it.
    order = TRUNCATION_CAP + 1
    full = {(a, b): 1 for a in range(order) for b in range(order - a)}
    built = case3_construct(3, rational_series(order, full), order)
    assert built.reassembled() == built.jet
    rng = random.Random(13)
    jets = [rational_series(order, {e: rng.randint(-5, 5) for e in full})
            for _ in range(3)]
    orders = [order, 2, order]
    betas = [0, 2, 3]
    section = case2_construct(5, betas, jets, orders)
    for beta, jet, o in zip(betas, jets, orders):
        assert evaluate_at_orbit_point(section, beta).truncate(o) \
            == jet.truncate(o)


def test_case3_obstructions_certify_engine_jet_order():
    # The full jet in u1, u2 mod m^(k+1) has case-3 component q of degree
    # exactly k - q (the term u1^q * u2^(k-q)), so it is unobstructed
    # exactly when the jet criterion holds at k: the engine's k_star is the
    # largest unobstructed k below the cap, and every smaller k passes too.
    # One variable would not do: its component q has degree (k - q) / d.
    built = {(d, k): case3_construct(d, TruncatedSeries(U, k + 1, {
        (a, b): Fraction(1) for a in range(k + 1) for b in range(k + 1 - a)}),
        k + 1) for d in range(2, 9) for k in range(TRUNCATION_CAP)}
    rng = random.Random(1998)
    seen = set()
    for _ in range(3000):
        d = rng.randint(2, 8)
        profile = PositivityProfile({
            q: (rng.randint(-1, 9), rng.randint(-1, 9))
            for q in range(d) if rng.random() >= 0.15})
        twists = [profile.jet_order(q) for q in range(d)]
        unobstructed = [k for k in range(TRUNCATION_CAP)
                        if not built[d, k].obstructions(twists)]
        k_star = max_guaranteed_jet_order(
            CoveringScenario(d, True, profile)).k_star
        assert unobstructed == list(range(k_star + 1))
        seen.add(k_star)
    assert seen == set(range(-1, 10))

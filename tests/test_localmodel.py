import itertools
import random
from fractions import Fraction

import pytest

from cycliccover.cyclotomic import CyclotomicNumber
from cycliccover.errors import ResourceBudgetError, SingularSystemError
from cycliccover.localmodel import (
    SectionDecomposition,
    add_decompositions,
    apply_deck,
    case2_construct,
    case3_construct,
    decompose_jet_ramified,
    evaluate_at_orbit_point,
    multiply_decompositions,
    reassemble_ramified,
    run_case2_trial,
    vandermonde_residual,
    vandermonde_solve,
)
from cycliccover.series import TruncatedSeries

U = ("u1", "u2")


def rational_series(bound, terms):
    return TruncatedSeries(U, bound, {e: Fraction(c) for e, c in terms.items()})


# -- Vandermonde separation ----------------------------------------------------


def test_vandermonde_single_point():
    assert vandermonde_solve(3, []) == (CyclotomicNumber.one(3),)


def test_vandermonde_degree_two():
    alphas = vandermonde_solve(2, [1])
    assert alphas == (CyclotomicNumber.from_rational(2, Fraction(1, 2)),) * 2


def test_vandermonde_full_fiber_is_dft():
    # All d points: the solution is the discrete-Fourier coefficient row.
    for d in range(1, 7):
        betas = list(range(1, d))
        alphas = vandermonde_solve(d, betas)
        for r in vandermonde_residual(d, betas, alphas):
            assert r.is_zero()
        expected = CyclotomicNumber.from_rational(d, Fraction(1, d))
        assert alphas[0] == expected


def test_vandermonde_other_rhs_indices():
    # Every Lagrange column, not only column 0: 1,024 solves for d <= 8.
    for d in range(1, 9):
        for size in range(0, d):
            for betas in itertools.combinations(range(1, d), size):
                for rhs in range(size + 1):
                    alphas = vandermonde_solve(d, list(betas), rhs_index=rhs)
                    for r in vandermonde_residual(d, list(betas), alphas,
                                                  rhs_index=rhs):
                        assert r.is_zero()


def test_vandermonde_repeated_betas_rejected():
    with pytest.raises(SingularSystemError):
        vandermonde_solve(4, [1, 1])
    with pytest.raises(SingularSystemError):
        vandermonde_solve(4, [4])  # 4 = 0 mod 4 collides with the base point
    with pytest.raises(ValueError):
        vandermonde_solve(2, [1, 2, 3])  # more points than the fiber holds


# -- fiber separation construction --------------------------------------------


def test_case2_single_point_degenerates():
    jet = rational_series(3, {(1, 0): 2, (0, 0): 1})
    section = case2_construct(4, [0], [jet], [3])
    assert evaluate_at_orbit_point(section, 0).truncate(3) == jet
    assert all(c.is_zero() for c in section.components[1:])


def test_case2_jet_and_zero():
    jet = rational_series(2, {(0, 0): 1, (1, 0): 1})
    zero = TruncatedSeries.zero(U, 2)
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
    with pytest.raises(ResourceBudgetError):
        case2_construct(2, [0], [jet], [13])


# -- orbit evaluation and deck action -------------------------------------------


def test_evaluate_beta_zero_is_plain_sum():
    comps = (rational_series(2, {(0, 0): 1}), rational_series(2, {(1, 0): 1}))
    dec = SectionDecomposition(2, comps)
    assert evaluate_at_orbit_point(dec, 0) == \
        rational_series(2, {(0, 0): 1, (1, 0): 1})


def test_invariant_component_independent_of_beta():
    comps = (rational_series(2, {(1, 0): 3}), TruncatedSeries.zero(U, 2))
    dec = SectionDecomposition(2, comps)
    assert evaluate_at_orbit_point(dec, 0) == evaluate_at_orbit_point(dec, 1)


def test_pure_t_component_picks_up_eigenvalue():
    one = rational_series(2, {(0, 0): 1})
    zero = TruncatedSeries.zero(U, 2)
    dec = SectionDecomposition(3, (zero, one, zero))
    e1 = evaluate_at_orbit_point(dec, 1)
    e2 = evaluate_at_orbit_point(dec, 2)
    z = CyclotomicNumber.root_of_unity(3)
    assert e2 == e1.scale(z)  # results differ by the factor zeta


def test_deck_action_multiplies_by_eigenvalues():
    rng = random.Random(101)
    d = 5
    comps = tuple(
        rational_series(3, {(i % 2, i % 3): rng.randint(1, 5)})
        for i in range(d))
    dec = SectionDecomposition(d, comps)
    turned = apply_deck(dec)
    for q in range(d):
        z = CyclotomicNumber.root_of_unity(d, q)
        assert turned.components[q] == dec.components[q].scale(z)
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
            assert evaluate_at_orbit_point(add_decompositions(a, b), beta) == ea + eb
            assert evaluate_at_orbit_point(
                multiply_decompositions(a, b), beta) == ea * eb


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
    with pytest.raises(ResourceBudgetError):
        case3_construct(2, rational_series(2, {(0, 0): 1}), 13)

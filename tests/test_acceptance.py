"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line on success (run with -s or check the
captured output); every comparison is exact integer or exact field
arithmetic, no tolerances anywhere.
"""

import itertools
import random
import time
from fractions import Fraction

from cycliccover.catalog import (
    abelian_torsion_scenario,
    geiser_scenario,
    projective_space_scenario,
)
from cycliccover.combinatorics import sigma, sigma_table
from cycliccover.engine import (
    CoveringScenario,
    PositivityProfile,
    explain_requirement,
    max_guaranteed_jet_order,
    max_guaranteed_very_order,
)
from cycliccover.lemmas import LemmaReport, check_lemma_alg, check_lemma_num
from cycliccover.localmodel import (
    case3_construct,
    decompose_jet_ramified,
    reassemble_ramified,
    run_case2_trial,
    vandermonde_residual,
)
from cycliccover.series import TruncatedSeries

from test_combinatorics import D15_ROWS
from test_localmodel import lagrange_column


def report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_criterion_01_sigma_table_reproduction():
    table = sigma_table(15, 15)  # row q holds k = q..15
    assert table == D15_ROWS
    assert table[1][15 - 1] == 9
    assert table[2][4 - 2] == 1
    assert table[3][7 - 3] == 3
    assert table[5][10 - 5] == 4
    report(1, "sigma table d=15 reproduced entry-for-entry")


def test_criterion_02_very_theorem_prose_checks():
    for d in range(2, 51):
        assert sigma(2, d, 1) == 0
        if d >= 3:
            assert sigma(2, d, 2) == 0
    no_profile = CoveringScenario(d=15, branched=True,
                                  profile=PositivityProfile({}))
    assert [c.required for c in explain_requirement("very", 4, no_profile)] \
        == [4, 1, 1, 0, 0]
    report(2, "order-2 twists need only global generation; order-4 profile")


def test_criterion_03_lemma_num_exhaustive():
    start = time.perf_counter()
    report_obj = check_lemma_num(max_m=4, max_K=10, max_ell=6, max_q=5)
    elapsed = time.perf_counter() - start
    # the walk's report, which visits all 634,375 (head, tail) pairs in
    # about 0.36 s; the DP gives it without listing them
    assert report_obj == LemmaReport(
        "num", {"max_m": 4, "max_K": 10, "max_ell": 6, "max_q": 5},
        1_906_875, 0, [],
        ("reduced form: rhs is tau(sum K_i, max l_i over the head)",))
    assert report_obj.passed
    assert elapsed < 0.1, elapsed
    report(3, f"integer inequality: {report_obj.instances_checked} "
              "instances, zero counterexamples")


def test_criterion_04_lemma_alg_staircase_oracle():
    total = 0
    for ell in range(2, 5):
        for k in range(ell, 11):
            r = check_lemma_alg(k, ell)
            assert r.passed
            total += r.instances_checked
    report(4, f"staircase intersection bound: {total} tuples, "
              "zero counterexamples")


def test_criterion_05_geiser():
    for k in range(2, 21):
        verdict = max_guaranteed_very_order(geiser_scenario(k))
        assert verdict.k_star >= k
    report(5, "double plane: order-k pullback certified k-very ample, k=2..20")


def test_criterion_06_projective_space_sharpness():
    for r in range(2, 7):
        for d in range(2, 7):
            s = projective_space_scenario(2, (d - 1) * r, r, d)
            assert max_guaranteed_jet_order(s).k_star == d - 1
    report(6, "plane covers: jet guarantee is exactly d-1, never d")


def test_criterion_07_abelian_tightness():
    for k in range(0, 11):
        for d in range(2, 7):
            s = abelian_torsion_scenario(k + 2, d)
            assert max_guaranteed_jet_order(s).k_star == k
    report(7, "torsion covers: jet guarantee exactly k for the (k+2)-power")


def test_criterion_08_local_model_constructions():
    # Vandermonde residuals exactly zero, all d <= 8, all distinct betas.
    solves = 0
    for d in range(1, 9):
        for size in range(0, d):
            for betas in itertools.combinations(range(1, d), size):
                alphas = lagrange_column(d, [0, *betas], 0)
                assert all(r.is_zero()
                           for r in vandermonde_residual(d, list(betas), alphas))
                solves += 1
    # 1000 randomized fiber-separation trials, met exactly.
    rng = random.Random(20250826)
    for _ in range(1000):
        assert run_case2_trial(rng, max_d=6)["prescriptions_met"]
    # Split/reassemble round trip is the identity, d <= 5, K <= 6.
    for d in range(1, 6):
        for K in range(1, 7):
            for e1 in range(K):
                for e2 in range(K - e1):
                    jet = TruncatedSeries(("u1", "u2"), K,
                                          {(e1, e2): Fraction(1)})
                    comps = decompose_jet_ramified(jet, d)
                    assert reassemble_ramified(comps, d, ("u1", "u2"), K) == jet
    report(8, f"local model: {solves} exact solves, 1000 exact trials, "
              "exact round trips")


def test_criterion_09_obstruction_reproduction():
    for d in range(2, 7):
        jet = TruncatedSeries(("u1", "u2"), d + 2, {(d - 1, 1): Fraction(1)})
        built = case3_construct(d, jet, d + 2)
        twist_orders = [d - 1 - q for q in range(d)]  # depth d-1 ladder
        obstructions = built.obstructions(twist_orders)
        assert [(o.q, o.needed_order, o.available_order)
                for o in obstructions] == [(d - 1, 1, 0)]
    report(9, "ramification jet u1^(d-1)*u2 flagged against the deepest twist")


def test_criterion_10_engine_properties():
    rng = random.Random(1234567)
    for _ in range(10000):
        d = rng.randint(2, 10)
        entries = {q: (rng.randint(-1, 15), rng.randint(-1, 15))
                   for q in range(d)}
        dominated = CoveringScenario(
            d=d, branched=True, profile=PositivityProfile(entries))
        unbranched = CoveringScenario(
            d=d, branched=False, profile=PositivityProfile(entries))
        bigger = CoveringScenario(d=d, branched=True, profile=PositivityProfile(
            {q: (j + rng.randint(0, 2), v + rng.randint(0, 2))
             for q, (j, v) in entries.items()}))
        jet_lo = max_guaranteed_jet_order(dominated)
        very_lo = max_guaranteed_very_order(dominated)
        assert max_guaranteed_jet_order(unbranched) == jet_lo
        assert max_guaranteed_very_order(unbranched) == very_lo
        assert max_guaranteed_jet_order(bigger).k_star >= jet_lo.k_star
        assert max_guaranteed_very_order(bigger).k_star >= very_lo.k_star
    report(10, "10000 random profiles: domination monotone, "
               "branched flag inert")

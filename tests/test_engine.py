import functools
import random

import pytest
from hypothesis import given, strategies as st

from cycliccover.combinatorics import sigma
from cycliccover.engine import (
    CoveringScenario,
    PositivityProfile,
    explain_requirement,
    max_guaranteed_jet_order,
    max_guaranteed_very_order,
)


def scenario(d, orders, branched=True):
    """orders: dict q -> (jet, very) or a single int used for both."""
    entries = {q: v if isinstance(v, tuple) else (v, v)
               for q, v in orders.items()}
    return CoveringScenario(d=d, branched=branched,
                            profile=PositivityProfile(entries))


def guaranteed(verdict):
    """The orders a verdict guarantees: 0..k_star."""
    return tuple(range(verdict.k_star + 1))


def test_profile_validation():
    with pytest.raises(ValueError):
        PositivityProfile({-1: (0, 0)})
    with pytest.raises(ValueError):
        PositivityProfile({0: (-2, 0)})
    with pytest.raises(ValueError):
        CoveringScenario(d=1, branched=True, profile=PositivityProfile({}))


def test_missing_twist_reads_as_no_guarantee():
    prof = PositivityProfile({0: (3, 3)})
    assert prof.jet_order(5) == -1
    assert prof.effective_very_order(5) == -1


def test_effective_very_order_folds_in_jet():
    prof = PositivityProfile({0: (4, 1)})
    assert prof.effective_very_order(0) == 4


def test_jet_exact_match():
    v = max_guaranteed_jet_order(scenario(2, {0: 2, 1: 1}))
    assert v.k_star == 2
    assert guaranteed(v) == (0, 1, 2)


def test_jet_no_positivity():
    v = max_guaranteed_jet_order(scenario(3, {0: -1, 1: -1, 2: -1}))
    assert v.k_star == -1
    assert guaranteed(v) == ()


def test_jet_constant_profile_is_tight():
    # jet order k on every twist guarantees exactly k.
    for k in range(0, 8):
        for d in (2, 3, 5):
            v = max_guaranteed_jet_order(
                scenario(d, {q: k for q in range(d)}))
            assert v.k_star == k


def test_very_degree_two_with_globally_generated_twist():
    # 2-very ample bundle, globally generated first twist, d = 2.
    v = max_guaranteed_very_order(scenario(2, {0: (0, 2), 1: (0, 0)}))
    assert v.k_star >= 2


def test_very_all_negative():
    v = max_guaranteed_very_order(scenario(2, {0: -1, 1: -1}))
    assert v.k_star == -1


def test_explain_requirement_shapes():
    s = scenario(15, {q: 4 for q in range(15)})
    checks = explain_requirement("very", 4, s)
    assert [c.required for c in checks] == [4, 1, 1, 0, 0]
    checks = explain_requirement("jet", 0, s)
    assert len(checks) == 1 and checks[0].required == 0
    checks = explain_requirement("jet", 5, scenario(2, {0: 9, 1: 9}))
    assert [c.required for c in checks] == [5, 4]


@given(st.sampled_from(["jet", "very"]), st.integers(0, 40),
       st.integers(2, 40))
def test_explain_requirement_length(kind, k, d):
    checks = explain_requirement(kind, k, scenario(d, {}))
    assert [c.q for c in checks] == list(range(min(k, d - 1) + 1))
    assert checks[0].required == k


def test_explain_requirement_matches_verdict():
    s = scenario(4, {0: (5, 4), 1: (2, 3), 2: (1, 1), 3: (0, -1)})
    for kind, verdict in (("jet", max_guaranteed_jet_order(s)),
                          ("very", max_guaranteed_very_order(s))):
        for k in guaranteed(verdict):
            assert all(c.satisfied for c in explain_requirement(kind, k, s))
        if verdict.k_star + 1 <= (s.profile.jet_order(0) if kind == "jet"
                                  else s.profile.effective_very_order(0)):
            assert not all(c.satisfied for c in
                           explain_requirement(kind, verdict.k_star + 1, s))


def _random_scenario(rng, d_max=10, order_max=15):
    d = rng.randint(2, d_max)
    entries = {q: (rng.randint(-1, order_max), rng.randint(-1, order_max))
               for q in range(d)}
    return d, entries


def test_monotonicity_under_domination():
    rng = random.Random(20240817)
    for _ in range(2000):
        d, entries = _random_scenario(rng)
        bigger = {q: (j + rng.randint(0, 3), v + rng.randint(0, 3))
                  for q, (j, v) in entries.items()}
        lo = scenario(d, entries)
        hi = scenario(d, bigger)
        assert max_guaranteed_jet_order(hi).k_star >= \
            max_guaranteed_jet_order(lo).k_star
        assert max_guaranteed_very_order(hi).k_star >= \
            max_guaranteed_very_order(lo).k_star


def test_branched_flag_does_not_change_verdicts():
    rng = random.Random(99)
    for _ in range(500):
        d, entries = _random_scenario(rng)
        a = scenario(d, entries, branched=True)
        b = scenario(d, entries, branched=False)
        assert max_guaranteed_jet_order(a) == max_guaranteed_jet_order(b)
        assert max_guaranteed_very_order(a) == max_guaranteed_very_order(b)


def test_jet_implies_very_guarantee():
    # Treating jet orders as the only data, the very guarantee is at least
    # as strong, because sigma(k, d, q) <= k - q.
    rng = random.Random(13)
    for _ in range(500):
        d = rng.randint(2, 8)
        entries = {q: (rng.randint(-1, 12), -1) for q in range(d)}
        s = scenario(d, entries)
        assert max_guaranteed_very_order(s).k_star >= \
            max_guaranteed_jet_order(s).k_star


def test_degree_saturation():
    rng = random.Random(5)
    for _ in range(300):
        orders = {q: (rng.randint(-1, 6), rng.randint(-1, 6)) for q in range(3)}
        k_cap = max(orders[0])  # scan never exceeds the q=0 orders
        small_d = max(3, k_cap + 2)
        base = scenario(small_d, dict(orders) | {
            q: (-1, -1) for q in range(3, small_d)})
        wide = scenario(small_d + 4, dict(orders) | {
            q: (-1, -1) for q in range(3, small_d + 4)})
        assert max_guaranteed_jet_order(base).k_star == \
            max_guaranteed_jet_order(wide).k_star
        assert max_guaranteed_very_order(base).k_star == \
            max_guaranteed_very_order(wide).k_star


@functools.cache
def _sigma(k, d, q):
    return sigma(k, d, q)


def _scan_reference(kind, s):
    """Brute-force feasible set: every k up to the q=0 order, tested alone."""
    prof = s.profile
    if kind == "jet":
        bound, have = prof.jet_order(0), prof.jet_order
        def need(k, q):
            return k - q
    else:
        bound, have = prof.effective_very_order(0), prof.effective_very_order
        def need(k, q):
            return _sigma(k, s.d, q)
    return tuple(k for k in range(bound + 1)
                 if all(have(q) >= need(k, q)
                        for q in range(min(k, s.d - 1) + 1)))


def test_bisection_matches_brute_force_scan():
    rng = random.Random(20261018)
    for _ in range(20000):
        d = rng.randint(2, 10)
        present = [q for q in range(d) if rng.random() < 0.8]
        s = scenario(d, {q: (rng.randint(-1, 40), rng.randint(-1, 40))
                         for q in present})
        for kind, decide in (("jet", max_guaranteed_jet_order),
                             ("very", max_guaranteed_very_order)):
            verdict = decide(s)
            feasible = _scan_reference(kind, s)
            assert guaranteed(verdict) == feasible, (kind, d, s.profile.entries)
            assert verdict.k_star == (feasible[-1] if feasible else -1)


@given(st.integers(2, 39).flatmap(lambda d: st.tuples(
    st.just(d), st.integers(0, 298).flatmap(lambda k: st.tuples(
        st.just(k), st.integers(0, min(k, d - 1)))))))
def test_sigma_nondecreasing_in_k(case):
    # The bisection relies on this: feasibility is downward closed in k.
    d, (k, q) = case
    assert sigma(k, d, q) <= sigma(k + 1, d, q)


def test_order_1e18_profile_exact_k_star():
    top, d = 10**18, 10
    # jet: k <= jet(q) + q for every q, and jet(q) + q = top - q is least at q = 9
    jet = scenario(d, {q: (top - 2 * q, -1) for q in range(d)})
    assert max_guaranteed_jet_order(jet).k_star == top - (d - 1)
    assert max_guaranteed_very_order(jet).k_star == top
    # very: sigma(k, d, q) stays put from k0 - 1 to k0 and steps up at
    # k0 + 1, so k0 is the last order the twists q >= 1 can carry
    k0 = 5 * 10**17 + 10
    cap = sigma(k0, d, 1)
    assert sigma(k0 - 1, d, 1) == cap and sigma(k0 + 1, d, 1) == cap + 1
    assert all(sigma(k0, d, q) <= cap for q in range(1, d))
    very = scenario(d, {0: (-1, top)} | {q: (-1, cap) for q in range(1, d)})
    assert max_guaranteed_very_order(very).k_star == k0
    assert max_guaranteed_jet_order(very).k_star == -1


def test_profile_hash_ignores_insertion_order():
    a = PositivityProfile({0: (3, 4), 1: (2, -1), 5: (0, 0)})
    b = PositivityProfile({5: (0, 0), 1: (2, -1), 0: (3, 4)})
    assert a == b and hash(a) == hash(b)
    assert a != PositivityProfile({0: (3, 4)})
    assert hash(PositivityProfile({0: (1, 1)})) == hash(PositivityProfile({0: (1, 1)}))


def test_profile_entries_are_read_only_and_copied():
    source = {0: (1, 1)}
    prof = PositivityProfile(source)
    with pytest.raises(TypeError):
        prof.entries[0] = (-7, 0)
    source[0] = (-7, 0)
    assert prof.jet_order(0) == 1
    assert dict(prof.entries) == {0: (1, 1)}


def test_scenario_hashes_and_equals_by_value():
    a = scenario(3, {0: 4, 2: (1, 2)})
    b = scenario(3, {2: (1, 2), 0: 4})
    assert a == b and hash(a) == hash(b)
    assert len({a, b, scenario(3, {0: 4})}) == 2

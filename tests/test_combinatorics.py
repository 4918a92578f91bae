import random
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from cycliccover.combinatorics import (
    gamma,
    sigma,
    sigma_table,
    tau,
)
from cycliccover.engine import (
    CoveringScenario,
    PositivityProfile,
    explain_requirement,
)

# Transcribed by hand: the d=15 reference table, rows q=1..14, columns k=q..15.
D15_ROWS = {
    1: [0, 0, 1, 1, 2, 2, 3, 4, 4, 5, 6, 6, 7, 8, 9],
    2: [0, 0, 1, 2, 2, 3, 4, 4, 5, 6, 6, 7, 8, 9],
    3: [0, 0, 1, 2, 3, 3, 4, 5, 6, 6, 7, 8, 9],
    4: [0, 0, 1, 2, 3, 4, 4, 5, 6, 7, 8, 8],
    5: [0, 0, 1, 2, 3, 4, 5, 5, 6, 7, 8],
    6: [0, 0, 1, 2, 3, 4, 5, 6, 6, 7],
    7: [0, 0, 1, 2, 3, 4, 5, 6, 7],
    8: [0, 0, 1, 2, 3, 4, 5, 6],
    9: [0, 0, 1, 2, 3, 4, 5],
    10: [0, 0, 1, 2, 3, 4],
    11: [0, 0, 1, 2, 3],
    12: [0, 0, 1, 2],
    13: [0, 0, 1],
    14: [0, 0],
}


def test_gamma_divisibility():
    assert gamma(6, 3) == 1
    assert gamma(7, 3) == 0
    assert gamma(5, 5) == 1


def test_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        gamma(0, 3)
    with pytest.raises(ValueError):
        gamma(3, 0)


def test_tau_values():
    assert tau(16, 4) == 10  # 16 - 4 - 4 + 1 + 1
    assert tau(3, 2) == 1    # 3 - 1 - 2 + 0 + 1


@given(st.integers(min_value=1, max_value=500))
def test_tau_at_ell_one_is_one(k):
    assert tau(k, 1) == 1


def test_tau_can_be_nonpositive():
    assert tau(2, 10) < 0


def test_tau_is_k_minus_ceiling_minus_ell_plus_two():
    # floor(k/l) - gamma(k, l) = ceil(k/l) - 1, so tau(k, l) =
    # k - ceil(k/l) - l + 2: the identity both lemma proofs rest on.
    ells = range(1, 301)
    for k in range(1, 3001):
        assert [tau(k, l) for l in ells] == \
            [k + (-k // l) - l + 2 for l in ells], k


def test_sigma_q_zero_is_k():
    for k in range(0, 51):
        for d in range(2, 51):
            assert sigma(k, d, 0) == k


def test_sigma_examples():
    assert sigma(15, 15, 1) == 9
    assert sigma(4, 15, 2) == 1
    assert sigma(2, 5, 1) == 0  # max(tau(3,2), tau(3,3)) - 1 = 0


def test_sigma_domain_errors():
    with pytest.raises(ValueError):
        sigma(3, 2, 2)  # q > d-1
    with pytest.raises(ValueError):
        sigma(2, 5, 3)  # q > k
    with pytest.raises(ValueError):
        sigma(3, 1, 0)  # d < 2
    with pytest.raises(ValueError):
        sigma(-1, 5, 0)


def test_sigma_at_most_k_minus_q_exhaustive():
    # The very-ampleness requirement is never stronger than the jet one.
    for k in range(0, 51):
        for d in range(2, 51):
            for q in range(1, min(k, d - 1) + 1):
                assert sigma(k, d, q) <= k - q


def test_sigma_independent_of_d_once_saturated():
    for k in range(0, 30):
        for q in range(1, k + 1):
            base = sigma(k, k + 1, q) if q <= k else None
            for d in range(k + 1, k + 6):
                if q <= min(k, d - 1):
                    assert sigma(k, d, q) == base


def sigma_by_scan(k, d, q):
    """The definition: max of tau(k+1, l) over q+1 <= l <= min(d, k+1), less 1."""
    return max(tau(k + 1, ell) for ell in range(q + 1, min(d, k + 1) + 1)) - 1


def sigma_reference_cases():
    """(k, d, q) triples on which the closed form must equal the scan."""
    for k in range(0, 30):
        for d in range(2, 20):
            for q in range(1, min(k, d - 1) + 1):
                yield k, d, q
    rng = random.Random(20261018)
    for _ in range(150):
        d, k = rng.randint(2, 10**4), rng.randint(1, 10**7)
        yield k, d, rng.randint(1, min(k, d - 1))
    # l + floor(k/l) stops falling where l(l+1) passes k
    for ell in range(1, 301):
        for k in (ell * (ell + 1) - 1, ell * (ell + 1), ell * (ell + 1) + 1):
            for d in (ell + 1, ell + 2):
                for q in {1, ell - 2, ell - 1, ell, ell + 1}:
                    if 1 <= q <= min(k, d - 1):
                        yield k, d, q
    # the clamp binds: the range of l starts past the turning point
    # (q + 1 > isqrt(k) + 1), or ends before it (min(d, k+1) < isqrt(k) - 1)
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randint(100, 10**6)
        root = isqrt(k)
        q = rng.randint(root + 1, root + 50)
        yield k, rng.randint(q + 1, q + 200), q
        d = rng.randint(2, root - 2)
        yield k, d, rng.randint(1, d - 1)


def test_sigma_definitional_round_trip():
    for k, d, q in sigma_reference_cases():
        assert sigma(k, d, q) == sigma_by_scan(k, d, q), (k, d, q)


def _required(kind, k, d):
    """The per-twist order requirements of the k-jet / k-very criterion."""
    scenario = CoveringScenario(d=d, branched=True,
                                profile=PositivityProfile({}))
    return tuple(c.required for c in explain_requirement(kind, k, scenario))


def test_required_profile_jet():
    assert _required("jet", 3, 2) == (3, 2)
    assert _required("jet", 5, 2) == (5, 4)


def test_required_profile_very():
    assert _required("very", 2, 15) == (2, 0, 0)
    assert _required("very", 4, 15) == (4, 1, 1, 0, 0)


def test_required_profile_rejects_bad_kind():
    with pytest.raises(ValueError):
        _required("ample", 2, 3)


def test_sigma_table_matches_reference():
    table = sigma_table(15, 15)
    assert list(table) == list(range(1, 15))
    assert table == D15_ROWS


def test_sigma_table_small():
    assert sigma_table(2, 3) == {1: [0, 0, 1]}


def test_sigma_table_kmax_zero():
    assert sigma_table(7, 0) == {}


def test_sigma_table_rejects_bad_args():
    with pytest.raises(ValueError):
        sigma_table(1, 5)
    with pytest.raises(ValueError):
        sigma_table(5, -1)

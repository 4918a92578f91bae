import functools
import itertools
import math
import operator
import time
import tracemalloc
from typing import List

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cycliccover.lemmas as lemmas_module
from cycliccover.combinatorics import tau
from cycliccover.errors import ResourceBudgetError
from cycliccover.lemmas import (
    DEFAULT_TUPLE_BUDGET,
    NUM_WORK_CAP,
    LemmaReport,
    _alg_largest,
    _largest_union,
    _maxplus,
    _union_states,
    _num_count,
    _num_min_slack,
    _num_walk,
    _num_work,
    _partitions,
    check_lemma_alg,
    check_lemma_num,
    enumerate_staircases,
)

# p(1), p(2), ... by hand enumeration
PARTITION_COUNTS = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56]


def intersection_colength(staircases) -> int:
    """Colength of the intersection ideal of staircases given as column
    heights: its staircase is the union, whose columns are the tallest of
    each position, so the sum of the column-wise maxima of the heights."""
    if not staircases:
        raise ValueError("need at least one staircase")
    return sum(map(max, itertools.zip_longest(*staircases, fillvalue=0)))


def test_staircase_validation():
    # A staircase is its column heights; bad input is refused where it
    # enters, and every enumerated staircase is a descending tuple of
    # positive heights.
    with pytest.raises(ValueError):
        enumerate_staircases(0)
    with pytest.raises(ValueError):
        intersection_colength([])
    for c in range(1, 12):
        for s in enumerate_staircases(c):
            assert min(s) >= 1 and list(s) == sorted(s, reverse=True)


def test_enumerate_counts_match_partition_numbers():
    for c, expected in enumerate(PARTITION_COUNTS, start=1):
        stairs = enumerate_staircases(c)
        assert len(stairs) == expected
        assert len(set(stairs)) == expected
        assert all(sum(s) == c for s in stairs)


def test_enumerate_cap():
    with pytest.raises(ResourceBudgetError):
        enumerate_staircases(12)
    assert len(list(_partitions(12, 12))) == 77


def test_intersection_colength_basics():
    row = (1, 1)    # columns of height 1 and 1: cells (0,0), (1,0)
    col = (2,)      # one column of height 2: cells (0,0), (0,1)
    assert intersection_colength([row, col]) == 3
    assert intersection_colength([row, row]) == sum(row)
    assert intersection_colength([col]) == 2


def test_intersection_colength_monotone():
    stairs = enumerate_staircases(4)
    for a in stairs:
        for b in stairs:
            assert intersection_colength([a, b]) >= intersection_colength([a])


def test_lemma_alg_all_colengths_one():
    # k = ell: every ideal is the maximal ideal, intersection colength 1.
    for ell in range(2, 5):
        report = check_lemma_alg(ell, ell)
        assert report.passed
        assert report.max_slack == tau(ell, ell) - 1 == 0


def test_lemma_alg_small_boxes():
    report = check_lemma_alg(4, 2)
    assert report.passed
    report = check_lemma_alg(8, 3)
    assert report.passed
    assert report.max_slack is not None and report.max_slack >= 0


def test_lemma_alg_exhaustive_box():
    for ell in range(2, 5):
        for k in range(ell, 11):
            assert check_lemma_alg(k, ell).passed


def test_lemma_alg_rejects_bad_args():
    with pytest.raises(ValueError):
        check_lemma_alg(5, 1)
    with pytest.raises(ValueError):
        check_lemma_alg(2, 3)


def test_lemma_alg_budget():
    with pytest.raises(ResourceBudgetError):
        check_lemma_alg(30, 4)


def test_lemma_alg_budget_partial_report():
    with pytest.raises(ResourceBudgetError) as exc_info:
        check_lemma_alg(10, 3, budget=5)
    partial = exc_info.value.partial_report
    assert partial is not None
    assert partial.lemma_id == "alg"


@pytest.mark.parametrize("budget", [-1, -2])
@pytest.mark.parametrize("check, box", [(check_lemma_alg, (5, 2)),
                                        (check_lemma_num, (2, 3, 3, 1))],
                         ids=["alg", "num"])
def test_lemmas_refuse_negative_budget(check, box, budget):
    # refused at the boundary, not as a budget cut or a crash in the setup
    with pytest.raises(ValueError) as exc_info:
        check(*box, budget=budget)
    assert exc_info.type is ValueError
    assert str(exc_info.value) == f"budget must be >= 0, got {budget}"


def test_lemma_num_trivial_equality():
    # m = r = 1 means tau(K, ell) <= tau(K, ell): slack 0 somewhere.
    report = check_lemma_num(1, 5, 4, 2)
    assert report.passed
    assert report.max_slack == 0


def test_lemma_num_minimum_slack_is_zero_on_every_small_box():
    # With the exact tau, q = 1 is the worst q, every part of its slack is
    # >= 0, and one head pair with an empty tail has slack 0: so each of
    # the 162 boxes below has minimum slack exactly 0.
    boxes = list(itertools.product(
        range(1, 4), range(1, 7), range(2, 5), range(1, 4)))
    assert len(boxes) == 162
    for box in boxes:
        report = check_lemma_num(*box)
        assert (report.passed, report.max_slack) == (True, 0), box


def ceil_div(a, b):
    return -(-a // b)


def test_lemma_num_q1_slack_is_a_sum_of_nonnegative_parts():
    # With tau(k, l) = k - ceil(k/l) - l + 2, the q = 1 slack of a head
    # (K_i, l_i), L = max l_i, and a tail K_j is the sum of two parts, each
    # >= 0: the ceilings, since ceil is subadditive and each l_i and 2 is
    # at most L; and l_i - 2 over the head pairs but one that attains L.
    # Checked against tau on each of the 2,841 instances of the box.
    pairs = [(K, l) for K in range(1, 7) for l in range(2, 5)]
    slacks = []
    for m in range(1, 4):
        for head in itertools.combinations_with_replacement(pairs, m):
            L = max(l for _, l in head)
            for tail in itertools.chain.from_iterable(
                    itertools.combinations_with_replacement(range(1, 7), n)
                    for n in range(4 - m)):
                K = sum(Ki for Ki, _ in head) + sum(tail)
                slack = (tau(K, L) - sum(tau(Ki, l) for Ki, l in head)
                         - sum(Kj // 2 for Kj in tail))
                ceilings = (sum(ceil_div(Ki, l) for Ki, l in head)
                            + sum(ceil_div(Kj, 2) for Kj in tail)
                            - ceil_div(K, L))
                widths = sum(l - 2 for _, l in head) - (L - 2)
                assert slack == ceilings + widths, (head, tail)
                assert ceilings >= 0 and widths >= 0, (head, tail)
                slacks.append(slack)
    assert len(slacks) == 2841
    report = check_lemma_num(3, 6, 4, 1)
    assert (report.instances_checked, report.max_slack) == (2841, min(slacks))


def test_lemma_alg_colength_within_the_general_bound():
    # In any local ring m / (I_2 cap ... cap I_ell) embeds in the sum of
    # the m / I_i, so the colength is at most 1 + sum_{i>=2} (c_i - 1) =
    # k - c_1 - ell + 2, which tau(k, ell) exceeds by c_1 - ceil(k/ell) >= 0.
    # Checked on all 339 slot tuples of the 2-variable model with
    # 2 <= ell <= 5 and k <= ell + 6, each colength a count of cells.
    tuples = 0
    for ell in range(2, 6):
        for k in range(ell, ell + 7):
            largest = 0
            for c in itertools.combinations_with_replacement(
                    range(k, 0, -1), ell):
                if sum(c) != k:
                    continue
                general = 1 + sum(ci - 1 for ci in c[1:])
                assert general == k - c[0] - ell + 2
                assert tau(k, ell) - general == c[0] - ceil_div(k, ell) >= 0
                for rest in itertools.product(*map(enumerate_staircases, c[1:])):
                    observed = len({(i, j) for heights in rest
                                    for i, h in enumerate(heights)
                                    for j in range(h)})
                    assert observed <= general, (c, rest)
                    largest = max(largest, observed)
                    tuples += 1
            assert check_lemma_alg(k, ell).max_slack == tau(k, ell) - largest
    assert tuples == 339


def test_lemma_num_hand_instance():
    # K = (3, 3), ell = (2, 2): 1 + 1 <= tau(6, 2) = 3.
    assert tau(3, 2) + tau(3, 2) == 2
    assert tau(6, 2) == 3
    assert check_lemma_num(2, 3, 2, 1).passed


def test_lemma_num_budget():
    with pytest.raises(ResourceBudgetError) as exc_info:
        check_lemma_num(4, 10, 6, 5, budget=100)
    assert exc_info.value.partial_report.instances_checked == 100


def test_lemma_num_rejects_bad_args():
    with pytest.raises(ValueError):
        check_lemma_num(0, 5, 4, 2)
    with pytest.raises(ValueError):
        check_lemma_num(2, 5, 1, 2)


def test_report_serialization():
    report = check_lemma_alg(4, 2)
    record = report.to_record()
    assert record["lemma"] == "alg"
    assert record["passed"] is True
    assert record["instances_checked"] == report.instances_checked
    text = report.to_text()
    assert "PASS" in text and "instances checked" in text


def test_partitions_into_matches_length_filter():
    for n in range(21):
        every = list(_partitions(n, n))
        assert every == reference_partitions(n, n)
        for width in range(n + 2):
            assert list(_partitions(n, width)) == [
                p for p in every if len(p) <= width]


# -- alg against the cell-set search ------------------------------------------


def reference_partitions(n: int, largest: int) -> List[tuple]:
    """Partitions of n with parts at most `largest`, descending tuples in
    descending lexicographic order, by recursion on the first part."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(min(n, largest), 0, -1)
            for rest in reference_partitions(n - first, first)]


def reference_staircases(colength: int) -> List[frozenset]:
    """The staircases of a colength as sets of cells (i, j), column i
    holding j < height i."""
    return [frozenset((i, j) for i, h in enumerate(p) for j in range(h))
            for p in reference_partitions(colength, colength)]


def reference_lemma_alg(k, ell, budget=DEFAULT_TUPLE_BUDGET) -> LemmaReport:
    """The alg search on cell sets: a union of staircases is a set union.
    Reads tau off the lemmas module so a patched tau reaches it."""
    bound = lemmas_module.tau(k, ell)
    checked = 0
    min_slack = None
    counterexamples: List[dict] = []
    for colengths in (p for p in reference_partitions(k, k) if len(p) == ell):
        shape_lists = [reference_staircases(c) for c in colengths]
        combos = len(shape_lists[0])
        for lst in shape_lists[1:]:
            combos *= len(lst)
        if checked + combos > budget:
            listed = tuple(c for c in colengths if c > 1) or colengths[:1]
            raise ResourceBudgetError(
                f"tuple budget {budget} exceeded at colengths {listed} "
                f"plus {ell - len(listed)} slots of colength 1",
                partial_report=LemmaReport(
                    lemma_id="alg",
                    parameter_box={"k": k, "ell": ell},
                    instances_checked=checked,
                    max_slack=min_slack,
                    counterexamples=counterexamples,
                    notes=("partial: budget exhausted",),
                    partial=True,
                ),
            )
        for rest in itertools.product(*shape_lists[1:]):
            observed = len(frozenset().union(*rest))
            slack = bound - observed
            if min_slack is None or slack < min_slack:
                min_slack = slack
            if slack < 0:
                counterexamples.append({
                    "colengths": list(colengths),
                    "staircases": [sorted(s) for s in rest],
                    "observed": observed,
                    "bound": bound,
                })
            checked += len(shape_lists[0])
    return LemmaReport(
        lemma_id="alg",
        parameter_box={"k": k, "ell": ell},
        instances_checked=checked,
        max_slack=min_slack,
        counterexamples=counterexamples,
        notes=(
            "model: monomial ideals in 2 variables (staircases); "
            "evidence for the local-ring statement, not a proof",
        ),
    )


def alg_outcome(check, k, ell, budget):
    """(error message, text, record) of an alg run, partial reports
    included; the message is None for a complete run."""
    try:
        report = check(k, ell, budget=budget)
    except ResourceBudgetError as exc:
        return str(exc), exc.partial_report.to_text(), \
            exc.partial_report.to_record()
    return None, report.to_text(), report.to_record()


@pytest.mark.parametrize("bent", [0, 2])
def test_lemma_alg_matches_cell_set_reference(monkeypatch, bent):
    # tau lowered by 2 makes most boxes fail, so counterexample cell lists
    # and the partial reports that carry them are compared too.
    monkeypatch.setattr(lemmas_module, "tau", lambda K, l: tau(K, l) - bent)
    kinds = set()  # (partial?, failing?) of the reports compared
    for ell in range(2, 6):
        for k in range(ell, ell + 7):
            for budget in (0, 3, 50, DEFAULT_TUPLE_BUDGET):
                expected = alg_outcome(reference_lemma_alg, k, ell, budget)
                assert alg_outcome(check_lemma_alg, k, ell, budget) == \
                    expected, (k, ell, budget)
                kinds.add((expected[0] is not None,
                           bool(expected[2]["counterexamples"])))
    if bent:
        assert kinds == {(True, False), (False, True), (True, True)}
    else:
        assert kinds == {(False, False), (True, False)}


def test_intersection_colength_matches_cell_union():
    # The column heights, the cell sets and the package's bit masks (cell
    # (i, j) at bit 12 i + j, one-slot lists in enumerate_staircases order)
    # give the same union colength.
    heights = [s for c in range(1, 7) for s in enumerate_staircases(c)]
    cells = [s for c in range(1, 7) for s in reference_staircases(c)]
    masks = [s for c in range(1, 7) for s in _union_states((c - 1,), {})]
    assert len(heights) == len(cells) == len(masks) == sum(PARTITION_COUNTS[:6])
    for r in (1, 2, 3):
        for pick in itertools.product(range(len(heights)), repeat=r):
            union = len(frozenset().union(*(cells[i] for i in pick)))
            assert intersection_colength([heights[i] for i in pick]) == union
            assert functools.reduce(operator.or_, (masks[i] for i in pick)
                                    ).bit_count() == union


# -- alg: the one pass against the cell-set search ----------------------------

# every box under the colength cap with 2 <= ell <= 10
ALG_GRID = [(k, ell) for ell in range(2, 11) for k in range(ell, ell + 11)]


def alg_budgets(k, ell):
    """Budgets 0, count - 1, count and the default of a box, by its count
    of instances."""
    count = check_lemma_alg(k, ell).instances_checked
    return 0, count - 1, count, DEFAULT_TUPLE_BUDGET


def refuse_dp(*args):
    raise AssertionError("the DP ran")


@pytest.mark.parametrize("bent", [0, 1, 2])
def test_alg_matches_the_reference_on_the_grid(monkeypatch, bent):
    # A bent tau moves the least slack below 0 at some boxes, so failing
    # tuples, listed in order, and the partial reports that carry them are
    # compared too; budget count - 1 cuts at the last colength partition.
    monkeypatch.setattr(lemmas_module, "tau", lambda K, l: tau(K, l) - bent)
    kinds = set()  # (partial?, failing?) of the reports compared
    for k, ell in ALG_GRID:
        for budget in alg_budgets(k, ell):
            expected = alg_outcome(reference_lemma_alg, k, ell, budget)
            assert alg_outcome(check_lemma_alg, k, ell, budget) == \
                expected, (k, ell, budget)
            kinds.add((expected[0] is not None,
                       bool(expected[2]["counterexamples"])))
    if bent:
        assert kinds == {(True, False), (False, False), (False, True),
                         (True, True)}
    else:
        assert kinds == {(False, False), (True, False)}


def test_alg_lists_no_tuple_when_tau_holds(monkeypatch):
    # With the program's tau no instance fails, so no tuple is listed,
    # a budget cut included; with tau lowered by 2 the same spy sees the
    # partitions that hold counterexamples.
    listed = []
    failures = lemmas_module._alg_failures

    def spy(*args):
        listed.append(args)
        return failures(*args)

    monkeypatch.setattr(lemmas_module, "_alg_failures", spy)
    boxes = [(k, ell, budget) for k, ell in ALG_GRID
             for budget in alg_budgets(k, ell)]
    assert len(boxes) == 4 * len(ALG_GRID) == 396
    for k, ell, budget in boxes:
        try:
            check_lemma_alg(k, ell, budget=budget)
        except ResourceBudgetError as exc:
            assert exc.partial_report.passed, (k, ell, budget)
    assert listed == []
    monkeypatch.setattr(lemmas_module, "tau", lambda K, l: tau(K, l) - 2)
    assert not check_lemma_alg(8, 3).passed and listed


def test_alg_largest_over_every_cut_of_the_partitions():
    # A cut checks a prefix of the colength partitions, and the early break
    # over a prefix skips only partitions whose trivial bound the largest
    # union found already reaches.
    for k, ell in ALG_GRID:
        excesses = list(_partitions(k - ell, ell))
        largest = [_largest_union(e[1:], {}) for e in excesses]
        for n in range(len(excesses) + 1):
            assert _alg_largest(excesses[:n], {}) == max(largest[:n],
                                                         default=0), (k, ell, n)


@pytest.mark.parametrize("budget", [0, DEFAULT_TUPLE_BUDGET])
def test_alg_box_at_the_colength_cap_raises_before_the_dp(monkeypatch, budget):
    for name in ("_partitions", "_alg_largest", "_union_states"):
        monkeypatch.setattr(lemmas_module, name, refuse_dp)
    for ell in (2, 10, 10**7):
        for k in (ell + 11, ell + 30):
            with pytest.raises(ResourceBudgetError) as exc_info:
                check_lemma_alg(k, ell, budget=budget)
            assert str(exc_info.value) == \
                f"colength {k - ell + 1} >= enumeration cap 12"
            assert exc_info.value.partial_report is None


def test_alg_largest_union_per_partition_equals_a_product_search():
    # The DP drops every union that lies inside another and prunes
    # partitions by their trivial bound; a search over every tuple of cell
    # sets does neither.
    partitions = 0
    for ell in range(2, 6):
        for k in range(ell, ell + 7):
            states = {}  # shared by the box's partitions, as in the DP
            for excess in _partitions(k - ell, ell):
                rest = [h + 1 for h in excess[1:]]  # colengths of slots 2..
                largest = max(len(frozenset().union(*cells)) for cells in
                              itertools.product(*map(reference_staircases,
                                                     rest))) if rest else 1
                assert _largest_union(excess[1:], states) == largest, \
                    (k, ell, rest)
                assert _largest_union(excess[1:], {}) == largest
                partitions += 1
    assert partitions == 95


def test_alg_union_states_are_the_unions_inside_no_other():
    # Every union of one staircase per slot, as a cell set, and those of
    # them that are a proper subset of none: the DP keeps exactly these.
    tuples = 0
    for excess in itertools.chain.from_iterable(
            reference_partitions(n, n) for n in range(1, 10)):
        unions = {frozenset().union(*cells) for cells in itertools.product(
            *(reference_staircases(h + 1) for h in excess))}
        maximal = {u for u in unions if not any(u < v for v in unions)}
        states = _union_states(excess, {})  # cell (i, j) at bit 12 i + j
        assert len(states) == len(maximal), excess
        assert {frozenset(divmod(b, 12) for b in range(s.bit_length())
                          if s >> b & 1) for s in states} == maximal, excess
        tuples += 1
    assert tuples == sum(PARTITION_COUNTS[:9])


# -- num against the instance-by-instance search ------------------------------


def reference_lemma_num(max_m, max_K, max_ell, max_q,
                        budget=DEFAULT_TUPLE_BUDGET) -> LemmaReport:
    """The brute-force num search, one tau call and one witness per
    instance; reads tau off the lemmas module so a patched tau reaches it."""
    tau = lemmas_module.tau
    box = {"max_m": max_m, "max_K": max_K, "max_ell": max_ell, "max_q": max_q}
    pairs = [(K, l) for K in range(1, max_K + 1) for l in range(2, max_ell + 1)]
    checked = 0
    min_slack = None
    counterexamples: List[dict] = []

    def note_instance(lhs: int, rhs: int, witness: dict) -> None:
        nonlocal min_slack
        slack = rhs - lhs
        if min_slack is None or slack < min_slack:
            min_slack = slack
        if slack < 0:
            counterexamples.append(witness | {"lhs": lhs, "rhs": rhs})

    for m in range(1, max_m + 1):
        for head in itertools.combinations_with_replacement(pairs, m):
            head_sum = sum(tau(K, l) for K, l in head)
            head_K = sum(K for K, _ in head)
            ell = max(l for _, l in head)
            for r in range(m, max_m + 1):
                for tail in itertools.combinations_with_replacement(
                        range(1, max_K + 1), r - m):
                    K = head_K + sum(tail)
                    rhs = tau(K, ell)
                    q_range = range(1, max_q + 1) if tail else (1,)
                    for q in q_range:
                        lhs = head_sum + sum(Ki // (q + 1) for Ki in tail)
                        checked += 1
                        if checked > budget:
                            raise ResourceBudgetError(
                                f"instance budget {budget} exceeded",
                                partial_report=LemmaReport(
                                    lemma_id="num",
                                    parameter_box=box,
                                    instances_checked=checked - 1,
                                    max_slack=min_slack,
                                    counterexamples=counterexamples,
                                    notes=("partial: budget exhausted",),
                                    partial=True,
                                ),
                            )
                        note_instance(lhs, rhs, {
                            "head": [list(p) for p in head],
                            "tail": list(tail),
                            "q": q,
                        })

    return LemmaReport(
        lemma_id="num",
        parameter_box=box,
        instances_checked=checked,
        max_slack=min_slack,
        counterexamples=counterexamples,
        notes=("reduced form: rhs is tau(sum K_i, max l_i over the head)",),
    )


def num_outcome(check, box, budget):
    """(complete?, text, record) of a num run, partial reports included."""
    try:
        report = check(*box, budget=budget)
    except ResourceBudgetError as exc:
        report, complete = exc.partial_report, False
    else:
        complete = True
    return complete, report.to_text(), report.to_record()


def assert_num_matches_reference(box, budget):
    expected = num_outcome(reference_lemma_num, box, budget)
    assert num_outcome(check_lemma_num, box, budget) == expected, (box, budget)
    return expected


GRID = list(itertools.product(range(1, 4), range(1, 7), range(2, 6),
                              range(1, 4)))
# max_m 4 and 5: heads of three pairs or more extend prefixes of two or more
DEEP_GRID = list(itertools.product(range(4, 6), range(1, 4), range(2, 5),
                                   (1, 3)))
BUDGETS = (0, 1, 7, 50, 400, DEFAULT_TUPLE_BUDGET)

# tau bent so that the inequality fails: some failing tails fail at q = 1
# only, so a cut can land inside the walk over q.
BENT_TAUS = {
    "plus_one_at_K_div_3": lambda K, l: tau(K, l) + (K % 3 == 0),
    "minus_one_from_K_7": lambda K, l: tau(K, l) - (K >= 7),
}


def test_lemma_num_matches_reference_on_grid():
    for box in GRID + DEEP_GRID:
        for budget in BUDGETS:
            assert_num_matches_reference(box, budget)


@pytest.mark.parametrize("bent", sorted(BENT_TAUS))
def test_lemma_num_matches_reference_with_counterexamples(monkeypatch, bent):
    monkeypatch.setattr(lemmas_module, "tau", BENT_TAUS[bent])
    failing = deep_failing = 0
    for box in GRID + DEEP_GRID:
        for budget in BUDGETS:
            complete, _, record = assert_num_matches_reference(box, budget)
            failing += complete and not record["passed"]
            deep_failing += complete and any(
                len(c["head"]) >= 4 for c in record["counterexamples"])
    assert failing > 0 and deep_failing > 0
    # Every cut point of a box whose failing tails include ones that fail
    # at q = 1 but not at q = max_q = 3.
    box = (2, 4, 3, 3)
    _, _, record = num_outcome(reference_lemma_num, box, DEFAULT_TUPLE_BUDGET)
    failed = {(str(c["head"]), str(c["tail"]), c["q"])
              for c in record["counterexamples"]}
    assert any(q == 1 and tail != "[]" and (head, tail, 3) not in failed
               for head, tail, q in failed)
    for budget in range(record["instances_checked"] + 1):
        assert_num_matches_reference(box, budget)


def test_lemma_num_matches_reference_at_every_cut_of_a_four_pair_box(
        monkeypatch):
    # Counterexamples with four-pair heads, so cuts land among heads built
    # from three-pair prefixes as well as before and after them.
    monkeypatch.setattr(lemmas_module, "tau", BENT_TAUS["minus_one_from_K_7"])
    box = (4, 2, 3, 2)
    _, _, record = num_outcome(reference_lemma_num, box, DEFAULT_TUPLE_BUDGET)
    assert record["instances_checked"] == 321
    assert any(len(c["head"]) == 4 for c in record["counterexamples"])
    for budget in range(record["instances_checked"] + 1):
        assert_num_matches_reference(box, budget)


def test_lemma_num_cut_inside_a_huge_q_range_matches_reference(monkeypatch):
    # A failing tau whose cut lands inside the q range of one (head, tail):
    # the search checks the budget once per instance, so the cut costs
    # budget steps, whatever max_q is.
    monkeypatch.setattr(lemmas_module, "tau", BENT_TAUS["minus_one_from_K_7"])
    box, budget = (2, 9, 4, 10**9), 10**5
    start = time.perf_counter()
    got = num_outcome(check_lemma_num, box, budget)
    elapsed = time.perf_counter() - start
    assert got == num_outcome(reference_lemma_num, box, budget)
    assert not got[0] and got[2]["instances_checked"] == budget
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("cap, refused", [(0, 48), (700, 32), (1500, 9)],
                         ids=["0", "700", "1500"])
def test_lemma_num_matches_reference_past_work_cap(monkeypatch, cap, refused):
    # A box of two pairs or more whose DP work passes the cap is refused at
    # every budget, with no partial report; every other box, single pairs
    # included, matches the reference.
    monkeypatch.setattr(lemmas_module, "NUM_WORK_CAP", cap)
    monkeypatch.setattr(lemmas_module, "tau", BENT_TAUS["minus_one_from_K_7"])
    boxes = 0
    for box in GRID[::3]:
        work = _num_work(*box[:3])
        if box[0] == 1 or work <= cap:
            for budget in BUDGETS:
                assert_num_matches_reference(box, budget)
            continue
        boxes += 1
        for budget in BUDGETS:
            with pytest.raises(ResourceBudgetError) as exc_info:
                check_lemma_num(*box, budget=budget)
            assert str(exc_info.value) == (
                f"num DP work of {work} steps exceeds cap {cap}")
            assert exc_info.value.partial_report is None
    assert boxes == refused


def test_lemma_num_huge_max_K_is_refused_before_any_work():
    # 30,001 head pairs and K_i up to 30,001 fit the budget, but the DP's
    # work would pass its cap by 10^10 times: the box is refused before
    # any list is built, with no partial report.  Walking it to the cut
    # once built 6 MB of tables.
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError) as exc_info:
            check_lemma_num(4, 10**8, 3, 5, budget=30000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc_info.value) == (
        "num DP work of 380000001600001088 steps exceeds cap 14000000")
    assert exc_info.value.partial_report is None
    assert peak < 2**20, peak


def test_lemma_num_head_pairs_stay_under_the_cap():
    # 20,000 head pairs, two instances each at m = 1, use the whole budget.
    # The DP's work fits its cap, so it finds the least
    # slack 0 over every (head, tail) and makes the cut at 40,000 in
    # closed form, listing no pair.  Listing every pair took 3.1 MB.
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError) as exc_info:
            check_lemma_num(2, 1, 20001, 1, budget=40000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc_info.value.partial_report.instances_checked == 40000
    assert peak < 2**19, peak


def test_lemma_num_huge_max_m_is_refused_before_any_work():
    # 10^8 tail lengths: the DP's work, counted in closed form, would be
    # about 5 * 10^15 steps, so the box is refused at once, where a walk
    # per tail length once took over 100 MB and a tau row up to max_m
    # 4.8 MB.
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError) as exc_info:
            check_lemma_num(10**8, 1, 2, 1, budget=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc_info.value) == (
        "num DP work of 5000015349999949 steps exceeds cap 14000000")
    assert exc_info.value.partial_report is None
    assert peak < 2**20, peak


def test_lemma_num_long_tails_are_refused_at_once():
    # 20,000 tail lengths of ones: summing each tail, as the walk once did,
    # took 22 s to reach the cut; the DP's work would be 406,139,898
    # steps, so the box is refused before any work.
    start = time.perf_counter()
    with pytest.raises(ResourceBudgetError) as exc_info:
        check_lemma_num(20000, 1, 3, 2, budget=100000)
    elapsed = time.perf_counter() - start
    assert str(exc_info.value) == (
        "num DP work of 406139898 steps exceeds cap 14000000")
    assert exc_info.value.partial_report is None
    assert elapsed < 0.1, elapsed


def minus_square_times_l(K, l):
    """A tau under which every num instance fails but a lone pair's: the
    q = 1 slack sum K_i^2 l_i - (HK + TS)^2 L - T is below 0 as soon as
    the head has two pairs or the tail a part.  So the counterexamples list
    the walk's instances in the order walked."""
    return -K * K * l


@pytest.mark.parametrize("max_K, max_ell", [(1, 2), (1, 4), (2, 3), (3, 2),
                                            (2, 4)])
def test_heads_walk_combinations_with_replacement(monkeypatch, max_K, max_ell):
    # The walk takes the heads of m pairs in combinations_with_replacement
    # order of the pairs (K, l), K outer, for m = 1 to max_m; each head has
    # a failing instance, and its instances come together.
    monkeypatch.setattr(lemmas_module, "tau", minus_square_times_l)
    pairs = [(K, l) for K in range(1, max_K + 1) for l in range(2, max_ell + 1)]
    report = check_lemma_num(5, max_K, max_ell, 1)
    walked = [head for head, _ in itertools.groupby(
        c["head"] for c in report.counterexamples)]
    assert walked == [[list(p) for p in head] for m in range(1, 6)
                      for head in itertools.combinations_with_replacement(
                          pairs, m)]
    for c in report.counterexamples:
        if not c["tail"]:  # rhs tau(HK, L); lhs the sum of the pairs' tau
            assert (c["lhs"], c["rhs"]) == (
                sum(minus_square_times_l(K, l) for K, l in c["head"]),
                minus_square_times_l(sum(K for K, _ in c["head"]),
                                     max(l for _, l in c["head"]))), c


@pytest.mark.parametrize("max_K", range(1, 6))
def test_tails_walk_combinations_with_replacement(monkeypatch, max_K):
    # The first head, (1, 2), takes the tails of n = 1 to 6 parts in
    # combinations_with_replacement order of 1..max_K; its lone-pair
    # instance holds, and each of its tails fails.
    monkeypatch.setattr(lemmas_module, "tau", minus_square_times_l)
    report = check_lemma_num(7, max_K, 2, 1)
    first = list(itertools.takewhile(lambda c: c["head"] == [[1, 2]],
                                     report.counterexamples))
    assert [(c["tail"], c["lhs"], c["rhs"]) for c in first] == [
        (list(tail), -2 + sum(Ki // 2 for Ki in tail),
         minus_square_times_l(1 + sum(tail), 2))
        for n in range(1, 7)
        for tail in itertools.combinations_with_replacement(
            range(1, max_K + 1), n)]


@given(head=st.integers(min_value=-50, max_value=50),
       tail=st.lists(st.integers(min_value=1, max_value=10**6), max_size=6),
       q=st.integers(min_value=1, max_value=100))
def test_lemma_num_left_side_nonincreasing_in_q(head, tail, q):
    # check_lemma_num decides each (head, tail) by its q = 1 slack.
    def lhs(q):
        return head + sum(Ki // (q + 1) for Ki in tail)
    assert lhs(q) >= lhs(q + 1)
    assert lhs(1) >= lhs(q)


# -- num: the DP and the closed forms against the walk -------------------------

NUM_NOTE = "reduced form: rhs is tau(sum K_i, max l_i over the head)"
NUM_FIELDS = ("max_m", "max_K", "max_ell", "max_q")
DP_GRID = list(itertools.product(range(1, 4), range(1, 9), range(2, 6),
                                 (1, 2)))


def walk_report(box, budget=DEFAULT_TUPLE_BUDGET) -> LemmaReport:
    """The num report of the walk alone."""
    named = dict(zip(NUM_FIELDS, box))
    return LemmaReport("num", named, *_num_walk(*box, budget, named),
                       (NUM_NOTE,))


@pytest.mark.parametrize("bent", ["exact", *sorted(BENT_TAUS)])
def test_num_dp_equals_the_walk_on_the_grid(monkeypatch, bent):
    # _num_min_slack reads the program's own tau, so a bent tau moves its
    # minimum as it moves the walk's, below 0 included; there
    # check_lemma_num falls back to the walk, which lists every failing
    # instance in order.
    if bent != "exact":
        monkeypatch.setattr(lemmas_module, "tau", BENT_TAUS[bent])
    decided = []  # the DP's answers inside check_lemma_num

    def spy(*args):
        decided.append(_num_min_slack(*args))
        return decided[-1]

    monkeypatch.setattr(lemmas_module, "_num_min_slack", spy)
    for box in DP_GRID:
        walk = walk_report(box)
        assert _num_min_slack(*box[:3]) == walk.max_slack, box
        assert check_lemma_num(*box) == walk, box
    assert len(DP_GRID) == 192 and decided
    if bent == "exact":
        assert set(decided) == {0}
    else:
        assert min(decided) < 0 <= max(decided)


def test_num_count_equals_the_walk_on_every_grid_box():
    for box in GRID + DEEP_GRID + DP_GRID:
        assert _num_count(*box) == walk_report(box).instances_checked, box


def test_num_dp_decides_every_box_whose_lists_fit(monkeypatch):
    # With the program's tau and the default budget, the DP decides every
    # box whose count and work fit, small max_ell included, where a walk
    # step costs least: the walk is never called.
    def refuse(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(lemmas_module, "_num_walk", refuse)
    boxes = [box for box in DP_GRID if box[0] >= 2] + [(2, 500, 2, 1)]
    for box in boxes:
        report = check_lemma_num(*box)
        assert report.max_slack == 0 and report.passed, box
        assert report.instances_checked == _num_count(*box), box
    assert len(boxes) == 129


def test_num_small_work_cap_refuses(monkeypatch):
    box = (4, 5, 4, 2)
    ran = []  # the DP's answers inside check_lemma_num

    def spy(*args):
        ran.append(_num_min_slack(*args))
        return ran[-1]

    monkeypatch.setattr(lemmas_module, "_num_min_slack", spy)
    expected = check_lemma_num(*box)
    assert ran == [0]
    # a budget under the instance count: the DP's slack makes the cut
    assert_num_matches_reference(box, expected.instances_checked - 1)
    assert ran == [0, 0]

    def refuse(*args):
        raise AssertionError("the DP ran")

    monkeypatch.setattr(lemmas_module, "_num_min_slack", refuse)
    # the work one over its cap refuses before the DP, at any budget
    work = _num_work(*box[:3])
    monkeypatch.setattr(lemmas_module, "NUM_WORK_CAP", work - 1)
    for budget in (0, expected.instances_checked):
        with pytest.raises(ResourceBudgetError) as exc_info:
            check_lemma_num(*box, budget=budget)
        assert str(exc_info.value) == (
            f"num DP work of {work} steps exceeds cap {work - 1}")
        assert exc_info.value.partial_report is None
    # the work at its cap: the DP runs
    monkeypatch.setattr(lemmas_module, "_num_min_slack", spy)
    monkeypatch.setattr(lemmas_module, "NUM_WORK_CAP", work)
    assert check_lemma_num(*box) == expected


def test_num_cuts_of_the_program_tau_never_walk(monkeypatch):
    # With the program's tau the DP's least slack is 0, so the closed-form
    # count makes every cut, at every budget, and the walk never runs
    # (test_lemma_num_matches_reference_on_grid checks the reports).
    def refuse(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(lemmas_module, "_num_walk", refuse)
    cuts = 0
    for box in GRID + DEEP_GRID:
        for budget in BUDGETS:
            try:
                check_lemma_num(*box, budget=budget)
            except ResourceBudgetError as exc:
                assert exc.partial_report.instances_checked == budget
                cuts += 1
    assert cuts == 914  # of the 1,512 (box, budget) runs


def test_num_work_equals_an_instrumented_count(monkeypatch):
    # _num_work charges len(a) * len(b) steps plus 50 per _maxplus(a, b)
    # call, and one per tau call; a spy on both counts them as they run.
    steps = calls = taus = 0

    def maxplus(a, b):
        nonlocal steps, calls
        steps += len(a) * len(b)
        calls += 1
        return _maxplus(a, b)

    def counted_tau(k, ell):
        nonlocal taus
        taus += 1
        return tau(k, ell)

    monkeypatch.setattr(lemmas_module, "_maxplus", maxplus)
    monkeypatch.setattr(lemmas_module, "tau", counted_tau)
    boxes = list(itertools.product(range(1, 9), range(1, 12), range(2, 7)))
    for box in boxes + [(2, 40, 3), (9, 3, 7), (40, 1, 2)]:
        steps = calls = taus = 0
        _num_min_slack(*box)
        assert _num_work(*box) == steps + 50 * calls + taus, box
    # the count is a polynomial in max_m, evaluated at once
    start = time.perf_counter()
    assert _num_work(10**9, 1, 2) == 500_000_153_499_999_949
    assert time.perf_counter() - start < 0.01


def test_num_tails_are_the_best_tail_multisets(monkeypatch):
    # The tails list the DP pairs with the heads of m pairs holds, by sum
    # TS, the largest sum of floor(K_j / 2) over tails of at most
    # N = max_m - m parts from 1..max_K; an enumeration of the tail
    # multisets gives it independently.  The products of one L come three
    # per m (below by one pair, heads by tails, below by the best pair),
    # the last m without the third.
    def best(N, max_K):
        top = [0] * (N * max_K + 1)
        for n in range(1, N + 1):
            for tail in itertools.combinations_with_replacement(
                    range(1, max_K + 1), n):
                TS, T = sum(tail), sum(K // 2 for K in tail)
                top[TS] = max(top[TS], T)
        return top

    products = []

    def spy(a, b):
        products.append(b)
        return _maxplus(a, b)

    monkeypatch.setattr(lemmas_module, "_maxplus", spy)
    checked = 0
    for max_K in range(1, 15):
        expected = [best(N, max_K) for N in range(8)]
        for max_m in range(1, 9):
            products.clear()
            _num_min_slack(max_m, max_K, 2)
            tails = products[1::3]
            assert tails == expected[max_m - 1::-1], (max_m, max_K)
            checked += len(tails)
    assert checked == 14 * 36


def test_num_reaches_long_boxes_in_little_memory():
    # 1,000 tail lengths of ones: a list cap on per-length tail tables
    # once refused this box; the DP now keeps a few lists of at most
    # max_m * max_K + 1 sums.
    start = time.perf_counter()
    report = check_lemma_num(1000, 1, 2, 1)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        check_lemma_num(1000, 1, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == LemmaReport("num", dict(zip(NUM_FIELDS, (1000, 1, 2, 1))),
                                 500_500, 0, [], (NUM_NOTE,))
    assert elapsed < 0.5, elapsed
    assert peak < 2**20, peak


def test_num_largest_dp_within_the_default_budget_reports_in_under_2_s():
    # Among the boxes whose count fits the default budget, (2, 2581, 2, 1)
    # has the largest DP work: the work cap lets it through, and its
    # report takes about 0.6 s.
    assert _num_work(2, 2581, 2) == 13_341_438 <= NUM_WORK_CAP
    start = time.perf_counter()
    report = check_lemma_num(2, 2581, 2, 1)
    elapsed = time.perf_counter() - start
    assert report == LemmaReport("num", dict(zip(NUM_FIELDS, (2, 2581, 2, 1))),
                                 9_996_213, 0, [], (NUM_NOTE,))
    assert elapsed < 2, elapsed


def test_num_work_cap_refuses_no_box_within_the_default_budget():
    # The count grows with max_q, max_K and max_ell, and the work with
    # max_ell, so for each (max_m, max_K) the largest max_ell whose q = 1
    # count fits the default budget has the largest work.  The largest
    # max_K that fits falls as max_m grows, to 1 for the long boxes, whose
    # count is C(max_m + max_ell, max_m) - max_m - 1 (Vandermonde's
    # identity): so each box costs O(1) but the few past the largest max_K.
    def count(m, K, ell):
        if K == 1:
            return math.comb(m + ell, m) - m - 1
        return _num_count(m, K, ell, 1)

    assert all(count(m, 1, ell) == _num_count(m, 1, ell, 1)
               for m in range(1, 40) for ell in range(2, 9))
    largest = pairs = 0
    m, top = 2, math.inf  # top: the largest max_K that fits at m - 1
    while count(m, 1, 2) <= DEFAULT_TUPLE_BUDGET:
        ell = 2
        while count(m, 1, ell + 1) <= DEFAULT_TUPLE_BUDGET:
            ell += 1
        K = 1
        while K <= top:
            while ell >= 2 and count(m, K, ell) > DEFAULT_TUPLE_BUDGET:
                ell -= 1
            if ell < 2:
                break
            pairs += 1
            largest = max(largest, _num_work(m, K, ell))
            K += 1
        m, top = m + 1, K - 1
    assert (m, pairs) == (4472, 7568)
    assert largest == _num_work(2, 2581, 2) <= NUM_WORK_CAP


@pytest.mark.parametrize("box, budget, message", [
    # walks of the whole default budget that took 8.1, 8.2 and 6.5 s
    ((10**9, 1, 2, 1), DEFAULT_TUPLE_BUDGET,
     "num DP work of 500000153499999949 steps exceeds cap 14000000"),
    ((2, 10**6, 2, 1), DEFAULT_TUPLE_BUDGET,
     "num DP work of 2000007000249 steps exceeds cap 14000000"),
    ((2, 1, 10**8, 1), DEFAULT_TUPLE_BUDGET,
     "num DP work of 25799999742 steps exceeds cap 14000000"),
    # the shortest box of ones past the work cap: the widest box whose
    # count fits the default budget, (4471, 1, 2, 1), reports in about 1 s
    ((5141, 1, 2, 1), DEFAULT_TUPLE_BUDGET,
     "num DP work of 14004033 steps exceeds cap 14000000"),
    # a DP of about 2 minutes, and one of 1.3 s over 10^5 rows of tiny lists
    ((3, 2563, 40, 1), 10**18,
     "num DP work of 2050433424 steps exceeds cap 14000000"),
    ((3, 1, 10**5, 1), DEFAULT_TUPLE_BUDGET,
     "num DP work of 41399586 steps exceeds cap 14000000"),
])
def test_num_boxes_past_a_cap_are_refused_at_once(box, budget, message):
    start = time.perf_counter()
    with pytest.raises(ResourceBudgetError) as exc_info:
        check_lemma_num(*box, budget=budget)
    elapsed = time.perf_counter() - start
    assert str(exc_info.value) == message
    assert exc_info.value.partial_report is None
    assert elapsed < 0.1, elapsed


@pytest.mark.parametrize("box, budget, instances", [
    ((5, 20, 6, 5), 10**9, 786_148_145),
    ((6, 20, 6, 5), 10**11, 17_801_013_745),
])
def test_num_dp_reaches_boxes_the_walk_cannot_afford(box, budget, instances):
    # The walk takes about 0.2 us per (head, tail); these boxes have
    # 10^8 and 2 * 10^9 of them.
    start = time.perf_counter()
    report = check_lemma_num(*box, budget=budget)
    elapsed = time.perf_counter() - start
    assert report == LemmaReport("num", dict(zip(NUM_FIELDS, box)), instances,
                                 0, [], (NUM_NOTE,))
    assert elapsed < 0.1, elapsed


def test_num_single_pair_box_is_cut_in_closed_form():
    # With max_m = 1 each instance is one pair against its own tau, at
    # slack 0: walking the first 10^7 of 6 * 10^18 pairs took 13 s.
    start = time.perf_counter()
    with pytest.raises(ResourceBudgetError) as exc_info:
        check_lemma_num(1, 10**18, 7, 1000)
    elapsed = time.perf_counter() - start
    assert str(exc_info.value) == "instance budget 10000000 exceeded"
    assert exc_info.value.partial_report == LemmaReport(
        "num", dict(zip(NUM_FIELDS, (1, 10**18, 7, 1000))), 10**7, 0, [],
        ("partial: budget exhausted",), partial=True)
    assert elapsed < 3, elapsed

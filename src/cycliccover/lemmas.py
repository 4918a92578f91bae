"""Exhaustive checks of the two combinatorial lemmas behind sigma.

The "alg" lemma bounds the colength of an intersection of ideals in a local
ring: if ideals I_1, ..., I_l (l >= 2) inside the maximal ideal have total
colength k and I_1 has the largest colength, then

    colength(I_2 cap ... cap I_l) <= tau(k, l).

We check it on the concrete model of monomial ideals in two variables,
where an ideal is a staircase (a downward-closed set of lattice exponents,
its standard monomials), colength is the cell count, and the standard
monomials of an intersection are the union of the staircases.  A staircase
is enumerated as its column heights, a descending tuple (the partition of
its colength), and intersected as a bit mask of its cells, so a union is an
or and its colength a bit count.  The checked quantity depends on slots
2..l only through their union, so a DP over the distinct unions that lie
inside no other finds the least slack without listing tuples; tuples are
listed only in a box where one fails.  This is desk-scale evidence, not a
proof for general local rings; reports say so.

The "num" lemma is a pure integer inequality.  We verify its reduced form

    sum_{i<=m} tau(K_i, l_i) + sum_{i>m} floor(K_i / (q+1))
        <= tau(K, max(l_1, ..., l_m)),      K = sum of all K_i,

which is the inequality the sigma bookkeeping actually relies on (the
max-range in the headline statement has an ambiguous index set).

Both lemmas have short general proofs, resting on the identity
tau(k, l) = k - ceil(k/l) - l + 2 for k >= 1, l >= 2:

  * alg, in any local ring: each I_i lies in the maximal ideal m, so
    m / (I_2 cap ... cap I_l) embeds in the sum of the m / I_i, and with
    c_i the colength of I_i the intersection has colength at most
    1 + sum_{i>=2} (c_i - 1) = k - c_1 - l + 2 <= tau(k, l), since
    c_1 >= ceil(k/l).
  * num: q = 1 is the worst q, and there, with L = l_{i*} the largest l_i
    and j over the tail, the slack is
        sum_i ceil(K_i/l_i) + sum_j ceil(K_j/2) - ceil(K/L)
            + sum_{i != i*} (l_i - 2),
    whose ceiling part is >= 0 (ceil is subadditive and each l_i and 2 is
    at most L) and whose other part is >= 0 (each l_i >= 2).  One head
    pair with an empty tail has slack 0.

So neither lemma needs its oracle.  What the oracles still check is the
program's own tau values against both inequalities (neither DP assumes
anything about tau), and, for alg, how far the 2-variable model
sits below the general bound: its minimum slack is 1 or 2 at some boxes,
such as (k, ell) = (8, 4), where equality needs ell - 1 variables.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple

from .combinatorics import tau
from .errors import ResourceBudgetError

DEFAULT_COLENGTH_CAP = 12
DEFAULT_TUPLE_BUDGET = 10**7
# check_lemma_num refuses, before any work, a num box of max_m >= 2 whose
# DP would do more than NUM_WORK_CAP steps (_num_work, O(1) in the box).
# The DP keeps a few lists of at most max_m * max_K sums.  The work counts
# about 100 steps per item count, and for max_K >= 2 grows as the square of
# max_m * max_K, so the cap admits no box whose max_m * max_K passes
# 135,922, that of (135922, 1, 2) (about 5.5 MB traced): it bounds the DP's
# memory as well as its time.  Every num call costs a closed form, one DP
# of bounded memory and time, or an immediate refusal, whatever the box and
# the budget.  The largest work among the boxes whose instance count fits
# DEFAULT_TUPLE_BUDGET is that of (2, 2581, 2, 1), 6,672,035 steps, and a
# DP at the work cap takes about 0.4-1.3 s (Python 3.11, 2-vCPU VM).
NUM_WORK_CAP = 14 * 10**6


def enumerate_staircases(colength: int) -> list[tuple[int, ...]]:
    """All staircases of the given colength, as column heights: the
    partitions of colength in descending lexicographic order, p(colength)
    of them."""
    if colength < 1:
        raise ValueError(f"colength must be >= 1, got {colength}")
    if colength >= DEFAULT_COLENGTH_CAP:
        raise ResourceBudgetError(
            f"colength {colength} >= enumeration cap {DEFAULT_COLENGTH_CAP}"
        )
    return list(_partitions(colength, colength))


class LemmaReport(namedtuple(
        "LemmaReport", "lemma_id parameter_box instances_checked max_slack "
        "counterexamples notes partial", defaults=((), (), False))):
    """Outcome of one exhaustive lemma run over a parameter box.

    lemma_id is "alg" or "num"; max_slack is the minimum over instances of
    (bound - observed), None before any instance; partial says the search
    stopped at its budget.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_record(self) -> dict:
        return {
            "lemma": self.lemma_id,
            "parameter_box": dict(self.parameter_box),
            "instances_checked": self.instances_checked,
            "max_slack": self.max_slack,
            "counterexamples": list(self.counterexamples),
            "passed": self.passed,
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        status = ("FAIL" if not self.passed
                  else "PARTIAL" if self.partial else "PASS")
        lines = [
            f"lemma {self.lemma_id}: {status}",
            "box " + " ".join(f"{k}={v}" for k, v in sorted(self.parameter_box.items())),
            f"instances checked: {self.instances_checked}",
            f"min slack (bound - observed): {self.max_slack}",
        ]
        for c in self.counterexamples:
            lines.append(f"counterexample: {c}")
        for n in self.notes:
            lines.append(f"note: {n}")
        return "\n".join(lines)


def check_lemma_alg(
    k: int,
    ell: int,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> LemmaReport:
    """Check every staircase tuple (I_1, ..., I_ell) with total colength k.

    I_1 is forced to have maximal colength by sorting the colength
    partition descending.  The shape of I_1 never enters the checked
    quantity (only I_2, ..., I_ell are intersected), so it contributes its
    p(c_1) choices to the instance count only.  A colength partition is a
    partition of the excess k - ell into at most ell parts, part h standing
    for colength h + 1 and every other slot for colength 1, whose staircase
    (1,) lies inside every other: only slots of colength >= 2 are
    intersected, so a colength-1 slot costs nothing.

    The report (instance count, minimum slack, counterexamples in order
    and the instance a budget cut lands on) is an instance-by-instance
    search's, found in one pass over the colength partitions:

      * a partition holds prod p(c_i) instances, with p the partition
        numbers.  The search checks the budget once per partition, before
        its first instance, so the first partition that would cross the
        budget is the cut, and the partitions before it are checked;
      * the least slack is tau(k, ell) minus the largest union over the
        checked partitions (_alg_largest), found without listing tuples.
        It assumes nothing about tau, so it does not rest on the proof in
        the module docstring;
      * tuples are listed (_alg_failures) only when that largest union
        exceeds tau(k, ell), and then in every checked partition, each
        keeping its failing tuples, so none are listed for the program's
        own tau.

    A box whose largest colength, k - ell + 1, reaches DEFAULT_COLENGTH_CAP
    raises before any of this.
    """
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    if k < ell:
        raise ValueError(f"need k >= ell (each ideal has colength >= 1), got k={k}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    top = k - ell + 1
    if top >= DEFAULT_COLENGTH_CAP:
        raise ResourceBudgetError(
            f"colength {top} >= enumeration cap {DEFAULT_COLENGTH_CAP}")

    p = [1] + [0] * top  # p[n]: the number of shapes of colength n
    for part in range(1, top + 1):
        for n in range(part, top + 1):
            p[n] += p[n - part]
    checked = 0
    counted: list[tuple[int, ...]] = []
    cut = None
    for excess in _partitions(k - ell, ell):
        instances = math.prod(p[h + 1] for h in excess)
        if checked + instances > budget:
            cut = excess
            break
        checked += instances
        counted.append(excess)

    bound = tau(k, ell)
    states: dict = {}
    largest = _alg_largest(counted, states)
    counterexamples: list[dict] = []
    if largest > bound:
        for excess in counted:
            counterexamples += _alg_failures(excess, ell, bound, states)
    min_slack = bound - largest if counted else None
    box = {"k": k, "ell": ell}
    if cut is not None:
        big = [h + 1 for h in cut] or [1]
        raise _cut(f"tuple budget {budget} exceeded at colengths "
                   f"{tuple(big)} plus {ell - len(big)} slots of colength 1",
                   "alg", box, checked, min_slack, counterexamples)
    return LemmaReport(
        lemma_id="alg",
        parameter_box=box,
        instances_checked=checked,
        max_slack=min_slack,
        counterexamples=counterexamples,
        notes=(
            "model: monomial ideals in 2 variables (staircases); "
            "evidence for the local-ring statement, not a proof",
        ),
    )


def _alg_largest(partitions: list[tuple[int, ...]], states: dict) -> int:
    """The largest colength of I_2 cap ... cap I_ell over the given colength
    partitions (as excesses), 0 for none, found without listing tuples.

    A partition's union is at most its trivial bound 1 + sum_{i>=2} (c_i - 1)
    = k - c_1 - ell + 2, since every staircase holds the origin, so the
    partitions are taken by increasing first part, whose bounds fall, and
    the search stops at the first bound that the largest union found so
    far reaches.  The union states are shared through states.
    """
    largest = 0
    for excess in sorted(partitions, key=lambda e: e[:1]):
        if 1 + sum(excess[1:]) <= largest:
            break
        largest = max(largest, _largest_union(excess[1:], states))
    return largest


def _alg_failures(excess: tuple[int, ...], ell: int, bound: int,
                  states: dict) -> list[dict]:
    """The counterexamples of one colength partition, in the order of the
    product of its slots' shape lists: the tuples of staircases for slots
    2..ell whose union has more than bound cells.  The shapes are the
    one-slot masks of _union_states, in enumerate_staircases order, and a
    mask's ascending bits are its sorted cells (i, j)."""
    big = [h + 1 for h in excess] or [1]
    pad = ell - len(big)  # the colength-1 slots after big, each the origin
    failures = []
    for masks in itertools.product(*(_union_states((h,), states)
                                     for h in excess[1:])):
        observed = functools.reduce(operator.or_, masks, 1).bit_count()
        if observed > bound:
            failures.append({
                "colengths": big + [1] * pad,
                "staircases": [[divmod(b, DEFAULT_COLENGTH_CAP)
                                for b in range(mask.bit_length())
                                if mask >> b & 1] for mask in masks]
                              + [[(0, 0)] for _ in range(pad)],
                "observed": observed,
                "bound": bound,
            })
    return failures


def _largest_union(parts: tuple[int, ...], states: dict) -> int:
    """The largest colength of a union of staircases of colengths h + 1, for
    the parts h >= 1 of an excess, 1 for none (the staircase (1,) of a
    colength-1 slot).  The last slot only needs the largest cell count, so
    no states are kept for it."""
    if not parts:
        return 1
    prefix = _union_states(parts[:-1], states) if len(parts) > 1 else [0]
    return max((s | t).bit_count()
               for s in prefix for t in _union_states(parts[-1:], states))


def _union_states(parts: tuple[int, ...], states: dict) -> list[int]:
    """The distinct unions of staircases of colengths h + 1, for the parts
    h >= 1, that lie inside no other, memoised in states by parts.

    A staircase is a bit mask of its cells, cell (i, j) at bit
    i * DEFAULT_COLENGTH_CAP + j (a column holds fewer cells than the cap),
    so a union is an or and its colength a bit count.  A union inside
    another stays inside it after any further union, so it can never give
    the larger final colength.  One slot's unions are its staircases, none
    inside another; a longer prefix unions its states with the last slot's
    shapes and keeps those not inside one kept before, in order of
    decreasing colength (a union inside another is smaller).
    """
    found = states.get(parts)
    if found is None:
        if len(parts) == 1:
            found = [sum(((1 << h) - 1) << (i * DEFAULT_COLENGTH_CAP)
                         for i, h in enumerate(heights))
                     for heights in enumerate_staircases(parts[0] + 1)]
        else:
            unions = {s | t for s in _union_states(parts[:-1], states)
                      for t in _union_states(parts[-1:], states)}
            found = []
            for s in sorted(unions, key=int.bit_count, reverse=True):
                if all(s | t != t for t in found):
                    found.append(s)
        states[parts] = found
    return found


def check_lemma_num(
    max_m: int,
    max_K: int,
    max_ell: int,
    max_q: int,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> LemmaReport:
    """Verify the reduced integer inequality over a box.

    Ranges: 1 <= m <= r <= max_m, 1 <= K_i <= max_K, 2 <= l_i <= max_ell,
    1 <= q <= max_q.  Both sides are symmetric under permuting the
    (K_i, l_i) pairs and the tail K_i, so multisets are enumerated.  An
    instance is a (head, tail, q) triple; an empty tail has one instance.

    The report (instance count, minimum slack, counterexamples in order
    and the instance a budget cut lands on) is an instance-by-instance
    search's.  The left side is nonincreasing in q, so the least slack of
    a (head, tail) is its q = 1 slack.  A box takes one of three paths:

      * a box of single pairs (max_m = 1) needs no search: each instance
        is a pair against its own tau, at slack 0 whatever tau is;
      * a box whose DP work (_num_work) passes NUM_WORK_CAP is refused
        before any work, with no partial report;
      * any other box runs the DP (_num_min_slack), which computes the
        least q = 1 slack of the program's own tau over every (head, tail)
        without listing them: one max-plus knapsack over items, each a
        head pair or a tail part, where a part K_j is worth K_j // 2, its
        floor(K_j / (q + 1)) at q = 1.  It assumes nothing about tau, so
        it does not rest on the proof in the module docstring.

    A least slack >= 0 means no instance fails, so the closed-form count
    (_num_count) decides the rest: within the budget it is the report's,
    and past it the search is cut after budget instances, at slack 0 (its
    first instance, pair (1, 2) with no tail, is a pair against its own
    tau), or None at budget 0.  Only a negative least slack, which the
    program's own tau never gives, runs the plain search (_num_walk), which
    lists the counterexamples in order and cuts at the budget.
    """
    for name, v in (("max_m", max_m), ("max_K", max_K),
                    ("max_ell", max_ell), ("max_q", max_q)):
        if v < 1:
            raise ValueError(f"{name} must be >= 1, got {v}")
    if max_ell < 2:
        raise ValueError(f"max_ell must be >= 2 (each l_i >= 2), got {max_ell}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")

    box = {"max_m": max_m, "max_K": max_K, "max_ell": max_ell, "max_q": max_q}
    least = 0
    if max_m > 1:  # the work cap refuses a box before the DP runs
        work = _num_work(max_m, max_K, max_ell)
        if work > NUM_WORK_CAP:
            raise ResourceBudgetError(
                f"num DP work of {work} steps exceeds cap {NUM_WORK_CAP}")
        least = _num_min_slack(max_m, max_K, max_ell)
    if least < 0:
        checked, least, counterexamples = _num_walk(
            max_m, max_K, max_ell, max_q, budget, box)
    else:
        checked, counterexamples = _num_count(max_m, max_K, max_ell, max_q), []
        if checked > budget:
            raise _cut(f"instance budget {budget} exceeded", "num", box,
                       budget, 0 if budget else None, [])
    return LemmaReport(
        lemma_id="num",
        parameter_box=box,
        instances_checked=checked,
        max_slack=least,
        counterexamples=counterexamples,
        notes=("reduced form: rhs is tau(sum K_i, max l_i over the head)",),
    )


def _num_walk(max_m: int, max_K: int, max_ell: int, max_q: int, budget: int,
              box: dict) -> tuple[int, int | None, list[dict]]:
    """(instances checked, minimum slack, counterexamples) of a num box, by
    the instance-by-instance search: every (head, tail, q) in order, with
    one budget check per instance, so a cut raises with the partial report
    before instance budget + 1, after one step per instance.
    check_lemma_num runs it only where the DP has found a negative least
    slack, on a box that fits the work cap.  The first head's tails cost an
    instance each, and so does each one-pair head, so the cut comes before
    head pair budget + 1 or tail part budget + 1: neither pool holds more
    than budget + 1 items.
    """
    pairs = tuple(itertools.islice(
        ((K, l) for K in range(1, max_K + 1) for l in range(2, max_ell + 1)),
        budget + 1))
    parts = tuple(range(1, min(max_K, budget + 1) + 1))
    checked = 0
    min_slack: int | None = None
    counterexamples: list[dict] = []
    for m in range(1, max_m + 1):
        for head in itertools.combinations_with_replacement(pairs, m):
            head_K = sum(K for K, _ in head)
            ell = max(l for _, l in head)
            head_sum = sum(tau(K, l) for K, l in head)
            for n in range(max_m - m + 1):
                for tail in itertools.combinations_with_replacement(parts, n):
                    rhs = tau(head_K + sum(tail), ell)
                    for q in range(1, (max_q if n else 1) + 1):
                        if checked == budget:
                            raise _cut(f"instance budget {budget} exceeded",
                                       "num", box, budget, min_slack,
                                       counterexamples)
                        checked += 1
                        lhs = head_sum + sum(Ki // (q + 1) for Ki in tail)
                        if min_slack is None or rhs - lhs < min_slack:
                            min_slack = rhs - lhs
                        if lhs > rhs:
                            counterexamples.append({
                                "head": [list(p) for p in head],
                                "tail": list(tail),
                                "q": q,
                                "lhs": lhs,
                                "rhs": rhs,
                            })
    return checked, min_slack, counterexamples


def _num_count(max_m: int, max_K: int, max_ell: int, max_q: int) -> int:
    """Instances of a num box in closed form.  With P = max_K * (max_ell -
    1) pairs, K = max_K and M = max_m, the heads (multisets of 1..M pairs)
    are C(P + M, M) - 1 by the hockey-stick identity, and the splits (a
    head of m pairs with a tail multiset of up to M - m parts from 1..K)
    are C(P + K + M, M) - C(K + M, M) by Vandermonde's identity, summed
    over m = 0..M less the m = 0 term.  A split with an empty tail is one
    instance, any other max_q, one per q."""
    P, K, M = max_K * (max_ell - 1), max_K, max_m
    heads = math.comb(P + M, M) - 1
    splits = math.comb(P + K + M, M) - math.comb(K + M, M)
    return heads + max_q * (splits - heads)


def _num_work(max_m: int, max_K: int, max_ell: int) -> int:
    """The work of _num_min_slack in closed form from its list lengths:
    len(a) * len(b) element steps and a charge of 50 per _maxplus(a, b)
    call, plus one per tau call.  The charge stands for a call's own cost
    and the list work around it, which dominate on short lists: (3, 1,
    10^5) has 0.8 M steps and tau calls and 0.5 M calls, and takes about
    1.4 s, where a step of a long product takes about 50 ns.

    Each L computes one tau row of max_m * max_K values and makes 2 max_m
    - 1 products, each with a list of the max_K values of one item.  Sums
    of j items take j * (max_K - 1) + 1 values, and for r = 1..max_m the
    below of r - 1 items meets the pair at l = L and, but for r = max_m,
    the item list.  B sums the below lengths over r and last is the one
    at r = max_m, so the count costs O(1) whatever max_m is.
    """
    M, K = max_m, max_K
    B = (K - 1) * M * (M - 1) // 2 + M
    last = (K - 1) * (M - 1) + 1
    return (max_ell - 1) * (M * K + 50 * (2 * M - 1) + K * (2 * B - last))


def _num_min_slack(max_m: int, max_K: int, max_ell: int) -> int:
    """The least q = 1 slack tau(K, L) - S over the (head, tail) pairs of a
    num box, found without listing them: K is the sum of every K_i, L the
    head's largest l and S the left side at q = 1.

    Call the pairs and the tail parts items.  An instance of r = m + n
    items, 1 <= r <= max_m, is one pair with l = L and r - 1 other items,
    each a pair with l <= L or a tail part, and at q = 1 a part K_j is
    worth floor(K_j / (q + 1)) = K_j // 2.  An item enters the slack only
    through its K and its worth, so the other r - 1 items matter only
    through the largest worth per K sum: a max-plus knapsack over one item
    list, item[K - 1] = max(K // 2, tau(K, l) over l <= L), which takes
    every (m, n) split of r at once.  One product with the pair at l = L
    then gives the best S per K, against tau(K, L).  Nothing about tau is
    assumed: every value comes from tau itself.
    """
    least = None
    item = [K // 2 for K in range(1, max_K + 1)]
    for L in range(2, max_ell + 1):
        rhs = [tau(K, L) for K in range(1, max_m * max_K + 1)]
        with_L = rhs[:max_K]
        item = list(map(max, item, with_L))
        below = [0]  # the best worth of r - 1 items, by K sum - r + 1
        for r in range(1, max_m + 1):
            best = _maxplus(below, with_L)  # by K sum - r
            slack = min(map(operator.sub, rhs[r - 1:r - 1 + len(best)], best))
            if least is None or slack < least:
                least = slack
            if r < max_m:
                below = _maxplus(below, item)
    return least


def _maxplus(a: list, b: list) -> list:
    """The max-plus product of two non-empty lists: item s is the largest
    a[i] + b[s - i]."""
    if len(a) < len(b):
        a, b = b, a
    n = len(a)
    c = [x + b[0] for x in a] + [a[-1] + y for y in b[1:]]
    for j in range(1, len(b)):
        y = b[j]
        c[j:j + n] = [u if u >= x + y else x + y
                      for u, x in zip(c[j:j + n], a)]
    return c


def _cut(message: str, lemma_id: str, box: dict, checked: int,
         min_slack: int | None, counterexamples: list) -> ResourceBudgetError:
    """The budget error of a search cut after checked instances, carrying
    its partial report."""
    return ResourceBudgetError(message, partial_report=LemmaReport(
        lemma_id, box, checked, min_slack, counterexamples,
        ("partial: budget exhausted",), partial=True))


def _partitions(total: int, width: int):
    """Partitions of total into at most width parts, as descending tuples in
    descending lexicographic order.

    The next one lowers the rightmost part that can lose one while the parts
    after it still fit under it, and refills those parts greedily.
    """
    if total < 0 or (total and not width):
        return
    a = [total] if total else []
    while True:
        yield tuple(a)
        rest = 1  # what the lowered part frees, plus the parts after it
        for i in range(len(a) - 1, -1, -1):
            top = a[i] - 1
            if top * (width - i - 1) >= rest:
                break
            rest += a[i]
        else:
            return
        fill, last = divmod(rest, top)
        a[i:] = [top] * (fill + 1) + ([last] if last else [])

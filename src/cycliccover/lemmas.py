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
listed only where one fails.  This is desk-scale evidence, not a proof for
general local rings; reports say so.

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
# check_lemma_num's DP runs only where its lists, max_m tail lists and
# fewer than 10 working lists of max_m * max_K + 1 sums each, hold no more
# than this many entries in all.  Its walk tabulates tau at no more than
# this many (K, l) pairs, and tails holding no more than this many parts in
# all; a larger box computes the rest as it reaches them, so its memory
# stays bounded while the instance budget bounds its time.
NUM_TABLE_CAP = 10**5


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
      * tuples are listed (_alg_failures) only in a checked partition
        whose largest union exceeds tau(k, ell), which holds every
        counterexample, so none are listed for the program's own tau.

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
            if _largest_union(excess[1:], states) > bound:
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
    a (head, tail) is its q = 1 slack, and one of three methods finds it:

      * a box of single pairs (max_m = 1) needs none: each instance is a
        pair against its own tau, at slack 0 whatever tau is, so its count
        and any cut are known in closed form;
      * the DP (_num_min_slack) computes the least q = 1 slack of the
        program's own tau over every (head, tail) without listing them;
        it assumes nothing about tau, so it does not rest on the proof in
        the module docstring.  It decides the box when its lists fit
        NUM_TABLE_CAP (checked first: the count below loops over m), the
        closed-form instance count (_num_count) fits the budget and its
        slack is >= 0, so that no instance fails;
      * otherwise the walk (_num_walk) visits every (head, tail): it lists
        the counterexamples in order, cuts at the budget and takes the
        boxes whose DP lists do not fit.

    Memory stays bounded whatever the box and the budget: the DP holds at
    most NUM_TABLE_CAP list entries, and so does each of the walk's tables.
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
    if max_m == 1:
        checked = max_K * (max_ell - 1)
        if checked > budget:
            raise _cut(f"instance budget {budget} exceeded", "num", box,
                       budget, 0 if budget else None, [])
        min_slack, counterexamples = 0, []
    elif ((max_m + 10) * (max_m * max_K + 1) <= NUM_TABLE_CAP
            and (count := _num_count(max_m, max_K, max_ell, max_q)) <= budget
            and (least := _num_min_slack(max_m, max_K, max_ell)) >= 0):
        checked, min_slack, counterexamples = count, least, []
    else:
        checked, min_slack, counterexamples = _num_walk(
            max_m, max_K, max_ell, max_q, budget, box)
    return LemmaReport(
        lemma_id="num",
        parameter_box=box,
        instances_checked=checked,
        max_slack=min_slack,
        counterexamples=counterexamples,
        notes=("reduced form: rhs is tau(sum K_i, max l_i over the head)",),
    )


def _num_walk(max_m: int, max_K: int, max_ell: int, max_q: int, budget: int,
              box: dict) -> tuple[int, int | None, list[dict]]:
    """(instances checked, minimum slack, counterexamples) of a num box, by
    visiting every (head, tail); a budget cut raises with the partial
    report.

    Each (head, tail) is decided by its q = 1 slack and all its instances
    are counted in one step; q is walked one by one only where that slack
    is negative (to list every failing q) or the step would cross the
    budget.  A head extends a prefix from _prefixes by one pair and a tail
    comes from _tails, each in O(1) steps, so a call costs O(1) integer
    steps per (head, tail).

    The tau rows, the tail tables and the head-pair list each hold at most
    NUM_TABLE_CAP entries, and none reaches past what the budget can (see
    K_reach below); values past them are computed as the walk reaches them.
    """
    # Each m = 1 head and each tail costs an instance, so the walk is cut
    # before pair index budget + 1 (l <= budget + 2), any K_i > budget + 1
    # and any instance of more than budget + 1 pairs (the first head walks
    # every shorter tail length first).
    K_reach = min(max_K, budget + 1)
    top_ell = min(max_ell, budget + 2)
    r_reach = min(max_m, budget + 1)
    # rhs_tau[l][K] = tau(K, l) for K <= r_reach * K_reach, within the cap;
    # index 0 is never read (K >= m >= 1), and no row is built if K_top = 0.
    K_top = min(r_reach * K_reach, NUM_TABLE_CAP // (top_ell - 1))
    rhs_tau = {l: [0] + [tau(K, l) for K in range(1, K_top + 1)]
               for l in range(2, top_ell + 1)} if K_top else {}
    # tables[n] = _tails(K_reach, n), for the tail lengths that fit the cap.
    tables: list[list] = []
    parts = 0
    for n in range(r_reach):
        parts += math.comb(K_reach + n - 1, n) * n
        if parts > NUM_TABLE_CAP:
            break
        tables.append([(tuple(runs), tail_K, tail_q1)
                       for runs, tail_K, tail_q1 in _tails(K_reach, n)])
    # Head pair i is (K, l) = (i // width + 1, i % width + 2): pairs in
    # K-major order, so multisets of indices walk in the order of
    # combinations_with_replacement over the pairs.
    width = max_ell - 1
    n_pairs = K_reach * width
    pairs: list = []  # pair(i) for i < NUM_TABLE_CAP, listed when m = 2 starts

    def pair(i):  # (K, l, tau(K, l)) of pair i
        if i < len(pairs):
            return pairs[i]
        K, l = divmod(i, width)
        return K + 1, l + 2, tau(K + 1, l + 2)

    def pairs_from(start):  # pair(i) for start <= i < n_pairs
        # past the list, K and l run in nested loops: no divmod per pair
        K0, l0 = divmod(max(start, len(pairs)), width)
        return itertools.chain(
            itertools.islice(pairs, start, None),
            ((K, l, tau(K, l)) for K in range(K0 + 1, K_reach + 1)
             for l in range(l0 + 2 if K == K0 + 1 else 2, max_ell + 1)))

    checked = 0
    min_slack: int | None = None
    counterexamples: list[dict] = []

    for m in range(1, max_m + 1):
        if m == 2:  # each pair cost the m = 1 walk an instance
            pairs += [pair(i) for i in range(min(n_pairs, NUM_TABLE_CAP))]
        for prefix, start, pre_K, pre_ell, pre_sum in _prefixes(
                m - 1, pair, n_pairs - 1):
            for K, l, t in pairs_from(start):
                head_K = pre_K + K
                ell = l if l > pre_ell else pre_ell
                head_sum = pre_sum + t
                rhs_row = rhs_tau.get(ell, ())
                in_row = len(rhs_row) - head_K  # covers tail_K < in_row
                for n in range(max_m - m + 1):
                    steps = max_q if n else 1
                    for tail, tail_K, tail_q1 in (tables[n] if n < len(tables)
                                                  else _tails(K_reach, n)):
                        # a single pair's own tau is its rhs with no tail
                        rhs = (rhs_row[head_K + tail_K] if tail_K < in_row
                               else tau(head_K + tail_K, ell)
                               if tail_K or prefix else head_sum)
                        slack = rhs - head_sum - tail_q1
                        if slack >= 0 and checked + steps <= budget:
                            checked += steps
                            if min_slack is None or slack < min_slack:
                                min_slack = slack
                            continue
                        if slack >= 0:  # the budget ends inside these q
                            # the slack only grows with q: q = 1 holds the
                            # least, if it fits, and no q is a counterexample
                            if checked < budget and (min_slack is None
                                                     or slack < min_slack):
                                min_slack = slack
                            raise _cut(f"instance budget {budget} exceeded",
                                       "num", box, budget, min_slack,
                                       counterexamples)
                        for q in range(1, steps + 1):
                            lhs = head_sum + sum(c * (Ki // (q + 1))
                                                 for Ki, c in tail)
                            checked += 1
                            if checked > budget:
                                raise _cut(f"instance budget {budget} exceeded",
                                           "num", box, checked - 1, min_slack,
                                           counterexamples)
                            if min_slack is None or rhs - lhs < min_slack:
                                min_slack = rhs - lhs
                            if lhs > rhs:
                                counterexamples.append({
                                    "head": [[i // width + 1, i % width + 2]
                                             for i in prefix] + [[K, l]],
                                    "tail": [Ki for Ki, c in tail
                                             for _ in range(c)],
                                    "q": q,
                                    "lhs": lhs,
                                    "rhs": rhs,
                                })
    return checked, min_slack, counterexamples


def _num_count(max_m: int, max_K: int, max_ell: int, max_q: int) -> int:
    """Instances of a num box in closed form: head multisets of m pairs
    times tail multisets of up to max_m - m parts, each non-empty tail
    counting max_q instances.  The tails of 1..N parts from 1..max_K are
    C(max_K + N, N) - 1 in all (the hockey-stick identity).  With max_q = 1
    this counts the (head, tail) pairs."""
    pairs = max_K * (max_ell - 1)
    return sum(math.comb(pairs + m - 1, m)
               * (1 + max_q * (math.comb(max_K + max_m - m, max_m - m) - 1))
               for m in range(1, max_m + 1))


def _num_min_slack(max_m: int, max_K: int, max_ell: int) -> int:
    """The least q = 1 slack tau(HK + TS, L) - H - T over the (head, tail)
    pairs of a num box, found without listing them.

    A head of m pairs enters the slack only through its K sum HK, its
    largest l, L, and its tau sum H, and a tail of n parts only through its
    sum TS and its T = sum floor(K_j / 2).  So only the largest H per
    (m, L, HK) matters, and the largest T per TS over tails of at most
    max_m - m parts.  Both are max-plus knapsacks over dense lists indexed
    by the sum, and one more max-plus product per (m, L) pairs them off.
    Nothing about tau is assumed: every value comes from tau itself.
    """
    halves = [K // 2 for K in range(1, max_K + 1)]
    # tail_best[N][TS]: the largest T over tails of at most N parts.  Tails
    # of exactly n parts reach the sums n..n * max_K; T >= 0 fills the rest.
    tail_best = [[0]]
    exactly = [0]
    for n in range(1, max_m):
        exactly = _maxplus(exactly, halves)
        below = tail_best[-1]
        tail_best.append(below[:n] + [
            max(x, y) for x, y in itertools.zip_longest(
                below[n:], exactly, fillvalue=0)])
    least = None
    for L in range(2, max_ell + 1):
        rhs = [tau(K, L) for K in range(1, max_m * max_K + 1)]
        with_L = rhs[:max_K]
        # best_pair[K - 1]: the largest tau(K, l) over l <= L
        best_pair = list(map(max, best_pair, with_L)) if L > 2 else with_L
        below = [0]  # the largest H of m - 1 pairs with l <= L, by HK - m + 1
        for m in range(1, max_m + 1):
            heads = _maxplus(below, with_L)  # one pair has l = L; HK >= m
            sums = _maxplus(heads, tail_best[max_m - m])
            slack = min(r - s for r, s in zip(rhs[m - 1:], sums))
            if least is None or slack < least:
                least = slack
            if m < max_m:
                below = _maxplus(below, best_pair)
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


def _prefixes(size: int, pair, last: int):
    """(indices, last index, K sum, max l, tau sum) for each size-multiset of
    the pair indices 0..last, in combinations_with_replacement order, where
    pair(i) is (K, l, tau(K, l)) of pair i; size 0 gives one empty prefix,
    whose last index is 0.

    indices is one list, changed in place for the next prefix, and sums[j]
    holds the running sums of indices[:j].  The next prefix raises the
    rightmost index below last by one and sets the indices after it equal
    to it, so only the sums from that level on are refilled: a prefix costs
    O(1) steps on average whatever size is.
    """
    indices = [0] * size
    sums = [(0, 0, 0)] * (size + 1)
    i = j = 0
    while True:
        if j < size:
            K, l, t = pair(i)
            for k in range(j, size):
                indices[k] = i
                pre_K, pre_ell, pre_sum = sums[k]
                sums[k + 1] = pre_K + K, max(pre_ell, l), pre_sum + t
        yield indices, i, *sums[size]
        j = size - 1
        while j >= 0 and indices[j] == last:
            j -= 1
        if j < 0:
            return
        i = indices[j] + 1


def _tails(max_K: int, n: int):
    """(runs, sum of tail, q = 1 tail term) for each n-multiset of 1..max_K,
    in combinations_with_replacement order, where runs lists the tail's
    (value, multiplicity) pairs by increasing value.

    runs is one list, changed in place for the next tail: raising the
    rightmost part below max_K by one and setting the parts after it (all
    max_K) equal to it changes at most two runs, and the sum and the q = 1
    term by a closed form, so a step is O(1) whatever n and max_K are.
    """
    runs = [(1, n)] if n else []
    tail_K, tail_q1 = n, 0
    while True:
        yield runs, tail_K, tail_q1
        top = runs.pop()[1] if runs and runs[-1][0] == max_K else 0
        if not runs:
            return
        Ki, c = runs.pop()
        if c > 1:
            runs.append((Ki, c - 1))
        runs.append((Ki + 1, top + 1))
        tail_K += 1 + top * (Ki + 1 - max_K)
        tail_q1 += (top + 1) * ((Ki + 1) // 2) - Ki // 2 - top * (max_K // 2)


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

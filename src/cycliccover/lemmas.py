"""Brute-force oracles for the two combinatorial lemmas behind sigma.

The "alg" lemma bounds the colength of an intersection of ideals in a local
ring: if ideals I_1, ..., I_l (l >= 2) inside the maximal ideal have total
colength k and I_1 has the largest colength, then

    colength(I_2 cap ... cap I_l) <= tau(k, l).

We check it on the concrete model of monomial ideals in two variables,
where an ideal is a staircase (a downward-closed set of lattice exponents,
its standard monomials), colength is the cell count, and the standard
monomials of an intersection are the union of the staircases.  A staircase
is stored as its column heights, a descending tuple (the partition of its
colength), so colength is the sum of the heights and a union has the
tallest column of each position; cells are listed only to print a
counterexample.  This is desk-scale evidence, not a proof for general local
rings; reports say so.

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

So neither lemma needs its oracle.  What the brute force still checks is
the program's own tau values against both inequalities, and, for alg,
how far the 2-variable model sits below the general bound: its minimum
slack is 1 or 2 at some boxes, such as (k, ell) = (8, 4), where equality
needs ell - 1 variables.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .combinatorics import tau
from .errors import ResourceBudgetError

DEFAULT_COLENGTH_CAP = 12
DEFAULT_TUPLE_BUDGET = 10**7
# check_lemma_num tabulates tau at no more than this many (K, l) pairs, and
# tails holding no more than this many parts in all; a larger box computes
# the rest as it reaches them, so its memory stays bounded while the
# instance budget bounds its time.
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


def intersection_colength(
        staircases: list[tuple[int, ...]] | tuple[tuple[int, ...], ...]) -> int:
    """Colength of the intersection ideal: its staircase is the union, whose
    columns are the tallest of each position, so the sum of the column-wise
    maxima of the heights."""
    if not staircases:
        raise ValueError("need at least one staircase")
    return sum(map(max, itertools.zip_longest(*staircases, fillvalue=0)))


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
    """Exhaust all staircase tuples (I_1, ..., I_ell) with total colength k.

    I_1 is forced to have maximal colength by sorting the colength
    partition descending.  The shape of I_1 never enters the checked
    quantity (only I_2, ..., I_ell are intersected), so shapes are
    enumerated for slots 2..ell while I_1 contributes its p(c_1) choices
    to the instance count only.  Each shape is a tuple of column heights,
    and the intersection colength is the sum of their column-wise maxima.
    A colength partition is a partition of the excess k - ell into at most
    ell parts, part h standing for colength h + 1 and every other slot for
    colength 1, whose staircase (1,) lies inside every other: only slots of
    colength >= 2 are intersected, so a colength-1 slot costs nothing.
    """
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    if k < ell:
        raise ValueError(f"need k >= ell (each ideal has colength >= 1), got k={k}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")

    bound = tau(k, ell)
    checked = 0
    min_slack: int | None = None
    counterexamples: list[dict] = []

    shapes: dict[int, list[tuple[int, ...]]] = {}  # by colength, built once
    for excess in _partitions(k - ell, ell):
        # descending, so the first slot has maximal colength: hypothesis holds.
        big = [h + 1 for h in excess] or [1]
        for c in big:  # big[0] first: a colength over the cap raises there
            if c not in shapes:
                shapes[c] = enumerate_staircases(c)
        n_first = len(shapes[big[0]])
        shape_lists = [shapes[c] for c in big[1:]]
        pad = ell - len(big)  # the colength-1 slots after big
        if checked + n_first * math.prod(map(len, shape_lists)) > budget:
            raise _cut(f"tuple budget {budget} exceeded at colengths "
                       f"{tuple(big)} plus {pad} slots of colength 1",
                       "alg", {"k": k, "ell": ell}, checked, min_slack,
                       counterexamples)
        for rest in itertools.product(*shape_lists):
            observed = intersection_colength(rest) if rest else 1
            slack = bound - observed
            if min_slack is None or slack < min_slack:
                min_slack = slack
            if slack < 0:
                counterexamples.append({
                    "colengths": big + [1] * pad,
                    "staircases": [_cells(s) for s in rest + ((1,),) * pad],
                    "observed": observed,
                    "bound": bound,
                })
            checked += n_first

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


def check_lemma_num(
    max_m: int,
    max_K: int,
    max_ell: int,
    max_q: int,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> LemmaReport:
    """Exhaustively verify the reduced integer inequality over a box.

    Ranges: 1 <= m <= r <= max_m, 1 <= K_i <= max_K, 2 <= l_i <= max_ell,
    1 <= q <= max_q.  Both sides are symmetric under permuting the
    (K_i, l_i) pairs and the tail K_i, so multisets are enumerated.  An
    instance is a (head, tail, q) triple; an empty tail has one instance.

    The report (instance count, minimum slack, counterexamples in order
    and the instance a budget cut lands on) is an instance-by-instance
    search's.  The left side is nonincreasing in q, so each (head, tail)
    is decided by its q = 1 slack and all its instances are counted in one
    step; q is walked one by one only where that slack is negative (to list
    every failing q) or the step would cross the budget.  A head extends a
    prefix from _prefixes by one pair and a tail comes from _tails, each in
    O(1) steps, so a call costs O(1) integer steps per (head, tail).

    Memory: the tau rows, the tail tables and the head-pair list each hold
    at most NUM_TABLE_CAP entries, and none reaches past what the budget
    can (see K_reach below); values past them are computed as the walk
    reaches them, so a huge box at any budget runs in bounded memory.
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
        rest = range(max(start, len(pairs)), n_pairs)
        return itertools.chain(itertools.islice(pairs, start, None),
                               map(pair, rest))

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

    return LemmaReport(
        lemma_id="num",
        parameter_box=box,
        instances_checked=checked,
        max_slack=min_slack,
        counterexamples=counterexamples,
        notes=("reduced form: rhs is tau(sum K_i, max l_i over the head)",),
    )


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


def _cells(heights: tuple[int, ...]) -> list[tuple[int, int]]:
    """The sorted cells (i, j) of a staircase: column i holds j < heights[i]."""
    return [(i, j) for i, h in enumerate(heights) for j in range(h)]


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

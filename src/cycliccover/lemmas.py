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
            raise ResourceBudgetError(
                f"tuple budget {budget} exceeded at colengths "
                f"{tuple(big) + (1,) * pad}",
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

    The left side is nonincreasing in q (each floor(K_i / (q+1)) is), so
    q = 1 has the smallest slack among a tail's max_q instances.  Each
    (head, tail) is therefore decided by its q = 1 slack alone, and all its
    instances are counted in one step; q is walked one by one, as an
    instance-by-instance search would, only when that slack is negative
    (to list every failing q) or the step would cross the budget (so the
    cut, and the partial report, land on the same instance).  tau is
    evaluated once per call for every head pair and every K <= max_m *
    max_K, the tails of each length are listed once with their sums, and
    witness dicts are built for counterexamples only, so a call costs
    O(#heads * #tails) integer steps rather than O(#instances) tau calls.
    Tables past NUM_TABLE_CAP are not built: those tau values and tails are
    computed as the search reaches them.  Nothing the budget keeps the walk
    from reaching is built, so a huge box at a small budget stays small.
    """
    for name, v in (("max_m", max_m), ("max_K", max_K),
                    ("max_ell", max_ell), ("max_q", max_q)):
        if v < 1:
            raise ValueError(f"{name} must be >= 1, got {v}")
    if max_ell < 2:
        raise ValueError(f"max_ell must be >= 2 (each l_i >= 2), got {max_ell}")

    box = {"max_m": max_m, "max_K": max_K, "max_ell": max_ell, "max_q": max_q}
    # Each m = 1 head and each tail costs an instance, so the walk is cut
    # before pair index budget + 1 and before any K_i above budget + 1.
    K_reach = min(max_K, budget + 1)
    pairs = list(itertools.islice(
        ((K, l) for K in range(1, K_reach + 1) for l in range(2, max_ell + 1)),
        budget + 1))
    head_tau = {pair: tau(*pair) for pair in pairs}
    # rhs_tau[l][K] = tau(K, l) for K <= max_m * K_reach, within the cap;
    # index 0 is never read (K >= m >= 1).
    top_ell = max(l for _, l in pairs)
    K_top = min(max_m * K_reach, NUM_TABLE_CAP // (top_ell - 1))
    rhs_tau = {l: [0] + [tau(K, l) for K in range(1, K_top + 1)]
               for l in range(2, top_ell + 1)}
    # tables[n] = _tails(K_reach, n), for the tail lengths that fit the cap.
    tables: list[list] = []
    parts = 0
    for n in range(max_m):
        parts += math.comb(K_reach + n - 1, n) * n
        if parts > NUM_TABLE_CAP:
            break
        tables.append(list(_tails(K_reach, n)))
    checked = 0
    min_slack: int | None = None
    counterexamples: list[dict] = []

    for m in range(1, max_m + 1):
        for head in itertools.combinations_with_replacement(pairs, m):
            head_sum = sum(head_tau[pair] for pair in head)
            head_K = sum(K for K, _ in head)
            ell = max(l for _, l in head)
            rhs_row = rhs_tau[ell]
            for n in range(max_m - m + 1):
                steps = max_q if n else 1
                for tail, tail_K, tail_q1 in (
                        tables[n] if n < len(tables) else _tails(K_reach, n)):
                    try:
                        rhs = rhs_row[head_K + tail_K]
                    except IndexError:
                        rhs = tau(head_K + tail_K, ell)
                    slack = rhs - head_sum - tail_q1
                    if slack >= 0 and checked + steps <= budget:
                        checked += steps
                        if min_slack is None or slack < min_slack:
                            min_slack = slack
                        continue
                    for q in range(1, steps + 1):
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

    return LemmaReport(
        lemma_id="num",
        parameter_box=box,
        instances_checked=checked,
        max_slack=min_slack,
        counterexamples=counterexamples,
        notes=("reduced form: rhs is tau(sum K_i, max l_i over the head)",),
    )


def _tails(max_K: int, n: int):
    """(tail, sum of tail, q = 1 tail term) for each n-multiset of
    1..max_K, in combinations_with_replacement order."""
    return ((tail, sum(tail), sum(Ki // 2 for Ki in tail))
            for tail in itertools.combinations_with_replacement(
                range(1, max_K + 1), n))


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

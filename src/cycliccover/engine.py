"""Decision procedures: how much positivity does a pullback inherit.

Given the covering degree d and a profile of best-known jet / very-ampleness
orders for the twists L-qM, compute the largest k for which the criteria
guarantee that the pullback is k-jet ample (resp. k-very ample):

    jet :  jet_order(q)            >= k - q          for q = 0..min(k, d-1)
    very:  effective_very_order(q) >= sigma(k, d, q)  for q = 0..min(k, d-1)

where effective_very_order = max(jet_order, very_order), since a k-jet
ample bundle is k-very ample.  Branched and unbranched coverings share the
same hypotheses; the flag is carried for reporting only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from .combinatorics import Kind, sigma

NO_GUARANTEE = -1  # sentinel order: not even globally generated


@dataclass(frozen=True)
class PositivityProfile:
    """Map q -> (jet_order, very_order) of the twist L-qM.

    Orders are best-known lower bounds with -1 meaning "no guarantee",
    0 global generation, 1 very ampleness, and so on.  Missing q reads
    as (-1, -1).  An order-k guarantee implies all lower orders.
    """

    entries: Mapping[int, Tuple[int, int]]
    label: str = ""

    def __post_init__(self):
        for q, (j, v) in self.entries.items():
            if q < 0:
                raise ValueError(f"twist index q must be >= 0, got {q}")
            if j < NO_GUARANTEE or v < NO_GUARANTEE:
                raise ValueError(f"orders must be >= -1, got {(j, v)} at q={q}")

    def jet_order(self, q: int) -> int:
        return self.entries.get(q, (NO_GUARANTEE, NO_GUARANTEE))[0]

    def very_order(self, q: int) -> int:
        return self.entries.get(q, (NO_GUARANTEE, NO_GUARANTEE))[1]

    def effective_very_order(self, q: int) -> int:
        """Best very-ampleness order, folding in jet => very."""
        j, v = self.entries.get(q, (NO_GUARANTEE, NO_GUARANTEE))
        return max(j, v)


@dataclass(frozen=True)
class CoveringScenario:
    d: int
    branched: bool
    profile: PositivityProfile
    label: str = ""

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"covering degree d must be >= 2, got {self.d}")


@dataclass(frozen=True)
class QCheck:
    """One q-indexed requirement: is the available order enough?"""
    q: int
    required: int
    available: int
    satisfied: bool


@dataclass(frozen=True)
class CriterionVerdict:
    kind: Kind
    k_star: int  # maximal guaranteed order, -1 if even k=0 fails

    @property
    def feasible(self) -> Tuple[int, ...]:
        """Every guaranteed order: the feasible set is 0..k_star."""
        return tuple(range(self.k_star + 1))

    def to_record(self) -> dict:
        """The guaranteed orders are 0..k_star, so k_star stands for them
        all and the record stays the same size at any order."""
        return {"kind": self.kind, "k_star": self.k_star}


def explain_requirement(kind: Kind, k: int, scenario: CoveringScenario) -> Tuple[QCheck, ...]:
    """Per-q (required, available) pairs for guaranteeing order k."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    checks = []
    for q in range(min(k, scenario.d - 1) + 1):
        if kind == "jet":
            required = k - q
            available = scenario.profile.jet_order(q)
        elif kind == "very":
            required = sigma(k, scenario.d, q)
            available = scenario.profile.effective_very_order(q)
        else:
            raise ValueError(f"kind must be 'jet' or 'very', got {kind!r}")
        checks.append(QCheck(q, required, available, available >= required))
    return tuple(checks)


def max_guaranteed_jet_order(scenario: CoveringScenario) -> CriterionVerdict:
    """Largest k with jet_order(q) >= k-q for all q = 0..min(k, d-1).

    No k above jet_order(0) can satisfy the q=0 requirement, so that is
    the search bound.
    """
    return _bisect(scenario, "jet", scenario.profile.jet_order(0))


def max_guaranteed_very_order(scenario: CoveringScenario) -> CriterionVerdict:
    """Largest k with effective_very_order(q) >= sigma(k, d, q) for all q.

    The q=0 requirement sigma(k, d, 0) = k caps feasible k at
    effective_very_order(0).
    """
    return _bisect(scenario, "very", scenario.profile.effective_very_order(0))


def _bisect(scenario: CoveringScenario, kind: Kind, bound: int) -> CriterionVerdict:
    """Largest feasible k in -1..bound, where k = -1 asks for nothing.

    Feasibility is downward closed in k: each requirement (k-q, or
    sigma(k, d, q), which is nondecreasing in k because tau(k+1, l) -
    tau(k, l) is 0 or 1) grows with k, and a larger k only adds twists.
    So the feasible set is 0..k_star and bisection finds its end with
    O(log bound) calls of explain_requirement.
    """
    lo, hi = NO_GUARANTEE, bound + 1  # lo is feasible; hi fails at q=0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if all(c.satisfied for c in explain_requirement(kind, mid, scenario)):
            lo = mid
        else:
            hi = mid
    return CriterionVerdict(kind=kind, k_star=lo)

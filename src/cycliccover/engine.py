"""Decision procedures: how much positivity does a pullback inherit.

Given the covering degree d and a profile of best-known jet / very-ampleness
orders for the twists L-qM, compute the largest k for which the criteria
guarantee that the pullback is k-jet ample (resp. k-very ample):

    jet :  jet_order(q)            >= k - q          for q = 0..min(k, d-1)
    very:  effective_very_order(q) >= sigma(k, d, q)  for q = 0..min(k, d-1)

where effective_very_order = max(jet_order, very_order), since a k-jet
ample bundle is k-very ample.  Branched and unbranched coverings share the
same hypotheses; the flag is carried for reporting only.

Twist q constrains only k >= q, and its requirement is nondecreasing in k,
so the orders it allows are 0..T_q, and k* = min_q T_q.  A twist of order a
has T_q = a + q (jet) or a + 1 + min{m + floor(a/m) : q <= m < d} (very),
and T_q = q-1 if a = -1, so only the profile's entries and the first
missing twist are visited: O(1) integer steps each, whatever d and a are.
"""

from __future__ import annotations

from collections import namedtuple
from types import MappingProxyType

from .combinatorics import _least, _sigma_threshold

NO_GUARANTEE = -1  # sentinel order: not even globally generated


class PositivityProfile:
    """Map q -> (jet_order, very_order) of the twist L-qM.

    Orders are best-known lower bounds with -1 meaning "no guarantee",
    0 global generation, 1 very ampleness, and so on.  Missing q reads
    as (-1, -1).  An order-k guarantee implies all lower orders.  The
    entries are checked, then kept as a private copy that ``entries``
    shows read-only; profiles are immutable and hash by value.
    """

    __slots__ = ("entries", "_orders")

    def __init__(self, entries):
        orders = dict(entries)
        for q, (j, v) in orders.items():
            if q < 0:
                raise ValueError(f"twist index q must be >= 0, got {q}")
            if j < NO_GUARANTEE or v < NO_GUARANTEE:
                raise ValueError(f"orders must be >= -1, got {(j, v)} at q={q}")
        # Lookups read the plain dict; the proxy keeps it checked.
        object.__setattr__(self, "_orders", orders)
        object.__setattr__(self, "entries", MappingProxyType(orders))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._orders == other._orders

    def __hash__(self):
        return hash(frozenset(self._orders.items()))

    def __repr__(self):
        return f"PositivityProfile(entries={self._orders!r})"

    def jet_order(self, q: int) -> int:
        return self._orders.get(q, (NO_GUARANTEE, NO_GUARANTEE))[0]

    def effective_very_order(self, q: int) -> int:
        """Best very-ampleness order, folding in jet => very."""
        j, v = self._orders.get(q, (NO_GUARANTEE, NO_GUARANTEE))
        return max(j, v)


class CoveringScenario(namedtuple("CoveringScenario", "d branched profile label")):
    """A degree-d covering with the positivity profile of its twists; the
    label is carried for reporting only."""

    __slots__ = ()

    def __new__(cls, d: int, branched: bool, profile: PositivityProfile,
                label: str = ""):
        if d < 2:
            raise ValueError(f"covering degree d must be >= 2, got {d}")
        return super().__new__(cls, d, branched, profile, label)


class QCheck(namedtuple("QCheck", "q required available satisfied")):
    """One q-indexed requirement: is the available order enough?"""

    __slots__ = ()


class CriterionVerdict(namedtuple("CriterionVerdict", "kind k_star")):
    """The largest guaranteed order k_star of a criterion ("jet" or
    "very"), -1 if even k = 0 fails; the guaranteed orders are 0..k_star."""

    __slots__ = ()

    def to_record(self) -> dict:
        """The guaranteed orders are 0..k_star, so k_star stands for them
        all and the record stays the same size at any order."""
        return {"kind": self.kind, "k_star": self.k_star}


def explain_requirement(kind: str, k: int, scenario: CoveringScenario) -> tuple[QCheck, ...]:
    """Per-q (required, available) pairs for guaranteeing order k, as the
    criteria command prints them; the decision itself does not use them.
    kind and k are checked here, so each twist's sigma(k, d, q) is taken
    unchecked: k for q = 0, else k + 1 - min(l + floor(k/l) : q < l <= d)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if kind not in ("jet", "very"):
        raise ValueError(f"kind must be 'jet' or 'very', got {kind!r}")
    d, profile = scenario.d, scenario.profile
    checks = []
    for q in range(min(k, d - 1) + 1):
        if kind == "jet":
            required = k - q
            available = profile.jet_order(q)
        else:
            required = k + 1 - _least(k, q + 1, d) if q else k
            available = profile.effective_very_order(q)
        checks.append(QCheck(q, required, available, available >= required))
    return tuple(checks)


def max_guaranteed_jet_order(scenario: CoveringScenario) -> CriterionVerdict:
    """Largest k with jet_order(q) >= k-q for all q = 0..min(k, d-1)."""
    return _min_threshold(scenario, "jet")


def max_guaranteed_very_order(scenario: CoveringScenario) -> CriterionVerdict:
    """Largest k with effective_very_order(q) >= sigma(k, d, q) for all q."""
    return _min_threshold(scenario, "very")


def _min_threshold(scenario: CoveringScenario, kind: str) -> CriterionVerdict:
    """k* = min_q T_q; best is the minimum so far, from T_0 = have(0).
    Past best <= q-1 no twist can lower it, as T_q >= q-1."""
    d, profile = scenario.d, scenario.profile
    have = profile.jet_order if kind == "jet" else profile.effective_very_order
    best = have(0)
    q = 1
    while q < d and q - 1 < best:
        a = have(q)
        best = min(best, a + q if kind == "jet" else _sigma_threshold(a, d, q))
        q += 1
    return CriterionVerdict(kind=kind, k_star=best)

"""Stock covering scenarios with the positivity claims they should satisfy.

Each builder encodes a concrete geometry as a positivity profile for the
twists L-qM, using closed-form order formulas:

  * projective space: O(m) is m-jet ample and m-very ample for m >= 0;
  * the degree-2 Del Pezzo double plane (Geiser involution): L = O(k),
    M = O(1), d = 2;
  * the Hirzebruch surface F_2 under the Bertini double cover: L = aD + bf
    is k-jet ample (equivalently k-very ample) iff a >= k and b - 2a >= k,
    with branch class 2(2D + 3f);
  * abelian varieties with a d-torsion twist: unbranched, all twists of
    m*Theta share jet order m - 2.

Profiles of non-ample inputs clamp to -1 instead of erroring, so sharpness
experiments can probe the boundary.  The catalog packages the claims each
scenario should satisfy under the decision engine; claims with provenance
"informational" are reported but never counted as failures (the Bertini
constants derived here differ from the closed-form ones quoted for it,
and the bertini entry's notes state both condition sets).
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple
from types import MappingProxyType

from .engine import (
    CoveringScenario,
    PositivityProfile,
    max_guaranteed_jet_order,
    max_guaranteed_very_order,
)

# Explicit very-ampleness of abelian pullbacks holds once d > 2^g (recorded
# as a catalog annotation; no theta-function computation is attempted).
ABELIAN_TORSION_NOTE = (
    "for a principally polarized abelian g-fold, the pullback by a "
    "d-torsion covering is very ample once d > 2^g"
)


def _scenario(d: int, branched: bool, label: str, order) -> CoveringScenario:
    """The scenario whose twist q (0 <= q < d) has jet and very order
    order(q), clamped to -1."""
    profile = PositivityProfile({q: (max(order(q), -1),) * 2 for q in range(d)})
    return CoveringScenario(d, branched, profile, label)


def projective_space_scenario(n: int, a: int, r: int, d: int) -> CoveringScenario:
    """Degree-d cover of P^n branched along a smooth divisor in |O(dr)|.

    L = O(a), M = O(r); the twist L-qM = O(a - qr) has order a - qr.
    """
    if n < 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")
    if a < 0:
        raise ValueError(f"degree a must be >= 0, got {a}")
    if r < 2:
        raise ValueError(f"degree r must be >= 2, got {r}")
    if d < 2:
        raise ValueError(f"covering degree d must be >= 2, got {d}")
    return _scenario(d, True, f"projective space n={n}, a={a}, r={r}, d={d}",
                     lambda q: a - q * r)


def geiser_scenario(k: int) -> CoveringScenario:
    """Double plane branched over a smooth quartic: L = O(k), M = O(1)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return _scenario(2, True, f"Geiser double plane, k={k}", lambda q: k - q)


def hirzebruch2_scenario(a: int, b: int) -> CoveringScenario:
    """Double cover of F_2 with M = 2D + 3f, L = aD + bf.

    aD + bf carries order min(a, b - 2a) (same for jets and subschemes),
    clamped to -1 when negative.
    """
    # L - qM = (a - 2q)D + (b - 3q)f, and (b - 3q) - 2(a - 2q) = b - 2a + q
    return _scenario(2, True, f"Bertini cover of F_2, a={a}, b={b}",
                     lambda q: min(a - 2 * q, b - 2 * a + q))


def abelian_torsion_scenario(m: int, d: int) -> CoveringScenario:
    """Unbranched cover from a d-torsion twist; all twists of m*Theta
    share jet order m - 2 (torsion does not change the numerics)."""
    if m < 1:
        raise ValueError(f"polarization multiple m must be >= 1, got {m}")
    if d < 2:
        raise ValueError(f"torsion order d must be >= 2, got {d}")
    return _scenario(d, False, f"abelian torsion cover, m={m}, d={d}",
                     lambda q: m - 2)


class Claim(namedtuple("Claim", "kind comparison value provenance note",
                       defaults=("",))):
    """Expected relation between the engine's k_star and a stated value:
    kind "jet" or "very", comparison "==", ">=" or "<=", provenance
    "stated", "derived" or "informational"."""

    __slots__ = ()


class ClaimResult(namedtuple("ClaimResult", "claim k_star holds")):
    __slots__ = ()

    def to_record(self) -> dict:
        return {
            "kind": self.claim.kind,
            "comparison": self.claim.comparison,
            "value": self.claim.value,
            "provenance": self.claim.provenance,
            "note": self.claim.note,
            "k_star": self.k_star,
            "holds": self.holds,
        }


class CatalogEntry(namedtuple(
        "CatalogEntry", "id description parameters builder claims notes")):
    """A named scenario: builder(**parameters) builds it, and claims are
    what the engine should find.  The parameters are copied into a
    read-only mapping, and entries hash by value."""

    __slots__ = ()

    def __new__(cls, id: str, description: str, parameters: dict,
                builder, claims: tuple[Claim, ...], notes: tuple[str, ...] = ()):
        return super().__new__(cls, id, description,
                               MappingProxyType(dict(parameters)),
                               builder, claims, notes)

    def __hash__(self):
        return hash((self.id, self.description, frozenset(self.parameters.items()),
                     self.builder, self.claims, self.notes))

    def scenario(self) -> CoveringScenario:
        return self.builder(**self.parameters)


_COMPARE = {"==": operator.eq, ">=": operator.ge, "<=": operator.le}


def evaluate_entry(entry: CatalogEntry) -> list[ClaimResult]:
    """Each claim's result; only the criteria the claims name are run."""
    scenario = entry.scenario()
    k_stars = {}
    results = []
    for claim in entry.claims:
        if claim.kind not in k_stars:
            decide = {"jet": max_guaranteed_jet_order,
                      "very": max_guaranteed_very_order}[claim.kind]
            k_stars[claim.kind] = decide(scenario).k_star
        k_star = k_stars[claim.kind]
        results.append(ClaimResult(
            claim=claim,
            k_star=k_star,
            holds=_COMPARE[claim.comparison](k_star, claim.value),
        ))
    return results


def default_catalog() -> list[CatalogEntry]:
    """The stock entries, as a new list of the one catalog built per process."""
    return list(_catalog())


@functools.cache
def _catalog() -> tuple[CatalogEntry, ...]:
    return (
        CatalogEntry(
            id="abelian-principal",
            description="principally polarized abelian variety, d-torsion cover; "
                        "the polarization itself is not globally generated",
            parameters={"m": 1, "d": 4},
            builder=abelian_torsion_scenario,
            claims=(
                Claim("jet", "==", -1, "stated",
                      "m=1: no order guaranteed for the base bundle"),
                Claim("very", "==", -1, "stated"),
            ),
            notes=(ABELIAN_TORSION_NOTE,),
        ),
        CatalogEntry(
            id="elliptic-product",
            description="product of elliptic curves, (k+2)-th power of the "
                        "product polarization; order exactly k on both sides",
            parameters={"m": 5, "d": 3},
            builder=abelian_torsion_scenario,
            claims=(
                Claim("jet", "==", 3, "stated",
                      "m=k+2 with k=3; guarantee is tight"),
            ),
        ),
        CatalogEntry(
            id="projective-space-r2d2",
            description="double cover of P^n, L=O((d-1)r) with r=d=2; "
                        "pullback reaches order d-1, not d",
            parameters={"n": 2, "a": 2, "r": 2, "d": 2},
            builder=projective_space_scenario,
            claims=(Claim("jet", "==", 1, "stated"),),
        ),
        CatalogEntry(
            id="projective-space-r3d3",
            description="triple cover of P^n, L=O((d-1)r) with r=d=3",
            parameters={"n": 2, "a": 6, "r": 3, "d": 3},
            builder=projective_space_scenario,
            claims=(Claim("jet", "==", 2, "stated"),),
        ),
        CatalogEntry(
            id="geiser",
            description="degree-2 Del Pezzo double plane: -kK is k-very ample "
                        "for k >= 2, and not (k+1)-very ample",
            parameters={"k": 3},
            builder=geiser_scenario,
            claims=(
                Claim("very", ">=", 3, "stated"),
                Claim("very", "==", 3, "derived",
                      "engine guarantee stops exactly at k"),
            ),
        ),
        CatalogEntry(
            id="bertini",
            description="double cover of the Hirzebruch surface F_2 branched "
                        "in |2(2D+3f)|; L=3D+9f satisfies the engine's "
                        "conditions for k=2",
            parameters={"a": 3, "b": 9},
            builder=hirzebruch2_scenario,
            claims=(
                Claim("jet", ">=", 2, "derived",
                      "a >= k+1 and b >= 2a+k with k=2"),
            ),
            notes=(
                "quoted jet conditions {a>=k+1, b>=3k} differ from the "
                "engine-derived {a>=k+1, b>=2a+k}; both are reported",
                "quoted very-ampleness constants a >= floor((k-1)/2)+2, "
                "b >= 3*floor((k-1)/2)+3 are likewise reported, not asserted",
            ),
        ),
        CatalogEntry(
            id="bertini-quoted-borderline",
            description="F_2 cover at the quoted borderline (a,b)=(k+1,3k) "
                        "for k=2; the engine's conditions are not met there",
            parameters={"a": 3, "b": 6},
            builder=hirzebruch2_scenario,
            claims=(
                Claim("jet", ">=", 2, "informational",
                      "holds under the quoted closed form but not under the "
                      "engine-derived conditions {a>=k+1, b>=2a+k}"),
            ),
        ),
    )

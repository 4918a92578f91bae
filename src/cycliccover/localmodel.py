"""Symbolic witnesses for the section constructions on toy local models.

The covering side of the story, locally: sections of the pullback split as
s = sum_q t^q * s_q with s_q pulled back from the base, and the deck
transformation scales the q-th summand by zeta_d^q.  On an affine germ
with unrestricted section spaces (any truncated series is available as an
s_q) the constructions used to prescribe jets become exact linear algebra
over Q(zeta_d):

  * away from the ramification locus, separating the points of one fiber
    reduces to a Vandermonde system in the powers of zeta_d
    (vandermonde_solve / case2_construct);
  * at a ramification point the covering is u_1 -> u_1^d = v_1 and a jet
    splits by the residue of the u_1-exponent mod d
    (decompose_jet_ramified / case3_construct).

This module verifies the construction identities with exact arithmetic;
it says nothing about positivity of actual bundles on actual varieties.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .cyclotomic import CyclotomicNumber
from .errors import ResourceBudgetError, SingularSystemError
from .series import TruncatedSeries

TRUNCATION_CAP = 12


@dataclass(frozen=True)
class SectionDecomposition:
    """s = sum_{q<d} t^q * components[q], components over base coordinates."""

    d: int
    components: Tuple[TruncatedSeries, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"degree must be >= 1, got {self.d}")
        if len(self.components) != self.d:
            raise ValueError(
                f"need exactly d={self.d} components, got {len(self.components)}")
        vars0 = self.components[0].variables
        for c in self.components[1:]:
            if c.variables != vars0:
                raise ValueError("components must share variables")


def evaluate_at_orbit_point(decomposition: SectionDecomposition,
                            beta: int) -> TruncatedSeries:
    """Value of the section at the orbit point indexed by beta: substitute
    t -> zeta_d^beta, i.e. sum_q zeta^(q*beta) * components[q]."""
    d = decomposition.d
    total = None
    for q, comp in enumerate(decomposition.components):
        weighted = comp.scale(CyclotomicNumber.root_of_unity(d, q * beta))
        total = weighted if total is None else total + weighted
    return total


def apply_deck(decomposition: SectionDecomposition) -> SectionDecomposition:
    """The deck transformation scales the q-th summand by zeta_d^q."""
    d = decomposition.d
    return SectionDecomposition(d, tuple(
        comp.scale(CyclotomicNumber.root_of_unity(d, q))
        for q, comp in enumerate(decomposition.components)))


def add_decompositions(a: SectionDecomposition,
                       b: SectionDecomposition) -> SectionDecomposition:
    if a.d != b.d:
        raise ValueError("degree mismatch")
    return SectionDecomposition(a.d, tuple(
        x + y for x, y in zip(a.components, b.components)))


def multiply_decompositions(a: SectionDecomposition,
                            b: SectionDecomposition) -> SectionDecomposition:
    """Product with the unbranched convention t^d = 1 (indices wrap mod d)."""
    if a.d != b.d:
        raise ValueError("degree mismatch")
    d = a.d
    bound = min(min(c.bound for c in a.components),
                min(c.bound for c in b.components))
    vars0 = a.components[0].variables
    out: List[TruncatedSeries] = [
        TruncatedSeries.zero(vars0, bound) for _ in range(d)]
    for q, cq in enumerate(a.components):
        for p, cp in enumerate(b.components):
            out[(q + p) % d] = out[(q + p) % d] + cq.truncate(bound) * cp.truncate(bound)
    return SectionDecomposition(d, tuple(out))


# -- fiber separation (regular orbit) --------------------------------------


def vandermonde_solve(d: int, betas: Sequence[int],
                      rhs_index: int = 0) -> Tuple[CyclotomicNumber, ...]:
    """Solve the separation system for one regular fiber.

    The nodes are 0, betas[0], ..., betas[-1] (l of them, distinct mod d);
    row j demands sum_c zeta^(c*node_j) * alpha_c = delta(j, rhs_index).
    So (alpha_0, ..., alpha_{l-1}) are the coefficients of the Lagrange
    polynomial of node rhs_index; substituting back reproduces the
    right-hand side with zero residual.
    """
    nodes = [0] + [b % d for b in betas]
    if not 0 <= rhs_index < len(nodes):
        raise ValueError(
            f"rhs index {rhs_index} out of range 0..{len(nodes) - 1}")
    _check_fiber(d, nodes)
    return tuple(_lagrange(d, nodes, rhs_index))


def vandermonde_residual(d: int, betas: Sequence[int],
                         alphas: Sequence[CyclotomicNumber],
                         rhs_index: int = 0) -> Tuple[CyclotomicNumber, ...]:
    """Exact residuals (lhs - rhs) of the solved system, row by row."""
    nodes = [0] + [b % d for b in betas]
    out = []
    for j, node in enumerate(nodes):
        acc = CyclotomicNumber.zero(d)
        for c, alpha in enumerate(alphas):
            acc = acc + CyclotomicNumber.root_of_unity(d, c * node) * alpha
        target = 1 if j == rhs_index else 0
        out.append(acc - target)
    return tuple(out)


def _check_fiber(d: int, nodes: List[int]) -> None:
    """At most d orbit indices (residues mod d), all distinct: then the
    roots zeta^node differ and the Vandermonde system is invertible."""
    if len(nodes) > d:
        raise ValueError(f"at most d={d} points in a fiber, got {len(nodes)}")
    if len(set(nodes)) != len(nodes):
        raise SingularSystemError(
            f"orbit indices {nodes} not distinct mod {d}")


def _lagrange(d: int, nodes: Sequence[int], r: int) -> List[CyclotomicNumber]:
    """Coefficients, constant first, of prod_{j != r} (x - x_j) / (x_r - x_j)
    with x_j = zeta^nodes[j]: column r of the inverse Vandermonde matrix.
    The nodes must pass _check_fiber."""
    xs = [CyclotomicNumber.root_of_unity(d, n) for n in nodes]
    one = CyclotomicNumber.one(d)
    coeffs, denom = [one], one
    for j, xj in enumerate(xs):
        if j != r:  # p -> (x - x_j) * p: p[k] -> p[k-1] - x_j * p[k]
            coeffs = ([-(xj * coeffs[0])]
                      + [lo - xj * hi for lo, hi in zip(coeffs, coeffs[1:])]
                      + [coeffs[-1]])
            denom = denom * (xs[r] - xj)
    inv = denom.inverse()
    return [c * inv for c in coeffs]


def case2_construct(d: int, betas: Sequence[int],
                    jets: Sequence[TruncatedSeries],
                    orders: Sequence[int]) -> SectionDecomposition:
    """Build a section meeting prescribed jets at l points of one regular
    fiber (orbit indices betas, jets[i] prescribed mod m^orders[i]).

    With unrestricted section spaces the q-th summand is the alpha-weighted
    combination of the prescribed jets: the jet at point i is weighted by
    the coefficients of the Lagrange polynomial of node i, which is 1 at
    zeta^betas[i] and 0 at the fiber's other points.
    """
    l = len(betas)
    if not (len(jets) == len(orders) == l and l >= 1):
        raise ValueError("betas, jets and orders must have equal positive length")
    if any(o < 1 for o in orders):
        raise ValueError(f"orders must be >= 1, got {orders}")
    bound = max(orders)
    if bound > TRUNCATION_CAP:
        raise ResourceBudgetError(
            f"truncation bound {bound} exceeds cap {TRUNCATION_CAP}")
    vars0 = jets[0].variables
    lifted = [j.truncate(min(j.bound, orders[i])).with_bound(bound)
              for i, j in enumerate(jets)]
    components = [TruncatedSeries.zero(vars0, bound) for _ in range(d)]
    nodes = [b % d for b in betas]
    _check_fiber(d, nodes)
    for i in range(l):
        for q, alpha in enumerate(_lagrange(d, nodes, i)):
            components[q] = components[q] + lifted[i].scale(alpha)
    return SectionDecomposition(d, tuple(components))


# -- ramification point ------------------------------------------------------


def base_coordinates(variables: Sequence[str]) -> Tuple[str, ...]:
    """Coordinate names downstairs: the ramification coordinate u maps to
    u^d = v; remaining coordinates are shared."""
    first = variables[0]
    mapped = "v" + first[1:] if first.startswith("u") else first + "_down"
    return (mapped,) + tuple(variables[1:])


def decompose_jet_ramified(jet: TruncatedSeries, d: int) -> List[TruncatedSeries]:
    """Split a jet at a ramification point by the residue of the exponent
    of the ramification coordinate mod d.

    Component q collects the terms with first exponent i_1 = q mod d,
    rewritten in base coordinates with v_1 = u_1^d (first exponent
    becomes (i_1 - q) / d).
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    down = base_coordinates(jet.variables)
    buckets: List[dict] = [{} for _ in range(d)]
    for exps, coeff in jet.terms.items():
        q = exps[0] % d
        buckets[q][((exps[0] - q) // d,) + exps[1:]] = coeff
    return [TruncatedSeries(down, jet.bound, b) for b in buckets]


def reassemble_ramified(components: Sequence[TruncatedSeries], d: int,
                        variables: Sequence[str], bound: int) -> TruncatedSeries:
    """Inverse of the splitting: sum_q u_1^q * components[q](v_1 -> u_1^d)."""
    terms: dict = {}
    for q, comp in enumerate(components):
        for exps, coeff in comp.terms.items():
            up = (q + d * exps[0],) + exps[1:]
            if sum(up) >= bound:
                continue
            acc = terms.get(up, 0) + coeff
            if acc == 0:
                terms.pop(up, None)
            else:
                terms[up] = acc
    return TruncatedSeries(variables, bound, terms)


@dataclass(frozen=True)
class Obstruction:
    """A twist whose guaranteed order cannot carry its jet component."""
    q: int
    needed_order: int
    available_order: int


@dataclass(frozen=True)
class RamifiedConstruction:
    """Outcome of prescribing a jet mod m^order at a ramification point.

    components[q] is the base-coordinate jet the twist L-qM must realize,
    prescribed mod m^(order - q); prescription_depths records those depths.
    """

    d: int
    order: int
    jet: TruncatedSeries
    components: Tuple[TruncatedSeries, ...]

    @property
    def component_orders(self) -> Tuple[int, ...]:
        """Max base-coordinate degree of each component (-1 if zero)."""
        return tuple(c.total_degree() for c in self.components)

    @property
    def prescription_depths(self) -> Tuple[int, ...]:
        return tuple(self.order - q for q in range(self.d))

    def reassembled(self) -> TruncatedSeries:
        return reassemble_ramified(self.components, self.d,
                                   self.jet.variables, self.order)

    def obstructions(self, twist_orders: Sequence[int]) -> List[Obstruction]:
        """Components whose degree exceeds the order available in the twist.

        twist_orders[q] is the guaranteed jet order of L-qM (-1 when the
        twist guarantees nothing, also used for missing entries).
        """
        out = []
        for q, comp in enumerate(self.components):
            if comp.is_zero():
                continue
            needed = comp.total_degree()
            available = twist_orders[q] if q < len(twist_orders) else -1
            if needed > available:
                out.append(Obstruction(q, needed, available))
        return out


def case3_construct(d: int, jet: TruncatedSeries, order: int) -> RamifiedConstruction:
    """Split the prescribed jet at a ramification point into the per-twist
    prescriptions s_q mod m^(order - q); reassembly is exact."""
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order > TRUNCATION_CAP:
        raise ResourceBudgetError(
            f"truncation bound {order} exceeds cap {TRUNCATION_CAP}")
    if jet.total_degree() >= order:
        raise ValueError(
            f"jet of degree {jet.total_degree()} is not a jet mod m^{order}")
    normalized = jet.truncate(min(jet.bound, order)).with_bound(order)
    components = decompose_jet_ramified(normalized, d)
    return RamifiedConstruction(d=d, order=order, jet=normalized,
                                components=tuple(components))


# -- randomized trial driver (shared by tests and the CLI) --------------------


def run_case2_trial(rng: random.Random, max_d: int = 6,
                    max_order: int = 4, n_vars: int = 2) -> dict:
    """One randomized fiber-separation trial; returns an audit transcript."""
    d = rng.randint(2, max_d)
    l = rng.randint(1, d)
    betas = rng.sample(range(d), l)
    orders = [rng.randint(1, max_order) for _ in range(l)]
    variables = tuple(f"u{i + 1}" for i in range(n_vars))
    jets = []
    for order in orders:
        terms = {}
        for exps in _exponents_below(n_vars, order):
            if rng.random() < 0.5:
                terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        jets.append(TruncatedSeries(variables, order, terms))
    section = case2_construct(d, betas, jets, orders)
    ok = []
    for i, beta in enumerate(betas):
        got = evaluate_at_orbit_point(section, beta).truncate(orders[i])
        want = jets[i].truncate(orders[i])
        ok.append(got == want)
    return {
        "d": d,
        "betas": betas,
        "orders": orders,
        "prescriptions_met": all(ok),
        "per_point": ok,
    }


def _exponents_below(n_vars: int, bound: int):
    if n_vars == 0:
        yield ()
        return
    for first in range(bound):
        for rest in _exponents_below(n_vars - 1, bound - first):
            yield (first,) + rest

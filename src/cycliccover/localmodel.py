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
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .cyclotomic import CyclotomicNumber
from .errors import ResourceBudgetError, SingularSystemError
from .series import TruncatedSeries, collect_terms

TRUNCATION_CAP = 12


class SectionDecomposition(namedtuple("SectionDecomposition", "d components")):
    """s = sum_{q<d} t^q * components[q], components over base coordinates."""

    __slots__ = ()

    def __new__(cls, d: int, components: tuple[TruncatedSeries, ...]):
        if d < 1:
            raise ValueError(f"degree must be >= 1, got {d}")
        if len(components) != d:
            raise ValueError(
                f"need exactly d={d} components, got {len(components)}")
        vars0 = components[0].variables
        for c in components[1:]:
            if c.variables != vars0:
                raise ValueError("components must share variables")
        return super().__new__(cls, d, components)


def evaluate_at_orbit_point(decomposition: SectionDecomposition,
                            beta: int) -> TruncatedSeries:
    """Value of the section at the orbit point indexed by beta: substitute
    t -> zeta_d^beta, i.e. sum_q zeta^(q*beta) * components[q]."""
    d, comps = decomposition.d, decomposition.components
    roots = [CyclotomicNumber.root_of_unity(d, q * beta) for q in range(d)]
    return collect_terms(comps[0].variables, min(c.bound for c in comps), (
        (exps, root * coeff) for root, comp in zip(roots, comps)
        for exps, coeff in comp.terms.items()))


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
    bound = min(c.bound for c in a.components + b.components)
    # adding into zeros of the least bound truncates every product
    out = [TruncatedSeries.zero(a.components[0].variables, bound)
           for _ in range(d)]
    for q, cq in enumerate(a.components):
        for p, cp in enumerate(b.components):
            out[(q + p) % d] = out[(q + p) % d] + cq * cp
    return SectionDecomposition(d, tuple(out))


# -- fiber separation (regular orbit) --------------------------------------


def vandermonde_solve(d: int, betas: Sequence[int],
                      rhs_index: int = 0) -> tuple[CyclotomicNumber, ...]:
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
                         rhs_index: int = 0) -> tuple[CyclotomicNumber, ...]:
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


def _check_fiber(d: int, nodes: list[int]) -> None:
    """At most d orbit indices (residues mod d), all distinct: then the
    roots zeta^node differ and the Vandermonde system is invertible."""
    if len(nodes) > d:
        raise ValueError(f"at most d={d} points in a fiber, got {len(nodes)}")
    if len(set(nodes)) != len(nodes):
        raise SingularSystemError(
            f"orbit indices {nodes} not distinct mod {d}")


def _lagrange(d: int, nodes: Sequence[int], r: int) -> list[CyclotomicNumber]:
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


def base_coordinates(variables: Sequence[str]) -> tuple[str, ...]:
    """Coordinate names downstairs: the ramification coordinate u maps to
    u^d = v; remaining coordinates are shared."""
    first = variables[0]
    mapped = "v" + first[1:] if first.startswith("u") else first + "_down"
    return (mapped,) + tuple(variables[1:])


def decompose_jet_ramified(jet: TruncatedSeries, d: int) -> list[TruncatedSeries]:
    """Split a jet at a ramification point by the residue of the exponent
    of the ramification coordinate mod d.

    Component q collects the terms with first exponent i_1 = q mod d,
    rewritten in base coordinates with v_1 = u_1^d (first exponent
    becomes (i_1 - q) / d).
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    down = base_coordinates(jet.variables)
    buckets: list[list] = [[] for _ in range(d)]
    for exps, coeff in jet.terms.items():
        q = exps[0] % d
        buckets[q].append((((exps[0] - q) // d,) + exps[1:], coeff))
    return [collect_terms(down, jet.bound, b) for b in buckets]


def reassemble_ramified(components: Sequence[TruncatedSeries], d: int,
                        variables: Sequence[str], bound: int) -> TruncatedSeries:
    """Inverse of the splitting: sum_q u_1^q * components[q](v_1 -> u_1^d)."""
    return collect_terms(tuple(variables), bound, (
        ((q + d * exps[0],) + exps[1:], coeff)
        for q, comp in enumerate(components)
        for exps, coeff in comp.terms.items()))


class Obstruction(namedtuple("Obstruction", "q needed_order available_order")):
    """A twist whose guaranteed order cannot carry its jet component."""

    __slots__ = ()


class RamifiedConstruction(namedtuple("RamifiedConstruction",
                                      "d order jet components")):
    """Outcome of prescribing a jet mod m^order at a ramification point.

    components[q] is the base-coordinate jet the twist L-qM must realize,
    prescribed mod m^(order - q).
    """

    __slots__ = ()

    @property
    def component_orders(self) -> tuple[int, ...]:
        """Max base-coordinate degree of each component (-1 if zero)."""
        return tuple(c.total_degree() for c in self.components)

    def reassembled(self) -> TruncatedSeries:
        return reassemble_ramified(self.components, self.d,
                                   self.jet.variables, self.order)

    def obstructions(self, twist_orders: Sequence[int]) -> list[Obstruction]:
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


def run_case2_trial(rng: random.Random, max_d: int = 6) -> dict:
    """One randomized fiber-separation trial, jets in u1, u2 of orders 1..4
    at l <= d points of a fiber; returns an audit transcript."""
    d = rng.randint(2, max_d)
    l = rng.randint(1, d)
    betas = rng.sample(range(d), l)
    orders = [rng.randint(1, 4) for _ in range(l)]
    variables = ("u1", "u2")
    jets = []
    for order in orders:
        terms = {}
        for exps in _exponents_below(len(variables), order):
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

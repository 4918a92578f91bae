"""Symbolic witnesses for the section constructions on toy local models.

The covering side of the story, locally: sections of the pullback split as
s = sum_q t^q * s_q with s_q pulled back from the base, and the deck
transformation scales the q-th summand by zeta_d^q.  On an affine germ
with unrestricted section spaces (any truncated series is available as an
s_q) the constructions used to prescribe jets become exact linear algebra
over Q(zeta_d):

  * away from the ramification locus, separating the points of one fiber
    is a Vandermonde system in the powers of zeta_d, whose inverse columns
    (vandermonde_sweep, case2_construct) _node_products builds on integer
    vectors indexed by exponents mod d: zeta_d rotates them, 1 - zeta_d^m
    divides by one running sum per cycle, and each value is reduced once;
  * at a ramification point the covering is u_1 -> u_1^d = v_1 and a jet
    splits by the residue of the u_1-exponent mod d
    (decompose_jet_ramified / case3_construct).

This module verifies the construction identities with exact arithmetic;
it says nothing about positivity of actual bundles on actual varieties.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

from .cyclotomic import CyclotomicNumber, power_sum
from .errors import SingularSystemError
from .series import TruncatedSeries, collect_terms


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
    t -> zeta_d^beta, i.e. sum_q zeta^(q*beta) * components[q], one
    _rotated_sum per exponent."""
    d, comps = decomposition.d, decomposition.components
    by_exps: dict = {}
    for q, comp in enumerate(comps):
        for exps, coeff in comp.terms.items():
            by_exps.setdefault(exps, []).append((q * beta, 1, *_parts(coeff, d)))
    return collect_terms(comps[0].variables, min(c.bound for c in comps), (
        (exps, power_sum(d, *_rotated_sum(d, terms)))
        for exps, terms in by_exps.items()))


def _parts(coeff, d: int):
    """(den, nums) with coeff = sum_i nums[i] * zeta_d^i / den."""
    if isinstance(coeff, CyclotomicNumber):
        if coeff.order != d:
            raise ValueError(f"mixed root orders {d} and {coeff.order}")
        return coeff.den, coeff.nums
    return coeff.denominator, (coeff.numerator,)


def _rotated_sum(d: int, terms) -> tuple[int, list[int]]:
    """(den, row), row unreduced and indexed by exponents mod d, with
    sum_i row[i] zeta^i / den = sum over (s, m, q, nums) of m zeta^s nums / q."""
    den = lcm(*[t[2] for t in terms])
    row = [0] * d
    for s, m, q, nums in terms:
        m *= den // q
        for i, x in enumerate(nums, s):
            if x:
                row[i % d] += m * x
    return den, row


# -- fiber separation (regular orbit) --------------------------------------


def vandermonde_sweep(d: int) -> list[tuple[CyclotomicNumber, ...]]:
    """For l = 1..d, the alphas of vandermonde_residual's system at the nodes
    0..l-1: the prefixes of _node_products at the offsets 1..d-1, one
    reduction mod Phi_d per alpha."""
    return [tuple(power_sum(d, den, c) for c in coeffs)
            for den, coeffs in _node_products(d, range(1, d))]


def _node_products(d: int, offsets):
    """For each prefix of offsets (nonzero residues mod d), the empty one
    first, (den, coeffs): coeffs[k] / den is the coefficient of x^k in
    prod (x - zeta^b) / (1 - zeta^b) over the prefix, an integer vector
    indexed by exponents mod d.  A step multiplies by x - zeta^b (a
    rotation) and divides by 1 - zeta^b through _over_one_minus: O(l * d)
    integer steps at the l-th offset, no field product."""
    den, coeffs = 1, [[1] + [0] * (d - 1)]
    yield den, coeffs
    for b in offsets:
        e, coeffs = _over_one_minus(d, b, _times_linear(coeffs, b))
        den *= e
        yield den, coeffs


def _over_one_minus(d: int, m: int, vectors) -> tuple[int, list[list[int]]]:
    """(e, [e * c / (1 - zeta^m) for c in vectors]), e = d / gcd(d, m) the
    order of zeta^m, m != 0 mod d, each c indexed by the exponents 0..d-1.
    Along each cycle t, t + m, ... the result v obeys v[t] - v[t - m] =
    e * c[t] - (the sum of c over the cycle), and a constant on a cycle is 0
    in Q(zeta_d), so each cycle starts at 0: O(d) per vector."""
    g = gcd(d, m)
    e = d // g
    out = []
    for c in vectors:
        v = [0] * d
        for start in range(g):
            t, s, x = start, sum(c[start::g]), 0
            for _ in range(e - 1):
                t = (t + m) % d
                x += e * c[t] - s
                v[t] = x
        out.append(v)
    return e, out


def vandermonde_residual(
        d: int, betas: Sequence[int],
        alphas: Sequence[CyclotomicNumber]) -> tuple[CyclotomicNumber, ...]:
    """Exact residuals of the separation system at the nodes 0, betas[0], ...
    (distinct mod d), one alpha per node: row j demands
    sum_c zeta^(c*node_j) * alpha_c = delta(j, 0).  The alphas are put over
    one common denominator once; each row adds their numerators rotated by
    c * node_j and is reduced once."""
    nodes = [0] + [b % d for b in betas]
    if len(alphas) != len(nodes):
        raise ValueError(
            f"need one alpha per node: {len(nodes)} nodes, {len(alphas)} alphas")
    _check_fiber(d, nodes)
    parts = [_parts(a, d) for a in alphas]
    den = lcm(*[q for q, _ in parts])
    scaled = [[x * (den // q) for x in nums] for q, nums in parts]
    rows = [[0] * d for _ in nodes]
    rows[0][0] = -den
    for row, node in zip(rows, nodes):
        for c, nums in enumerate(scaled):
            for i, x in enumerate(nums, c * node):
                row[i % d] += x
    return tuple(power_sum(d, den, row) for row in rows)


def _check_fiber(d: int, nodes: list[int]) -> None:
    """At most d orbit indices (residues mod d), all distinct: then the
    roots zeta^node differ and the Vandermonde system is invertible."""
    if len(nodes) > d:
        raise ValueError(f"at most d={d} points in a fiber, got {len(nodes)}")
    if len(set(nodes)) != len(nodes):
        raise SingularSystemError(
            f"orbit indices {nodes} not distinct mod {d}")


def _lagrange(d: int, nodes: Sequence[int],
             r: int) -> tuple[int, list[list[int]]]:
    """Column r of M^-1, M the Vandermonde matrix at x_j = zeta^nodes[j]
    (residues mod d that pass _check_fiber): (den, coeffs), coeffs[k] / den
    the unreduced coefficient of x^k in prod_{j != r} (x - x_j) / (x_r - x_j).
    With x = x_r * y this is the full _node_products at the offsets
    nodes[j] - nodes[r], coefficient k rotated by -k * nodes[r]."""
    x_r = nodes[r]
    *_, (den, coeffs) = _node_products(
        d, [(x - x_r) % d for j, x in enumerate(nodes) if j != r])
    return den, [_rotate(c, -k * x_r % d) for k, c in enumerate(coeffs)]


def _times_linear(coeffs: list[list[int]], m: int) -> list[list[int]]:
    """(x - zeta^m) * p: p[k] -> p[k-1] - zeta^m p[k], constant term first."""
    moved = [_rotate(c, m) for c in coeffs]
    return ([[-v for v in moved[0]]]
            + [[a - b for a, b in zip(lo, hi)]
               for lo, hi in zip(coeffs, moved[1:])]
            + [coeffs[-1]])


def _rotate(v: list[int], m: int) -> list[int]:
    """zeta^m * v for 0 <= m < d, v indexed by the exponents 0..d-1 of zeta."""
    return v[-m:] + v[:-m]


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
    nodes = [b % d for b in betas]
    _check_fiber(d, nodes)
    vars0 = jets[0].variables
    by_exps: dict = {}
    for i, jet in enumerate(jets):
        if jet.variables != vars0:
            raise ValueError(f"variable mismatch: {vars0} vs {jet.variables}")
        for exps, coeff in jet.terms.items():
            if sum(exps) < orders[i]:
                by_exps.setdefault(exps, []).append((i, *_parts(coeff, d)))
    dens, columns = zip(*[_lagrange(d, nodes, i) for i in range(l)])
    # jet i's sum_j x_j zeta^j / den times alpha_q^(i) = columns[i][q] / dens[i]
    components = [collect_terms(vars0, bound, (
        (exps, power_sum(d, *_rotated_sum(d, [
            (j, x, den * dens[i], columns[i][q])
            for i, den, nums in terms for j, x in enumerate(nums) if x])))
        for exps, terms in by_exps.items())) for q in range(l)]
    components += [collect_terms(vars0, bound, ()) for _ in range(l, d)]
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
    """Undo the splitting: sum_q u_1^q * components[q](v_1 -> u_1^d)."""
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
    if jet.total_degree() >= order:
        raise ValueError(
            f"jet of degree {jet.total_degree()} is not a jet mod m^{order}")
    normalized = jet.truncate(order)
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
        for exps in itertools.product(range(order), repeat=len(variables)):
            # random() < 0.5, read as the top bit of its first 32-bit word
            if sum(exps) < order and not rng.getrandbits(64) >> 31 & 1:
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

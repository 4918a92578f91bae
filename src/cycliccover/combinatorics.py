"""Exact integer functions controlling how much positivity a covering eats.

The two decision criteria for a degree-d cyclic covering consume the twists
L, L-M, ..., L-(d-1)M.  For the jet criterion the twist L-qM must carry jet
order k-q.  For the very-ampleness criterion the required order is the
subtler quantity sigma(k, d, q) built from

    tau(k, l)   = k - floor(k/l) - l + gamma(k, l) + 1
    gamma(k, l) = 1 if l divides k else 0

via a maximum of tau(k+1, l) over the finite range q+1 <= l <= min(d, k+1),
which sigma evaluates in closed form: O(1) at any k and d.  sigma_table
lists those values row by row: row q holds sigma(k, d, q) for k = q..k_max,
the only orders at which twist q is queried.

Everything here is plain integer arithmetic (Python ints, so no overflow)
and is safe for concurrent use.
"""

from __future__ import annotations

from math import isqrt


def gamma(k: int, ell: int) -> int:
    """Divisibility indicator: 1 if ell | k, else 0."""
    _require_positive(k=k, ell=ell)
    return 1 if k % ell == 0 else 0


def tau(k: int, ell: int) -> int:
    """k - floor(k/ell) - ell + gamma(k, ell) + 1; may be <= 0 for large ell."""
    _require_positive(k=k, ell=ell)
    return k - k // ell - ell + (k % ell == 0) + 1


def sigma(k: int, d: int, q: int) -> int:
    """Required very-ampleness order of the q-th twist for target order k.

    Defined as k for q = 0, and otherwise as

        max{ tau(k+1, l) : q+1 <= l <= min(d, k+1) } - 1.

    Only the domain the criteria actually query is legal:
    0 <= q <= min(k, d-1).  Anything else raises ValueError.

    floor((k+1)/l) - gamma(k+1, l) = floor(k/l), so tau(k+1, l) - 1 =
    k + 1 - g(l) with g(l) = l + floor(k/l).  g falls while l(l+1) <= k
    and rises after, so its minimum over the range of l sits at the clamp
    of the first l with l(l+1) > k, which is isqrt(k) or isqrt(k) + 1.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if d < 2:
        raise ValueError(f"covering degree d must be >= 2, got {d}")
    if not 0 <= q <= min(k, d - 1):
        raise ValueError(
            f"q={q} outside the criteria domain 0..min(k, d-1)="
            f"{min(k, d - 1)} for k={k}, d={d}"
        )
    if q == 0:
        return k
    root = isqrt(k)
    turn = root + 1 if root * (root + 1) <= k else root
    ell = min(max(turn, q + 1), d)  # both turn and q + 1 are <= k + 1
    return k + 1 - ell - k // ell


def sigma_table(d: int, k_max: int) -> dict[int, list[int]]:
    """Rows of sigma for q >= 1: row q is [sigma(k, d, q) for k in q..k_max],
    for 1 <= q <= min(k_max, d-1), so it has no entry for k < q."""
    if d < 2:
        raise ValueError(f"covering degree d must be >= 2, got {d}")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    return {q: [sigma(k, d, q) for k in range(q, k_max + 1)]
            for q in range(1, min(k_max, d - 1) + 1)}


def _require_positive(**named: int) -> None:
    for name, value in named.items():
        if value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value}")

"""Exact integer functions controlling how much positivity a covering eats.

The two decision criteria for a degree-d cyclic covering consume the twists
L, L-M, ..., L-(d-1)M.  For the jet criterion the twist L-qM must carry jet
order k-q.  For the very-ampleness criterion the required order is the
subtler quantity sigma(k, d, q) built from

    tau(k, l)   = k - floor(k/l) - l + gamma(k, l) + 1
    gamma(k, l) = 1 if l divides k else 0

via a maximum of tau(k+1, l) over the finite range q+1 <= l <= min(d, k+1),
which sigma evaluates in closed form: O(1) at any k and d.  sigma_table
lists them by row: row q holds sigma(k, d, q) for k = q..k_max, the only
orders twist q is queried at; _sigma_threshold inverts sigma in closed form.

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
    """k - floor(k/ell) - ell + gamma(k, ell) + 1; may be <= 0 for large ell.

    floor(k/ell) - gamma(k, ell) = ceil(k/ell) - 1, so this is
    k - ceil(k/ell) - ell + 2, and (-k) // ell = -ceil(k/ell).
    """
    if k < 1 or ell < 1:
        _require_positive(k=k, ell=ell)
    return k + (-k // ell) - ell + 2


def sigma(k: int, d: int, q: int) -> int:
    """Required very-ampleness order of the q-th twist for target order k.

    Defined as k for q = 0, and otherwise as

        max{ tau(k+1, l) : q+1 <= l <= min(d, k+1) } - 1.

    Only the domain the criteria actually query is legal:
    0 <= q <= min(k, d-1).  Anything else raises ValueError.

    floor((k+1)/l) - gamma(k+1, l) = floor(k/l), so tau(k+1, l) - 1 =
    k + 1 - g(l) with g(l) = l + floor(k/l), whose minimum over the range
    of l _least finds in O(1).  The domain is checked here only;
    sigma_table and the criteria call the unchecked kernels below.
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
    return k + 1 - _least(k, q + 1, d) if q else k  # picks no l > k + 1


def sigma_table(d: int, k_max: int) -> dict[int, list[int]]:
    """Rows of sigma for q >= 1: row q is [sigma(k, d, q) for k in q..k_max],
    for 1 <= q <= min(k_max, d-1), so it has no entry for k < q."""
    if d < 2:
        raise ValueError(f"covering degree d must be >= 2, got {d}")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    return {q: [k + 1 - _least(k, q + 1, d) for k in range(q, k_max + 1)]
            for q in range(1, min(k_max, d - 1) + 1)}


def _sigma_threshold(a: int, d: int, q: int) -> int:
    """The largest k with sigma(k, d, q) <= a, for 1 <= q <= d-1, unchecked:
    if a >= 0, each l in q+1..d allows k <= a + l + floor(a/(l-1)), and
    a = -1 allows only k < q, since sigma(q, d, q) = 0."""
    return a + 1 + _least(a, q, d - 1) if a >= 0 else q - 1


def _least(n: int, lo: int, hi: int) -> int:
    """min(m + floor(n/m) : lo <= m <= hi), for n >= 0 and 1 <= lo <= hi:
    the sum falls while m(m+1) <= n and rises after."""
    root = isqrt(n)
    m = min(max(root + 1 if root * (root + 1) <= n else root, lo), hi)
    return m + n // m


def _require_positive(**named: int) -> None:
    for name, value in named.items():
        if value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value}")

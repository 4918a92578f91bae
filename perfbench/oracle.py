"""Independent correctness oracle for benchmark ops.

The integer functions are re-derived here from the formulas in the
project README and never imported from ``cycliccover``:

    gamma(k, l) = 1 if l | k else 0
    tau(k, l)   = k - floor(k/l) - l + gamma(k, l) + 1
    sigma(k, d, 0) = k
    sigma(k, d, q) = max{ tau(k+1, l) : q+1 <= l <= min(d, k+1) } - 1

``k_star`` is found by bisection rather than by the engine's scan.  That is
valid because feasibility is downward closed in k: tau(k, l) is
nondecreasing in k for l >= 2, so every requirement is nondecreasing in k,
and raising k only adds twists to check.

Checks parse what an output means (numbers, statuses, flags), never
compare bytes, so format changes that keep the meaning keep passing.
Each ``check`` returns ``None`` for a correct op or a one-line reason.
"""

from __future__ import annotations

import json
import math
import re

EXIT_OK, EXIT_BUDGET = 0, 3


def gamma(k: int, ell: int) -> int:
    return 1 if k % ell == 0 else 0


def tau(k: int, ell: int) -> int:
    return k - k // ell - ell + gamma(k, ell) + 1


def sigma(k: int, d: int, q: int) -> int:
    if q == 0:
        return k
    return max(tau(k + 1, ell) for ell in range(q + 1, min(d, k + 1) + 1)) - 1


def sigma_rows(k: int, d: int) -> dict[int, int]:
    """sigma(k, d, q) for q = 1..min(k, d-1) from one suffix-max pass."""
    out, best = {}, None
    for ell in range(min(d, k + 1), 1, -1):
        t = tau(k + 1, ell)
        best = t if best is None else max(best, t)
        out[ell - 1] = best - 1
    return out


def _orders(config: dict) -> tuple[int, dict[int, int], dict[int, int]]:
    jet, very = {}, {}
    for key, entry in config["profile"].items():
        q = int(key)
        jet[q] = entry.get("jet", -1)
        very[q] = max(jet[q], entry.get("very", -1))
    return config["d"], jet, very


def _feasible(kind: str, k: int, d: int, orders: dict[int, int]) -> bool:
    need = sigma_rows(k, d) if kind == "very" else {}
    for q in range(min(k, d - 1) + 1):
        required = k - q if kind == "jet" else (k if q == 0 else need[q])
        if orders.get(q, -1) < required:
            return False
    return True


def k_star(kind: str, config: dict) -> int:
    """Largest k >= 0 the criterion guarantees for a scenario config, or -1."""
    d, jet, very = _orders(config)
    orders = jet if kind == "jet" else very
    lo, hi = -1, orders.get(0, -1)  # feasible(lo) holds; k > hi fails at q=0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _feasible(kind, mid, d, orders):
            lo = mid
        else:
            hi = mid - 1
    return lo


# -- lemma instance counts ------------------------------------------------------


def num_instances(max_m: int, max_K: int, max_ell: int, max_q: int) -> int:
    """Instances in a ``num`` box: head multisets of (K_i, l_i) pairs times
    tail multisets of K_i, with every q for a non-empty tail."""
    pairs = max_K * (max_ell - 1)
    return sum(
        math.comb(pairs + m - 1, m)
        * (1 + max_q * sum(math.comb(max_K + t - 1, t)
                           for t in range(1, max_m - m + 1)))
        for m in range(1, max_m + 1))


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n (the staircases of colength n)."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def _partitions_into(n: int, count: int, largest: int):
    """Partitions of n into exactly ``count`` parts of at most ``largest``,
    as descending tuples."""
    if count == 0:
        if n == 0:
            yield ()
        return
    for first in range(min(n - count + 1, largest), 0, -1):
        for rest in _partitions_into(n - first, count - 1, first):
            yield (first,) + rest


def alg_instances(k: int, ell: int) -> int:
    """Instances in an ``alg`` box: staircase tuples (I_1, ..., I_ell) whose
    colengths form a partition of k into ell parts, I_1 the largest."""
    return sum(math.prod(partition_count(c) for c in colengths)
               for colengths in _partitions_into(k, ell, k))


# Every claim ``examples`` must report, in order: (entry, kind, comparison,
# value, k_star).  The k_star values follow from the README formulas for
# each catalog scenario; the self-tests recompute them with ``k_star``.
EXAMPLE_CLAIMS = (
    ("abelian-principal", "jet", "==", -1, -1),
    ("abelian-principal", "very", "==", -1, -1),
    ("elliptic-product", "jet", "==", 3, 3),
    ("projective-space-r2d2", "jet", "==", 1, 1),
    ("projective-space-r3d3", "jet", "==", 2, 2),
    ("geiser", "very", ">=", 3, 3),
    ("geiser", "very", "==", 3, 3),
    ("bertini", "jet", ">=", 2, 2),
    ("bertini-quoted-borderline", "jet", ">=", 2, 0),
)


# -- expectations and checks -------------------------------------------------


def expect(op: dict):
    """What a correct run of ``op`` must report; computed before timing."""
    p = op["params"]
    if op["kind"] == "criteria":
        return {kind: k_star(kind, p["config"]) for kind in ("jet", "very")}
    if op["kind"] == "sigma-table":
        return {(q, k): v for k in range(p["kmax"] + 1)
                for q, v in sigma_rows(k, p["d"]).items()}
    if op["kind"] == "num":
        max_m, max_K, max_ell, max_q = p["box"]
        return {"box": {"max_m": max_m, "max_K": max_K, "max_ell": max_ell,
                        "max_q": max_q},
                "instances": num_instances(*p["box"])}
    if op["kind"] == "alg":
        return {"box": {"k": p["k"], "ell": p["ell"]},
                "instances": alg_instances(p["k"], p["ell"])}
    if op["kind"] == "examples":
        return EXAMPLE_CLAIMS
    return None


def check(op: dict, expected, exit_code, stdout: str, stderr: str):
    """None when the op's exit code and output are correct, else a reason."""
    kind = op["kind"]
    want_exit = EXIT_OK
    if kind == "local" and op["params"]["d"] > 10:
        want_exit = EXIT_BUDGET
    if exit_code != want_exit:
        return f"exit {exit_code}, expected {want_exit}: {stderr.strip()[-200:]}"
    try:
        return _CHECKS[kind](op["params"], expected, stdout, stderr)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc!r}"


_K_STAR = re.compile(r"^(jet|very): k_star = (-?\d+)$")
_EXPLAIN = re.compile(r"^  k=(\d+) \((ok|fails)\):")


def _check_criteria(params, expected, stdout, stderr):
    got, current = {}, None
    for line in stdout.splitlines():
        m = _K_STAR.match(line)
        if m:
            current = m.group(1)
            got[current] = int(m.group(2))
            continue
        m = _EXPLAIN.match(line)
        if m and current is not None:
            ok = int(m.group(1)) <= got[current]
            if (m.group(2) == "ok") != ok:
                return f"{current} k={m.group(1)} marked {m.group(2)}"
    if got != expected:
        return f"k_star {got}, expected {expected}"
    return None


def _check_sigma_table(params, expected, stdout, stderr):
    fmt, kmax = params["format"], params["kmax"]
    got = {}
    lines = stdout.splitlines()
    if fmt == "structured-records":
        for line in filter(None, lines):
            r = json.loads(line)
            if r["d"] != params["d"]:
                return f"record for d={r['d']}"
            got[(r["q"], r["k"])] = r["sigma"]
    else:
        for label, cells in _table_rows(fmt, lines, kmax):
            q = int(label[2:-1])  # "L-{q}M"
            for k, cell in enumerate(cells):
                if cell:
                    got[(q, k)] = int(cell)
    if got != expected:
        wrong = sorted(set(got.items()) ^ set(expected.items()))[:3]
        return f"sigma entries differ, e.g. {wrong}"
    return None


def _table_rows(fmt, lines, kmax):
    if fmt == "csv":
        for line in lines[1:]:
            label, *cells = line.split(",")
            yield label, cells
    elif fmt == "markdown":
        for line in lines[2:]:
            label, *cells = [c.strip() for c in line.strip().strip("|").split("|")]
            yield label, cells
    elif fmt == "plain":
        width = (len(lines[0]) - 8) // (kmax + 1)
        for line in lines[1:]:
            yield line[:8].strip(), [line[8 + i * width:8 + (i + 1) * width].strip()
                                     for i in range(kmax + 1)]
    else:
        raise ValueError(f"unknown table format {fmt!r}")


_ENTRY = re.compile(r"^\[([^\]]+)\] ")
_CLAIM = re.compile(
    r"^  (jet|very) k_star=(-?\d+) (==|>=|<=) (-?\d+): (PASS|FAIL|INFO\(not met\))")
_COMPARE = {"==": lambda a, b: a == b, ">=": lambda a, b: a >= b,
            "<=": lambda a, b: a <= b}


def _check_examples(params, expected, stdout, stderr):
    claims, statuses = [], []
    if params["format"] == "structured-records":
        for line in filter(None, stdout.splitlines()):
            r = json.loads(line)
            claims.append((r["entry"], r["kind"], r["comparison"], r["value"],
                           r["k_star"]))
            statuses.append(("PASS" if r["holds"] else "INFO(not met)"
                             if r["provenance"] == "informational" else "FAIL",
                             r["holds"]))
    else:
        entry = None
        for line in stdout.splitlines():
            m = _ENTRY.match(line)
            if m:
                entry = m.group(1)
                continue
            m = _CLAIM.match(line)
            if m:
                claims.append((entry, m.group(1), m.group(3), int(m.group(4)),
                               int(m.group(2))))
                statuses.append((m.group(5), None))
    if claims != list(expected):
        wrong = [c for c in claims if c not in expected][:2]
        return f"{len(claims)} claims, {len(expected)} expected; e.g. {wrong}"
    for (entry, kind, cmp, value, k), (status, holds) in zip(claims, statuses):
        truth = _COMPARE[cmp](k, value)
        if holds is not None and holds != truth:
            return f"{entry} {kind} k_star={k} {cmp} {value} reported holds={holds}"
        if status == "FAIL" or (status == "PASS") != truth:
            return f"{entry} {kind} k_star={k} {cmp} {value} reported {status}"
    return None


_BOX = re.compile(r"^box((?: \w+=\d+)+)$")
_INSTANCES = re.compile(r"^instances checked: (\d+)$")


def _field(pattern, lines) -> str:
    """Group 1 of the first line matching ``pattern``."""
    for line in lines:
        m = pattern.match(line)
        if m:
            return m.group(1)
    raise ValueError(f"no line matches {pattern.pattern!r}")


def _check_lemma(params, expected, stdout, stderr):
    if params["format"] == "structured-records":
        r = json.loads(stdout)
        passed, counterexamples = r["passed"], r["counterexamples"]
        box, instances = r["parameter_box"], r["instances_checked"]
    else:
        lines = stdout.splitlines()
        passed = bool(re.match(r"^lemma (num|alg): PASS$", lines[0]))
        counterexamples = [line for line in lines
                           if line.startswith("counterexample")]
        box = {key: int(v) for key, v in
               (item.split("=") for item in _field(_BOX, lines).split())}
        instances = int(_field(_INSTANCES, lines))
    if not passed or counterexamples:
        return "lemma did not pass"
    if box != expected["box"]:
        return f"box {box}, expected {expected['box']}"
    if instances != expected["instances"]:
        return f"{instances} instances checked, expected {expected['instances']}"
    return None


def _check_local(params, expected, stdout, stderr):
    seen = {"vandermonde": 0, "case2": 0, "case3": 0}
    for line in filter(None, stdout.splitlines()):
        r = json.loads(line)
        seen[r["check"]] += 1
        ok = {"vandermonde": lambda: r["residual_zero"],
              "case2": lambda: r["prescriptions_met"] and all(r["per_point"]),
              "case3": lambda: r["round_trip"]}[r["check"]]()
        if ok is not True:
            return f"{r['check']} self-check false: {line[:200]}"
    if params["d"] > 10:
        if "budget exhausted" not in stderr:
            return "refusal without a budget message"
        return None
    want = {"vandermonde": params["d"], "case2": params["trials"], "case3": 1}
    if seen != want:
        return f"check counts {seen}, expected {want}"
    return None


_CHECKS = {
    "criteria": _check_criteria,
    "sigma-table": _check_sigma_table,
    "examples": _check_examples,
    "num": _check_lemma,
    "alg": _check_lemma,
    "local": _check_local,
}

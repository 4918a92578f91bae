"""Seeded op-list generator for the three benchmark workloads.

An op is one ``cycliccover`` CLI invocation, stored as a JSON-ready dict
``{"kind": ..., "argv": [...], "params": {...}}``; ``params`` holds what the
oracle needs to check the op's output.  ``generate`` is the only place that
turns a workload seed into program inputs: the program sees nothing but the
argv lists and the config files written here.

Every continuous or integer draw is stratified: ``n`` draws take one uniform
from each of ``n`` equal strata.  The seed therefore
changes every input while a run's cost profile (the sorted op costs, which
set throughput and latency percentiles) stays nearly the same from seed to
seed.  Op costs are driven by explicit work targets so that the ops on
either side of the 50th and 90th latency percentiles belong to one class:

* ``decide``: criteria configs, shallow (scan bound at most 30) and deep,
  plus sigma tables and catalog runs.  The shallow majority puts p50 on CLI
  overhead.  The deep configs are placed by scan cost; p90 falls on a
  plateau of equal-cost d = 6 configs in their middle.
* ``lemmas``: ``num`` boxes inside the acceptance box (4, 10, 6, 5), with
  log-uniform costs except for two bands of distinct boxes that p50 and p90
  fall among, and ``alg`` pairs ``2 <= ell <= 10``,
  ``ell <= k <= ell + 10``, stratified by instance count.
* ``local``: ``local-model`` with fixed op counts per ``--d`` that fall with
  the sweep's cost and drawn ``--trials`` and ``--seed``, including one
  ``d = 11`` request that must be refused with exit 3.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from oracle import alg_instances, num_instances

WORKLOADS = ("decide", "lemmas", "local")

# decide
N_SHALLOW, N_TABLE, N_EXAMPLES = 135, 30, 15
N_LOW, N_PLATEAU, N_HIGH = 14, 16, 14  # deep configs below, on, above p90
SHALLOW_MAX_ORDER = 30
MAX_ORDER = 10**4
# Deep configs are placed by scan cost (see scan_cost): log-uniform from the
# low end up to the plateau and from the plateau to the high end, leaving a
# gap of PLATEAU_GAP on either side.  The plateau configs share one d.
DEEP_COST = (4 * 10**4, 13 * 10**4, 40 * 10**4)  # low end, plateau, high end
PLATEAU_D, PLATEAU_GAP = 6, 1.3
DEEPEST = (3, MAX_ORDER)  # (d, K) with the largest K * d, which sets memory
TABLE_FORMATS = ("plain", "markdown", "csv", "structured-records")
TABLE_MAX_D, TABLE_MAX_K, TABLE_WORK = 40, 200, 10**4  # kmax * d**2
OUTPUT_FORMATS = ("plain", "structured-records")

# lemmas
N_ALG = 60
ACCEPTANCE_BOX = (4, 10, 6, 5)  # max_m, max_K, max_ell, max_q
# num boxes by cost (see num_cost): (op count, low, high, banded).  A banded
# class takes distinct boxes with a cost in its range, so p50 and p90, which
# fall inside the two bands, are order statistics of nearly the same boxes
# whatever the seed.  The other classes take the box nearest to each of
# their log-uniform cost targets.
NUM_PLAN = ((27, 600, 2900, False), (14, 2900, 3400, True),
            (27, 3400, 30000, False), (14, 30000, 38000, True),
            (8, 38000, 60000, False))
ALG_MAX_ELL, ALG_SPAN = 10, 10  # the colength cap 12 allows k <= ell + 10

# local: (--d, op count, min and max --trials).  Sweep cost rises steeply
# with d and is fixed for a given d; trial cost is heavy-tailed.  So the
# cheap degrees carry at most a few trials and stay below the d = 5 and
# d = 6 sweeps, the plateau p50 falls on.  The trial-heavy d = 4 ops sit
# between that plateau and the d = 7 sweeps, several times dearer, whose
# plateau p90 falls on.  d = 11 exceeds the truncation cap and must be
# refused.
LOCAL_PLAN = ((2, 18, 0, 2), (3, 14, 0, 1), (4, 10, 0, 0),
              (5, 14, 0, 0), (6, 12, 0, 0),
              (4, 16, 4, 8),
              (7, 12, 0, 0), (8, 2, 0, 0), (9, 1, 0, 0), (10, 1, 0, 0),
              (11, 1, 0, 0))


def strata(rng: random.Random, n: int) -> list[float]:
    """n uniforms in [0, 1), one from each stratum [i/n, (i+1)/n), shuffled."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def pick(u: float, n: int) -> int:
    """Index in range(n) for a uniform u in [0, 1)."""
    return min(int(u * n), n - 1)


def log_uniform_order(u: float, top: int) -> int:
    """Order in -1..top, log-uniform in (order + 2)."""
    return min(int((top + 3) ** u) - 2, top)


def generate(workload: str, seed: int, run_dir: Path, root: Path) -> list[dict]:
    """Op list for one run; config files go under ``run_dir`` (inside ``root``).

    Paths in the argv lists are relative to ``root``, the directory the
    program runs from.  The same (workload, seed) gives the same ops.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    rng = random.Random(f"cycliccover-bench:{workload}:{seed}")
    if workload == "decide":
        ops = _decide(rng, run_dir, root)
    elif workload == "lemmas":
        ops = _lemmas(rng)
    else:
        ops = _local(rng)
    rng.shuffle(ops)
    return ops


# -- decide ---------------------------------------------------------------


def _decide(rng, run_dir: Path, root: Path) -> list[dict]:
    configs = []
    for u, ud in zip(strata(rng, N_SHALLOW), strata(rng, N_SHALLOW)):
        d = 2 + pick(ud, 9)
        configs.append((d, log_uniform_order(u, SHALLOW_MAX_ORDER)))
    # The deepest config is fixed in shape, so peak memory does not hinge on
    # which scan depth the draws happen to pair with the smallest d.
    configs.append(DEEPEST)
    # Stratum i of the low and high classes always gets the same d, so their
    # sorted costs move only by the draw inside each stratum.
    lo, mid, hi = (math.log(c) for c in DEEP_COST)
    gap = math.log(PLATEAU_GAP)
    for n, a, b in ((N_LOW, lo, mid - gap), (N_HIGH, mid + gap, hi)):
        for i in range(n):
            cost = math.exp(a + (i + rng.random()) / n * (b - a))
            d = 2 + i % 9
            configs.append((d, round(cost / scan_cost(d, 1))))
    for u in strata(rng, N_PLATEAU):
        cost = DEEP_COST[1] * (0.99 + 0.02 * u)
        configs.append((PLATEAU_D, round(cost / scan_cost(PLATEAU_D, 1))))

    config_dir = run_dir / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, (d, bound) in enumerate(configs):
        config = _scenario_config(rng, d, bound, f"generated-{i}")
        if i >= N_SHALLOW:  # deep: both scans run to the bound
            config["profile"]["0"] = {"jet": bound, "very": bound}
        path = config_dir / f"scenario-{i:03d}.json"
        path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        ops.append({"kind": "criteria",
                    "argv": ["criteria", "--config",
                             path.relative_to(root).as_posix()],
                    "params": {"config": config}})

    fmts = [TABLE_FORMATS[i % len(TABLE_FORMATS)] for i in range(N_TABLE)]
    rng.shuffle(fmts)
    for u, ud, fmt in zip(strata(rng, N_TABLE), strata(rng, N_TABLE), fmts):
        d = 2 + pick(ud, TABLE_MAX_D - 1)
        kmax = 2 + log_uniform_order(u, min(TABLE_MAX_K, TABLE_WORK // d**2) - 2)
        ops.append({"kind": "sigma-table",
                    "argv": ["sigma-table", "--d", str(d), "--kmax", str(kmax),
                             "--format", fmt],
                    "params": {"d": d, "kmax": kmax, "format": fmt}})

    fmts = [OUTPUT_FORMATS[i % 2] for i in range(N_EXAMPLES)]
    rng.shuffle(fmts)
    for fmt in fmts:
        ops.append({"kind": "examples",
                    "argv": ["examples", "--format", fmt],
                    "params": {"format": fmt}})
    return ops


def scan_cost(d: int, bound: int) -> int:
    """Relative time of the jet and very scans of a config with scan bound
    ``bound``: the per-(k, q) checks cost about 18 times one of the d tau
    calls inside a sigma evaluation (fitted over d = 2..10)."""
    return bound * d * (d + 18)


def _scenario_config(rng, d: int, bound: int, label: str) -> dict:
    """A strict-format config whose q=0 twist has scan bound ``bound``.

    Either the jet or the very order of L is exactly ``bound`` and the
    other lies below it; the twists q >= 1 get log-uniform orders below
    ``bound``, sorted so positivity falls with q, and one in ten twists is
    left out of the profile (it then reads as -1).
    """
    below = log_uniform_order(rng.random(), bound)
    first = (bound, below) if rng.random() < 0.5 else (below, bound)
    jets = sorted((log_uniform_order(rng.random(), bound)
                   for _ in range(d - 1)), reverse=True)
    verys = sorted((log_uniform_order(rng.random(), bound)
                    for _ in range(d - 1)), reverse=True)
    profile = {"0": {"jet": first[0], "very": first[1]}}
    for q in range(1, d):
        if rng.random() < 0.1:
            continue
        profile[str(q)] = {"jet": jets[q - 1], "very": verys[q - 1]}
    return {"schema": 1, "label": label, "d": d,
            "branched": rng.random() < 0.5, "profile": profile}


# -- lemmas -----------------------------------------------------------------


def num_cost(max_m: int, max_K: int, max_ell: int, max_q: int) -> int:
    """Relative time of ``verify-lemma num`` over a box, in instances: each
    head multiset costs about three instances and each (head, tail) pair
    about two (fitted over boxes of 2000 to 30000 instances)."""
    cost = 0
    for m in range(1, max_m + 1):
        heads = math.comb(max_K * (max_ell - 1) + m - 1, m)
        tails = [math.comb(max_K + t - 1, t) for t in range(max_m - m + 1)]
        instances = 1 + max_q * sum(tails[1:])
        cost += heads * (3 + 2 * sum(tails) + instances)
    return cost


def _num_boxes() -> list[tuple[float, tuple[int, int, int, int]]]:
    """(log cost, box) for every sub-box of the acceptance box."""
    M, K, L, Q = ACCEPTANCE_BOX
    boxes = [(m, k, l, q) for m in range(1, M + 1) for k in range(1, K + 1)
             for l in range(2, L + 1) for q in range(1, Q + 1)]
    return sorted((math.log(num_cost(*b)), b) for b in boxes)


def _lemmas(rng) -> list[dict]:
    boxes = _num_boxes()
    chosen = []
    for count, low, high, banded in NUM_PLAN:
        lo, hi = math.log(low), math.log(high)
        if banded:
            chosen += rng.sample([b for c, b in boxes if lo <= c <= hi], count)
            continue
        for u in strata(rng, count):
            target = lo + u * (hi - lo)
            nearest = min(abs(c - target) for c, _ in boxes)
            chosen.append(rng.choice([box for c, box in boxes
                                      if abs(c - target) == nearest]))
    ops = []
    fmts = [OUTPUT_FORMATS[i % 2] for i in range(len(chosen) + N_ALG)]
    rng.shuffle(fmts)
    for box in chosen:
        fmt = fmts.pop()
        ops.append({"kind": "num",
                    "argv": ["verify-lemma", "num",
                             "--max-m", str(box[0]), "--max-K", str(box[1]),
                             "--max-ell", str(box[2]), "--max-q", str(box[3]),
                             "--format", fmt],
                    "params": {"box": list(box), "format": fmt}})
    # Sorted by instance count, so each stratum draws pairs of a similar cost.
    pairs = sorted(((k, ell) for ell in range(2, ALG_MAX_ELL + 1)
                    for k in range(ell, ell + ALG_SPAN + 1)),
                   key=lambda pair: (alg_instances(*pair), pair))
    for u in strata(rng, N_ALG):
        k, ell = pairs[pick(u, len(pairs))]
        fmt = fmts.pop()
        ops.append({"kind": "alg",
                    "argv": ["verify-lemma", "alg", "--k", str(k),
                             "--ell", str(ell), "--format", fmt],
                    "params": {"k": k, "ell": ell, "format": fmt}})
    return ops


# -- local ------------------------------------------------------------------


def _local(rng) -> list[dict]:
    ops = []
    for d, count, min_trials, max_trials in LOCAL_PLAN:
        for u in strata(rng, count):
            trials = min_trials + pick(u, max_trials - min_trials + 1)
            seed = rng.randrange(2**31)
            ops.append({"kind": "local",
                        "argv": ["local-model", "--d", str(d),
                                 "--trials", str(trials), "--seed", str(seed)],
                        "params": {"d": d, "trials": trials}})
    return ops

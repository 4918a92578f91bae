"""Self-tests of the benchmark's own parts.

Run from the repository root with ``python3 -m pytest perfbench/selftest.py``
(the file name keeps it out of the project's default test collection).
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


OUT = ROOT / ".perfbench_out" / "selftest"


def _generated(workload, seed, tag):
    root = OUT / tag / f"{workload}-{seed}"
    shutil.rmtree(root, ignore_errors=True)
    ops = generate(workload, seed, root / "run", root)
    files = {p.relative_to(root).as_posix(): p.read_text()
             for p in sorted(root.rglob("*.json"))}
    return ops, files


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_and_seeded(workload):
    first = _generated(workload, 7, "a")
    again = _generated(workload, 7, "b")
    other = _generated(workload, 8, "c")
    assert first == again
    assert first[0] != other[0]
    assert len(first[0]) >= 100


def test_lemma_instance_counts_match_the_library():
    from cycliccover.lemmas import check_lemma_alg, check_lemma_num

    for box in [(1, 3, 2, 1), (2, 6, 4, 3), (3, 5, 4, 3), (2, 10, 6, 5)]:
        assert (oracle.num_instances(*box)
                == check_lemma_num(*box).instances_checked), box
    for ell in range(2, 6):
        for k in range(ell, ell + 8):
            assert (oracle.alg_instances(k, ell)
                    == check_lemma_alg(k, ell).instances_checked), (k, ell)


def _config(d, entries):
    return {"schema": 1, "label": "", "d": d, "branched": True,
            "profile": {str(q): {"jet": j, "very": v}
                        for q, (j, v) in entries.items()}}


def _engine_k_stars(d, entries):
    from cycliccover.engine import (CoveringScenario, PositivityProfile,
                                    max_guaranteed_jet_order,
                                    max_guaranteed_very_order)

    scenario = CoveringScenario(d=d, branched=True,
                                profile=PositivityProfile(entries))
    return {"jet": max_guaranteed_jet_order(scenario).k_star,
            "very": max_guaranteed_very_order(scenario).k_star}


def test_oracle_agrees_with_engine_on_random_profiles():
    rng = random.Random(0)
    for _ in range(1000):
        d = rng.randint(2, 7)
        entries = {q: (rng.randint(-1, 14), rng.randint(-1, 14))
                   for q in range(d) if rng.random() < 0.9}
        config = _config(d, entries)
        want = _engine_k_stars(d, entries)
        assert {k: oracle.k_star(k, config) for k in want} == want, config


def test_oracle_agrees_with_engine_on_catalog():
    from cycliccover.catalog import default_catalog

    for entry in default_catalog():
        scenario = entry.scenario()
        entries = dict(scenario.profile.entries)
        assert ({k: oracle.k_star(k, _config(scenario.d, entries))
                 for k in ("jet", "very")}
                == _engine_k_stars(scenario.d, entries)), entry.id


def test_example_claims_follow_from_the_formulas():
    from cycliccover.catalog import default_catalog

    catalog = {entry.id: entry for entry in default_catalog()}
    assert [c[0] for c in oracle.EXAMPLE_CLAIMS] == [
        entry.id for entry in catalog.values() for _ in entry.claims]
    for entry_id, kind, cmp, value, k in oracle.EXAMPLE_CLAIMS:
        scenario = catalog[entry_id].scenario()
        config = _config(scenario.d, dict(scenario.profile.entries))
        assert oracle.k_star(kind, config) == k, entry_id
        assert (kind, cmp, value) in {(c.kind, c.comparison, c.value)
                                      for c in catalog[entry_id].claims}


def test_oracle_sigma_matches_library():
    from cycliccover.combinatorics import sigma

    for d in range(2, 12):
        for k in range(0, 40):
            rows = oracle.sigma_rows(k, d)
            for q in range(0, min(k, d - 1) + 1):
                assert oracle.sigma(k, d, q) == sigma(k, d, q)
                if q:
                    assert rows[q] == sigma(k, d, q)


def test_oracle_rejects_wrong_outputs():
    crit = {"kind": "criteria", "params": {}}
    good = "scenario: x (d=2, branched)\njet: k_star = 3\nvery: k_star = 4\n"
    want = {"jet": 3, "very": 4}
    assert oracle.check(crit, want, 0, good, "") is None
    assert oracle.check(crit, want, 0, good.replace("= 4", "= 5"), "")
    assert oracle.check(crit, want, 2, good, "")

    table = {"kind": "sigma-table",
             "params": {"d": 3, "kmax": 2, "format": "csv"}}
    want = oracle.expect(table)
    csv = "q\\k,0,1,2\nL-1M,,0,0\nL-2M,,,0\n"
    assert oracle.check(table, want, 0, csv, "") is None
    assert oracle.check(table, want, 0, csv.replace(",,,0", ",,,1"), "")

    num = {"kind": "num", "params": {"box": [2, 3, 3, 2], "format": "plain"}}
    want = oracle.expect(num)
    out = ("lemma num: PASS\nbox max_K=3 max_ell=3 max_m=2 max_q=2\n"
           "instances checked: 63\nmin slack (bound - observed): 0\n")
    assert oracle.check(num, want, 0, out, "") is None
    assert oracle.check(num, want, 0, out.replace("PASS", "FAIL"), "")
    assert oracle.check(num, want, 0, out.replace(": 63", ": 0"), "")
    assert oracle.check(num, want, 0, out.replace("max_K=3", "max_K=2"), "")
    alg = {"kind": "alg", "params": {"k": 5, "ell": 3,
                                     "format": "structured-records"}}
    record = {"counterexamples": [], "instances_checked": 7, "lemma": "alg",
              "parameter_box": {"ell": 3, "k": 5}, "passed": True}
    want = oracle.expect(alg)
    assert oracle.check(alg, want, 0, json.dumps(record), "") is None
    for key, value in [("instances_checked", 6), ("parameter_box", {"ell": 3}),
                       ("passed", False), ("counterexamples", [{}])]:
        assert oracle.check(alg, want, 0, json.dumps(record | {key: value}), "")

    examples = {"kind": "examples", "params": {"format": "structured-records"}}
    want = oracle.expect(examples)
    records = [{"entry": e, "kind": kind, "comparison": cmp, "value": v,
                "k_star": k, "holds": cmp == "==" and k == v or cmp == ">=" and k >= v,
                "provenance": "informational" if k < v else "stated"}
               for e, kind, cmp, v, k in want]
    out = "\n".join(json.dumps(r) for r in records)
    assert oracle.check(examples, want, 0, out, "") is None
    shifted = [r | {"k_star": r["k_star"] + 1, "value": r["value"] + 1}
               for r in records]
    assert oracle.check(examples, want, 0,
                        "\n".join(json.dumps(r) for r in shifted), "")
    assert oracle.check(examples, want, 0, "\n".join(out.splitlines()[1:]), "")

    local = {"kind": "local", "params": {"d": 2, "trials": 1}}
    lines = [{"check": "vandermonde", "residual_zero": True}] * 2 + [
        {"check": "case2", "prescriptions_met": True, "per_point": [True]},
        {"check": "case3", "round_trip": True}]
    out = "\n".join(json.dumps(r) for r in lines)
    assert oracle.check(local, None, 0, out, "") is None
    assert oracle.check(local, None, 0, out.replace("true}", "false}", 1), "")
    refused = {"kind": "local", "params": {"d": 11, "trials": 0}}
    assert oracle.check(refused, None, 3, "", "budget exhausted: cap") is None
    assert oracle.check(refused, None, 0, "", "")


def test_latencies_are_scaled_by_the_neighbouring_references():
    ops = [[4_000_000, 0, "", 0, None], [5_000_000, 0, "", 0, None]]
    assert run.adjusted_ms({"refs": [1e6, 3e6, 2e6], "ops": ops}) == [
        4 / 2 * run.REFERENCE_MS, 5 / 2.5 * run.REFERENCE_MS]
    slow = [[8_000_000, 0, "", 0, None], [10_000_000, 0, "", 0, None]]
    per_pass = [run.adjusted_ms({"refs": [2e6, 6e6, 4e6], "ops": slow}),
                run.adjusted_ms({"refs": [1e6, 3e6, 2e6], "ops": ops})]
    assert per_pass[0] == per_pass[1]
    metrics = run.latency_metrics(per_pass)
    assert metrics["ops_per_s"][0] == 2 / (4 * run.REFERENCE_MS) * 1e3


def _spans(rows):
    cols = {name: array(code) for name, code in tracer.COLUMNS}
    for row in rows:
        for (name, _), value in zip(tracer.COLUMNS, row):
            cols[name].append(value)
    return cols


def test_self_time_arithmetic_on_nested_spans():
    keys = ["cli.main", "engine.decide", "combinatorics.sigma", "catalog.run"]
    # name, parent, op, start, end
    cols = _spans([
        (0, -1, 0, 0, 100),    # 0: cli root of op 0
        (1, 0, 0, 10, 60),     # 1: engine under cli
        (2, 1, 0, 20, 50),     # 2: combinatorics under engine
        (3, 0, 0, 70, 90),     # 3: catalog under cli
        (0, -1, 1, 200, 300),  # 4: cli root of op 1
        (2, 4, 1, 210, 225),   # 5: combinatorics under cli
    ])
    got = tracer.analyze(keys, cols)
    assert got["self_ns"] == {"cli": 30 + 85, "engine": 20,
                              "combinatorics": 30 + 15, "catalog": 20}
    assert got["incl_ns"]["combinatorics"] == 45
    assert got["root_ns"] == 200 and got["ops"] == 2 and got["bad_ops"] == []
    assert sum(got["self_ns"].values()) == got["root_ns"]

    unclosed = _spans([(0, -1, 0, 0, 100), (1, 0, 0, 10, 0)])
    assert tracer.analyze(keys, unclosed)["bad_ops"] == [0]
    two_roots = _spans([(0, -1, 0, 0, 10), (0, -1, 0, 20, 30)])
    assert tracer.analyze(keys, two_roots)["bad_ops"] == [0]


def _traced_counts(workload, per_kind=4):
    """Layer call counts of a traced pass over a few ops of every kind."""
    out = OUT / "isolation" / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ops, seen = [], {}
    for op in generate(workload, 0, out / "run", ROOT):
        seen[op["kind"]] = seen.get(op["kind"], 0) + 1
        if seen[op["kind"]] <= per_kind:
            ops.append(op)
    ops_path = out / "ops.json"
    ops_path.write_text(json.dumps([op["argv"] for op in ops]))
    runs = []
    for i in range(2):
        result = run.run_worker(ops_path, out / f"traced{i}", 0, True)
        attempted, failed, reasons = run.check_ops(
            ops, [oracle.expect(op) for op in ops], result)
        assert (attempted, failed) == (len(ops), 0), reasons
        summary = result["trace"]
        spans = tracer.read_spans(out / f"traced{i}", summary["span_count"])
        assert tracer.analyze(summary["keys"], spans)["bad_ops"] == []
        runs.append(summary)
    assert runs[0]["counters"] == runs[1]["counters"]  # counts repeat exactly
    return tracer.layer_counts(runs[0])


def test_layer_isolation():
    counts = {w: _traced_counts(w) for w in WORKLOADS}
    absent = {"engine": ("lemmas", "local"), "lemmas": ("decide", "local"),
              "cyclotomic": ("decide", "lemmas"), "series": ("decide", "lemmas")}
    for layer, workloads in absent.items():
        for w in workloads:
            assert counts[w][layer] == 0, (layer, w)
    for layer, w in [("engine", "decide"), ("combinatorics", "lemmas"),
                     ("lemmas", "lemmas"), ("cyclotomic", "local"),
                     ("series", "local"), ("localmodel", "local")]:
        assert counts[w][layer] > 0, (layer, w)

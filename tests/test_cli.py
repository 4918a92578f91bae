import argparse
import json
import os
import resource
import subprocess
import sys

import pytest

import cycliccover
import cycliccover.cli as cli
from cycliccover import engine
from cycliccover.combinatorics import sigma
from cycliccover.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sigma_table_csv(capsys):
    code, out, _ = run(capsys, "sigma-table", "--d", "15", "--kmax", "15",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q\\k," + ",".join(str(k) for k in range(16))
    assert len(lines) == 15  # header + 14 data rows
    assert lines[1].startswith("L-1M,,0,0,1,1,2,2,3,4,4,5,6,6,7,8,9")
    assert lines[-1].startswith("L-14M,")


def test_sigma_table_markdown(capsys):
    code, out, _ = run(capsys, "sigma-table", "--d", "15", "--kmax", "15",
                       "--format", "markdown")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("| k | 0 | 1 |")
    assert any(line.startswith("| L-1M |") for line in lines)
    assert sum(1 for line in lines if line.startswith("| L-")) == 14


def test_sigma_table_single_row(capsys):
    code, out, _ = run(capsys, "sigma-table", "--d", "2", "--kmax", "5")
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("L-")]
    assert len(rows) == 1


def test_sigma_table_structured(capsys):
    code, out, _ = run(capsys, "sigma-table", "--d", "3", "--kmax", "3",
                       "--format", "structured-records")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert {"d": 3, "q": 1, "k": 1, "sigma": 0} in records


def test_sigma_table_usage_error(capsys):
    code, _, err = run(capsys, "sigma-table", "--d", "1", "--kmax", "5")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("d, kmax, cells", [
    (2, 100000, 100001),           # one row of kmax + 1 cells
    (317, 316, 316 * 317),         # min(kmax, d - 1) rows
    (2, 10**12, 10**12 + 1),       # would exhaust memory if built
    (10**9, 10**9, 10**18 - 1),    # (d - 1) * (kmax + 1)
])
def test_sigma_table_refuses_over_cell_cap_before_work(capsys, d, kmax, cells):
    code, out, err = run(capsys, "sigma-table", "--d", str(d),
                         "--kmax", str(kmax))
    assert code == 3
    assert out == ""
    assert err == (f"budget exhausted: sigma table of {cells} cells "
                   f"exceeds cap 100000\n")


@pytest.mark.parametrize("d, kmax", [(2, 99999), (1, -10**6), (2, -10**6)])
def test_sigma_table_at_cell_cap_or_invalid_is_not_refused(capsys, d, kmax):
    code, out, err = run(capsys, "sigma-table", "--d", str(d), "--kmax",
                         str(kmax), "--format", "csv")
    if kmax < 0:
        assert code == 2 and out == "" and err.startswith("error: ")
    else:
        assert code == 0 and err == ""
        assert len(out.splitlines()) == min(kmax, d - 1) + 1


def test_sigma_table_deterministic(capsys):
    _, out1, _ = run(capsys, "sigma-table", "--d", "15", "--kmax", "15",
                     "--format", "csv")
    _, out2, _ = run(capsys, "sigma-table", "--d", "15", "--kmax", "15",
                     "--format", "csv")
    assert out1 == out2


def _sigma_table_cells(fmt, out, kmax):
    """{row label: cells} of a rendered table, after checking its header."""
    lines = out.splitlines()
    ks = [str(k) for k in range(kmax + 1)]
    if fmt == "csv":
        assert lines[0].split(",") == ["q\\k"] + ks
        rows = [line.split(",") for line in lines[1:]]
    elif fmt == "markdown":
        assert lines[0] == "| k | " + " | ".join(ks) + " |"
        assert lines[1] == "|---" * (kmax + 2) + "|"
        rows = [[c.strip() for c in line.split("|")[1:-1]]
                for line in lines[2:]]
    else:
        width = max(4, len(str(kmax)) + 1)
        assert lines[0] == "q\\k".ljust(8) + "".join(k.rjust(width) for k in ks)
        for line in lines[1:]:
            assert len(line) == 8 + (kmax + 1) * width
        rows = [[line[:8].strip()] + [line[i:i + width].strip()
                                      for i in range(8, len(line), width)]
                for line in lines[1:]]
    return {row[0]: row[1:] for row in rows}


@pytest.mark.parametrize("fmt", ["plain", "markdown", "csv",
                                 "structured-records"])
def test_sigma_table_every_cell(capsys, fmt):
    # A cell is blank exactly when k < q and otherwise holds sigma(k, d, q);
    # structured records list exactly the legal (q, k) pairs, row by row.
    for d in [*range(2, 13), 40]:
        for kmax in range(16):
            code, out, err = run(capsys, "sigma-table", "--d", str(d),
                                 "--kmax", str(kmax), "--format", fmt)
            assert (code, err) == (0, ""), (d, kmax)
            qs = range(1, min(kmax, d - 1) + 1)
            if fmt == "structured-records":
                body = out.removesuffix("\n")
                records = [json.loads(line) for line in body.split("\n")
                           if body]
                assert records == [
                    {"d": d, "q": q, "k": k, "sigma": sigma(k, d, q)}
                    for q in qs for k in range(q, kmax + 1)], (d, kmax)
                continue
            assert _sigma_table_cells(fmt, out, kmax) == {
                f"L-{q}M": ["" if k < q else str(sigma(k, d, q))
                            for k in range(kmax + 1)]
                for q in qs}, (d, kmax)


def test_verify_lemma_alg(capsys):
    code, out, _ = run(capsys, "verify-lemma", "alg", "--k", "8", "--ell", "3")
    assert code == 0
    assert "PASS" in out
    assert "instances checked" in out


def test_verify_lemma_alg_budget_error(capsys):
    code, _, err = run(capsys, "verify-lemma", "alg", "--k", "30", "--ell", "4")
    assert code == 3
    assert "budget" in err.lower()


def test_verify_lemma_num_small(capsys):
    code, out, _ = run(capsys, "verify-lemma", "num", "--max-m", "2",
                       "--max-K", "4", "--max-ell", "3", "--max-q", "2",
                       "--format", "structured-records")
    assert code == 0
    record = json.loads(out.strip())
    assert record["passed"] is True
    assert record["counterexamples"] == []


def test_verify_lemma_alg_missing_args(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["verify-lemma", "alg"])
    assert exc_info.value.code == 2


def test_criteria_geiser_config(tmp_path, capsys):
    config = tmp_path / "geiser.json"
    config.write_text(json.dumps({
        "schema": 1,
        "label": "geiser k=3",
        "d": 2,
        "branched": True,
        "profile": {"0": {"jet": 3, "very": 3}, "1": {"jet": 2, "very": 2}},
    }))
    code, out, _ = run(capsys, "criteria", "--config", str(config))
    assert code == 0
    assert "very: k_star = 3" in out
    assert "jet: k_star = 3" in out


def test_criteria_all_negative(tmp_path, capsys):
    config = tmp_path / "none.json"
    config.write_text(json.dumps({
        "schema": 1, "d": 2,
        "profile": {"0": {"jet": -1, "very": -1}, "1": {"jet": -1, "very": -1}},
    }))
    code, out, _ = run(capsys, "criteria", "--config", str(config))
    assert code == 0
    assert "jet: k_star = -1" in out
    assert "very: k_star = -1" in out


def test_criteria_structured(tmp_path, capsys):
    config = tmp_path / "p.json"
    # triple cover of the plane with L = O(4), M = O(2): jet order 2
    config.write_text(json.dumps({
        "schema": 1, "label": "example r=2 d=3", "d": 3,
        "profile": {"0": {"jet": 4, "very": 4}, "1": {"jet": 2, "very": 2},
                    "2": {"jet": 0, "very": 0}},
    }))
    code, out, _ = run(capsys, "criteria", "--config", str(config),
                       "--format", "structured-records")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    jet = next(r for r in records if r["kind"] == "jet")
    assert jet["k_star"] == 2


def test_criteria_structured_record_is_bounded_at_huge_order(tmp_path, capsys):
    order = 10**18
    text = json.dumps({"schema": 1, "d": 3, "profile": {
        str(q): {"jet": order} for q in range(3)}})
    code, out, _ = run(capsys, "criteria", "--config",
                       write_config(tmp_path, text),
                       "--format", "structured-records")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["kind"] for r in records] == ["jet", "very"]
    for record in records:
        assert set(record) == {"kind", "k_star", "label", "d", "branched"}
        assert record["k_star"] == order


def test_criteria_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({
        "schema": 1, "d": 2, "profile": {}, "surprise": 1}))
    code, _, err = run(capsys, "criteria", "--config", str(config))
    assert code == 2
    assert "surprise" in err


def test_criteria_rejects_bad_schema(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"schema": 99, "d": 2, "profile": {}}))
    code, _, err = run(capsys, "criteria", "--config", str(config))
    assert code == 2


@pytest.mark.parametrize("schema", ["1.0", "true", '"1"'])
def test_criteria_rejects_schema_other_than_integer_one(tmp_path, capsys,
                                                        schema):
    # 1.0 and true compare equal to 1; strict JSON takes the integer only
    path = write_config(
        tmp_path, '{"schema": %s, "d": 2, "profile": {}}' % schema)
    assert run(capsys, "criteria", "--config", path) == (
        2, "", "config error: config field 'schema' must be 1\n")


def test_criteria_rejects_float(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({
        "schema": 1, "d": 2, "profile": {"0": {"jet": 1.5}}}))
    code, _, err = run(capsys, "criteria", "--config", str(config))
    assert code == 2


def test_examples_all(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert "FAIL" not in out
    assert "INFO(not met)" in out  # the Bertini borderline is informational


def test_examples_only_geiser(capsys):
    code, out, _ = run(capsys, "examples", "--only", "geiser")
    assert code == 0
    assert "[geiser]" in out
    assert "[bertini]" not in out


def test_examples_unknown_entry(capsys):
    code, _, err = run(capsys, "examples", "--only", "unknown")
    assert code == 2
    assert "unknown" in err


def test_examples_unknown_entry_lists_known_ids(capsys):
    code, out, err = run(capsys, "examples", "--only", "nope")
    assert (code, out) == (2, "")
    assert err == (
        "error: unknown entry 'nope'; known: abelian-principal, "
        "elliptic-product, projective-space-r2d2, projective-space-r3d3, "
        "geiser, bertini, bertini-quoted-borderline\n")


def test_examples_structured(capsys):
    code, out, _ = run(capsys, "examples", "--format", "structured-records")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert all("entry" in r and "holds" in r for r in records)


def test_local_model_transcript(capsys):
    code, out, _ = run(capsys, "local-model", "--d", "3", "--trials", "3",
                       "--seed", "11")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    kinds = {r["check"] for r in records}
    assert kinds == {"vandermonde", "case2", "case3"}
    assert all(r.get("residual_zero", True) for r in records)
    assert all(r.get("prescriptions_met", True) for r in records)


def test_local_model_deterministic(capsys):
    _, out1, _ = run(capsys, "local-model", "--d", "4", "--trials", "2",
                     "--seed", "5")
    _, out2, _ = run(capsys, "local-model", "--d", "4", "--trials", "2",
                     "--seed", "5")
    assert out1 == out2


def test_local_model_refuses_over_cap_before_sweep(capsys):
    # case 3 works mod m^(d + 2), over the truncation cap 12 for d = 11
    code, out, err = run(capsys, "local-model", "--d", "11", "--trials", "0")
    assert code == 3
    assert out == ""
    assert err == "budget exhausted: truncation bound 13 exceeds cap 12\n"


def test_local_model_refuses_trials_over_cap_before_output(capsys):
    cap = cli.TRIAL_CAP
    for trials in (cap + 1, 10**9):
        code, out, err = run(capsys, "local-model", "--d", "4",
                             "--trials", str(trials))
        assert (code, out, err) == (
            3, "", f"budget exhausted: {trials} case-2 trials exceed cap "
                   f"{cap}\n")


def test_local_model_runs_trials_at_cap(capsys):
    cap = cli.TRIAL_CAP
    code, out, err = run(capsys, "local-model", "--d", "2",
                         "--trials", str(cap))
    lines = out.splitlines()
    assert (code, err) == (0, "")
    assert sum('"check": "case2"' in line for line in lines) == cap == 10**4
    assert len(lines) == 2 + cap + 1  # the sweep, the trials, case 3


def test_parser_is_built_once_and_reused(capsys):
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit):
        main(["verify-lemma", "alg"])
    capsys.readouterr()
    code, out, _ = run(capsys, "sigma-table", "--d", "2", "--kmax", "1")
    assert code == 0 and out.startswith("q\\k")


def write_config(tmp_path, text):
    config = tmp_path / "c.json"
    config.write_text(text)
    return str(config)


@pytest.mark.parametrize("text", [
    '{"schema": 1, "d": 2, "profile": {"0": {"jet": 3, "jet": 9}}}',
    '{"schema": 1, "d": 2, "profile": {"0": {"jet": 3}, "0": {"jet": 9}}}',
    '{"schema": 1, "d": 2, "d": 3, "profile": {}}',
])
def test_criteria_rejects_duplicate_keys(tmp_path, capsys, text):
    code, out, err = run(capsys, "criteria", "--config",
                         write_config(tmp_path, text))
    assert code == 2 and out == ""
    assert err.startswith("config error: duplicate config key")


@pytest.mark.parametrize("key", ["01", "+1", "1_0", " 1", "-0", "-1", "1.0",
                                 "١"])
def test_criteria_rejects_non_canonical_profile_keys(tmp_path, capsys, key):
    text = json.dumps({"schema": 1, "d": 12, "profile": {key: {"jet": 1}}})
    code, out, err = run(capsys, "criteria", "--config",
                         write_config(tmp_path, text))
    assert code == 2 and out == ""
    assert err == f"config error: profile key {key!r} is not a canonical integer\n"


def test_criteria_rejects_twist_beyond_degree(tmp_path, capsys):
    text = json.dumps({"schema": 1, "d": 2,
                       "profile": {"0": {"jet": 3}, "2": {"jet": 1}}})
    code, out, err = run(capsys, "criteria", "--config",
                         write_config(tmp_path, text))
    assert code == 2 and out == ""
    assert err == "config error: profile key '2' is outside 0..d-1 = 0..1\n"


def test_criteria_accepts_every_canonical_key(tmp_path, capsys):
    text = json.dumps({"schema": 1, "d": 11,
                       "profile": {str(q): {"jet": 12 - q} for q in range(11)}})
    code, out, _ = run(capsys, "criteria", "--config",
                       write_config(tmp_path, text))
    assert code == 0
    assert "jet: k_star = 12" in out


def count_sigma_terms(monkeypatch):
    """The (k, lo, hi) of each sigma term the engine takes: one min of
    l + floor(k/l) per twist q >= 1 of a very row (engine._least)."""
    calls = []
    real = engine._least

    def counted(n, lo, hi):
        calls.append((n, lo, hi))
        return real(n, lo, hi)

    monkeypatch.setattr(engine, "_least", counted)
    return calls


@pytest.mark.parametrize("d", [10**6, 10**9])
def test_criteria_huge_degree_costs_nothing_per_twist(tmp_path, capsys,
                                                      monkeypatch, d):
    # Only the profile's entries and the first missing twist are looked at,
    # so the work does not grow with d.
    calls = count_sigma_terms(monkeypatch)
    text = json.dumps({"schema": 1, "label": "huge", "d": d,
                       "profile": {"0": {"jet": 10**18}}})
    code, out, err = run(capsys, "criteria", "--config",
                         write_config(tmp_path, text))
    have = 10**18
    rows = (f"  k=0 (ok): q=0 need 0 have {have}\n"
            f"  k=1 (fails): q=0 need 1 have {have}  q=1 need 0 have -1 <-\n")
    assert (code, err) == (0, "")
    assert out == (f"scenario: huge (d={d}, branched)\n"
                   f"jet: k_star = 0\n{rows}very: k_star = 0\n{rows}")
    assert len(calls) <= 200


def test_criteria_dense_profile_at_huge_degree(tmp_path, capsys, monkeypatch):
    # 200 twists whose very orders fall by 10^15 each: every twist moves
    # k* down by its closed-form threshold, then the missing twist q = 200
    # caps k* at 199.
    entries, top = 200, 10**18
    profile = {str(q): {"very": top - q * 10**15} for q in range(entries)}

    def criteria(d):
        text = json.dumps({"schema": 1, "label": "dense", "d": d,
                           "profile": profile})
        return run(capsys, "criteria", "--config", write_config(tmp_path, text))

    calls = count_sigma_terms(monkeypatch)
    code, out, err = criteria(10**9)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:2] == ["scenario: dense (d=1000000000, branched)",
                         "jet: k_star = -1"]
    assert lines[3] == "very: k_star = 199"
    # the printed k = 199 and k = 200 rows take one sigma term per twist
    # q >= 1 (sigma(k, d, 0) = k), and the decision takes none
    printed = 2 * entries - 1
    assert len(calls) == printed
    # no order here reaches past k = 200, where d = 201 already saturates
    assert criteria(entries + 1) == (
        0, out.replace("d=1000000000", f"d={entries + 1}"), "")


def child_env():
    """The environment of a child process that imports this package."""
    src = os.path.dirname(os.path.dirname(cycliccover.__file__))
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(
                    filter(None, [src, os.environ.get("PYTHONPATH")])))


def cli_under_memory_limit(*argv):
    """Run the CLI in a child process whose address space is capped at 600 MB."""
    limit = 600 * 2**20
    return subprocess.run(
        [sys.executable, "-m", "cycliccover.cli", *argv],
        capture_output=True, text=True, env=child_env(), timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))


def test_closed_stdout_exits_141_without_a_traceback():
    # 299 rows of 301 cells overflow the pipe's buffer, so the CLI is still
    # writing when the reader closes its end after 100 bytes.
    proc = subprocess.Popen(
        [sys.executable, "-m", "cycliccover.cli",
         "sigma-table", "--d", "300", "--kmax", "300"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    head = proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert head.startswith(b"q\\k")
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize("max_K, max_ell, refusal", [
    pytest.param(10**8, 3,
                 "num DP work of 380000001600001088 steps exceeds cap 14000000",
                 id="100000000-3"),
    pytest.param(3, 10**8,
                 "num DP work of 73899999261 steps exceeds cap 14000000",
                 id="3-100000000"),
])
def test_verify_lemma_num_huge_box_at_budget_zero_is_bounded(max_K, max_ell,
                                                             refusal):
    # refused before any work, whatever the budget: no partial report
    proc = cli_under_memory_limit(
        "verify-lemma", "num", "--max-K", str(max_K),
        "--max-ell", str(max_ell), "--budget", "0")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", f"budget exhausted: {refusal}\n")


def test_verify_lemma_num_huge_box_at_large_budget_is_bounded():
    # 3,000,001 head pairs fit the budget, but the DP's work would not fit
    # the cap: the box is refused before any work, where walking it to the
    # cut took most of 2 s.
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = cli_under_memory_limit(
        "verify-lemma", "num", "--max-K", str(10**8), "--max-ell", "3",
        "--budget", "3000000")
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "budget exhausted: num DP work of 380000001600001088 steps "
               "exceeds cap 14000000\n")
    cpu_s = (after.ru_utime - before.ru_utime
             + after.ru_stime - before.ru_stime)
    assert cpu_s < 2, cpu_s


def test_verify_lemma_alg_one_part_per_ideal_at_large_ell():
    # k = ell: the only colength partition is (1, ..., 1), one instance,
    # however many parts it has.
    proc = cli_under_memory_limit(
        "verify-lemma", "alg", "--k", "1000", "--ell", "1000")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "lemma alg: PASS\n"
        "box ell=1000 k=1000\n"
        "instances checked: 1\n"
        "min slack (bound - observed): 0\n"
        "note: model: monomial ideals in 2 variables (staircases); "
        "evidence for the local-ring statement, not a proof\n")


def test_verify_lemma_alg_small_excess_at_huge_ell():
    # k = ell + 10 with ell > 10: the colength partitions are the 42
    # partitions of the excess 10, each padded with colength-1 ideals, and
    # tau(k, ell) = 10.  The counts match those at ell = 1000.
    proc = cli_under_memory_limit(
        "verify-lemma", "alg", "--k", "10000010", "--ell", "10000000")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "lemma alg: PASS\n"
        "box ell=10000000 k=10000010\n"
        "instances checked: 11577\n"
        "min slack (bound - observed): 3\n"
        "note: model: monomial ideals in 2 variables (staircases); "
        "evidence for the local-ring statement, not a proof\n")


def test_verify_lemma_alg_budget_message_at_huge_ell_is_short():
    # The message lists the slots of colength >= 2 and counts the rest,
    # so its size does not grow with ell.
    proc = cli_under_memory_limit(
        "verify-lemma", "alg", "--k", "10000010", "--ell", "10000000",
        "--budget", "0")
    assert (proc.returncode, proc.stderr) == (
        3, "budget exhausted: tuple budget 0 exceeded at colengths (11,) "
        "plus 9999999 slots of colength 1\n")
    assert len(proc.stderr) < 200
    assert proc.stdout == (
        "lemma alg: PARTIAL\n"
        "box ell=10000000 k=10000010\n"
        "instances checked: 0\n"
        "min slack (bound - observed): None\n"
        "note: partial: budget exhausted\n")
    assert len(proc.stdout) == 135


@pytest.mark.parametrize("argv, message", [
    (["--d", "1", "--trials", "2"],
     "error: --trials 2 needs --d >= 2: a case-2 trial draws its degree "
     "from 2..d\n"),
    (["--d", "0", "--trials", "0"], "error: --d must be >= 1, got 0\n"),
    (["--d", "0"], "error: --d must be >= 1, got 0\n"),
    (["--d", "3", "--trials", "-4"], "error: --trials must be >= 0, got -4\n"),
])
def test_local_model_rejects_bad_arguments_before_output(capsys, argv, message):
    code, out, err = run(capsys, "local-model", *argv)
    assert (code, out, err) == (2, "", message)


def test_verify_lemma_partial_report_is_labelled(capsys):
    code, out, err = run(capsys, "verify-lemma", "num", "--max-m", "3",
                         "--max-K", "6", "--max-ell", "4", "--max-q", "3",
                         "--budget", "10")
    assert code == 3
    assert "budget exhausted" in err
    lines = out.splitlines()
    assert lines[0] == "lemma num: PARTIAL"
    assert "instances checked: 10" in lines
    assert "PASS" not in out


def test_verify_lemma_rejects_negative_budget(capsys):
    code, out, err = run(capsys, "verify-lemma", "num", "--budget", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --budget must be >= 0, got -1\n"


def test_criteria_reports_undecodable_config_as_config_error(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_bytes(b'{"schema": 1, "d": 2, "label": "\xff", "profile": {}}')
    code, out, err = run(capsys, "criteria", "--config", str(config))
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: cannot read config {config}: ")
    assert "'utf-8' codec can't decode byte 0xff" in err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter converts integers of any length")
def test_criteria_reports_over_long_integer_as_config_error(tmp_path, capsys):
    text = '{"schema": 1, "d": 2, "profile": {"0": {"jet": ' + "9" * 5000 + "}}}"
    path = write_config(tmp_path, text)
    code, out, err = run(capsys, "criteria", "--config", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: cannot read config {path}: ")
    assert "Exceeds the limit" in err


def test_criteria_duplicate_key_keeps_its_own_message(tmp_path, capsys):
    from cycliccover.cli import ConfigError
    assert issubclass(ConfigError, ValueError)
    path = write_config(tmp_path, '{"schema": 1, "schema": 1}')
    code, out, err = run(capsys, "criteria", "--config", path)
    assert (code, out, err) == (
        2, "", "config error: duplicate config key 'schema'\n")


# The exact stderr of configs the JSON decoder refuses, recorded before
# the CLI shared one decoder per process; {path} is the config's path.
DECODER_ERRORS = {
    "bom": ('\ufeff{"schema": 1, "d": 3, "profile": {}}',
            "config error: cannot read config {path}: Unexpected UTF-8 BOM "
            "(decode using utf-8-sig): line 1 column 1 (char 0)\n"),
    "top-level key thrice": (
        '{"schema": 1, "d": 3, "profile": {}, "d": 4, "label": "", "d": 5}',
        "config error: duplicate config key 'd'\n"),
    "entry key thrice": (
        '{"schema": 1, "d": 3, "profile": {"0": {"very": 0, "jet": 1, '
        '"jet": 2, "very": 1, "jet": 3}}}',
        "config error: duplicate config key 'jet'\n"),
    "malformed": ('{"schema": 1, "d": 3, "profile": {"0": {"jet": 1,}}}',
                  "config error: cannot read config {path}: Expecting "
                  "property name enclosed in double quotes: line 1 column 50 "
                  "(char 49)\n"),
    "extra data": ('{"schema": 1, "d": 3, "profile": {}} {"x": 1}',
                   "config error: cannot read config {path}: Extra data: "
                   "line 1 column 38 (char 37)\n"),
}


@pytest.mark.parametrize("case", DECODER_ERRORS)
def test_criteria_decoder_errors_are_pinned(tmp_path, capsys, case):
    text, expected = DECODER_ERRORS[case]
    path = tmp_path / "c.json"
    path.write_text(text, encoding="utf-8")
    for _ in range(2):  # the decoder is built once and then reused
        code, out, err = run(capsys, "criteria", "--config", str(path))
        assert (code, out, err) == (2, "", expected.format(path=path))


SCENARIO = ("--config", "scenario.json")
# Each argv is parsed by main and by the top-level parser's parse_args.
PARSE_ARGV = [
    (), ("-h",), ("--help",), ("--",), ("--", "criteria", *SCENARIO),
    ("-x", "criteria"), ("nope",), ("crit", *SCENARIO), ("sigma",),
    ("criteria",), ("criteria", *SCENARIO),
    ("criteria", "--config=scenario.json"),
    ("criteria", "--conf", "scenario.json"),
    ("criteria", *SCENARIO, *SCENARIO),
    ("criteria", *SCENARIO, "--fo", "structured-records"),
    ("criteria", *SCENARIO, "extra"), ("criteria", *SCENARIO, "--bogus", "-5"),
    ("criteria", "--config"), ("criteria", "-h"), ("criteria", "--h"),
    ("criteria", "--", *SCENARIO), ("criteria", *SCENARIO, "--", "x"),
    ("sigma-table", "--d", "3", "--kmax", "2"),
    ("sigma-table", "--d=3", "--kmax=2", "--format=csv"),
    ("sigma-table", "--d", "-1", "--kmax", "2"),
    ("sigma-table", "--d", "3", "--kmax", "-2"),
    ("sigma-table", "--d", "x", "--kmax", "1"),
    ("sigma-table", "--d", "3", "--kmax", "1", "--format", "html"),
    ("sigma-table", "--d", "9", "--d", "3", "--kmax", "1"),
    ("sigma-table", "--kmax", "1"),
    ("sigma-table", "--d", "3", "--kmax", "1", "-"),
    ("verify-lemma",), ("verify-lemma", "alg"), ("verify-lemma", "xyz"),
    ("verify-lemma", "alg", "--k", "4", "--ell", "2"),
    ("verify-lemma", "--k", "4", "alg", "--ell=2",
     "--format", "structured-records"),
    ("verify-lemma", "alg", "num"), ("verify-lemma", "num", "--max", "2"),
    ("verify-lemma", "num", "--max-m", "1", "--max-K", "2", "--max-e", "2",
     "--max-q", "1"),
    ("verify-lemma", "num", "--max-m", "1", "--max-K", "2", "--budget", "-5"),
    ("local-model", "--d"), ("local-model", "--d", "2", "--trials", "0"),
    ("local-model", "--d", "-3"),
    ("local-model", "--d", "2", "--trials", "0",
     "--seed", "-7", "--seed", "1"),
    ("examples", "--only", "geiser"), ("examples", "--only"),
    ("examples", "--only=nope"), ("examples", "-h", "extra"),
]


def parse_outcome(monkeypatch, capsys, argv, parse):
    """(exit code, stdout, stderr, parsed namespaces) of main(argv) with
    cli._parse replaced by parse, recording what it returns."""
    parsed = []

    def recorded(argv):
        parsed.append(parse(argv))
        return parsed[-1]

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse", recorded)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, parsed


@pytest.fixture
def scenario_dir(tmp_path, monkeypatch):
    """A working directory holding a two-twist config as scenario.json."""
    (tmp_path / "scenario.json").write_text(json.dumps({
        "schema": 1, "d": 2,
        "profile": {"0": {"jet": 3, "very": 3}, "1": {"jet": 2, "very": 2}}}))
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("argv", PARSE_ARGV, ids=" ".join)
def test_main_parses_like_the_top_level_parser(capsys, monkeypatch,
                                               scenario_dir, argv):
    monkeypatch.setenv("COLUMNS", "80")
    expected = parse_outcome(monkeypatch, capsys, argv,
                             lambda argv: build_parser().parse_args(argv))
    assert parse_outcome(monkeypatch, capsys, argv, cli._parse) == expected


def count_argparse(monkeypatch):
    """(progs of parse_known_args calls, ArgumentParsers built) from now on,
    with the parsers' cache emptied, so building them would show."""
    calls, built = [], []
    parse_known_args = argparse.ArgumentParser.parse_known_args
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    return calls, built


@pytest.mark.parametrize("argv", [
    ("sigma-table", "--d", "2", "--kmax", "1"),
    ("verify-lemma", "alg", "--k", "4", "--ell", "2"),
    ("criteria", "--config", "scenario.json"),
    ("examples", "--only", "geiser"),
    ("local-model", "--d", "2", "--trials", "0"),
], ids=lambda argv: argv[0])
def test_plain_command_call_runs_no_argparse(capsys, monkeypatch,
                                             scenario_dir, argv):
    calls, built = count_argparse(monkeypatch)
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert (calls, built) == ([], [])


@pytest.mark.parametrize("argv", [
    ("sigma-table", "--d=2", "--kmax", "1"),
    ("verify-lemma", "--k", "4", "alg", "--ell", "2"),
    ("criteria", "--conf", "scenario.json"),
    ("examples", "--only=geiser", "--form", "plain"),
    ("local-model", "--d", "2", "--trials", "0", "--seed", "-1"),
], ids=lambda argv: argv[0])
def test_command_call_runs_one_argparse_pass(capsys, monkeypatch,
                                             scenario_dir, argv):
    # argv the plain path refuses takes one parse_args pass: the top-level
    # parser, which hands the tokens after the command name to its parser
    calls, _ = count_argparse(monkeypatch)
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert calls == ["cycliccover", f"cycliccover {argv[0]}"]

import json

import pytest

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


def test_sigma_table_deterministic(capsys):
    _, out1, _ = run(capsys, "sigma-table", "--d", "15", "--kmax", "15",
                     "--format", "csv")
    _, out2, _ = run(capsys, "sigma-table", "--d", "15", "--kmax", "15",
                     "--format", "csv")
    assert out1 == out2


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


def test_verify_lemma_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("CYCLICCOVER_BUDGET", "10")
    code, _, err = run(capsys, "verify-lemma", "num", "--max-m", "3",
                       "--max-K", "6", "--max-ell", "4", "--max-q", "3")
    assert code == 3


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


@pytest.mark.parametrize("value", ["-5", "abc", "1.5", " 10", "+10", ""])
def test_verify_lemma_rejects_bad_budget_env(capsys, monkeypatch, value):
    monkeypatch.setenv("CYCLICCOVER_BUDGET", value)
    code, out, err = run(capsys, "verify-lemma", "alg", "--k", "4",
                         "--ell", "2")
    assert (code, out) == (2, "")
    assert err == ("error: CYCLICCOVER_BUDGET must be a non-negative "
                   f"integer, got {value!r}\n")

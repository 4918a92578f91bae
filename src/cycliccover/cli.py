"""Command-line front end.

Commands: sigma-table, verify-lemma, criteria, examples, local-model.
Exit codes: 0 success, 1 claim/lemma failure, 2 usage or parse error,
3 search budget exhausted.  Commands raise; only main turns an error into
its stderr line and exit code, and prints the partial report a budget cut
carries.  sigma-table prints the rows of combinatorics.sigma_table, blank
where k < q.  All output is byte-deterministic for fixed arguments; the
structured-records format emits one JSON object per line.
The environment variable CYCLICCOVER_BUDGET overrides the default search
budget for the lemma commands.

Importing this module and building the parser load no layer module and
not json.  Each command binds the names it runs, from its layers and from
json, on its first call in a process (the _import_* functions), so
sigma-table loads only combinatorics, criteria engine and combinatorics,
and verify-lemma lemmas and combinatorics.  json is loaded by criteria and
local-model, and by the other commands only for --format
structured-records.  No command loads dataclasses.
"""

import argparse
import functools
import os
import sys

from .errors import ResourceBudgetError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

CONFIG_SCHEMA_VERSION = 1
# sigma-table refuses, before any work, a table of more rendered cells
# (rows q times columns k) than this.  Each cell is one O(1) sigma call, so
# cost follows the rendered text: 10^5 cells take about 0.3 s and a 50 MB
# peak at d = 2 (one wide row), 0.15 s at d = 316 (2-vCPU VM, Python 3.11).
SIGMA_TABLE_CELL_CAP = 10**5


class ConfigError(ValueError):
    pass


# Each _import_* function binds module globals once per process, on the
# first call of a command that needs them; later calls return at once.


@functools.cache
def _import_json() -> None:
    global json
    import json


# -- sigma-table -------------------------------------------------------------


@functools.cache
def _import_sigma_table() -> None:
    global sigma_table
    from .combinatorics import sigma_table


def render_sigma_table(d: int, kmax: int, fmt: str) -> str:
    """The sigma table of degree d up to order kmax in format fmt; row q's
    cells for k < q are blank, and structured records skip them."""
    _import_sigma_table()
    rows = sigma_table(d, kmax)
    if fmt == "structured-records":
        _import_json()
        return "\n".join(
            json.dumps({"d": d, "q": q, "k": k, "sigma": value}, sort_keys=True)
            for q, row in rows.items() for k, value in enumerate(row, q))

    ks = list(range(kmax + 1))
    labelled = [(f"L-{q}M", [""] * q + [str(value) for value in row])
                for q, row in rows.items()]

    if fmt == "csv":
        lines = ["q\\k," + ",".join(str(k) for k in ks)]
        for label, cells in labelled:
            lines.append(label + "," + ",".join(cells))
        return "\n".join(lines)

    if fmt == "markdown":
        header = "| k | " + " | ".join(str(k) for k in ks) + " |"
        sep = "|---" * (len(ks) + 1) + "|"
        lines = [header, sep]
        for label, cells in labelled:
            lines.append("| " + label + " | " + " | ".join(cells) + " |")
        return "\n".join(lines)

    width = max(4, len(str(kmax)) + 1)
    header = "q\\k".ljust(8) + "".join(str(k).rjust(width) for k in ks)
    lines = [header]
    for label, cells in labelled:
        lines.append(label.ljust(8) + "".join(c.rjust(width) for c in cells))
    return "\n".join(lines)


def _cmd_sigma_table(args) -> int:
    # min(kmax, d - 1) rows of kmax + 1 cells; invalid d or kmax count 0
    # here and are refused by sigma_table with exit 2.
    cells = max(0, min(args.kmax, args.d - 1)) * (args.kmax + 1)
    if cells > SIGMA_TABLE_CELL_CAP:
        raise ResourceBudgetError(
            f"sigma table of {cells} cells exceeds cap {SIGMA_TABLE_CELL_CAP}")
    print(render_sigma_table(args.d, args.kmax, args.format))
    return EXIT_OK


# -- verify-lemma --------------------------------------------------------------


@functools.cache
def _import_lemmas() -> None:
    global DEFAULT_TUPLE_BUDGET, check_lemma_alg, check_lemma_num
    from .lemmas import DEFAULT_TUPLE_BUDGET, check_lemma_alg, check_lemma_num


def _budget(args) -> int:
    if args.budget is not None:
        if args.budget < 0:
            raise ValueError(f"--budget must be >= 0, got {args.budget}")
        return args.budget
    env = os.environ.get("CYCLICCOVER_BUDGET")
    if env is None:
        _import_lemmas()
        return DEFAULT_TUPLE_BUDGET
    if not (env.isascii() and env.isdigit()):
        raise ValueError(
            f"CYCLICCOVER_BUDGET must be a non-negative integer, got {env!r}")
    return int(env)


def _cmd_verify_lemma(args) -> int:
    _import_lemmas()
    if args.lemma == "alg":
        report = check_lemma_alg(args.k, args.ell, budget=_budget(args))
    else:
        report = check_lemma_num(
            args.max_m, args.max_K, args.max_ell, args.max_q,
            budget=_budget(args))
    _emit_report(report, args.format)
    return EXIT_OK if report.passed else EXIT_FAILURE


def _emit_report(report, fmt: str) -> None:
    if fmt == "structured-records":
        _import_json()
        print(json.dumps(report.to_record(), sort_keys=True))
    else:
        print(report.to_text())


# -- criteria ------------------------------------------------------------------


@functools.cache
def _import_engine() -> None:
    global CoveringScenario, PositivityProfile, explain_requirement
    global max_guaranteed_jet_order, max_guaranteed_very_order
    from .engine import (
        CoveringScenario,
        PositivityProfile,
        explain_requirement,
        max_guaranteed_jet_order,
        max_guaranteed_very_order,
    )


def load_scenario_config(path: str) -> "CoveringScenario":
    """Strict JSON scenario config: unknown or duplicate keys, non-integers
    and profile keys other than "0".."d-1" rejected.  A file that cannot
    be read, decoded or parsed (bad UTF-8, bad JSON, an integer past the
    interpreter's digit limit) is a ConfigError too."""
    _import_json()
    _import_engine()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_reject_duplicate_keys)
    except ConfigError:
        raise
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    allowed = {"schema", "label", "d", "branched", "profile"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if raw.get("schema") != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"config field 'schema' must be {CONFIG_SCHEMA_VERSION}")
    d = _require_int(raw, "d")
    branched = raw.get("branched", True)
    if not isinstance(branched, bool):
        raise ConfigError("config field 'branched' must be true or false")
    label = raw.get("label", "")
    if not isinstance(label, str):
        raise ConfigError("config field 'label' must be a string")
    profile_raw = raw.get("profile")
    if not isinstance(profile_raw, dict):
        raise ConfigError("config field 'profile' must be an object")
    entries = {}
    for key, val in profile_raw.items():
        if not isinstance(val, dict) or set(val) - {"jet", "very"}:
            raise ConfigError(
                f"profile entry {key!r} must be an object with keys jet/very")
        entries[_twist_index(key, d)] = (
            _require_int(val, "jet", default=-1),
            _require_int(val, "very", default=-1))
    try:
        return CoveringScenario(
            d=d, branched=branched,
            profile=PositivityProfile(entries), label=label)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _reject_duplicate_keys(pairs: list) -> dict:
    obj = {}
    for key, val in pairs:
        if key in obj:
            raise ConfigError(f"duplicate config key {key!r}")
        obj[key] = val
    return obj


def _twist_index(key: str, d: int) -> int:
    """q for a profile key written canonically: no sign, padding or "_"."""
    q = int(key) if key.isascii() and key.isdigit() else None
    if q is None or key != str(q):
        raise ConfigError(f"profile key {key!r} is not a canonical integer")
    if q >= d:
        raise ConfigError(f"profile key {key!r} is outside 0..d-1 = 0..{d - 1}")
    return q


def _require_int(obj: dict, key: str, default=None) -> int:
    if key not in obj:
        if default is not None:
            return default
        raise ConfigError(f"missing config field {key!r}")
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"config field {key!r} must be an integer")
    return val


def _cmd_criteria(args) -> int:
    scenario = load_scenario_config(args.config)
    verdicts = {
        "jet": max_guaranteed_jet_order(scenario),
        "very": max_guaranteed_very_order(scenario),
    }
    if args.format == "structured-records":
        for kind, verdict in verdicts.items():
            print(json.dumps({"label": scenario.label, "d": scenario.d,
                              "branched": scenario.branched}
                             | verdict.to_record(), sort_keys=True))
        return EXIT_OK
    print(f"scenario: {scenario.label or args.config} "
          f"(d={scenario.d}, {'branched' if scenario.branched else 'unbranched'})")
    for kind, verdict in verdicts.items():
        print(f"{kind}: k_star = {verdict.k_star}")
        for k in (verdict.k_star, verdict.k_star + 1):
            if k < 0:
                continue
            checks = explain_requirement(kind, k, scenario)
            status = "ok" if all(c.satisfied for c in checks) else "fails"
            print(f"  k={k} ({status}): " + "  ".join(
                f"q={c.q} need {c.required} have {c.available}"
                f"{'' if c.satisfied else ' <-'}" for c in checks))
    return EXIT_OK


# -- examples ---------------------------------------------------------------


@functools.cache
def _import_catalog() -> None:
    global default_catalog, evaluate_entry
    from .catalog import default_catalog, evaluate_entry


def _cmd_examples(args) -> int:
    _import_catalog()
    entries = default_catalog()
    if args.only is not None:
        entries = [e for e in entries if e.id == args.only]
        if not entries:
            known = ", ".join(e.id for e in default_catalog())
            raise ValueError(f"unknown entry {args.only!r}; known: {known}")
    any_failure = False
    for entry in entries:
        results = evaluate_entry(entry)
        if args.format == "structured-records":
            _import_json()
            for res in results:
                print(json.dumps({"entry": entry.id} | res.to_record(),
                                 sort_keys=True))
        else:
            print(f"[{entry.id}] {entry.description}")
            for res in results:
                informational = res.claim.provenance == "informational"
                status = "PASS" if res.holds else (
                    "INFO(not met)" if informational else "FAIL")
                print(f"  {res.claim.kind} k_star={res.k_star} "
                      f"{res.claim.comparison} {res.claim.value}: {status}"
                      + (f"  ({res.claim.note})" if res.claim.note else ""))
            for note in entry.notes:
                print(f"  note: {note}")
        for res in results:
            if not res.holds and res.claim.provenance != "informational":
                any_failure = True
    return EXIT_FAILURE if any_failure else EXIT_OK


# -- local-model ----------------------------------------------------------------


@functools.cache
def _import_local_model() -> None:
    global random, Fraction, TruncatedSeries, TRUNCATION_CAP, case3_construct
    global run_case2_trial, vandermonde_residual, vandermonde_solve
    import random
    from fractions import Fraction

    from .localmodel import (
        TRUNCATION_CAP,
        case3_construct,
        run_case2_trial,
        vandermonde_residual,
        vandermonde_solve,
    )
    from .series import TruncatedSeries


def _cmd_local_model(args) -> int:
    _import_json()
    _import_local_model()
    if args.d < 1:
        raise ValueError(f"--d must be >= 1, got {args.d}")
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    if args.trials and args.d < 2:
        raise ValueError(
            f"--trials {args.trials} needs --d >= 2: a case-2 trial draws "
            f"its degree from 2..d")
    # The ramified check below works mod m^(d + 2); refuse before the sweep.
    if args.d + 2 > TRUNCATION_CAP:
        raise ResourceBudgetError(
            f"truncation bound {args.d + 2} exceeds cap {TRUNCATION_CAP}")
    rng = random.Random(args.seed)
    any_failure = False

    # Vandermonde residual sweep for the requested degree.
    for l in range(1, args.d + 1):
        betas = list(range(1, l))
        alphas = vandermonde_solve(args.d, betas)
        residuals = vandermonde_residual(args.d, betas, alphas)
        ok = all(r.is_zero() for r in residuals)
        any_failure |= not ok
        print(json.dumps({
            "check": "vandermonde", "d": args.d, "betas": betas,
            "alphas": [str(a) for a in alphas],
            "residual_zero": ok}, sort_keys=True))

    # Randomized fiber-separation trials.
    for _ in range(args.trials):
        transcript = run_case2_trial(rng, max_d=args.d)
        any_failure |= not transcript["prescriptions_met"]
        print(json.dumps({"check": "case2"} | transcript, sort_keys=True))

    # Ramified splitting round trip on a sample jet.
    variables = ("u1", "u2")
    jet = TruncatedSeries(variables, args.d + 2, {
        (args.d - 1, 1): Fraction(1), (1, 0): Fraction(2)})
    construction = case3_construct(args.d, jet, args.d + 2)
    ok = construction.reassembled() == construction.jet
    any_failure |= not ok
    obstructions = construction.obstructions(
        [args.d - 1 - q for q in range(args.d)])
    print(json.dumps({
        "check": "case3", "d": args.d, "round_trip": ok,
        "component_orders": list(construction.component_orders),
        "obstructions": [[o.q, o.needed_order, o.available_order]
                         for o in obstructions]}, sort_keys=True))
    return EXIT_FAILURE if any_failure else EXIT_OK


# -- entry point -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="cycliccover",
        description="positivity criteria for pullbacks along cyclic coverings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma-table", help="tabulate sigma(k, d, q)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--format", default="plain",
                   choices=["plain", "markdown", "csv", "structured-records"])
    p.set_defaults(func=_cmd_sigma_table)

    p = sub.add_parser("verify-lemma", help="brute-force a lemma over a box")
    p.add_argument("lemma", choices=["alg", "num"])
    p.add_argument("--k", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--max-m", type=int, dest="max_m", default=4)
    p.add_argument("--max-K", type=int, dest="max_K", default=10)
    p.add_argument("--max-ell", type=int, dest="max_ell", default=6)
    p.add_argument("--max-q", type=int, dest="max_q", default=5)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--format", default="plain",
                   choices=["plain", "structured-records"])
    p.set_defaults(func=_cmd_verify_lemma)

    p = sub.add_parser("criteria", help="evaluate a scenario config file")
    p.add_argument("--config", required=True)
    p.add_argument("--format", default="plain",
                   choices=["plain", "structured-records"])
    p.set_defaults(func=_cmd_criteria)

    p = sub.add_parser("examples", help="run the catalog regression suite")
    p.add_argument("--only", default=None)
    p.add_argument("--format", default="plain",
                   choices=["plain", "structured-records"])
    p.set_defaults(func=_cmd_examples)

    p = sub.add_parser("local-model", help="exact construction transcripts")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_local_model)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify-lemma" and args.lemma == "alg":
        if args.k is None or args.ell is None:
            parser.error("verify-lemma alg requires --k and --ell")
    try:
        return args.func(args)
    except ResourceBudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        if exc.partial_report is not None:
            _emit_report(exc.partial_report, args.format)
        return EXIT_BUDGET
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

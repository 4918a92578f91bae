"""Command-line front end.

Commands: sigma-table, verify-lemma, criteria, examples, local-model.
Exit codes: 0 success, 1 claim/lemma failure, 2 usage or parse error,
3 search budget exhausted, 141 (128 + SIGPIPE, as a shell reports a writer
killed by a closed pipe) when the reader closes stdout early.  Commands
raise; only main turns an error into its stderr line and exit code, and
prints the partial report a budget cut carries.  sigma-table prints the
rows of combinatorics.sigma_table, blank where k < q.  All output is
byte-deterministic for fixed arguments; the structured-records format
emits one JSON object per line.

One table (_COMMANDS) declares each command's options; the argparse
parsers are built from it.  main reads a plain argv (a command name, its
positional, whole-name "--flag value" pairs, no value starting with "-")
from the table alone and builds no parser.  Any other argv goes to the
top-level parser's parse_args, which serves help, usage errors and
spellings such as "--d=4", so every help and error text is argparse's.
Importing this module and building the parsers load no layer module and
not json.  Commands reach their layers through the
package's lazy exports (``_pkg.lemmas``, ``_pkg.engine``, ...), so the
package's PEP 562 ``__getattr__`` is the one loader: it imports a layer on
a command's first use, and later uses read a plain module attribute.  So
sigma-table loads only combinatorics, criteria engine and combinatorics,
and verify-lemma lemmas and combinatorics.  json loads with the process's
one codec (_codec): in criteria and local-model, and in the other commands
only for --format structured-records.  No command loads dataclasses.
"""

import argparse
import functools
import os
import sys

from .errors import ResourceBudgetError

_pkg = sys.modules[__package__]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141

CONFIG_SCHEMA_VERSION = 1
# sigma-table refuses, before any work, a table of more rendered cells
# (rows q times columns k) than this.  Each cell is O(1), so cost follows the
# text: 10^5 cells take 0.15-0.22 s (0.6-0.76 s as records) and 37 MB peak RSS
# at d = 2 (one wide row), 0.06-0.09 s at d = 316 (2-vCPU VM, Python 3.11).
SIGMA_TABLE_CELL_CAP = 10**5
TRUNCATION_CAP = 12
# local-model refuses more case-2 trials than this before any output: a
# trial at d = 10 takes about 0.9 ms and prints about 135 bytes, so the cap
# is about 9 s and 1.4 MB (2-vCPU VM, Python 3.11).
TRIAL_CAP = 10**4


class ConfigError(ValueError):
    pass


@functools.cache
def _codec():
    """(encode, decode): one sorted-keys JSON encoder and one strict config
    decoder per process."""
    import json
    return (json.JSONEncoder(sort_keys=True).encode,
            json.JSONDecoder(object_pairs_hook=_reject_duplicate_keys).decode)


# -- sigma-table -------------------------------------------------------------


def render_sigma_table(d: int, kmax: int, fmt: str) -> str:
    """The sigma table of degree d up to order kmax in format fmt; row q's
    cells for k < q are blank, and structured records skip them."""
    rows = _pkg.combinatorics.sigma_table(d, kmax)
    if fmt == "structured-records":
        encode = _codec()[0]
        return "\n".join(
            encode({"d": d, "q": q, "k": k, "sigma": value})
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


def _budget(args) -> int:
    if args.budget is None:
        return _pkg.lemmas.DEFAULT_TUPLE_BUDGET
    if args.budget < 0:
        raise ValueError(f"--budget must be >= 0, got {args.budget}")
    return args.budget


def _cmd_verify_lemma(args) -> int:
    if args.lemma == "alg":
        report = _pkg.lemmas.check_lemma_alg(
            args.k, args.ell, budget=_budget(args))
    else:
        report = _pkg.lemmas.check_lemma_num(
            args.max_m, args.max_K, args.max_ell, args.max_q,
            budget=_budget(args))
    _emit_report(report, args.format)
    return EXIT_OK if report.passed else EXIT_FAILURE


def _emit_report(report, fmt: str) -> None:
    if fmt == "structured-records":
        print(_codec()[0](report.to_record()))
    else:
        print(report.to_text())


# -- criteria ------------------------------------------------------------------


def load_scenario_config(path: str):
    """The engine.CoveringScenario of a strict JSON scenario config:
    unknown or duplicate keys, non-integers and profile keys other than
    "0".."d-1" rejected.  A file that cannot be read, decoded or parsed
    (bad UTF-8, bad JSON, an integer past the interpreter's digit limit)
    is a ConfigError too."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if text.startswith("\ufeff"):  # refused as json.loads refuses it
            raise ValueError("Unexpected UTF-8 BOM (decode using utf-8-sig)"
                             ": line 1 column 1 (char 0)")
        raw = _codec()[1](text)
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
    schema = raw.get("schema")  # 1.0 and true compare equal to 1
    if type(schema) is not int or schema != CONFIG_SCHEMA_VERSION:
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
        return _pkg.engine.CoveringScenario(
            d=d, branched=branched,
            profile=_pkg.engine.PositivityProfile(entries), label=label)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _reject_duplicate_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):  # name the first key seen twice
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ConfigError(f"duplicate config key {key!r}")
            seen.add(key)
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
        "jet": _pkg.engine.max_guaranteed_jet_order(scenario),
        "very": _pkg.engine.max_guaranteed_very_order(scenario),
    }
    if args.format == "structured-records":
        encode = _codec()[0]
        for kind, verdict in verdicts.items():
            print(encode({"label": scenario.label, "d": scenario.d,
                          "branched": scenario.branched}
                         | verdict.to_record()))
        return EXIT_OK
    print(f"scenario: {scenario.label or args.config} "
          f"(d={scenario.d}, {'branched' if scenario.branched else 'unbranched'})")
    for kind, verdict in verdicts.items():
        print(f"{kind}: k_star = {verdict.k_star}")
        for k in (verdict.k_star, verdict.k_star + 1):
            if k < 0:
                continue
            checks = _pkg.engine.explain_requirement(kind, k, scenario)
            status = "ok" if all(c.satisfied for c in checks) else "fails"
            print(f"  k={k} ({status}): " + "  ".join(
                f"q={c.q} need {c.required} have {c.available}"
                f"{'' if c.satisfied else ' <-'}" for c in checks))
    return EXIT_OK


# -- examples ---------------------------------------------------------------


def _cmd_examples(args) -> int:
    entries = _pkg.catalog.default_catalog()
    if args.only is not None:
        entries = [e for e in entries if e.id == args.only]
        if not entries:
            known = ", ".join(e.id for e in _pkg.catalog.default_catalog())
            raise ValueError(f"unknown entry {args.only!r}; known: {known}")
    any_failure = False
    for entry in entries:
        results = _pkg.catalog.evaluate_entry(entry)
        if args.format == "structured-records":
            encode = _codec()[0]
            for res in results:
                print(encode({"entry": entry.id} | res.to_record()))
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


def _cmd_local_model(args) -> int:
    import random
    from fractions import Fraction

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
    if args.trials > TRIAL_CAP:
        raise ResourceBudgetError(
            f"{args.trials} case-2 trials exceed cap {TRIAL_CAP}")
    rng = random.Random(args.seed)
    encode = _codec()[0]
    any_failure = False

    # Vandermonde residual sweep for the requested degree.
    for l, alphas in enumerate(_pkg.localmodel.vandermonde_sweep(args.d), 1):
        betas = list(range(1, l))
        residuals = _pkg.localmodel.vandermonde_residual(args.d, betas, alphas)
        ok = all(r.is_zero() for r in residuals)
        any_failure |= not ok
        print(encode({
            "check": "vandermonde", "d": args.d, "betas": betas,
            "alphas": [str(a) for a in alphas],
            "residual_zero": ok}))

    # Randomized fiber-separation trials.
    for _ in range(args.trials):
        transcript = _pkg.localmodel.run_case2_trial(rng, max_d=args.d)
        any_failure |= not transcript["prescriptions_met"]
        print(encode({"check": "case2"} | transcript))

    # Ramified splitting round trip on a sample jet.
    variables = ("u1", "u2")
    jet = _pkg.series.TruncatedSeries(variables, args.d + 2, {
        (args.d - 1, 1): Fraction(1), (1, 0): Fraction(2)})
    construction = _pkg.localmodel.case3_construct(args.d, jet, args.d + 2)
    ok = construction.reassembled() == construction.jet
    any_failure |= not ok
    obstructions = construction.obstructions(
        [args.d - 1 - q for q in range(args.d)])
    print(encode({
        "check": "case3", "d": args.d, "round_trip": ok,
        "component_orders": list(construction.component_orders),
        "obstructions": [[o.q, o.needed_order, o.available_order]
                         for o in obstructions]}))
    return EXIT_FAILURE if any_failure else EXIT_OK


# -- entry point -------------------------------------------------------------------


_FORMATS = ("plain", "structured-records")

# Each command's help, handler, positional (or None) and --flags, in the
# order build_parser adds them.  An option is (dest, type, default,
# choices, required); a positional's dest is its name.  build_parser builds
# argparse's parsers from this table, and _parse_plain reads plain argv
# with it.
_COMMANDS = {
    "sigma-table": ("tabulate sigma(k, d, q)", _cmd_sigma_table, None, {
        "--d": ("d", int, None, None, True),
        "--kmax": ("kmax", int, None, None, True),
        "--format": ("format", None, "plain",
                     ("plain", "markdown", "csv", "structured-records"),
                     False)}),
    "verify-lemma": ("brute-force a lemma over a box", _cmd_verify_lemma,
                     ("lemma", None, None, ("alg", "num"), True), {
        "--k": ("k", int, None, None, False),
        "--ell": ("ell", int, None, None, False),
        "--max-m": ("max_m", int, 4, None, False),
        "--max-K": ("max_K", int, 10, None, False),
        "--max-ell": ("max_ell", int, 6, None, False),
        "--max-q": ("max_q", int, 5, None, False),
        "--budget": ("budget", int, None, None, False),
        "--format": ("format", None, "plain", _FORMATS, False)}),
    "criteria": ("evaluate a scenario config file", _cmd_criteria, None, {
        "--config": ("config", None, None, None, True),
        "--format": ("format", None, "plain", _FORMATS, False)}),
    "examples": ("run the catalog regression suite", _cmd_examples, None, {
        "--only": ("only", None, None, None, False),
        "--format": ("format", None, "plain", _FORMATS, False)}),
    "local-model": ("exact construction transcripts", _cmd_local_model, None, {
        "--d": ("d", int, 4, None, False),
        "--trials": ("trials", int, 10, None, False),
        "--seed": ("seed", int, 0, None, False)}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The top-level CLI parser, built once per process with the command
    parsers; ``main`` uses it for help, usage errors and any argv that
    ``_parse_plain`` refuses."""
    parser = argparse.ArgumentParser(
        prog="cycliccover",
        description="positivity criteria for pullbacks along cyclic coverings")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, positional, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if positional is not None:
            dest, convert, default, choices, _ = positional
            p.add_argument(dest, type=convert, default=default,
                           choices=choices)
        for flag, (dest, convert, default, choices, required) in flags.items():
            p.add_argument(flag, dest=dest, type=convert, default=default,
                           choices=choices, required=required)
        p.set_defaults(func=func)
    return parser


def _parse_plain(argv: list):
    """The namespace ``build_parser().parse_args(argv)`` gives for a plain
    argv: a command name, its positional if it has one, then whole-name
    ``--flag value`` pairs, with no value starting with "-", each value
    converted by its type and in its choices, and every required option
    given; the last of a repeated flag wins.  None for any other argv."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    _, func, positional, flags = command
    options = (positional,) if positional else ()
    flagged = argv[1 + len(options):]
    if len(argv) <= len(options) or len(flagged) % 2:
        return None
    pairs = list(zip(options, argv[1:]))
    for flag, token in zip(flagged[::2], flagged[1::2]):
        if flag not in flags:
            return None
        pairs.append((flags[flag], token))
    given = {}
    for (dest, convert, _, choices, _), token in pairs:
        if token[:1] == "-":
            return None
        if convert is not None:
            try:
                token = convert(token)
            except (TypeError, ValueError):
                return None
        if choices is not None and token not in choices:
            return None
        given[dest] = token
    values = {}
    for dest, _, default, _, required in (*options, *flags.values()):
        if dest in given:
            values[dest] = given[dest]
        elif required:
            return None
        else:
            values[dest] = default
    return argparse.Namespace(**values, func=func, command=argv[0])


def _parse(argv: list) -> argparse.Namespace:
    """The namespace of ``build_parser().parse_args(argv)``, or its usage
    error or help.  Plain argv is read from the command table alone, with
    no parser built; any other argv goes to the top-level parser."""
    return _parse_plain(argv) or build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    if args.command == "verify-lemma" and args.lemma == "alg":
        if args.k is None or args.ell is None:
            build_parser().error("verify-lemma alg requires --k and --ell")
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point fd 1 at /dev/null, so the
        # interpreter's exit flush of what is still buffered cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


def _run(args) -> int:
    """The command's exit code; an error it raises becomes its stderr
    line and exit code."""
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

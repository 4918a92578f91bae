"""The CLI's plain parse path against argparse.

``cli._parse`` reads a plain argv (a command name, its positional if it has
one, then whole-name ``--flag value`` pairs) from the command table without
building a parser, and sends every other argv to argparse.  Whatever the
argv, the outcome (exit code, stdout, stderr and namespace) must be the one
``build_parser().parse_args`` gives.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

import cycliccover.cli as cli

COMMANDS = cli._COMMANDS
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
DASHED = ("-", "--", "-3", "-0", "-h", "--help", "--d", "-x", "-x y")
SPECIAL = DASHED + ("", "x y", "1_000", "0x1f", "3.0", "+4", "stray")
WORDS = ("plain", "markdown", "csv", "structured-records", "html", "alg",
         "num", "geiser", "scenario.json")


def outcome(parse, argv):
    """(exit code or None, stdout, stderr, namespace or None) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result, code = parse(list(argv)), None
        except SystemExit as exc:
            result, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), result


def integer_text(low=-20, high=10**6):
    """Decimal text an int() call accepts and that starts with no "-":
    plain, space-padded (a padded negative too) or in non-ASCII digits."""
    n = st.integers(low, high)
    return st.one_of(
        st.integers(0, high).map(str),
        n.map(lambda v: f" {v}"),
        n.map(lambda v: f"\t{v} "),
        st.integers(0, high).map(lambda v: str(v).translate(ARABIC_INDIC)),
        st.integers(0, high).map(lambda v: str(v).translate(FULLWIDTH)))


def plain_value(option):
    """A value the option accepts, starting with no "-"."""
    _, convert, _, choices, _ = option
    if choices is not None:
        return st.sampled_from(choices)
    if convert is int:
        return integer_text()
    return st.text(min_size=1, max_size=6).filter(lambda v: v[0] != "-")


def any_value(option):
    """Any value: a plain one, a negative number, text or a special token."""
    return st.one_of(plain_value(option), st.integers(-50, 50).map(str),
                     st.sampled_from(SPECIAL + WORDS), st.text(max_size=4))


@st.composite
def plain_argv(draw):
    """A command with every required option, given in any order, some
    optional flags given, and some flags repeated."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    _, _, positional, flags = COMMANDS[name]
    argv = [name]
    if positional is not None:
        argv.append(draw(plain_value(positional)))
    chosen = [flag for flag, option in flags.items()
              if option[4] or draw(st.booleans())]
    chosen += draw(st.lists(st.sampled_from(sorted(flags)), max_size=2))
    for flag in draw(st.permutations(chosen)):
        argv += [flag, draw(plain_value(flags[flag]))]
    return argv


@st.composite
def any_argv(draw):
    """Command lines of every shape: abbreviated flags, --flag=value, dash-
    leading values, stray tokens, --, -h, missing values and flags."""
    name = draw(st.sampled_from(sorted(COMMANDS) * 3 + ["crit", "-h", "--",
                                                        "--help", ""]))
    if not draw(st.integers(0, 19)):
        return []
    _, _, positional, flags = COMMANDS.get(name, (None, None, None, {}))
    flags = flags or COMMANDS["sigma-table"][3]
    argv = [name]
    if positional is not None and draw(st.integers(0, 4)):
        argv.append(draw(any_value(positional)))
    for _ in range(draw(st.integers(0, 5))):
        flag = draw(st.sampled_from(sorted(flags)))
        value = draw(any_value(flags[flag]))
        form = draw(st.sampled_from(
            ("pair", "pair", "pair", "dashed", "equals", "abbreviated", "stray",
             "bare")))
        if form == "pair":
            argv += [flag, value]
        elif form == "dashed":
            argv += [flag, draw(st.sampled_from(DASHED))]
        elif form == "equals":
            argv.append(f"{flag}={value}")
        elif form == "abbreviated":
            argv += [flag[:draw(st.integers(2, max(2, len(flag) - 1)))], value]
        elif form == "stray":
            argv.append(draw(st.sampled_from(SPECIAL + WORDS)))
        else:
            argv.append(flag)
    return argv


@settings(max_examples=300, deadline=None)
@given(plain_argv())
def test_plain_path_reads_plain_argv_as_argparse_does(argv):
    expected = outcome(cli.build_parser().parse_args, argv)
    assert expected[:3] == (None, "", "")
    assert cli._parse_plain(argv) == expected[3]


@settings(max_examples=600, deadline=None)
@given(any_argv())
def test_parse_matches_argparse_on_any_argv(argv):
    expected = outcome(cli.build_parser().parse_args, argv)
    assert outcome(cli._parse, argv) == expected
    plain = cli._parse_plain(argv)
    assert plain is None or (expected[0] is None and plain == expected[3])

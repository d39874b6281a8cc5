"""``cli.parse_argv`` against the argparse parser it replaced.

``argparse_reference.build_parser`` is that parser, kept verbatim.  Over
generated argvs of every command, an argv the reference accepts must parse
to the same attributes, and one it refuses (exit 2) or answers with help
(exit 0) must end the same way.  One class of argv is read differently on
purpose: a value-taking option followed by a separate token that starts
with a single ``-`` takes that token as its value, so it must parse as the
reference parses the ``--opt=value`` spelling.

Argv shapes whose argparse reading changed between Python 3.10 and 3.13
(``--`` and the all-flags prefix ``--=``) are left out of the generator and
pinned by unit tests instead.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argparse_reference import build_parser
from seqarea import cli
from seqarea.cli import FAMILY_NAMES

COMMON = ("--format", "--out")
FAMILY = ("--s", "--t", "--rank", "--initial-terms")
OPTIONS = {
    ("gen",): (*COMMON, *FAMILY, "--count"),
    ("area",): (*COMMON, *FAMILY, "--n", "--k", "--m", "--method"),
    ("verify",): (*COMMON, *FAMILY, "--n", "--k", "--m"),
    ("table", "polygonal"): (*COMMON, "--m", "--rank"),
    ("table", "third-order"): (*COMMON, "--k-max", "--n", "--padovan-initial"),
}
# Values that each option accepts, and a pool that mixes valid and invalid
# ones for every option (signs, blanks and underscores as int() reads them).
GOOD = {
    "--format": ["json", "csv", "markdown"],
    "--out": ["out.txt", "a=b.md"],
    "--method": ["oracle", "closed", "both"],
    "--initial-terms": ["1,0,0", "2,-1,3", "-1,0,0"],
    "--padovan-initial": ["1,0,0", "2,-1,3", "-3,1,2"],
}
REQUIRED = {
    ("gen",): ("--count",),
    ("area",): ("--n", "--k", "--m"),
    ("verify",): ("--n", "--k", "--m"),
}
RANGE_OPTIONS = {("verify",): ("--n", "--k", "--m"), ("table", "polygonal"): ("--m", "--rank")}
POOL = [
    "0", "5", "-2", " 5", "+5", "1_000", "x", "", "3..7", "-2..1", "7..3", "1..x",
    "1,0,0", "-1,0,0", "1,2", "json", "jsonx", "both", "-", "-x", "-h", "--x",
]


def _good(words, flag):
    if flag in GOOD:
        return GOOD[flag]
    if flag in RANGE_OPTIONS.get(words, ()):
        return ["3", "3..5", "1..2", "-2..1"]
    return ["3", "4", "12", "-1"]


def _spellings(words, flag):
    """``flag`` and each prefix of it that names no other flag of the command."""
    others = [f for f in (*OPTIONS[words], "--help") if f != flag]
    prefixes = [flag[:n] for n in range(3, len(flag))]
    return [flag, *(p for p in prefixes if not any(o.startswith(p) for o in others))]


@st.composite
def argvs(draw):
    """(argv, the argv the reference must read the same): the command words,
    then options in any order, any spelling and repeated, and the family.
    Half of them are meant to parse; the rest draw from invalid values,
    missing values and words, and stray tokens."""
    words = draw(st.sampled_from(sorted(OPTIONS)))
    clean = draw(st.booleans())
    head, stray = list(words), []
    if not clean and draw(st.integers(0, 9)) == 0:
        head = draw(st.sampled_from([["table"], ["tables", "polygonal"], ["gen", "x"], []]))
    if not clean:
        stray = draw(st.sampled_from([[], [], [], ["-h"], ["--bogus"], ["--he"]]))
    items = []
    for flag in OPTIONS[words]:
        least = 1 if clean and flag in REQUIRED.get(words, ()) else 0
        for _ in range(draw(st.sampled_from([least, least, 1, 2]))):
            spelling = draw(st.sampled_from(_spellings(words, flag)))
            good = st.sampled_from(_good(words, flag))
            value = draw(good if clean else good | st.sampled_from(POOL))
            forms = ["sep", "eq"] if clean else ["sep", "sep", "eq", "bare"]
            form = draw(st.sampled_from(forms))
            items.append(
                [spelling, value] if form == "sep"
                else [f"{spelling}={value}"] if form == "eq" else [spelling]
            )
    if words[0] != "table" or not clean and draw(st.booleans()):
        names = FAMILY_NAMES if clean else [*FAMILY_NAMES, "fib", "nonsense"]
        items.append([draw(st.sampled_from(names))])
    if not clean:
        items += [[t] for t in draw(st.lists(
            st.sampled_from(["extra", "--bogus", "-x", "-h", "--help", "--he", "-5"]),
            max_size=2,
        ))]
    body = [token for item in draw(st.permutations(items)) for token in item]
    spelled = _joined(words, body) if head == list(words) else body
    return stray + head + body, stray + head + spelled


def _joined(words, body):
    """``body`` with each separate token that starts with a single ``-`` and
    follows a value-taking option joined to that option by ``=``."""
    flags = OPTIONS[words]
    out, i = [], 0
    while i < len(body):
        token = body[i]
        named = [f for f in flags if f.startswith(token)] if token[:2] == "--" else []
        takes = token in flags or len(named) == 1 and not "--help".startswith(token)
        nxt = body[i + 1] if i + 1 < len(body) else ""
        if takes and nxt[:1] == "-" and nxt[:2] != "--":
            out.append(f"{token}={nxt}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def reference(argv):
    """("ok", attributes) or ("exit", code) from the argparse parser."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return "ok", vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return "exit", exc.code


def ours(argv):
    """("ok", attributes) or ("exit", code) from the option table."""
    try:
        return "ok", vars(cli.parse_argv(argv))
    except cli._Stop as stop:
        return "exit", stop.args[0]


@settings(max_examples=600, deadline=None)
@given(argvs())
def test_parses_as_argparse_did(case):
    argv, spelled = case
    assert ours(argv) == reference(spelled)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, attrs", [
    # -- ends the options: later tokens are positionals
    (["gen", "--count", "3", "--", "fibonacci"], {"family": "fibonacci", "count": 3}),
    (["area", "--n", "1", "--k", "1", "--m", "3", "--", "pell"], {"family": "pell"}),
    # abbreviations, = values, the last repeat wins, defaults
    (["gen", "pell", "--co=4", "--form", "csv", "--count", "5"],
     {"count": 5, "format": "csv", "out": None}),
    (["table", "polygonal"], {"m": range(3, 8), "rank": range(3, 8), "table": "polygonal"}),
    (["table", "third-order", "--k=3"], {"k_max": 3, "n": 1, "padovan_initial": None}),
    # a single-dash separate value
    (["verify", "lucas", "--n", "-2..1", "--k", "1", "--m", "3"], {"n": range(-2, 2)}),
    (["gen", "padovan", "--initial-terms", "-1,0,0", "--count", "3", "--out", "-"],
     {"initial_terms": (-1, 0, 0), "out": "-"}),
])
def test_accepted_shapes(argv, attrs):
    parsed = vars(cli.parse_argv(argv))
    assert {key: parsed[key] for key in attrs} == attrs


@pytest.mark.parametrize("argv, prog, message", [
    (["gen", "--", "fibonacci", "--count", "3"], "seqarea gen",
     "the following arguments are required: --count"),
    (["--", "gen", "fibonacci", "--count", "3"], "seqarea gen",
     "the following arguments are required: --count"),
    (["gen", "fibonacci", "--count", "3", "--out", "--"], "seqarea gen",
     "argument --out: expected one argument"),
    (["gen", "fibonacci", "--count", "3", "--=x"], "seqarea gen",
     "ambiguous option: --=x could match --help, --format, --out, --s, --t, --rank, "
     "--initial-terms, --count"),
    (["gen", "fibonacci", "--count", "--format", "csv"], "seqarea gen",
     "argument --count: expected one argument"),
    (["gen", "fibonacci", "--count", "3", "--help=x"], "seqarea gen",
     "argument -h/--help: ignored explicit argument 'x'"),
    (["gen", "fibonacci", "--count", "3", "--bogus", "x"], "seqarea gen",
     "unrecognized arguments: --bogus x"),
    (["gen", "fib", "--count", "3"], "seqarea gen",
     "argument family: invalid choice: 'fib' (choose from "
     + ", ".join(map(repr, FAMILY_NAMES)) + ")"),
    (["area", "fibonacci", "--n", "x", "--k", "1", "--m", "3"], "seqarea area",
     "argument --n: invalid int value: 'x'"),
    (["verify", "pell", "--n", "1..x", "--k", "1", "--m", "3"], "seqarea verify",
     "argument --n: invalid parse_range value: '1..x'"),
    (["table", "polygonal", "--format", "xml"], "seqarea table polygonal",
     "argument --format: invalid choice: 'xml' (choose from 'json', 'csv', 'markdown')"),
    (["table"], "seqarea table", "the following arguments are required: table"),
    (["tables"], "seqarea", "argument command: invalid choice: 'tables' "
     "(choose from 'gen', 'area', 'verify', 'table')"),
    ([], "seqarea", "the following arguments are required: command"),
])
def test_refused_shapes(capsys, argv, prog, message):
    code, out, err = run(capsys, *argv)
    usage, error = err.splitlines()
    assert (code, out) == (2, "")
    assert usage.startswith(f"usage: {prog} [-h]")
    assert error == f"{prog}: error: {message}"


HELP_ARGVS = [[], ["gen"], ["area"], ["verify"], ["table"],
              ["table", "polygonal"], ["table", "third-order"]]


@pytest.mark.parametrize("words", HELP_ARGVS, ids=" ".join)
@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_help_shows_what_argparse_showed(capsys, words, flag):
    code, out, err = run(capsys, *words, flag)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: {' '.join(['seqarea', *words])} [-h]")
    parser = build_parser()
    for word in words:
        parser = parser._subparsers._group_actions[0].choices[word]
    shown = [parser.description or ""]
    for action in parser._actions:
        shown += [*action.option_strings, action.help or ""]
        choices = "{" + ",".join(action.choices) + "}" if action.choices else None
        shown.append(choices or "")
        if action.option_strings and action.nargs is None:  # "--flag METAVAR"
            shown.append(f"{action.option_strings[0]} "
                         f"{action.metavar or choices or action.dest.upper()}")
        for choice in getattr(action, "_choices_actions", ()):  # subcommands
            shown += [choice.dest, choice.help]
    assert [text for text in shown if text not in out] == []


def test_help_wins_over_later_faults(capsys):
    code, out, _ = run(capsys, "area", "--bogus", "-h", "--n", "x")
    assert code == 0 and out.startswith("usage: seqarea area [-h]")
    code, _, err = run(capsys, "area", "pell", "--n", "x", "-h")
    assert code == 2 and "invalid int value: 'x'" in err

"""Command-line interface.

Subcommands:
  gen     print sequence terms
  area    compute a polygon area by oracle and/or closed form
  verify  sweep a parameter grid and cross-check oracle vs closed form
  table   emit the polygonal-coefficient or third-order reference tables

Every subcommand accepts ``--format {json,csv,markdown}`` (default markdown)
and ``--out FILE``.  Exit codes: 0 success / all match, 1 verification
mismatch, 2 usage, I/O or out-of-memory error.  Rationals are always
emitted as exact ``p/q`` strings in full, never floats.
"""

from __future__ import annotations

import csv
import functools
import io
import re
import sys
from _json import encode_basestring_ascii  # json.encoder's, without loading json
from collections.abc import Callable, Iterable, Sequence
from itertools import islice
from types import MappingProxyType, SimpleNamespace

from .closedforms import closed_area_for
from .geometry import twice_polygon_area
from .numerics import rational_str
from .sequences import (
    FamilyKind,
    SequenceFamily,
    check_domain,
    check_term_budget,
    family_terms,
    reach,
)
from .verify import (
    PolygonalTable,
    ThirdOrderCell,
    ThirdOrderTable,
    VerificationReport,
    cell_rows,
    polygonal_table,
    rank_name,
    third_order_table,
    verify_family,
)

# Every family but ``custom``, which needs a RecurrenceSpec; in FamilyKind order.
FAMILY_NAMES = [kind.value for kind in FamilyKind if kind is not FamilyKind.CUSTOM]


def parse_range(text: str) -> range:
    """Inclusive range syntax: ``a..b`` or a single value ``a``."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return range(lo, hi + 1)
    value = int(text)
    return range(value, value + 1)


def parse_triple(text: str) -> tuple[int, int, int]:
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated integers, got {text!r}")
    return (parts[0], parts[1], parts[2])


def resolve_family(args: SimpleNamespace) -> SequenceFamily:
    """Build a SequenceFamily from CLI arguments; it rejects stray parameters."""
    name = args.family
    if name == "generalized" and (args.s is None or args.t is None):
        raise ValueError("family 'generalized' requires --s and --t")
    if name == "polygonal" and args.rank is None:
        raise ValueError("family 'polygonal' requires --rank")
    return SequenceFamily(
        FamilyKind(name), s=args.s, t=args.t, rank=args.rank, initial=args.initial_terms
    )


# ---------------------------------------------------------------------------
# Serialization
#
# A JSON or CSV renderer turns each value into a token once: a JSON string,
# number, true/false or null, or a CSV field, quoted as ``csv.writer`` quotes
# it or empty for None.  One writer per format lays the tokens out.


@functools.lru_cache(maxsize=256)  # the same few notes and statuses, once per cell
def _csv_quote(text: str) -> str:
    """``text`` as one CSV field, quoted exactly as ``csv.writer`` quotes it."""
    buf = io.StringIO()
    # A lone empty field would be written as "": give the row a second field.
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[: -len(",\n")]


_FLAGS = ("false", "true")  # indexed by a bool


def _area(twice: int) -> str:
    """The area |twice|/2 of a polygon of signed twice-area ``twice``,
    spelled as :func:`~seqarea.numerics.rational_str` spells it."""
    area = abs(twice)
    return f"{area}/2" if area & 1 else str(area >> 1)


# Per format, the token of any string, of a signed twice-area's area and of
# None; an area's text (digits and ``/``) needs no escaping.
_TOKENS: dict[str, tuple[Callable[[str], str], Callable[[int], str], str]] = {
    "json": (encode_basestring_ascii, lambda twice: f'"{_area(twice)}"', "null"),
    "csv": (_csv_quote, _area, ""),
}


def _lines(line: str, rows: Iterable[tuple], tails: list | None = None) -> list[str]:
    """``rows`` laid out by the template ``line`` of ``%s`` slots, one
    string per row.

    Given ``tails``, a row is a run of lines, ``(head, j)``: the tokens of
    the run's first fields, and the index in ``tails`` of a list of token
    tuples for the other fields, one per line.  A run's text is its head's
    text joined over the text of its tails, and each entry of ``tails`` is
    spelled once, however many runs share it.
    """
    if not tails:
        return list(map(line.__mod__, rows))
    parts = line.split("%s")
    lead = len(parts) - 1 - len(tails[0][0])  # the head's slots
    head, tail = "%s".join(parts[: lead + 1]), "%s" + "%s".join(parts[lead + 1 :])
    texts = [list(map(tail.__mod__, run_tails)) for run_tails in tails]
    out = []
    for tokens, j in rows:
        text = head % tokens
        out.append(text + text.join(texts[j]))
    return out


def _write_json(
    value: dict[str, object] | list, header: Sequence[str] = (), tails: list | None = None
) -> str:
    """The bytes of ``json.dumps(payload, indent=2) + "\\n"``, where ``value``
    holds the payload's tokens: an object (a dict of fields) or an array.

    A field holds a token or an array.  An array holds tokens, or rows: tuples
    of tokens for objects keyed by ``header``, laid out by one template, or
    given ``tails`` runs of them as :func:`_lines` takes them.  Rows sit only
    in a field of the top-level object.  The pieces are joined once.
    """
    row = "{\n" + ",\n".join(f'      "{key}": %s' for key in header) + "\n    }"
    pieces: list[str] = []

    def array(items: list, indent: str) -> None:
        if not items:
            pieces.append("[]")
            return
        rows = isinstance(items[0], tuple)
        item = ",\n" + indent + "  " + (row if rows else "%s")
        lines = _lines(item, items, tails if rows else None)
        pieces.append("[" + lines[0][1:])  # "[\n" before the first item, not ",\n"
        pieces.extend(islice(lines, 1, None))
        pieces.append("\n" + indent + "]")

    if isinstance(value, list):
        array(value, "")
    else:
        sep = "{\n"
        for key, field in value.items():
            pieces.append(f'{sep}  "{key}": ')
            if isinstance(field, list):
                array(field, "  ")
            else:
                pieces.append(str(field))
            sep = ",\n"
        pieces.append("\n}")
    pieces.append("\n")
    return "".join(pieces)


def _write_csv(
    header: Sequence[str], rows: Iterable[tuple], tails: list | None = None
) -> str:
    """The bytes of ``csv.writer(..., lineterminator="\\n")`` for ``header``
    and then ``rows``, tuples of tokens, or given ``tails`` runs of them as
    :func:`_lines` takes them."""
    line = ",".join(["%s"] * len(header)) + "\n"
    return "".join([",".join(header) + "\n", *_lines(line, rows, tails)])


def _write_markdown(
    header: Sequence[str], rows: Iterable[tuple], tails: list | None = None
) -> str:
    """A markdown table: ``header``, a ``---`` rule, then one line per row,
    a tuple of values spelled by ``%s``, or given ``tails`` runs of lines as
    :func:`_lines` takes them."""
    line = "| " + " | ".join(["%s"] * len(header)) + " |\n"
    rule = line % (("---",) * len(header))
    return "".join([line % tuple(header), rule, *_lines(line, rows, tails)])


def render_gen(values: list[int], fmt: str) -> str:
    if fmt == "markdown":
        return "".join(f"{v}\n" for v in values)
    if fmt == "json":
        return _write_json([f'"{v}"' for v in values])
    return _write_csv(("n", "value"), enumerate(values))


def render_area(
    family: SequenceFamily,
    n: int,
    k: int,
    m: int,
    method: str,
    oracle: int | None,
    closed: int | None,
    fmt: str,
) -> str:
    """The area from signed twice-areas; ``both`` matches only equal ones."""
    match = oracle == closed if method == "both" else None
    # Equal areas (a MATCH) are spelled once: at large n one area's digits
    # are a large share of the request.
    spell = _area if fmt == "markdown" else _TOKENS[fmt][1]
    oracle_text = None if oracle is None else spell(oracle)
    closed_text = oracle_text if match else None if closed is None else spell(closed)
    if fmt != "markdown":
        text, _, null = _TOKENS[fmt]
        where = {"family": text(family.label), "n": n, "k": k, "m": m}
        found = {
            "oracle": null if oracle_text is None else oracle_text,
            "closed": null if closed_text is None else closed_text,
            "match": null if match is None else _FLAGS[match],
        }
        if fmt == "csv":
            return _write_csv([*where, *found], [(*where.values(), *found.values())])
        # JSON names the method and leaves out the values not computed.
        found = {key: t for key, t in found.items() if t != null}
        return _write_json({**where, "method": text(method), **found})
    if method == "both":
        assert oracle_text is not None and closed_text is not None
        verdict = "MATCH" if match else "MISMATCH"
        return f"oracle: {oracle_text}\nclosed: {closed_text}\n{verdict}\n"
    value = oracle_text if method == "oracle" else closed_text
    assert value is not None
    return value + "\n"


def render_report(report: VerificationReport, fmt: str) -> str:
    """Serialize a report; equal reports give byte-identical output.

    Each (n, k) row is one run of lines: its head, then one tail per m.  A
    row's tails are spelled once per body, which rows of one content share;
    a grid holds few distinct twice-areas (one S * q**n per (k, m) and sign
    of q**n, which every matching oracle repeats), so each is spelled once,
    looked up by value.
    """
    if fmt == "markdown":
        lead, spell, verdicts, text = (), _area, ("MISMATCH", "MATCH"), str
    else:
        text, spell, _ = _TOKENS[fmt]
        lead, verdicts = (text(report.family.label),), _FLAGS
    spelled = functools.cache(spell)
    rows, bodies = cell_rows(report.cells)
    tails = [
        [
            (m, spelled(oracle), spelled(closed), verdicts[match], text(note))
            for m, oracle, closed, match, note in body
        ]
        for body in bodies
    ]
    runs = [((*lead, n, k), j) for n, k, j in rows]
    header = ("n", "k", "m", "oracle", "closed", "match", "note")
    if fmt == "markdown":
        return (
            f"grid: {report.grid}\n"
            f"pass_count: {report.pass_count}\n"
            f"fail_count: {report.fail_count}\n\n"
        ) + _write_markdown(header, runs, tails)
    header = ("family", *header)
    if fmt == "csv":
        return _write_csv(header, runs, tails)
    fields = {
        "grid": text(report.grid),
        "cells": runs,
        "pass_count": report.pass_count,
        "fail_count": report.fail_count,
    }
    return _write_json(fields, header, tails)


def render_polygonal_table(table: PolygonalTable, fmt: str) -> str:
    if fmt != "markdown":
        null = _TOKENS[fmt][2]
        header = ("m", "rank", "coefficient", "published", "match")
        rows = [
            (
                c.m, c.rank, c.coefficient,
                null if c.published is None else c.published,
                null if c.match is None else _FLAGS[c.match],
            )
            for c in table.cells
        ]
        if fmt == "csv":
            return _write_csv(header, rows)
        fields = {
            "m_values": list(table.m_values),
            "ranks": list(table.ranks),
            "cells": rows,
        }
        return _write_json(fields, header)
    header = ["m"] + [rank_name(r) for r in table.ranks]
    cells = iter(table.cells)  # stored m-major: one run of len(ranks) per m
    rows = [
        (m, *(c.coefficient for c in islice(cells, len(table.ranks))))
        for m in table.m_values
    ]
    checked = [c for c in table.cells if c.match is not None]
    lines = [
        "Coefficient of k^4 in the m-gon area on polygonal-number vertices",
        "",
        _write_markdown(header, rows),
    ]
    for c in table.mismatches:
        lines.append(
            f"MISMATCH at m={c.m} rank={c.rank}: "
            f"computed {c.coefficient}, published {c.published}"
        )
    if checked:
        matched = sum(1 for c in checked if c.match)
        lines.append(f"published check: {matched}/{len(checked)} cells match")
    else:
        lines.append("published check: no reference cells in range")
    return "\n".join(lines) + "\n"


def render_third_order_table(table: ThirdOrderTable, fmt: str) -> str:
    if fmt != "markdown":
        text, area, null = _TOKENS[fmt]
        header = ("column", "k", "computed", "published", "status")
        rows = [
            (
                text(c.column), c.k, area(c.twice),
                null if c.published is None else text(rational_str(c.published)),
                text(c.status),
            )
            for c in table.cells
        ]
        if fmt == "csv":
            return _write_csv(header, rows)
        fields = {
            "n": table.n,
            "k_max": table.k_max,
            "padovan_initial": list(table.padovan_initial),
            "cells": rows,
        }
        return _write_json(fields, header)

    def cell_text(c: ThirdOrderCell) -> str:
        text = _area(c.twice)
        if c.status and c.published is not None and abs(c.twice) != 2 * c.published:
            return f"{text} [{c.status}; published {rational_str(c.published)}]"
        if c.status:
            return f"{text} [{c.status}]"
        return text

    initial = ",".join(str(v) for v in table.padovan_initial)
    # The cells are stored k-major, one run of three columns per k.
    texts = [cell_text(c) for c in table.cells]
    rows = [(k, *texts[3 * k - 3 : 3 * k]) for k in range(1, table.k_max + 1)]
    title = (
        f"Triangle areas on third-order sequence vertices, "
        f"n={table.n}, k=1..{table.k_max} (padovan initial {initial})"
    )
    body = _write_markdown(("k", "Tribonacci", "Perrin", "Padovan"), rows)
    return f"{title}\n\n{body}"


# ---------------------------------------------------------------------------
# Subcommand handlers


def _emit(text: str, out: str | None) -> None:
    if out is not None:  # an empty path is refused by open(), not ignored
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args: SimpleNamespace) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    check_term_budget(args.count - 1)
    family = resolve_family(args)
    values = family_terms(family, 0, args.count)
    _emit(render_gen(values, args.format), args.out)
    return 0


def _cmd_area(args: SimpleNamespace) -> int:
    family, n, k, m = resolve_family(args), args.n, args.k, args.m
    check_domain(n, k, m)
    check_term_budget(reach(n, k, m))
    oracle = closed = None
    if args.method in ("oracle", "both"):
        oracle = twice_polygon_area(family, n, k, m)
    if args.method in ("closed", "both"):
        twice, q = closed_area_for(family, k, m)
        closed = twice * q**n
    text = render_area(family, n, k, m, args.method, oracle, closed, args.format)
    _emit(text, args.out)
    if args.method == "both" and oracle != closed:
        return 1
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
    report = verify_family(resolve_family(args), args.n, args.k, args.m)
    _emit(render_report(report, args.format), args.out)
    return 0 if report.fail_count == 0 else 1


def _cmd_polygonal_table(args: SimpleNamespace) -> int:
    table = polygonal_table(args.m, args.rank)
    _emit(render_polygonal_table(table, args.format), args.out)
    return 0


def _cmd_third_order_table(args: SimpleNamespace) -> int:
    table = third_order_table(args.n, args.k_max, args.padovan_initial)
    _emit(render_third_order_table(table, args.format), args.out)
    return 0


# ---------------------------------------------------------------------------
# Command line
#
# One row per command: name, handler, help, whether it takes a family, and
# its options in help order, each (flag, converter or None, choices, default,
# required, metavar, help).  Usage and help are written from the rows.

_COMMON = (
    ("--format", None, ("json", "csv", "markdown"), "markdown", False, None,
     "output format (default: markdown)"),
    ("--out", None, None, None, False, "FILE", "write output to FILE"),
)
_FAMILY = (
    *_COMMON,
    ("--s", int, None, None, False, "S", "first parameter of 'generalized'"),
    ("--t", int, None, None, False, "T", "second parameter of 'generalized'"),
    ("--rank", int, None, None, False, "RANK", "rank of 'polygonal' (>= 3)"),
    ("--initial-terms", parse_triple, None, None, False, "A,B,C",
     "start values for 'padovan' (default 1,1,1)"),
)
COMMANDS = (
    ("gen", _cmd_gen, "print sequence terms", True,
     (*_FAMILY, ("--count", int, None, None, True, "COUNT", "number of terms"))),
    ("area", _cmd_area, "area of one sequence polygon", True, (
        *_FAMILY,
        ("--n", int, None, None, True, "N", "start index (>= 0)"),
        ("--k", int, None, None, True, "K", "stride (>= 1)"),
        ("--m", int, None, None, True, "M", "vertex count (>= 3)"),
        ("--method", None, ("oracle", "closed", "both"), "oracle", False, None,
         "shoelace oracle, closed form, or both with a verdict"))),
    ("verify", _cmd_verify, "cross-check a parameter grid", True, (
        *_FAMILY,
        ("--n", parse_range, None, None, True, "A..B", "start indices"),
        ("--k", parse_range, None, None, True, "A..B", "strides"),
        ("--m", parse_range, None, None, True, "A..B", "vertex counts"))),
    ("table polygonal", _cmd_polygonal_table, "k^4 coefficients of figurate m-gons",
     False, (
        *_COMMON,
        ("--m", parse_range, None, range(3, 8), False, "A..B",
         "m values (default 3..7)"),
        ("--rank", parse_range, None, range(3, 8), False, "A..B",
         "ranks (default 3..7)"))),
    ("table third-order", _cmd_third_order_table,
     "triangle areas of third-order families", False, (
        *_COMMON,
        ("--k-max", int, None, 6, False, "K_MAX", "largest k (default 6)"),
        ("--n", int, None, 1, False, "N", "start index (default 1)"),
        ("--padovan-initial", parse_triple, None, None, False, "A,B,C",
         "padovan start values (default 1,1,1)"))),
)
# The help of the program ("") and of each word that only begins command names.
_GROUPS = {"": "Exact areas of polygons with integer-sequence vertices.",
           "table": "emit a reference table"}
_HELP_FLAGS = MappingProxyType(dict.fromkeys(("-h", "--help")))
# argparse's pattern: a token it reads as a positional, since no option
# looks like a negative number.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$").match


class _Stop(Exception):
    """Ends a parse: (0, help for stdout) or (2, a usage error for stderr)."""


class _Usage(Exception):
    """A usage error, written after ``seqarea <cmd>: error:``."""


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _level(words: tuple[str, ...]) -> tuple:
    """What a parse needs once it has read the command words ``words``: the
    row they name (or None), flag -> (attribute, converter, choices), the
    attribute defaults, and the required (name, attribute) pairs."""
    row = next((r for r in COMMANDS if r[0] == " ".join(words)), None)
    if row is None:  # the next command word is required
        dest = words[-1] if words else "command"
        return None, _HELP_FLAGS, MappingProxyType({}), ((dest, dest),)
    flags = {**_HELP_FLAGS, **{o[0]: (_dest(o[0]), o[1], o[2]) for o in row[4]}}
    defaults = {"handler": row[1], **{_dest(o[0]): o[3] for o in row[4]}}
    required = [(o[0], _dest(o[0])) for o in row[4] if o[4]]
    if row[3]:
        defaults["family"] = None
        required.insert(0, ("family", "family"))
    return row, MappingProxyType(flags), MappingProxyType(defaults), tuple(required)


# Every whole or begun run of command words -> its _level, in table order;
# read-only, like the table, so every call and thread can share it.
_LEVELS = MappingProxyType({
    words[:n]: _level(words[:n])
    for words in (tuple(row[0].split()) for row in COMMANDS)
    for n in range(len(words) + 1)
})


def _words(path: tuple[str, ...]) -> list[str]:
    """The words that may follow the command words ``path``, in table order."""
    return [w[-1] for w in _LEVELS if w and w[:-1] == path]


def _help(path: tuple[str, ...], row: tuple | None) -> str:
    """The usage line, then the help of the command or command group ``path``."""
    usage, sections = ["usage:", "seqarea", *path, "[-h]"], []
    if row is None:
        about = {r[0]: r[2] for r in COMMANDS} | _GROUPS
        words = _words(path)
        usage.append("{" + ",".join(words) + "} ...")
        commands = [(w, about[" ".join([*path, w])]) for w in words]
        sections.append(("commands:", commands))
    options = [("-h, --help", "show this help message and exit")]
    for flag, _, choices, _, required, metavar, text in row[4] if row else ():
        options.append((f"{flag} {metavar or '{' + ','.join(choices) + '}'}", text))
        usage.append(options[-1][0] if required else f"[{options[-1][0]}]")
    if row and row[3]:
        usage.append("{" + ",".join(FAMILY_NAMES) + "}")
    lines = [" ".join(usage), "", row[2] if row else _GROUPS[" ".join(path)]]
    for title, pairs in [*sections, ("options:", options)]:
        width = max(len(left) for left, _ in pairs)
        lines += ["", title]
        lines += [f"  {left:<{width}}  {text}".rstrip() for left, text in pairs]
    return "\n".join(lines) + "\n"


def _option(token: str, flags: dict) -> tuple[str, str | None] | None:
    """What ``token`` names among ``flags``, as argparse read it: (flag, its
    ``=`` value or None), ("", None) for an unknown option, or None for a
    positional, a negative number among them.  A unique prefix of a ``--``
    flag names that flag."""
    if token[:1] != "-" or token == "-" or _NEGATIVE_NUMBER(token):
        return None
    name, eq, value = token.partition("=")
    found = [name] if name in flags else [f for f in flags if f.startswith(name)]
    if len(found) > 1:
        raise _Usage(f"ambiguous option: {token} could match {', '.join(found)}")
    if found:
        return found[0], value if eq else None
    return None if " " in token else ("", None)


def _store(
    args: SimpleNamespace, flag: str, dest: str, convert, choices, value: str
) -> None:
    """Sets attribute ``dest`` to ``flag``'s ``value``, converted and checked."""
    if convert:
        try:
            value = convert(value)
        except (TypeError, ValueError):
            name = convert.__name__
            raise _Usage(f"argument {flag}: invalid {name} value: {value!r}") from None
    if choices and value not in choices:
        raise _invalid(flag, value, choices)
    setattr(args, dest, value)


def _invalid(name: str, value: object, choices: Sequence[object]) -> _Usage:
    listed = ", ".join(map(repr, choices))
    return _Usage(f"argument {name}: invalid choice: {value!r} (choose from {listed})")


def parse_argv(argv: Sequence[str]) -> SimpleNamespace:
    """A fresh namespace of ``argv``, read from left to right against
    ``COMMANDS``; raises ``_Stop`` for help or a usage error.  An option
    takes the next token as its value unless that names an option or is
    ``--``, which ends the options."""
    args, path, extras, i = SimpleNamespace(), (), [], 0
    row, flags, _, required = _LEVELS[path]
    try:
        while i < len(argv):
            token, i = argv[i], i + 1
            if token == "--" and flags:
                flags = {}  # the options end
                continue
            found = _option(token, flags) if flags else None
            if found is None and row is None:  # the command word this level requires
                if (*path, token) not in _LEVELS:
                    raise _invalid(required[0][0], token, _words(path))
                setattr(args, required[0][1], token)
                path += (token,)
                row, options, defaults, required = _LEVELS[path]
                vars(args).update(defaults)
                flags = flags and options
            elif found is None and row[3] and args.family is None:
                _store(args, "family", "family", None, FAMILY_NAMES, token)
            elif found is None or not found[0]:
                extras.append(token)
            elif found[0] in _HELP_FLAGS:
                if found[1] is not None:
                    value = found[1]
                    raise _Usage(
                        f"argument -h/--help: ignored explicit argument {value!r}"
                    )
                raise _Stop(0, _help(path, row))
            else:
                flag, value = found
                if value is None:
                    value = argv[i] if i < len(argv) else "--"  # no token left
                    if value == "--" or value[:2] == "--" and _option(value, flags):
                        raise _Usage(f"argument {flag}: expected one argument")
                    i += 1
                _store(args, flag, *flags[flag], value)
        missing = [name for name, dest in required if getattr(args, dest, None) is None]
        if missing:
            raise _Usage(f"the following arguments are required: {', '.join(missing)}")
        if extras:
            raise _Usage(f"unrecognized arguments: {' '.join(extras)}")
    except _Usage as exc:
        usage, prog = _help(path, row).partition("\n")[0], " ".join(["seqarea", *path])
        raise _Stop(2, f"{usage}\n{prog}: error: {exc}\n") from None
    return args


def main(argv: Sequence[str] | None = None) -> int:
    # Exact values print in full; Python 3.11 (and 3.10.7+) otherwise
    # refuses int-to-str conversions beyond 4,300 digits.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
    except _Stop as stop:
        code, text = stop.args
        (sys.stderr if code else sys.stdout).write(text)
        return code
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        message = str(exc)
    except MemoryError:
        # A refusal, not a mismatch.  The line is written once this block is
        # left, when the failed request's terms are already freed.
        message = "out of memory"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())

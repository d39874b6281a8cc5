"""Command-line interface.

Subcommands:
  gen     print sequence terms
  area    compute a polygon area by oracle and/or closed form
  verify  sweep a parameter grid and cross-check oracle vs closed form
  table   emit the polygonal-coefficient or third-order reference tables

Every subcommand accepts ``--format {json,csv,markdown}`` (default markdown)
and ``--out FILE``.  Exit codes: 0 success / all match, 1 verification
mismatch, 2 usage or I/O error.  Rationals are always emitted as exact
``p/q`` strings in full, never floats.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Sequence

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
    VerificationCell,
    VerificationReport,
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


def resolve_family(args: argparse.Namespace) -> SequenceFamily:
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


def _write_json(value: dict[str, object] | list, header: Sequence[str] = ()) -> str:
    """The bytes of ``json.dumps(payload, indent=2) + "\\n"``, where ``value``
    holds the payload's tokens: an object (a dict of fields) or an array.

    A field holds a token or an array.  An array holds tokens, or rows: tuples
    of tokens for objects keyed by ``header``, laid out by one template.  Rows
    sit only in a field of the top-level object.  The pieces are joined once.
    """
    row = "{\n" + ",\n".join(f'      "{key}": %s' for key in header) + "\n    }"
    pieces: list[str] = []

    def array(items: list, indent: str) -> None:
        if not items:
            pieces.append("[]")
            return
        item = indent + "  " + (row if isinstance(items[0], tuple) else "%s")
        pieces.append("[\n" + item % items[0])
        pieces.extend(map((",\n" + item).__mod__, islice(items, 1, None)))
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


def _write_csv(header: Sequence[str], rows: Iterable[tuple]) -> str:
    """The bytes of ``csv.writer(..., lineterminator="\\n")`` for ``header``
    and then ``rows``, tuples of tokens."""
    line = ",".join(["%s"] * len(header)) + "\n"
    return "".join([",".join(header) + "\n", *map(line.__mod__, rows)])


def _write_markdown(header: Sequence[str], rows: Iterable[tuple]) -> str:
    """A markdown table: ``header``, a ``---`` rule, then one line per row,
    a tuple of values spelled by ``%s``."""
    line = "| " + " | ".join(["%s"] * len(header)) + " |\n"
    rule = line % (("---",) * len(header))
    return "".join([line % tuple(header), rule, *map(line.__mod__, rows)])


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


def _cell_areas(
    cells: Iterable[VerificationCell], spell: Callable[[int], str]
) -> Iterator[tuple[VerificationCell, str, str]]:
    """Each cell with its oracle and closed areas spelled by ``spell``.

    A grid holds few distinct twice-areas (one S * q**n per (k, m) and sign
    of q**n, which every matching oracle repeats), so each is spelled once
    per call, looked up by value.
    """
    spelled = functools.cache(spell)
    return ((c, spelled(c.oracle_twice), spelled(c.closed_twice)) for c in cells)


def render_report(report: VerificationReport, fmt: str) -> str:
    """Serialize a report; equal reports give byte-identical output."""
    if fmt == "markdown":
        rows = [
            (c.n, c.k, c.m, oracle, closed, "MATCH" if c.match else "MISMATCH", c.note)
            for c, oracle, closed in _cell_areas(report.cells, _area)
        ]
        return (
            f"grid: {report.grid}\n"
            f"pass_count: {report.pass_count}\n"
            f"fail_count: {report.fail_count}\n\n"
        ) + _write_markdown(("n", "k", "m", "oracle", "closed", "match", "note"), rows)
    text, area, _ = _TOKENS[fmt]
    label = text(report.family.label)
    rows = [
        (label, c.n, c.k, c.m, oracle, closed, _FLAGS[c.match], text(c.note))
        for c, oracle, closed in _cell_areas(report.cells, area)
    ]
    header = ("family", "n", "k", "m", "oracle", "closed", "match", "note")
    if fmt == "csv":
        return _write_csv(header, rows)
    fields = {
        "grid": text(report.grid),
        "cells": rows,
        "pass_count": report.pass_count,
        "fail_count": report.fail_count,
    }
    return _write_json(fields, header)


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
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    check_term_budget(args.count - 1)
    family = resolve_family(args)
    values = family_terms(family, 0, args.count)
    _emit(render_gen(values, args.format), args.out)
    return 0


def _cmd_area(args: argparse.Namespace) -> int:
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


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_family(resolve_family(args), args.n, args.k, args.m)
    _emit(render_report(report, args.format), args.out)
    return 0 if report.fail_count == 0 else 1


def _cmd_polygonal_table(args: argparse.Namespace) -> int:
    table = polygonal_table(args.m, args.rank)
    _emit(render_polygonal_table(table, args.format), args.out)
    return 0


def _cmd_third_order_table(args: argparse.Namespace) -> int:
    table = third_order_table(args.n, args.k_max, args.padovan_initial)
    _emit(render_third_order_table(table, args.format), args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=["json", "csv", "markdown"],
        default="markdown",
        help="output format (default: markdown)",
    )
    common.add_argument("--out", metavar="FILE", help="write output to FILE")
    return common


def _family_options() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("family", choices=FAMILY_NAMES)
    parser.add_argument("--s", type=int, help="first parameter of 'generalized'")
    parser.add_argument("--t", type=int, help="second parameter of 'generalized'")
    parser.add_argument("--rank", type=int, help="rank of 'polygonal' (>= 3)")
    parser.add_argument(
        "--initial-terms",
        type=parse_triple,
        metavar="A,B,C",
        help="start values for 'padovan' (default 1,1,1)",
    )
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.

    Every ``main`` call reuses it: ``parse_args`` returns a fresh namespace
    and leaves the parser as it found it, and every default is immutable.
    """
    parser = argparse.ArgumentParser(
        prog="seqarea",
        description="Exact areas of polygons with integer-sequence vertices.",
    )
    common = _common_options()
    family = _family_options()
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[common, family], help="print sequence terms")
    p_gen.add_argument("--count", type=int, required=True, help="number of terms")
    p_gen.set_defaults(handler=_cmd_gen)

    p_area = sub.add_parser(
        "area", parents=[common, family], help="area of one sequence polygon"
    )
    p_area.add_argument("--n", type=int, required=True, help="start index (>= 0)")
    p_area.add_argument("--k", type=int, required=True, help="stride (>= 1)")
    p_area.add_argument("--m", type=int, required=True, help="vertex count (>= 3)")
    p_area.add_argument(
        "--method",
        choices=["oracle", "closed", "both"],
        default="oracle",
        help="shoelace oracle, closed form, or both with a verdict",
    )
    p_area.set_defaults(handler=_cmd_area)

    p_verify = sub.add_parser(
        "verify", parents=[common, family], help="cross-check a parameter grid"
    )
    p_verify.add_argument(
        "--n", type=parse_range, required=True, metavar="A..B", help="start indices"
    )
    p_verify.add_argument(
        "--k", type=parse_range, required=True, metavar="A..B", help="strides"
    )
    p_verify.add_argument(
        "--m", type=parse_range, required=True, metavar="A..B", help="vertex counts"
    )
    p_verify.set_defaults(handler=_cmd_verify)

    p_table = sub.add_parser("table", help="emit a reference table")
    tables = p_table.add_subparsers(dest="table", required=True)

    p_poly = tables.add_parser(
        "polygonal", parents=[common], help="k^4 coefficients of figurate m-gons"
    )
    p_poly.add_argument(
        "--m", type=parse_range, default=range(3, 8), metavar="A..B",
        help="m values (default 3..7)",
    )
    p_poly.add_argument(
        "--rank", type=parse_range, default=range(3, 8), metavar="A..B",
        help="ranks (default 3..7)",
    )
    p_poly.set_defaults(handler=_cmd_polygonal_table)

    p_third = tables.add_parser(
        "third-order", parents=[common], help="triangle areas of third-order families"
    )
    p_third.add_argument("--k-max", type=int, default=6, help="largest k (default 6)")
    p_third.add_argument("--n", type=int, default=1, help="start index (default 1)")
    p_third.add_argument(
        "--padovan-initial",
        type=parse_triple,
        metavar="A,B,C",
        help="padovan start values (default 1,1,1)",
    )
    p_third.set_defaults(handler=_cmd_third_order_table)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # Exact values print in full; Python 3.11 (and 3.10.7+) otherwise
    # refuses int-to-str conversions beyond 4,300 digits.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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
import json
import sys
from fractions import Fraction
from typing import Sequence

from .closedforms import closed_area_for
from .geometry import PolygonSpec, build_vertices, shoelace_area
from .numerics import rational_str
from .sequences import FamilyKind, SequenceFamily, check_term_budget, family_terms
from .verify import (
    PolygonalTable,
    ThirdOrderCell,
    ThirdOrderTable,
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


def _csv_field(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def _emit_records(
    payload: object,
    fmt: str,
    records: list[dict[str, object]] | None = None,
    header: list[str] | None = None,
) -> str:
    """A result as JSON (``payload``) or as CSV with one row per record.

    The records default to ``payload["cells"]`` and the header to the keys
    of the first record.
    """
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    if records is None:
        records = payload["cells"]  # type: ignore[index]
    if header is None:
        header = list(records[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_field(r[key]) for key in header] for r in records)
    return buf.getvalue()


def _optional_str(x: Fraction | None) -> str | None:
    return None if x is None else rational_str(x)


def _markdown_table(header: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines)


def render_gen(values: list[int], fmt: str) -> str:
    if fmt == "markdown":
        return "".join(f"{v}\n" for v in values)
    if fmt == "json":
        return _emit_records([str(v) for v in values], fmt)
    records = [{"n": i, "value": v} for i, v in enumerate(values)]
    return _emit_records(None, fmt, records, ["n", "value"])


def render_area(
    spec: PolygonSpec,
    method: str,
    oracle: Fraction | None,
    closed: Fraction | None,
    fmt: str,
) -> str:
    match = oracle == closed if method == "both" else None
    if fmt != "markdown":
        where = {"family": spec.family.label, "n": spec.n, "k": spec.k, "m": spec.m}
        found = {
            "oracle": _optional_str(oracle),
            "closed": _optional_str(closed),
            "match": match,
        }
        payload = {**where, "method": method}
        payload.update((key, v) for key, v in found.items() if v is not None)
        return _emit_records(payload, fmt, [{**where, **found}])
    if method == "both":
        assert oracle is not None and closed is not None
        verdict = "MATCH" if match else "MISMATCH"
        return (
            f"oracle: {rational_str(oracle)}\n"
            f"closed: {rational_str(closed)}\n{verdict}\n"
        )
    value = oracle if method == "oracle" else closed
    assert value is not None
    return rational_str(value) + "\n"


def render_report(report: VerificationReport, fmt: str) -> str:
    """Serialize a report; wall-clock time is deliberately omitted so equal
    inputs give byte-identical output."""
    if fmt != "markdown":
        payload = {
            "grid": report.grid,
            "cells": [
                {
                    "family": c.spec.family.label,
                    "n": c.spec.n,
                    "k": c.spec.k,
                    "m": c.spec.m,
                    "oracle": rational_str(c.oracle_area),
                    "closed": rational_str(c.closed_area),
                    "match": c.match,
                    "note": c.note,
                }
                for c in report.cells
            ],
            "pass_count": report.pass_count,
            "fail_count": report.fail_count,
        }
        return _emit_records(payload, fmt)
    rows = [
        [
            str(c.spec.n),
            str(c.spec.k),
            str(c.spec.m),
            rational_str(c.oracle_area),
            rational_str(c.closed_area),
            "MATCH" if c.match else "MISMATCH",
            c.note,
        ]
        for c in report.cells
    ]
    table = _markdown_table(["n", "k", "m", "oracle", "closed", "match", "note"], rows)
    return (
        f"grid: {report.grid}\n"
        f"pass_count: {report.pass_count}\n"
        f"fail_count: {report.fail_count}\n\n" + table + "\n"
    )


def render_polygonal_table(table: PolygonalTable, fmt: str) -> str:
    if fmt != "markdown":
        payload = {
            "m_values": list(table.m_values),
            "ranks": list(table.ranks),
            "cells": [
                {
                    "m": c.m,
                    "rank": c.rank,
                    "coefficient": c.coefficient,
                    "published": c.published,
                    "match": c.match,
                }
                for c in table.cells
            ],
        }
        return _emit_records(payload, fmt)
    header = ["m"] + [rank_name(r) for r in table.ranks]
    cells = iter(table.cells)  # stored m-major: one run of len(ranks) per m
    rows = [
        [str(m)] + [str(next(cells).coefficient) for _ in table.ranks]
        for m in table.m_values
    ]
    checked = [c for c in table.cells if c.match is not None]
    lines = [
        "Coefficient of k^4 in the m-gon area on polygonal-number vertices",
        "",
        _markdown_table(header, rows),
        "",
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
        payload = {
            "n": table.n,
            "k_max": table.k_max,
            "padovan_initial": list(table.padovan_initial),
            "cells": [
                {
                    "column": c.column,
                    "k": c.k,
                    "computed": rational_str(c.computed),
                    "published": _optional_str(c.published),
                    "status": c.status,
                }
                for c in table.cells
            ],
        }
        return _emit_records(payload, fmt)

    def cell_text(c: ThirdOrderCell) -> str:
        text = rational_str(c.computed)
        if c.status and c.published is not None and c.computed != c.published:
            return f"{text} [{c.status}; published {rational_str(c.published)}]"
        if c.status:
            return f"{text} [{c.status}]"
        return text

    initial = ",".join(str(v) for v in table.padovan_initial)
    # The cells are stored k-major, one run of three columns per k.
    texts = [cell_text(c) for c in table.cells]
    rows = [[str(k)] + texts[3 * k - 3 : 3 * k] for k in range(1, table.k_max + 1)]
    title = (
        f"Triangle areas on third-order sequence vertices, "
        f"n={table.n}, k=1..{table.k_max} (padovan initial {initial})"
    )
    body = _markdown_table(["k", "Tribonacci", "Perrin", "Padovan"], rows)
    return f"{title}\n\n{body}\n"


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
    family = resolve_family(args)
    spec = PolygonSpec(family, args.n, args.k, args.m)
    check_term_budget(spec.max_index)
    oracle = closed = None
    if args.method in ("oracle", "both"):
        oracle = shoelace_area(build_vertices(spec))
    if args.method in ("closed", "both"):
        closed = closed_area_for(family, args.k, args.m)
    _emit(render_area(spec, args.method, oracle, closed, args.format), args.out)
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

"""The argparse parser that ``seqarea.cli`` used before its option table,
kept verbatim as the reference the table parser is checked against.  Only
tests import it."""

from __future__ import annotations

import argparse
import functools

from seqarea.cli import (
    FAMILY_NAMES,
    _cmd_area,
    _cmd_gen,
    _cmd_polygonal_table,
    _cmd_third_order_table,
    _cmd_verify,
    parse_range,
    parse_triple,
)


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
